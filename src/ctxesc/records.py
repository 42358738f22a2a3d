"""Plain slotted records with value semantics for the modules a plan render
imports, where loading and applying ``dataclasses`` would add milliseconds
to every cold ``ctxesc render``. A subclass declares its slots and names
its value fields in ``_fields``, in constructor order; ``_values(record)``
reads them in C, one ``attrgetter`` per class. Records of one type are
equal when their field values are; copies and pickles go through the
constructor. A ``FrozenRecord`` is hashable and read-only (its ``__init__``
sets fields through ``object.__setattr__``, or, on a hot path, through
``slot_setters``); a ``Record`` is neither."""

from operator import attrgetter


def slot_setters(cls) -> list:
    """The ``__set__`` of each of ``cls``'s slot descriptors, in slot order:
    they set a field in about two thirds of ``object.__setattr__``'s time."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls):
        fields = cls._fields  # an attrgetter is no descriptor, and of one name gives no tuple
        cls._values = (attrgetter(*fields) if len(fields) > 1 else
                       staticmethod(lambda record: tuple([getattr(record, f) for f in fields])))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of a frozen record cannot change")

    __delattr__ = __setattr__
