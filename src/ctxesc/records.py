"""Plain slotted records with value semantics for the modules a plan render
imports, where loading and applying ``dataclasses`` would add milliseconds
to every cold ``ctxesc render``. A subclass declares its slots and names
its value fields in ``_fields``, in constructor order. Records of one type
are equal when their field values are; copies and pickles go through the
constructor. A ``FrozenRecord`` is hashable and read-only (its ``__init__``
sets fields through ``object.__setattr__``, or, where construction is on the
render path, through the slot descriptors' ``__set__``); a ``Record`` is
neither."""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of a frozen record cannot change")

    __delattr__ = __setattr__
