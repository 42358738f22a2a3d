"""Buffer marks delimiting translatable messages and their interpolations."""

from __future__ import annotations

from .records import FrozenRecord, slot_setters

MSG_START = "MsgStart"
MSG_END = "MsgEnd"
EXPR_START = "ExprStart"
EXPR_END = "ExprEnd"

MARK_KINDS = (MSG_START, MSG_END, EXPR_START, EXPR_END)
# the kinds table rows emit into literal text, and so the only ones a compiled
# plan holds; both engines add the Expr marks around each value inside a message
LITERAL_MARK_KINDS = (MSG_START, MSG_END)


class Mark(FrozenRecord):
    __slots__ = _fields = ("kind", "offset", "ident")

    def __init__(self, kind: str, offset: int, ident: str | None = None):
        _set_kind(self, kind)
        _set_offset(self, offset)
        _set_ident(self, ident)

    def shifted(self, base: int) -> "Mark":
        return Mark(self.kind, self.offset + base, self.ident)


_set_kind, _set_offset, _set_ident = slot_setters(Mark)  # a render builds one per output mark


def nest_messages(is_open: bool, marks) -> tuple[bool, str | None]:
    """Whether a message is open after ``marks``, given whether one is open
    before them, and what is wrong with the first message mark that does not
    nest (it leaves the state as it is), or None. Both engines and the plan
    loader also require a loop body or branch arm to end as it started."""
    problem = None
    for mark in marks:
        if mark.kind == MSG_START or mark.kind == MSG_END:
            if (mark.kind == MSG_START) != is_open:
                is_open = not is_open
            elif problem is None:
                problem = (f"message {mark.ident!r} starts inside another message" if is_open
                           else "message end without a message start")
    return is_open, problem


def body_change(where: str, is_open: bool) -> str:
    """The problem with a loop body or branch arm (``where``) that ends with
    a message open (``is_open``) or closed, but started the other way."""
    return f"{where} {'leaves a message open' if is_open else 'closes a message opened before it'}"
