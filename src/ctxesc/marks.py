"""Buffer marks delimiting translatable messages and their interpolations."""

from __future__ import annotations

from .records import FrozenRecord

MSG_START = "MsgStart"
MSG_END = "MsgEnd"
EXPR_START = "ExprStart"
EXPR_END = "ExprEnd"

MARK_KINDS = (MSG_START, MSG_END, EXPR_START, EXPR_END)
# the kinds table rows emit into literal text, and so the only ones a compiled
# plan holds; Collector.append_value adds the Expr marks around each value
LITERAL_MARK_KINDS = (MSG_START, MSG_END)


class Mark(FrozenRecord):
    __slots__ = _fields = ("kind", "offset", "ident")

    def __init__(self, kind: str, offset: int, ident: str | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "ident", ident)

    def shifted(self, base: int) -> "Mark":
        return Mark(self.kind, self.offset + base, self.ident)
