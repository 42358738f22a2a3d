"""Positions, diagnostics, and the error types shared across the package."""

from __future__ import annotations

import enum

from .records import FrozenRecord, slot_setters


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


class Position(FrozenRecord):
    __slots__ = _fields = ("file", "line", "col")

    def __init__(self, file: str, line: int, col: int):
        _set_file(self, file)
        _set_line(self, line)
        _set_col(self, col)

    def advance(self, text: str) -> "Position":
        """Position after consuming ``text`` starting here."""
        n = text.count("\n")
        if n:
            return Position(self.file, self.line + n, len(text) - text.rindex("\n"))
        return Position(self.file, self.line, self.col + len(text))

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


_set_file, _set_line, _set_col = slot_setters(Position)  # the parser and machine build many


class Diagnostic(FrozenRecord):
    __slots__ = _fields = ("severity", "message", "position")

    def __init__(self, severity: Severity, message: str, position: Position):
        object.__setattr__(self, "severity", severity)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "position", position)

    def __str__(self) -> str:
        return f"{self.position}: {self.severity.value}: {self.message}"


def has_errors(diagnostics) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def warning(message: str, position: Position) -> Diagnostic:
    return Diagnostic(Severity.WARNING, message, position)


def error(message: str, position: Position) -> Diagnostic:
    return Diagnostic(Severity.ERROR, message, position)


class CompositionError(Exception):
    """Base for errors raised by this package."""


class TableError(CompositionError):
    """A transition table failed to parse, validate, or link."""


class PlanError(CompositionError):
    """A compiled plan is malformed or was requested despite blocking errors."""


class RenderError(CompositionError):
    """Rendering failed; no partial output is produced."""

    def __init__(self, message: str, position: Position | None = None):
        self.position = position
        self.message = message
        super().__init__(f"{position}: {message}" if position else message)
