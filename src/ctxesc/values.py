"""Render-time values: plain data plus trademarked safe content.

A value is one of: str, bool, int, float, list, dict, None, or SafeContent.
Ordinary ingestion (JSON bindings) produces plain data; SafeContent is only
produced by a machine's collected() output or built explicitly by code that
vouches for the text.
"""

from __future__ import annotations

import json

from .records import FrozenRecord


class EscapeError(Exception):
    """A value cannot be converted to text in the requested context."""


class SafeContent(FrozenRecord):
    """Text attested to be safe for a named content language."""

    __slots__ = _fields = ("language", "text")

    def __init__(self, language: str, text: str):
        _set_language(self, language)
        _set_text(self, text)


# every render builds one; see marks.Mark
_set_language, _set_text = SafeContent.language.__set__, SafeContent.text.__set__


def stringify(value) -> str:
    """Text form of a scalar value, or of a SafeContent's text.

    Numbers use their shortest round-trip decimal form; booleans are
    ``true``/``false``. Lists, records, and null have no unambiguous text
    form and are rejected.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, SafeContent):
        # SafeContent does not check its text, so text that is not a str
        # gets the text form, or the EscapeError, of the value it is
        return stringify(value.text)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        try:
            return repr(value) if isinstance(value, float) else str(value)
        except ValueError as exc:  # an int past sys.get_int_max_str_digits()
            raise EscapeError(f"cannot render a number as text: {exc}") from None
    if value is None:
        raise EscapeError("cannot render null as text")
    raise EscapeError(f"cannot render a {type(value).__name__} as text")


def truthy(value) -> bool:
    """Condition semantics: false, empty string, 0, empty list, and absent
    (None) are false; everything else, including SafeContent, is true."""
    if value is None or value is False:
        return False
    if isinstance(value, (str, list)):
        return len(value) > 0
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return True


def _decode(obj):
    if isinstance(obj, dict):
        if "$safe" in obj:
            language, content = obj["$safe"], obj.get("content")
            if len(obj) != 2 or not isinstance(language, str) or not isinstance(content, str):
                raise ValueError('a "$safe" binding must be {"$safe": string, "content": string}')
            return SafeContent(language, content)
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


def bindings_from_json(text: str) -> dict:
    """Parse a bindings document.

    The object form ``{"$safe": "html", "content": "..."}`` constructs
    SafeContent and is trusted input by definition; any other object with a
    ``$safe`` key is a ValueError. A document nested past the recursion
    limit is a ValueError like any other malformed one.
    """
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("bindings document must be a JSON object")
        return _decode(obj)
    except RecursionError:
        # json.loads and _decode both recurse once per nesting level
        raise ValueError("bindings nest too deeply to load") from None
