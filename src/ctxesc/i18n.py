"""Message extraction and translation re-application.

Rendered output carries marks delimiting translatable messages and the
interpolations inside them. Extraction replaces each interpolation span with
a numbered placeholder; applying a translation substitutes the original,
already-escaped span bytes back into the translated pattern. What it
enforces is that the pattern uses each placeholder exactly once. It does not
run the context machine over the translated fixed text, so a pattern that
moves a span into another context (an unquoted attribute, say) gets bytes
escaped for the span's original context.
"""

from __future__ import annotations

import json
import re

from .diagnostics import CompositionError
from .marks import EXPR_END, EXPR_START, MSG_END, MSG_START, nest_messages

_PLACEHOLDER_RE = re.compile(r"\{(\d+)\}")


class ExtractionError(CompositionError):
    pass


class TranslationError(CompositionError):
    pass


def _message_spans(marks):
    """Yield (ident, msg_start, msg_end, [(expr_start, expr_end), ...]) for
    marks whose messages nest as ``nest_messages`` requires (as a render's
    do) and whose interpolation spans pair up inside a message."""
    # sorted() is stable, so marks at equal offsets keep emission order
    ordered = sorted(marks, key=lambda m: m.offset)
    in_message, problem = nest_messages(False, ordered)
    if problem:
        raise ExtractionError(problem)
    start = open_expr = None
    for mark in ordered:
        if mark.kind == MSG_START:
            ident, start, exprs = mark.ident, mark.offset, []
        elif start is None or (mark.kind == EXPR_END) == (open_expr is None):
            raise ExtractionError(
                f"overlapping or unpaired interpolation spans at offset {mark.offset}")
        elif mark.kind == MSG_END:
            yield ident, start, mark.offset, exprs
            start = None
        elif mark.kind == EXPR_START:
            open_expr = mark.offset
        else:
            exprs.append((open_expr, mark.offset))
            open_expr = None
    if in_message:
        raise ExtractionError(f"message {ident!r} is never closed")


def extract_messages(text: str, marks) -> dict[str, str]:
    """Build a message bundle from rendered output: each message's text with
    interpolation spans replaced by ``{0}``, ``{1}``, ... in order."""
    bundle: dict[str, str] = {}
    for ident, start, end, exprs in _message_spans(marks):
        parts = []
        cursor = start
        for i, (es, ee) in enumerate(exprs):
            parts.append(text[cursor:es])
            parts.append("{%d}" % i)
            cursor = ee
        parts.append(text[cursor:end])
        pattern = "".join(parts)
        if ident in bundle and bundle[ident] != pattern:
            raise ExtractionError(
                f"message id {ident!r} extracted twice with different text")
        bundle[ident] = pattern
    return bundle


def bundle_to_json(bundle: dict[str, str]) -> str:
    return json.dumps(bundle, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def _check_placeholders(reference_count: int, pattern: str, ident: str):
    found = [int(m.group(1)) for m in _PLACEHOLDER_RE.finditer(pattern)]
    expected = list(range(reference_count))
    missing = sorted(set(expected) - set(found))
    extra = sorted(set(found) - set(expected))
    if missing or extra:
        bits = []
        if missing:
            bits.append("missing " + ", ".join("{%d}" % n for n in missing))
        if extra:
            bits.append("unknown " + ", ".join("{%d}" % n for n in extra))
        raise TranslationError(f"placeholder mismatch in {ident!r}: " + "; ".join(bits))
    if len(found) != len(set(found)):
        raise TranslationError(f"repeated placeholder in translation of {ident!r}")


def substitute_placeholders(pattern: str, spans: list[str], ident: str = "<pattern>") -> str:
    """Fill a translated pattern with the original escaped span texts. The
    pattern must use each placeholder exactly once."""
    _check_placeholders(len(spans), pattern, ident)
    return _PLACEHOLDER_RE.sub(lambda m: spans[int(m.group(1))], pattern)


def apply_translation(text: str, marks, message_id: str, pattern: str) -> str:
    """Re-render one message span with translated fixed text, splicing the
    original interpolation spans at their new positions. Returns the whole
    buffer with the span replaced."""
    for ident, start, end, exprs in _message_spans(marks):
        if ident != message_id:
            continue
        spans = [text[es:ee] for es, ee in exprs]
        replaced = substitute_placeholders(pattern, spans, ident)
        return text[:start] + replaced + text[end:]
    raise TranslationError(f"no message with id {message_id!r} in the rendered output")
