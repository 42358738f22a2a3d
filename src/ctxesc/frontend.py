"""Template parsing and desugaring.

Template files start with ``tag: <name>``; every following non-blank line
carries a margin character: ``"`` for content (literal text plus ``${path}``
interpolations, each line contributing a trailing newline) or ``:`` for
statement fragments (``for x of path {``, ``if path {``, ``} else {``,
``}``) which must form balanced blocks, at most MAX_BLOCK_DEPTH deep.

The parser emits the append program itself: a reducible control-flow graph
of fixed and unsafe appends (literals feed appendFixed, interpolations feed
appendUnsafe). Loop and branch nodes carry their bodies, so the loop
header/back-edge and branch/join structure is implicit and unique.
Desugaring only closes the program with its single exit, the Collected
node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagnostics import Diagnostic, Position, Severity, error
from .plan import _NAME, PATH_RE

_FOR_RE = re.compile(rf"for\s+({_NAME})\s+of\s+(\S+)\s*\{{$")
_IF_RE = re.compile(r"if\s+(\S+)\s*\{$")
_ELSE_RE = re.compile(r"\}\s*else\s*\{$")
_END_RE = re.compile(r"\}$")

# Deeper blocks are a parse error. The plan serializer, the plan loader and
# both renderers recurse once per level, so this keeps them at least 3x clear
# of the default recursion limit.
MAX_BLOCK_DEPTH = 100


# -- append program ----------------------------------------------------------

@dataclass(eq=False)
class AppendFixed:
    text: str
    pos: Position


@dataclass(eq=False)
class AppendUnsafe:
    path: str
    pos: Position


@dataclass(eq=False)
class LoopBlock:
    var: str
    path: str
    body: list
    pos: Position


@dataclass(eq=False)
class BranchBlock:
    path: str
    then: list
    els: list
    pos: Position


@dataclass(eq=False)
class Collected:
    pos: Position


@dataclass
class TemplateIR:
    """The parsed, still open program: appends and blocks, no Collected."""

    tag: str
    body: list
    filename: str = "<template>"


@dataclass
class AppendProgram:
    tag: str
    body: list  # ends with Collected


def _content_nodes(text: str, pos: Position, diags: list[Diagnostic]) -> list:
    """Split one content line into AppendFixed and AppendUnsafe nodes.
    ``$${`` is the escape for a literal ``${``; the line's trailing newline
    is folded into the final literal."""
    if "$" not in text:
        return [AppendFixed(text + "\n", pos)]
    nodes: list = []
    buf: list[str] = []
    buf_start = 0
    i = 0

    def flush_literal(extra: str = ""):
        if buf or extra:
            nodes.append(AppendFixed("".join(buf) + extra,
                                     Position(pos.file, pos.line, pos.col + buf_start)))
        buf.clear()

    while (j := text.find("$", i)) >= 0:
        if j > i:
            buf.append(text[i:j])
        i = j
        if text.startswith("$${", i):
            # the literal ends here, so the next one's columns count from the source
            buf.append("${")
            flush_literal()
            i += 3
            buf_start = i
            continue
        if text.startswith("${", i):
            end = text.find("}", i + 2)
            if end < 0:
                diags.append(error("malformed interpolation: missing '}'",
                                   Position(pos.file, pos.line, pos.col + i)))
                return nodes
            expr = text[i + 2:end].strip()
            if not PATH_RE.fullmatch(expr):
                if "(" in expr:
                    msg = f"method calls are not supported in interpolations: {expr!r}"
                else:
                    msg = f"invalid interpolation path: {expr!r}"
                diags.append(error(msg, Position(pos.file, pos.line, pos.col + i)))
                return nodes
            flush_literal()
            nodes.append(AppendUnsafe(expr, Position(pos.file, pos.line, pos.col + i)))
            i = end + 1
            buf_start = i
            continue
        buf.append("$")
        i += 1
    if i < len(text):
        buf.append(text[i:])
    flush_literal(extra="\n")
    return nodes


def parse_template(source: str, filename: str = "<template>"):
    """Parse template text. Returns (TemplateIR | None, diagnostics)."""
    diags: list[Diagnostic] = []
    lines = source.splitlines()
    if not lines:
        diags.append(error("empty template: expected 'tag: <name>' on line 1",
                           Position(filename, 1, 1)))
        return None, diags
    m = re.fullmatch(r"tag:\s*([A-Za-z_]\w*)\s*", lines[0])
    if not m:
        diags.append(error("first line must be 'tag: <name>'", Position(filename, 1, 1)))
        return None, diags
    tag = m.group(1)

    root: list = []
    # stack of (node, active_body, opener_pos, kind)
    stack: list[tuple] = []

    def current_body() -> list:
        return stack[-1][1] if stack else root

    def open_block(node, body, pos, kind):
        if len(stack) == MAX_BLOCK_DEPTH:
            # only the first opener past the bound is reported; deeper ones
            # still nest so that their closers balance
            diags.append(error(f"statement blocks nest more than {MAX_BLOCK_DEPTH} "
                               "levels deep", pos))
        current_body().append(node)
        stack.append((node, body, pos, kind))

    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.lstrip(" \t")
        if not stripped:
            continue
        indent = len(raw) - len(stripped)
        margin, rest = stripped[0], stripped[1:]
        if margin == '"':
            content_pos = Position(filename, lineno, indent + 2)
            current_body().extend(_content_nodes(rest, content_pos, diags))
            continue
        margin_pos = Position(filename, lineno, indent + 1)
        if margin == ":":
            stmt = rest.strip()
            if m := _FOR_RE.fullmatch(stmt):
                var, path = m.group(1), m.group(2)
                if not PATH_RE.fullmatch(path):
                    diags.append(error(f"invalid loop path: {path!r}", margin_pos))
                    continue
                node = LoopBlock(var, path, [], margin_pos)
                open_block(node, node.body, margin_pos, "for")
            elif m := _IF_RE.fullmatch(stmt):
                path = m.group(1)
                if not PATH_RE.fullmatch(path):
                    diags.append(error(f"invalid condition path: {path!r}", margin_pos))
                    continue
                node = BranchBlock(path, [], [], margin_pos)
                open_block(node, node.then, margin_pos, "if")
            elif _ELSE_RE.fullmatch(stmt):
                if not stack or stack[-1][3] != "if":
                    diags.append(error("'} else {' without a matching 'if'", margin_pos))
                    continue
                node, _, opos, _ = stack.pop()
                stack.append((node, node.els, opos, "else"))
            elif _END_RE.fullmatch(stmt):
                if not stack:
                    diags.append(error("unbalanced statement block: '}' without an opener",
                                       margin_pos))
                    continue
                stack.pop()
            else:
                diags.append(error(f"unknown statement: {stmt!r}", margin_pos))
        else:
            diags.append(error(f"unknown margin character {margin!r} "
                               "(expected '\"' or ':')", margin_pos))

    for _, _, opos, kind in stack:
        diags.append(error(f"unbalanced statement block: this '{kind}' is never closed", opos))

    if any(d.severity is Severity.ERROR for d in diags):
        return None, diags
    return TemplateIR(tag, root, filename), diags


def desugar(ir: TemplateIR) -> AppendProgram:
    """Close the parsed program: a new body of the parsed nodes plus the
    Collected exit, one line past the last node. Nodes are in line order, so
    the last one ends the last block that ends the body. ``ir.body`` is not
    changed."""
    last_line, nodes = 1, ir.body
    while nodes:
        node = nodes[-1]
        last_line = node.pos.line
        nodes = (node.body if isinstance(node, LoopBlock) else
                 node.els or node.then if isinstance(node, BranchBlock) else ())
    collected = Collected(Position(ir.filename, last_line + 1, 1))
    return AppendProgram(ir.tag, [*ir.body, collected])
