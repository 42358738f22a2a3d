"""Compiled plans: the plan nodes, plan JSON, and plan execution.

A plan is what erasure leaves of a template: literal chunks that already
carry every substitution the context machine would have made, and
interpolations with statically chosen escaper chains, inside loops and
branches. Rendering one needs path lookup, escapers and appends only, so
this module imports nothing from the machine, the tables or the front end.

execute_plan lowers a plan once, on its first render, into nested closures:
every literal becomes an append, every escaper chain one composed function,
and every path a lookup whose loop frame was resolved while lowering.
Messages nest (the compiler and the plan loader reject marks that do not),
so each mark's place in its run of literals and values is known while
lowering: the marks of the plan's first run that no value precedes are
built then, and any other run with marks records one row per execution,
which the render expands at its end. A loop renders on one of two paths.
A loop outside any message whose body holds only literals without marks
and interpolations renders a list of two or more items column by column,
with C-level iteration, when every value a field path passes through is
exactly a dict; otherwise, or if that attempt raises, it walks the items.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable
from itertools import accumulate, repeat, takewhile

from .diagnostics import PlanError, Position, RenderError
from .escapers import chain
from .escapers import get as get_escaper
from .marks import EXPR_END, EXPR_START, LITERAL_MARK_KINDS, Mark, body_change, nest_messages
from .records import Record
from .values import EscapeError, SafeContent, bindings_from_json, truthy

_encode_str = json.encoder.encode_basestring

# The template path grammar: a loop variable or binding name, then fields.
_NAME = r"[A-Za-z_]\w*"
_NAME_RE = re.compile(_NAME)
PATH_RE = re.compile(rf"{_NAME}(?:\.{_NAME})*")

# -- render state --------------------------------------------------------------

class Bindings(Record):
    """Named values available to interpolation paths."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: dict | None = None):
        self.values = {} if values is None else values

    @classmethod
    def from_json(cls, text: str) -> "Bindings":
        return cls(bindings_from_json(text))


def check_bindings(bindings) -> None:
    """Reject a render's bindings argument that is not a Bindings (a plain
    dict is the likely mistake) before any node reads it."""
    if not isinstance(bindings, Bindings):
        raise TypeError(f"bindings must be a ctxesc Bindings, not {type(bindings).__name__}; "
                        "wrap a dict of values as Bindings(values)")


def resolve_segs(segs, bindings: Bindings, frames: list[dict],
                 pos: Position, strict: bool = True):
    """Dotted path lookup on pre-split segments: loop frames shadow the root
    bindings. With strict=False an absent path yields None (condition
    semantics) instead of a render error."""
    head = segs[0]
    scope = None
    for frame in reversed(frames):
        if head in frame:
            scope = frame
            break
    if scope is None:
        if head in bindings.values:
            scope = bindings.values
        elif strict:
            raise RenderError(f"unbound path {'.'.join(segs)!r}", pos)
        else:
            return None
    cur = scope[head]
    for seg in segs[1:]:
        if isinstance(cur, dict) and seg in cur:
            cur = cur[seg]
        elif strict:
            raise RenderError(
                f"unbound path {'.'.join(segs)!r} (no field {seg!r})", pos)
        else:
            return None
    return cur


# -- plan nodes ------------------------------------------------------------------

class _Site(Record):
    """``pos`` is the template position the node was compiled from; a plan
    loaded from JSON has none, and its render errors name ``<plan>:0:0``.
    Copies keep it; ``==``, repr and plan JSON leave it out."""

    __slots__ = ("pos",)

    def __reduce__(self):
        return self.__class__, self._values(self), (None, {"pos": self.pos})


class Lit(Record):
    __slots__ = _fields = ("text", "marks")

    def __init__(self, text: str, marks: tuple[Mark, ...] = ()):
        self.text, self.marks = text, marks


class PlanInterp(_Site):
    __slots__ = _fields = ("path", "escapers")

    def __init__(self, path: str, escapers: tuple[str, ...], *, pos: Position | None = None):
        self.path, self.escapers, self.pos = path, escapers, pos


class PlanFor(_Site):
    __slots__ = _fields = ("var", "path", "body")

    def __init__(self, var: str, path: str, body: list, *, pos: Position | None = None):
        self.var, self.path, self.body, self.pos = var, path, body, pos


class PlanIf(_Site):
    __slots__ = _fields = ("path", "then", "els")

    def __init__(self, path: str, then: list, els: list, *, pos: Position | None = None):
        self.path, self.then, self.els, self.pos = path, then, els, pos


class CompiledPlan(Record):
    """Erased output, free of contexts and machines: literal chunks carry
    every substitution the machine would have made. ``lowered`` is the render
    function execute_plan builds on first use; ``==`` and copies leave it out."""

    _fields = ("language", "body")
    __slots__ = (*_fields, "lowered")

    def __init__(self, language: str, body: list):
        self.language, self.body, self.lowered = language, body, None

    def to_json(self) -> str:
        return plan_to_json(self)


# -- plan serialization -------------------------------------------------------

# A plan document is the text json.dumps(doc, ensure_ascii=False, indent=2)
# writes for a dict tree {"language", "body", "marks"}, written here straight
# from the nodes: with an indent, json.dumps encodes in pure Python.

_AT = "\n        "  # the indent of a mark row's "at" steps


def _list_json(items, nl: str) -> str:
    """A list of encoded items whose "[" is on a line starting with ``nl``."""
    if not items:
        return "[]"
    return f"[{nl}  " + f",{nl}  ".join(items) + f"{nl}]"


def _body_json(body, nl: str, at: str, rows: list) -> str:
    """``body`` as plan JSON at indent ``nl``; each literal with marks adds
    (its "at" steps, joined, and its marks) to ``rows``, in document order.
    ``at`` is the body's own steps, each followed by a separator."""
    n1, n2, n3 = nl + "  ", nl + "    ", nl + "      "
    items = []
    for i, node in enumerate(body):
        if isinstance(node, Lit):
            if node.marks:
                rows.append((f"{at}{i}", node.marks))
            items.append(f'{{{n2}"lit": {_encode_str(node.text)}{n1}}}')
        elif isinstance(node, PlanInterp):
            escapers = _list_json([_encode_str(name) for name in node.escapers], n3)
            items.append(f'{{{n2}"interp": {{{n3}"path": {_encode_str(node.path)},'
                         f'{n3}"escapers": {escapers}{n2}}}{n1}}}')
        elif isinstance(node, PlanFor):
            inner = _body_json(node.body, n3, f'{at}{i},{_AT}"body",{_AT}', rows)
            items.append(f'{{{n2}"for": {{{n3}"var": {_encode_str(node.var)},'
                         f'{n3}"path": {_encode_str(node.path)},{n3}"body": {inner}{n2}}}{n1}}}')
        elif isinstance(node, PlanIf):
            then = _body_json(node.then, n3, f'{at}{i},{_AT}"then",{_AT}', rows)
            els = _body_json(node.els, n3, f'{at}{i},{_AT}"else",{_AT}', rows)
            items.append(f'{{{n2}"if": {{{n3}"path": {_encode_str(node.path)},'
                         f'{n3}"then": {then},{n3}"else": {els}{n2}}}{n1}}}')
        else:
            raise TypeError(f"unexpected plan node {node!r}")
    return _list_json(items, nl)


def plan_to_json(plan: CompiledPlan) -> str:
    rows: list = []
    body = _body_json(plan.body, "\n  ", "", rows)
    marks = []
    for at, row_marks in rows:
        for mark in row_marks:
            ident = "" if mark.ident is None else f',\n      "id": {_encode_str(mark.ident)}'
            marks.append(f'{{\n      "at": [{_AT}{at}\n      ],\n      "offset": {mark.offset},'
                         f'\n      "kind": {_encode_str(mark.kind)}{ident}\n    }}')
    marks = _list_json(marks, "\n  ")
    return (f'{{\n  "language": {_encode_str(plan.language)},\n  "body": {body},'
            f'\n  "marks": {marks}\n}}\n')


def _str_field(payload: dict, key: str, kind: str, grammar: re.Pattern) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not grammar.fullmatch(value):
        raise PlanError(f"{kind!r} node has a malformed {key!r}: {value!r}")
    return value


def _body_from_obj(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise PlanError(f"{where} must be a list of plan nodes, got {obj!r}")
    return [_node_from_obj(n) for n in obj]


def _node_from_obj(obj) -> object:
    """One node of an untrusted plan document: every payload key and type
    is checked and every escaper name resolved, so a bad plan raises
    PlanError here and never a KeyError at render time."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise PlanError(f"malformed plan node: {obj!r}")
    (kind, payload), = obj.items()
    if kind == "lit":
        if not isinstance(payload, str):
            raise PlanError(f"'lit' node needs a string, got {payload!r}")
        return Lit(payload)
    if kind not in ("interp", "for", "if"):
        raise PlanError(f"unknown plan node kind {kind!r}")
    if not isinstance(payload, dict):
        raise PlanError(f"{kind!r} node needs an object, got {payload!r}")
    path = _str_field(payload, "path", kind, PATH_RE)
    if kind == "interp":
        names = payload.get("escapers")
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise PlanError(f"'interp' node at path {path!r} needs a list of escaper names")
        for name in names:
            try:
                get_escaper(name)
            except KeyError:
                raise PlanError(f"unknown escaper {name!r} at path {path!r}") from None
        return PlanInterp(path, tuple(names))
    if kind == "for":
        return PlanFor(_str_field(payload, "var", kind, _NAME_RE), path,
                       _body_from_obj(payload.get("body"), "'for' body"))
    return PlanIf(path, _body_from_obj(payload.get("then"), "'if' then"),
                  _body_from_obj(payload.get("else", []), "'if' else"))


_MARK_STEPS = {"body": "body", "then": "then", "else": "els"}


def plan_from_json(text: str) -> CompiledPlan:
    """Load an untrusted plan document; every defect raises PlanError."""
    try:
        return _plan_from_doc(json.loads(text))
    except json.JSONDecodeError as exc:
        raise PlanError(f"plan is not valid JSON: {exc}") from None
    except RecursionError:
        # json.loads, the body parse and error-message reprs recurse per level
        raise PlanError("plan nests too deeply to load") from None


def _plan_from_doc(doc) -> CompiledPlan:
    if not isinstance(doc, dict) or "language" not in doc or "body" not in doc:
        raise PlanError("plan document must have 'language' and 'body'")
    if not isinstance(doc["language"], str):
        raise PlanError(f"plan 'language' must be a string, got {doc['language']!r}")
    plan = CompiledPlan(doc["language"], _body_from_obj(doc["body"], "plan body"))
    rows = doc.get("marks", [])
    if not isinstance(rows, list):
        raise PlanError(f"plan 'marks' must be a list, got {rows!r}")
    for row in rows:
        # bool is an int subclass, and no compiled plan holds true or false
        if not (isinstance(row, dict) and isinstance(row.get("at"), list)
                and type(row.get("offset")) is int and row.get("kind") in LITERAL_MARK_KINDS
                and isinstance(row.get("id", ""), str)):
            raise PlanError(f"malformed mark row: {row!r}")
        node = plan.body
        for step in row["at"]:
            try:
                if type(step) is int and step >= 0:
                    node = node[step]
                else:
                    node = getattr(node, _MARK_STEPS[step])
            except (IndexError, KeyError, TypeError, AttributeError):
                raise PlanError(f"bad mark path step {step!r}") from None
        if not isinstance(node, Lit):
            raise PlanError("mark path does not address a literal node")
        if not 0 <= row["offset"] <= len(node.text):
            raise PlanError(f"mark offset {row['offset']} lies outside its literal "
                            f"of length {len(node.text)}")
        node.marks = node.marks + (Mark(row["kind"], row["offset"], row.get("id")),)
    _message_open_after(plan.body)
    return plan


def _message_open_after(body, is_open: bool = False) -> bool:
    """Whether a message is open after ``body``, given whether one is open
    where it starts; PlanError where its message marks do not nest (see
    ``marks.nest_messages``)."""
    for node in body:
        if isinstance(node, Lit):
            is_open, problem = nest_messages(is_open, node.marks)
            if problem:
                raise PlanError(problem)
        elif isinstance(node, PlanFor):
            if _message_open_after(node.body, is_open) != is_open:
                raise PlanError(body_change("loop body", not is_open))
        elif isinstance(node, PlanIf):
            for arm in (node.then, node.els):
                if _message_open_after(arm, is_open) != is_open:
                    raise PlanError(body_change("branch", not is_open))
    return is_open


# -- plan execution ----------------------------------------------------------
# A lowered body is a tuple of steps, each called as step(out, scope). ``out``
# is the output list's append. ``scope`` is [root bindings, item of the loop
# at depth 1, at depth 2, ...]: a loop frame binds only its own variable, so
# which frame a path's head names is known while lowering.
#
# A literal or value step appends one part, so a run (a longest stretch of
# literals and values) has a spec, one (kind, offset, values, ident) per mark
# in output order: a mark lies ``offset`` plus the lengths of the run's parts
# at indices ``values`` (and at earlier marks') past the run's start. Around
# a value inside a message go ExprStart and ExprEnd. The plan's first run
# starts at part 0, so its marks that no value precedes are built at
# lowering; a plan with marks in any other run adds one last scope slot,
# (output list, mark rows), where such a run appends (its start, its spec).
#
# A loop step first tries its column render, if it has one: lowering gives
# one to each loop outside any message whose body holds only literals
# without marks and interpolations. It renders a list of two or more items
# at once (one item has no column to share a pass): a column of lookups per
# field on the loop variable, each site's chain mapped over its column,
# other sites escaped once, and one output list made by repeating the
# body's literals once per item and writing each site's column into its
# slots. It raises where the item walk might differ (an item or field value
# that is not exactly a dict, a missing field, any escaper error), and the
# step then walks the items from the first, which raises the first error in
# item and then site order. Nothing of a failed attempt is appended;
# escapers are pure, so calling one again gives the same text.

_PLAN_POS = Position("<plan>", 0, 0)
_END = object()  # after a body's last node: _lower_body ends its last run there


def execute_plan(plan: CompiledPlan, bindings: Bindings):
    """Render a plan: literals are appended directly, interpolations go
    through their named escapers. No machine transitions happen here.

    Returns (SafeContent, marks).
    """
    check_bindings(bindings)
    render = plan.lowered
    if render is None:
        # escapers are bound at first render, not at load: the registry then
        # decides. A racing first render builds an equal function.
        render = plan.lowered = _lower(plan)
    return render(bindings)


def _lower(plan: CompiledPlan) -> Callable:
    _message_open_after(plan.body)
    steps, depth, _, lead, marked = _lower_body(plan.body, {}, 0, False, True)
    language, pad = plan.language, (None,) * depth
    fixed = tuple(Mark(kind, at, ident) for kind, at, _, ident
                  in takewhile(lambda spec: not spec[2], lead))
    lead = ((0, lead[len(fixed):]),) if lead[len(fixed):] else ()

    if marked:
        def render(bindings):
            parts, rows = [], [*lead]
            scope = [bindings.values, *pad, (parts, rows)]
            out = parts.append
            for step in steps:
                step(out, scope)
            return SafeContent(language, "".join(parts)), _place(parts, fixed, rows)
    else:
        def render(bindings):
            parts, scope = [], [bindings.values, *pad]
            out = parts.append
            for step in steps:
                step(out, scope)
            return (SafeContent(language, "".join(parts)),
                    _place(parts, fixed, lead) if lead else fixed)
    return render


def _place(parts: list, fixed: tuple, rows) -> tuple:
    """``fixed``, then the marks of the mark ``rows``, in output order."""
    marks = [*fixed]
    starts = [0, *accumulate(map(len, parts))] if rows and rows[-1][0] else (0,)
    for start, spec in rows:
        at = starts[start]
        for kind, offset, values, ident in spec:
            for index in values:
                at += len(parts[start + index])
            marks.append(Mark(kind, at + offset, ident))
    return tuple(marks)


def _lower_body(body, frames: dict, depth: int, in_message: bool, top: bool = False):
    """Steps for ``body``, whose loop variables ``frames`` maps to their
    scope slots and which starts inside a message when ``in_message``; also
    the deepest slot the body uses, the body's literals and interpolations
    as (node, escape, lookup) parts, the spec of its first run if ``top``,
    else (), and whether its steps, at any depth, record mark rows."""
    steps, deepest, parts, marked, lead = [], depth, [], False, ()
    spec, start, first, at, values = [], 0, 0, 0, []  # the open run
    for node in (*body, _END):
        if isinstance(node, Lit):
            steps.append(_lit_step(node.text))
            parts.append((node, None, None))
            for mark in node.marks:
                spec.append((mark.kind, at + mark.offset, tuple(values), mark.ident))
                values = []
            in_message = nest_messages(in_message, node.marks)[0]
            at += len(node.text)
            continue
        if isinstance(node, PlanInterp):
            pos = node.pos or _PLAN_POS
            escape, get = chain(node.escapers), _lookup(node.path, frames, pos, True)
            steps.append(_interp_step(node.path, escape, get, pos,
                                      "." not in node.path and node.path not in frames))
            values.append(len(parts) - first)
            parts.append((node, escape, get))
            if in_message:
                spec += [(EXPR_START, at, tuple(values[:-1]), None),
                         (EXPR_END, at, tuple(values[-1:]), None)]
                values = []
            continue
        if top and not start:
            lead = tuple(spec)
        elif spec:
            steps.insert(start, _row_step(tuple(spec)))
            marked = True
        if node is _END:
            break
        if not isinstance(node, (PlanFor, PlanIf)):
            raise PlanError(f"unexpected plan node {node!r}")
        pos = node.pos or _PLAN_POS
        if isinstance(node, PlanFor):
            slot = depth + 1
            body_steps, used, body_parts, _, body_marked = _lower_body(
                node.body, {**frames, node.var: slot}, slot, in_message)
            flat = not (in_message or body_marked) and len(body_parts) == len(node.body)
            steps.append(_for_step(node, _lookup(node.path, frames, pos, True), body_steps,
                                   _column_render(body_parts, node.var) if flat else None,
                                   slot, pos))
            deepest, marked = max(deepest, used), marked or body_marked
        else:
            then, used_then, _, _, then_marked = _lower_body(node.then, frames, depth, in_message)
            els, used_els, _, _, els_marked = _lower_body(node.els, frames, depth, in_message)
            steps.append(_if_step(_lookup(node.path, frames, pos, False), then, els))
            deepest = max(deepest, used_then, used_els)
            marked = marked or then_marked or els_marked
        spec, start, first, at, values = [], len(steps), len(parts), 0, []
    return tuple(steps), deepest, parts, lead, marked


def _lookup(path: str, frames: dict, pos: Position, strict: bool) -> Callable:
    """A scope -> value function with resolve_segs' semantics for ``path``."""
    head, *fields = path.split(".")
    slot = frames.get(head, 0)

    def get(scope):
        if slot:
            cur = scope[slot]
        elif head in scope[0]:
            cur = scope[0][head]
        elif strict:
            raise RenderError(f"unbound path {path!r}", pos)
        else:
            return None
        for seg in fields:
            if isinstance(cur, dict) and seg in cur:
                cur = cur[seg]
            elif strict:
                raise RenderError(f"unbound path {path!r} (no field {seg!r})", pos)
            else:
                return None
        return cur
    return get


def _lit_step(text: str) -> Callable:
    def step(out, scope):
        out(text)
    return step


def _interp_step(path: str, escape: Callable, get: Callable, pos: Position,
                 root: bool) -> Callable:
    """The step of a site; a ``root`` site's path is one binding name, which
    it looks up itself, as ``get`` would."""
    if root:
        def step(out, scope):
            if path not in scope[0]:
                raise RenderError(f"unbound path {path!r}", pos)
            try:
                out(escape(scope[0][path]))
            except EscapeError as exc:
                raise RenderError(f"{exc} (path {path!r})", pos) from None
    else:
        def step(out, scope):
            try:
                out(escape(get(scope)))
            except EscapeError as exc:
                raise RenderError(f"{exc} (path {path!r})", pos) from None
    return step


def _row_step(spec: tuple) -> Callable:
    """The step that records a run's mark row, before the run's parts."""
    def step(out, scope):
        parts, rows = scope[-1]
        rows.append((len(parts), spec))
    return step


_DICT_ONLY = {dict}


def _column_render(parts, var: str) -> Callable:
    """The (seq, scope) -> text column render of a loop body of literals
    and interpolations, given as _lower_body's parts, over loop variable
    ``var``."""
    row = []  # one item's output: its literals, and None at each site
    once, per_item = [], []  # (row offset, lookup, escape), (row offset, fields, escape)
    for offset, (node, escape, get) in enumerate(parts):
        if escape is None:
            row.append(node.text)
            continue
        row.append(None)
        head, *fields = node.path.split(".")
        if head == var:
            per_item.append((offset, fields, escape))
        else:
            once.append((offset, get, escape))
    width = len(row)
    has_fields = any(fields for _, fields, _ in per_item)

    def render(seq, scope):
        n = len(seq)
        if has_fields and set(map(type, seq)) != _DICT_ONLY:
            raise TypeError("a loop item is not a dict")
        first = row.copy()
        for offset, get, escape in once:
            first[offset] = escape(get(scope))
        out = first * n
        for offset, fields, escape in per_item:
            column = seq
            for field in fields:
                if column is not seq and set(map(type, column)) != _DICT_ONLY:
                    raise TypeError("a field path passes through a value that is not a dict")
                column = list(map(dict.__getitem__, column, repeat(field, n)))
            out[offset::width] = list(map(escape, column))
        return "".join(out)
    return render


def _for_step(node: PlanFor, get: Callable, body: tuple, columns: Callable | None,
              slot: int, pos: Position) -> Callable:
    path = node.path

    def step(out, scope):
        seq = get(scope)
        if not isinstance(seq, list):
            raise RenderError(f"loop over non-list value at path {path!r}", pos)
        if columns is not None and type(seq) is list and len(seq) > 1:
            try:
                text = columns(seq, scope)
            except Exception:  # noqa: BLE001 - the item walk raises the first error by item
                pass
            else:
                out(text)
                return
        for item in seq:
            scope[slot] = item
            for inner in body:
                inner(out, scope)
    return step


def _if_step(get: Callable, then: tuple, els: tuple) -> Callable:
    def step(out, scope):
        for inner in then if truthy(get(scope)) else els:
            inner(out, scope)
    return step
