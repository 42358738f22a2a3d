"""Compile-time pipeline: flow-sensitive context propagation, the
end-context check, and erasure of the context machine into a plan of
literal chunks and statically chosen escaper chains.

Executing a plan performs zero transition-table operations; the only
per-render work left is path lookup, escaper application, and appends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import machine as machine_mod
from . import web
from .diagnostics import (
    Diagnostic,
    PlanError,
    Position,
    RenderError,
    Severity,
    error,
    has_errors,
    warning,
)
from .escapers import get as get_escaper
from .frontend import (
    AppendFixed,
    AppendProgram,
    AppendUnsafe,
    BranchBlock,
    Collected,
    LoopBlock,
    desugar,
    parse_template,
)
from .marks import EXPR_END, EXPR_START, Mark
from .runtime import Bindings, Collector, resolve_segs
from .values import EscapeError, SafeContent, stringify, truthy

LOOP_ITERATION_CAP = 1000


# -- proto-plan items produced during propagation ----------------------------

@dataclass
class _Lit:
    text: str
    marks: tuple[Mark, ...]


@dataclass
class _Interp:
    path: str
    escapers: tuple[str, ...]
    pos: Position


@dataclass
class _For:
    var: str
    path: str
    body: list
    pos: Position


@dataclass
class _If:
    path: str
    then: list
    els: list
    pos: Position


@dataclass
class AnnotatedProgram:
    """Propagation result: the incoming machine state at every node, escaper
    decisions at every unsafe append, merged states at joins, and the
    emission stream the plan is assembled from."""

    program: AppendProgram
    machine: machine_mod.Machine
    in_states: dict = field(default_factory=dict)
    interp_info: dict = field(default_factory=dict)
    merged: dict = field(default_factory=dict)
    loop_iterations: dict = field(default_factory=dict)
    items: list = field(default_factory=list)
    end_state: machine_mod.MachineState | None = None
    end_ok: bool = False
    end_message: str | None = None
    diagnostics: list[Diagnostic] = field(default_factory=list)


def propagate(program: AppendProgram, machine: machine_mod.Machine) -> AnnotatedProgram:
    """Push the zero context forward through the program, merging at loop
    edges and joins until states stabilize, re-emitting machine diagnostics
    with the source position of the offending append argument."""
    ann = AnnotatedProgram(program=program, machine=machine)
    table = machine.root_table

    def flush_into(state, items, pos, sink):
        r = machine_mod.finish(machine, state, pos)
        sink.extend(r.diagnostics)
        if r.emitted or r.marks:
            items.append(_Lit(r.emitted, r.marks))
        return r.state

    def analyze(nodes, state, sink):
        items: list = []
        for node in nodes:
            if isinstance(node, AppendFixed):
                ann.in_states[node] = state
                r = machine_mod.step_fixed(machine, state, node.text, node.pos)
                sink.extend(r.diagnostics)
                if r.emitted or r.marks:
                    items.append(_Lit(r.emitted, r.marks))
                state = r.state
            elif isinstance(node, AppendUnsafe):
                r = machine_mod.step_interp(machine, state, node.pos)
                ann.in_states[node] = r.site
                ann.interp_info[node] = r
                sink.extend(r.diagnostics)
                if r.emitted or r.marks or r.pre:
                    items.append(_Lit(r.emitted + r.pre, r.marks))
                if not r.error:
                    items.append(_Interp(node.path, r.escapers, node.pos))
                    if r.post:
                        items.append(_Lit(r.post, ()))
                state = r.state
            elif isinstance(node, LoopBlock):
                state = flush_into(state, items, node.pos, sink)
                ann.in_states[node] = state
                header = state
                iterations = 0
                body_items: list = []
                while True:
                    iterations += 1
                    pass_sink: list[Diagnostic] = []
                    out, body_items = analyze(node.body, header, pass_sink)
                    out = flush_into(out, body_items, node.pos, pass_sink)
                    merged = machine_mod.merge(header, out, table)
                    if merged.error and not (header.error or out.error):
                        pass_sink.append(error(merged.error, node.pos))
                    if merged == header or merged.error is not None:
                        # stable, or fail-stopped: either way this pass's
                        # diagnostics are the ones that matter
                        sink.extend(pass_sink)
                        header = merged
                        break
                    if iterations >= LOOP_ITERATION_CAP:
                        sink.extend(pass_sink)
                        sink.append(error("loop context did not stabilize "
                                          f"after {iterations} iterations", node.pos))
                        header = merged
                        break
                    header = merged
                ann.merged[node] = header
                ann.loop_iterations[node] = iterations
                items.append(_For(node.var, node.path, body_items, node.pos))
                state = header
            elif isinstance(node, BranchBlock):
                state = flush_into(state, items, node.pos, sink)
                ann.in_states[node] = state
                t_state, t_items = analyze(node.then, state, sink)
                t_state = flush_into(t_state, t_items, node.pos, sink)
                e_state, e_items = analyze(node.els, state, sink)
                e_state = flush_into(e_state, e_items, node.pos, sink)
                merged = machine_mod.merge(t_state, e_state, table)
                if merged.error and not (t_state.error or e_state.error):
                    sink.append(error(merged.error, node.pos))
                ann.merged[node] = merged
                items.append(_If(node.path, t_items, e_items, node.pos))
                state = merged
            elif isinstance(node, Collected):
                state = flush_into(state, items, node.pos, sink)
                ann.in_states[node] = state
                ok, message = machine_mod.is_valid_end(machine, state)
                ann.end_state, ann.end_ok, ann.end_message = state, ok, message
                if not ok and state.error is None:
                    sink.append(warning(message, node.pos))
            else:  # pragma: no cover
                raise TypeError(f"unexpected program node {node!r}")
        return state, items

    _, ann.items = analyze(program.body, machine.zero_state(), ann.diagnostics)
    return ann


# -- compiled plans ----------------------------------------------------------

@dataclass(eq=True)
class Lit:
    text: str
    marks: tuple[Mark, ...] = ()


@dataclass(eq=True)
class PlanInterp:
    path: str
    escapers: tuple[str, ...]


@dataclass(eq=True)
class PlanFor:
    var: str
    path: str
    body: list


@dataclass(eq=True)
class PlanIf:
    path: str
    then: list
    els: list


@dataclass
class CompiledPlan:
    """Erased output: no context values, no machine references. Literal
    chunks already carry every substitution the machine would have made."""

    language: str
    body: list

    def to_json(self) -> str:
        return plan_to_json(self)

    _exec_cache: object = field(default=None, repr=False, compare=False)


def _coalesce(items) -> list:
    out: list = []
    for item in items:
        if isinstance(item, _Lit):
            if not item.text and not item.marks:
                continue
            if out and isinstance(out[-1], Lit):
                prev = out[-1]
                shifted = tuple(m.shifted(len(prev.text)) for m in item.marks)
                out[-1] = Lit(prev.text + item.text, prev.marks + shifted)
            else:
                out.append(Lit(item.text, tuple(item.marks)))
        elif isinstance(item, _Interp):
            out.append(PlanInterp(item.path, tuple(item.escapers)))
        elif isinstance(item, _For):
            out.append(PlanFor(item.var, item.path, _coalesce(item.body)))
        elif isinstance(item, _If):
            out.append(PlanIf(item.path, _coalesce(item.then), _coalesce(item.els)))
        else:  # pragma: no cover
            raise TypeError(f"unexpected plan item {item!r}")
    return out


def erase(annotated: AnnotatedProgram) -> CompiledPlan:
    """Drop the machine: every fixed chunk becomes a literal with its
    substitutions inlined, every unsafe append becomes an interpolation with
    its statically chosen chain. Refuses to run over blocking diagnostics."""
    if has_errors(annotated.diagnostics):
        first = next(d for d in annotated.diagnostics if d.severity is Severity.ERROR)
        raise PlanError(f"cannot erase a program with blocking diagnostics: {first}")
    return CompiledPlan(annotated.machine.language, _coalesce(annotated.items))


# -- plan serialization -------------------------------------------------------

def _node_to_obj(node, path, mark_rows):
    if isinstance(node, Lit):
        for mark in node.marks:
            row = {"at": list(path), "offset": mark.offset, "kind": mark.kind}
            if mark.ident is not None:
                row["id"] = mark.ident
            mark_rows.append(row)
        return {"lit": node.text}
    if isinstance(node, PlanInterp):
        return {"interp": {"path": node.path, "escapers": list(node.escapers)}}
    if isinstance(node, PlanFor):
        return {"for": {"var": node.var, "path": node.path,
                        "body": _body_to_obj(node.body, path + ["body"], mark_rows)}}
    if isinstance(node, PlanIf):
        return {"if": {"path": node.path,
                       "then": _body_to_obj(node.then, path + ["then"], mark_rows),
                       "else": _body_to_obj(node.els, path + ["else"], mark_rows)}}
    raise TypeError(f"unexpected plan node {node!r}")  # pragma: no cover


def _body_to_obj(body, path, mark_rows):
    return [_node_to_obj(node, path + [i], mark_rows) for i, node in enumerate(body)]


def plan_to_json(plan: CompiledPlan) -> str:
    mark_rows: list[dict] = []
    doc = {
        "language": plan.language,
        "body": _body_to_obj(plan.body, [], mark_rows),
        "marks": mark_rows,
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def _str_field(payload: dict, key: str, kind: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str):
        raise PlanError(f"{kind!r} node needs a string {key!r}, got {value!r}")
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
    path = _str_field(payload, "path", kind)
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
        return PlanFor(_str_field(payload, "var", kind), path,
                       _body_from_obj(payload.get("body"), "'for' body"))
    return PlanIf(path, _body_from_obj(payload.get("then"), "'if' then"),
                  _body_from_obj(payload.get("else", []), "'if' else"))


_MARK_STEPS = {"body": "body", "then": "then", "else": "els"}


def plan_from_json(text: str) -> CompiledPlan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"plan is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "language" not in doc or "body" not in doc:
        raise PlanError("plan document must have 'language' and 'body'")
    if not isinstance(doc["language"], str):
        raise PlanError(f"plan 'language' must be a string, got {doc['language']!r}")
    plan = CompiledPlan(doc["language"], _body_from_obj(doc["body"], "plan body"))
    rows = doc.get("marks", [])
    if not isinstance(rows, list):
        raise PlanError(f"plan 'marks' must be a list, got {rows!r}")
    for row in rows:
        if not (isinstance(row, dict) and isinstance(row.get("at"), list)
                and isinstance(row.get("offset"), int) and isinstance(row.get("kind"), str)
                and isinstance(row.get("id", ""), str)):
            raise PlanError(f"malformed mark row: {row!r}")
        node = plan.body
        for step in row["at"]:
            try:
                if isinstance(step, int) and step >= 0:
                    node = node[step]
                else:
                    node = getattr(node, _MARK_STEPS[step])
            except (IndexError, KeyError, TypeError, AttributeError):
                raise PlanError(f"bad mark path step {step!r}") from None
        if not isinstance(node, Lit):
            raise PlanError("mark path does not address a literal node")
        node.marks = node.marks + (Mark(row["kind"], row["offset"], row.get("id")),)
    return plan


# -- plan execution ----------------------------------------------------------

class _ExecLit:
    __slots__ = ("text", "marks")

    def __init__(self, node: Lit):
        self.text = node.text
        self.marks = node.marks


class _ExecInterp:
    __slots__ = ("segs", "chain")

    def __init__(self, node: PlanInterp):
        self.segs = tuple(node.path.split("."))
        self.chain = tuple(get_escaper(name) for name in node.escapers)


class _ExecFor:
    __slots__ = ("var", "segs", "body")

    def __init__(self, node: PlanFor):
        self.var = node.var
        self.segs = tuple(node.path.split("."))
        self.body = [_compile_node(n) for n in node.body]


class _ExecIf:
    __slots__ = ("segs", "then", "els")

    def __init__(self, node: PlanIf):
        self.segs = tuple(node.path.split("."))
        self.then = [_compile_node(n) for n in node.then]
        self.els = [_compile_node(n) for n in node.els]


def _compile_node(node):
    if isinstance(node, Lit):
        return _ExecLit(node)
    if isinstance(node, PlanInterp):
        return _ExecInterp(node)
    if isinstance(node, PlanFor):
        return _ExecFor(node)
    if isinstance(node, PlanIf):
        return _ExecIf(node)
    raise PlanError(f"unexpected plan node {node!r}")  # pragma: no cover


def execute_plan(plan: CompiledPlan, bindings: Bindings):
    """Walk a plan: literals are appended directly, interpolations go
    through their named escapers. No machine transitions happen here.

    Returns (SafeContent, marks).
    """
    compiled = plan._exec_cache
    if compiled is None:
        compiled = [_compile_node(n) for n in plan.body]
        plan._exec_cache = compiled
    collector = Collector()
    pos = Position("<plan>", 0, 0)

    def run(nodes, frames):
        for node in nodes:
            if isinstance(node, _ExecLit):
                if node.marks:
                    base = collector.length
                    collector.append_text(node.text)
                    collector.extend_marks(node.marks, base)
                else:
                    collector.append_text(node.text)
            elif isinstance(node, _ExecInterp):
                out = resolve_segs(node.segs, bindings, frames, pos)
                try:
                    for esc in node.chain:
                        out = esc.apply(out)
                    if not isinstance(out, str):
                        out = stringify(out)
                except EscapeError as exc:
                    raise RenderError(
                        f"{exc} (path {'.'.join(node.segs)!r})", pos) from None
                if collector.open_messages > 0:
                    collector.add_mark(EXPR_START)
                    collector.append_text(out)
                    collector.add_mark(EXPR_END)
                else:
                    collector.append_text(out)
            elif isinstance(node, _ExecFor):
                seq = resolve_segs(node.segs, bindings, frames, pos)
                if not isinstance(seq, list):
                    raise RenderError(
                        f"loop over non-list value at path {'.'.join(node.segs)!r}", pos)
                for item in seq:
                    run(node.body, frames + [{node.var: item}])
            elif isinstance(node, _ExecIf):
                value = resolve_segs(node.segs, bindings, frames, pos, strict=False)
                run(node.then if truthy(value) else node.els, frames)

    run(compiled, [])
    return SafeContent(plan.language, collector.text()), tuple(collector.marks)


# -- convenience pipeline -----------------------------------------------------

def analyze_template(source: str, filename: str = "<template>",
                     tables_dir: str | None = None):
    """parse -> desugar -> propagate. Returns (program, annotated, diags);
    program/annotated are None past the stage that failed."""
    ir, diags = parse_template(source, filename)
    if ir is None:
        return None, None, diags
    program = desugar(ir)
    try:
        machine = web.machine_for_tag(ir.tag, tables_dir)
    except KeyError as exc:
        diags.append(error(str(exc), Position(filename, 1, 1)))
        return program, None, diags
    annotated = propagate(program, machine)
    return program, annotated, diags + annotated.diagnostics


def compile_template(source: str, filename: str = "<template>",
                     tables_dir: str | None = None):
    """Full pipeline to a plan. Returns (plan | None, diagnostics)."""
    _, annotated, diags = analyze_template(source, filename, tables_dir)
    if annotated is None or has_errors(diags):
        return None, diags
    return erase(annotated), diags
