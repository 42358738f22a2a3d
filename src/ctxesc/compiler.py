"""Compile-time pipeline: flow-sensitive context propagation, the
end-context check, and erasure of the context machine into a plan of
literal chunks and statically chosen escaper chains.

One plan node family (Lit, PlanInterp, PlanFor, PlanIf) runs the whole
way: propagation emits it, JSON round-trips it, and execute_plan walks it.
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

# -- plan nodes --------------------------------------------------------------
# Fields with compare=False are the executor's, not part of a node's value.

@dataclass
class _PathNode:
    """``segs`` is ``path`` split once, for the executor's lookups."""

    segs: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.segs = tuple(self.path.split("."))


@dataclass(eq=True)
class Lit:
    text: str
    marks: tuple[Mark, ...] = ()


@dataclass(eq=True)
class PlanInterp(_PathNode):
    path: str
    escapers: tuple[str, ...]
    chain: tuple | None = field(default=None, init=False, compare=False, repr=False)


@dataclass(eq=True)
class PlanFor(_PathNode):
    var: str
    path: str
    body: list


@dataclass(eq=True)
class PlanIf(_PathNode):
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


def _emit_lit(items: list, text: str, marks) -> None:
    """Append literal text to a plan body, joined onto a trailing Lit (its
    marks shifted past that literal's text), so no two literals touch."""
    if not text and not marks:
        return
    if items and isinstance(items[-1], Lit):
        prev = items[-1]
        shifted = tuple(m.shifted(len(prev.text)) for m in marks)
        items[-1] = Lit(prev.text + text, prev.marks + shifted)
    else:
        items.append(Lit(text, tuple(marks)))


# -- propagation -------------------------------------------------------------

@dataclass
class AnnotatedProgram:
    """Propagation result: the incoming machine state at every node, escaper
    decisions at every unsafe append, merged states at joins, and the plan
    nodes (``items``) that erasure wraps into a CompiledPlan."""

    program: AppendProgram
    machine: machine_mod.Machine
    in_states: dict = field(default_factory=dict)
    interp_info: dict = field(default_factory=dict)
    merged: dict = field(default_factory=dict)
    loop_iterations: dict = field(default_factory=dict)
    items: list = field(default_factory=list)
    end_ok: bool = False
    diagnostics: list[Diagnostic] = field(default_factory=list)


def propagate(program: AppendProgram, machine: machine_mod.Machine) -> AnnotatedProgram:
    """Push the zero context forward through the program, analyzing each
    loop body and branch once and joining the states where control flow
    meets, re-emitting machine diagnostics with the source position of the
    offending append argument."""
    ann = AnnotatedProgram(program=program, machine=machine)
    table, sink = machine.root_table, ann.diagnostics

    def flush_into(state, items, pos):
        r = machine_mod.finish(machine, state, pos)
        sink.extend(r.diagnostics)
        _emit_lit(items, r.emitted, r.marks)
        return r.state

    def join(node, a, b):
        merged = machine_mod.merge(a, b, table)
        if merged.error and not (a.error or b.error):
            sink.append(error(merged.error, node.pos))
        ann.merged[node] = merged
        return merged

    def analyze(nodes, state):
        items: list = []
        for node in nodes:
            if isinstance(node, (LoopBlock, BranchBlock, Collected)):
                # held-back text must not be matched across a control-flow edge
                state = flush_into(state, items, node.pos)
                ann.in_states[node] = state
            if isinstance(node, AppendFixed):
                ann.in_states[node] = state
                r = machine_mod.step_fixed(machine, state, node.text, node.pos)
                sink.extend(r.diagnostics)
                _emit_lit(items, r.emitted, r.marks)
                state = r.state
            elif isinstance(node, AppendUnsafe):
                r = machine_mod.step_interp(machine, state, node.pos)
                ann.in_states[node] = r.site
                ann.interp_info[node] = r
                sink.extend(r.diagnostics)
                _emit_lit(items, r.emitted + r.pre, r.marks)
                if not r.error:
                    items.append(PlanInterp(node.path, tuple(r.escapers)))
                    _emit_lit(items, r.post, ())
                state = r.state
            elif isinstance(node, LoopBlock):
                # merge returns the header when the body ends where it began and
                # fail-stops otherwise: one pass proves a fixed point or a conflict
                out, body = analyze(node.body, state)
                out = flush_into(out, body, node.pos)
                ann.loop_iterations[node] = 1
                items.append(PlanFor(node.var, node.path, body))
                state = join(node, state, out)
            elif isinstance(node, BranchBlock):
                t_state, t_items = analyze(node.then, state)
                t_state = flush_into(t_state, t_items, node.pos)
                e_state, e_items = analyze(node.els, state)
                e_state = flush_into(e_state, e_items, node.pos)
                items.append(PlanIf(node.path, t_items, e_items))
                state = join(node, t_state, e_state)
            elif isinstance(node, Collected):
                ann.end_ok, message = machine_mod.is_valid_end(machine, state)
                if not ann.end_ok and state.error is None:
                    sink.append(warning(message, node.pos))
            else:  # pragma: no cover
                raise TypeError(f"unexpected program node {node!r}")
        return state, items

    _, ann.items = analyze(program.body, machine.zero_state())
    return ann


def erase(annotated: AnnotatedProgram) -> CompiledPlan:
    """Drop the machine: every fixed chunk becomes a literal with its
    substitutions inlined, every unsafe append becomes an interpolation with
    its statically chosen chain. Refuses to run over blocking diagnostics."""
    if has_errors(annotated.diagnostics):
        first = next(d for d in annotated.diagnostics if d.severity is Severity.ERROR)
        raise PlanError(f"cannot erase a program with blocking diagnostics: {first}")
    return CompiledPlan(annotated.machine.language, annotated.items)


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

def execute_plan(plan: CompiledPlan, bindings: Bindings):
    """Walk a plan: literals are appended directly, interpolations go
    through their named escapers. No machine transitions happen here.

    Returns (SafeContent, marks).
    """
    collector = Collector()
    pos = Position("<plan>", 0, 0)

    def run(nodes, frames):
        for node in nodes:
            if isinstance(node, Lit):
                if node.marks:
                    base = collector.length
                    collector.append_text(node.text)
                    collector.extend_marks(node.marks, base)
                else:
                    collector.append_text(node.text)
            elif isinstance(node, PlanInterp):
                out = resolve_segs(node.segs, bindings, frames, pos)
                chain = node.chain
                if chain is None:
                    # bound at first render, not at load: the registry then decides
                    chain = node.chain = tuple(get_escaper(n) for n in node.escapers)
                try:
                    for esc in chain:
                        out = esc.apply(out)
                    if not isinstance(out, str):
                        out = stringify(out)
                except EscapeError as exc:
                    raise RenderError(
                        f"{exc} (path {node.path!r})", pos) from None
                if collector.open_messages > 0:
                    collector.add_mark(EXPR_START)
                    collector.append_text(out)
                    collector.add_mark(EXPR_END)
                else:
                    collector.append_text(out)
            elif isinstance(node, PlanFor):
                seq = resolve_segs(node.segs, bindings, frames, pos)
                if not isinstance(seq, list):
                    raise RenderError(
                        f"loop over non-list value at path {node.path!r}", pos)
                for item in seq:
                    run(node.body, frames + [{node.var: item}])
            elif isinstance(node, PlanIf):
                value = resolve_segs(node.segs, bindings, frames, pos, strict=False)
                run(node.then if truthy(value) else node.els, frames)
            else:
                raise PlanError(f"unexpected plan node {node!r}")

    run(plan.body, [])
    return SafeContent(plan.language, collector.text()), tuple(collector.marks)


# -- convenience pipeline -----------------------------------------------------

def load_template(source: str, filename: str = "<template>",
                  tables_dir: str | None = None):
    """parse -> desugar -> machine lookup. Returns (program, machine, diags);
    program/machine are None past the stage that failed, and an unknown tag
    is an error diagnostic at the template's first position."""
    ir, diags = parse_template(source, filename)
    if ir is None:
        return None, None, diags
    program = desugar(ir)
    try:
        machine = web.machine_for_tag(ir.tag, tables_dir)
    except KeyError as exc:
        diags.append(error(exc.args[0], Position(filename, 1, 1)))
        return program, None, diags
    return program, machine, diags


def analyze_template(source: str, filename: str = "<template>",
                     tables_dir: str | None = None):
    """load_template -> propagate. Returns (program, annotated, diags);
    program/annotated are None past the stage that failed."""
    program, machine, diags = load_template(source, filename, tables_dir)
    if machine is None:
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
