"""Compile-time pipeline: flow-sensitive context propagation, the
end-context check, and erasure of the context machine into a plan of
literal chunks and statically chosen escaper chains.

Propagation emits the plan nodes of ``ctxesc.plan`` directly, each carrying
the template position it came from; that module round-trips them through
JSON and executes them. Executing a plan performs zero transition-table
operations; the only per-render work left is path lookup, escaper
application, and appends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import machine as machine_mod
from . import web
from .diagnostics import (
    Diagnostic,
    PlanError,
    Position,
    Severity,
    error,
    has_errors,
    warning,
)
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
from .marks import body_change, nest_messages
from .plan import (  # noqa: F401 - re-exported: callers use compiler.<name>
    CompiledPlan,
    Lit,
    PlanFor,
    PlanIf,
    PlanInterp,
    execute_plan,
    plan_from_json,
    plan_to_json,
)

# -- propagation -------------------------------------------------------------

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


@dataclass
class AnnotatedProgram:
    """Propagation result: the incoming machine state at every node, merged
    states at joins, and the plan nodes (``items``) that erasure wraps into a
    CompiledPlan; their PlanInterp nodes carry the escaper chain chosen at
    each unsafe append."""

    machine: machine_mod.Machine
    in_states: dict = field(default_factory=dict)
    merged: dict = field(default_factory=dict)
    items: list = field(default_factory=list)
    end_ok: bool = False
    diagnostics: list[Diagnostic] = field(default_factory=list)


def propagate(program: AppendProgram, machine: machine_mod.Machine) -> AnnotatedProgram:
    """Push the zero context forward through the program, analyzing each
    loop body and branch once and joining the states where control flow
    meets, re-emitting machine diagnostics with the source position of the
    offending append argument. A message mark that does not nest is an
    error at its step, and a body that opens or closes a message at its block."""
    ann = AnnotatedProgram(machine=machine)
    table, sink, memo = machine.root_table, ann.diagnostics, {}
    in_message = False

    def nest(marks, pos):
        nonlocal in_message
        in_message, problem = nest_messages(in_message, marks)
        if problem:
            sink.append(error(problem, pos))

    def flush_into(state, items, pos):
        r = machine_mod.finish(machine, state, pos, memo=memo)
        sink.extend(r.diagnostics)
        if r.marks:
            nest(r.marks, pos)
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
                if r.marks:
                    nest(r.marks, node.pos)
                _emit_lit(items, r.emitted, r.marks)
                state = r.state
            elif isinstance(node, AppendUnsafe):
                r = machine_mod.step_interp(machine, state, node.pos, memo=memo)
                ann.in_states[node] = r.site
                sink.extend(r.diagnostics)
                if r.marks:
                    nest(r.marks, node.pos)
                _emit_lit(items, r.emitted + r.pre, r.marks)
                if r.state.error is None:
                    items.append(PlanInterp(node.path, tuple(r.escapers), pos=node.pos))
                    _emit_lit(items, r.post, ())
                state = r.state
            elif isinstance(node, LoopBlock):
                # merge returns the header when the body ends where it began and
                # fail-stops otherwise: one pass proves a fixed point or a conflict
                out, body = analyze_body(node.body, state, "loop body", node.pos)
                items.append(PlanFor(node.var, node.path, body, pos=node.pos))
                state = join(node, state, out)
            elif isinstance(node, BranchBlock):
                t_state, t_items = analyze_body(node.then, state, "branch", node.pos)
                e_state, e_items = analyze_body(node.els, state, "branch", node.pos)
                items.append(PlanIf(node.path, t_items, e_items, pos=node.pos))
                state = join(node, t_state, e_state)
            else:  # Collected
                ann.end_ok, message = machine_mod.is_valid_end(machine, state)
                if not ann.end_ok and state.error is None:
                    sink.append(warning(message, node.pos))
        return state, items

    def analyze_body(nodes, state, where, pos):
        # a block's body, flushed at its end, must leave messages as it found them
        nonlocal in_message
        started_in_message = in_message
        state, items = analyze(nodes, state)
        state = flush_into(state, items, pos)
        if in_message != started_in_message:
            sink.append(error(body_change(where, in_message), pos))
            in_message = started_in_message
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
