"""Dynamic rendering: the accumulator that interleaves fixed and unsafe
appends, tracking parse context as it goes. This is the reference semantics
the static compiler is checked against."""

from __future__ import annotations

from . import machine as machine_mod
from .diagnostics import Diagnostic, Position, RenderError, Severity, has_errors, warning
from .escapers import chain
from .frontend import (
    AppendFixed,
    AppendProgram,
    AppendUnsafe,
    BranchBlock,
    Collected,
    LoopBlock,
)
from .plan import Bindings, Collector, check_bindings, resolve_segs
from .values import EscapeError, SafeContent, truthy


class Accumulator:
    """Owns a machine state and a collector; the state is always the fold of
    every append so far. Its step memo, and the escaper chains it has bound
    by names, live as long as it does: one render."""

    def __init__(self, machine: machine_mod.Machine):
        self.machine = machine
        self.state = machine.zero_state()
        self.collector = Collector()
        self.diagnostics: list[Diagnostic] = []
        self.memo: dict = {}
        self.chains: dict = {}

    @property
    def errored(self) -> bool:
        return self.state.error is not None

    def _absorb(self, result) -> list[Diagnostic]:
        self.collector.append_text(result.emitted, result.marks)
        self.diagnostics.extend(result.diagnostics)
        self.state = result.state
        return result.diagnostics

    def append_fixed(self, text: str, pos: Position) -> list[Diagnostic]:
        return self._absorb(machine_mod.step_fixed(self.machine, self.state, text, pos))

    def flush_boundary(self, pos: Position) -> list[Diagnostic]:
        """Force held-back text through; used at control-flow edges where
        fixed text on different paths must not be joined for matching."""
        return self._absorb(machine_mod.finish(self.machine, self.state, pos, memo=self.memo))

    def append_unsafe(self, value, pos: Position) -> list[Diagnostic]:
        r = machine_mod.step_interp(self.machine, self.state, pos, memo=self.memo)
        self._absorb(r)
        if r.error:
            return r.diagnostics
        self.collector.append_text(r.pre)
        escape = self.chains.get(r.escapers)
        if escape is None:
            escape = self.chains[r.escapers] = chain(r.escapers)
        try:
            self.collector.append_value(escape(value))
        except EscapeError as exc:
            diag = Diagnostic(Severity.ERROR, str(exc), pos)
            self.diagnostics.append(diag)
            self.state = machine_mod.MachineState(
                context=self.state.context, error=str(exc))
            return [diag]
        self.collector.append_text(r.post)
        return r.diagnostics

    def collected(self, pos: Position | None = None):
        """Finish composition. Returns (SafeContent | None, diagnostics);
        a non-terminal end context is a warning, not an error."""
        if pos is None:
            pos = Position("<template>", 0, 1)
        if not self.errored:
            self._absorb(machine_mod.finish(self.machine, self.state, pos, memo=self.memo))
        if self.errored:
            return None, self.diagnostics
        ok, message = machine_mod.is_valid_end(self.machine, self.state)
        if not ok:
            self.diagnostics.append(warning(message, pos))
        return SafeContent(self.machine.language, self.collector.text()), self.diagnostics


def render_full(program: AppendProgram, bindings: Bindings,
                machine: machine_mod.Machine):
    """Interpret an append program against bindings.

    Returns (SafeContent, marks, diagnostics). Any error is fail-stop for
    the whole template: RenderError is raised and no partial output escapes.
    """
    check_bindings(bindings)
    acc = Accumulator(machine)

    def run(nodes, frames):
        for node in nodes:
            if acc.errored:
                break
            if isinstance(node, AppendFixed):
                acc.append_fixed(node.text, node.pos)
            elif isinstance(node, AppendUnsafe):
                value = resolve_segs(node.path.split("."), bindings, frames, node.pos)
                acc.append_unsafe(value, node.pos)
            elif isinstance(node, LoopBlock):
                acc.flush_boundary(node.pos)
                seq = resolve_segs(node.path.split("."), bindings, frames, node.pos)
                if not isinstance(seq, list):
                    raise RenderError(
                        f"loop over non-list value at path {node.path!r}", node.pos)
                for item in seq:
                    run(node.body, frames + [{node.var: item}])
                    acc.flush_boundary(node.pos)
            elif isinstance(node, BranchBlock):
                acc.flush_boundary(node.pos)
                value = resolve_segs(node.path.split("."), bindings, frames, node.pos,
                                     strict=False)
                run(node.then if truthy(value) else node.els, frames)
                acc.flush_boundary(node.pos)
            elif isinstance(node, Collected):
                pass  # handled below so diagnostics keep their position
            else:  # pragma: no cover
                raise TypeError(f"unexpected program node {node!r}")

    run(program.body, [])
    end_pos = program.body[-1].pos if program.body else None
    value, diags = acc.collected(end_pos)
    if value is None or has_errors(diags):
        first = next(d for d in diags if d.severity is Severity.ERROR)
        raise RenderError(first.message, first.position)
    return value, tuple(acc.collector.marks), diags
