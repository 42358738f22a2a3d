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
    LoopBlock,
)
from .marks import EXPR_END, EXPR_START, Mark, body_change, nest_messages
from .plan import Bindings, check_bindings, resolve_segs
from .values import EscapeError, SafeContent, truthy


class Collector:
    """Output buffer plus the mark list that indexes into it, and whether a
    message is open: messages open and close only through marks the machine
    emitted, so ``append_text`` alone tracks them."""

    def __init__(self):
        self._parts: list[str] = []
        self.length = 0
        self.marks: list[Mark] = []
        self.in_message = False

    def append_text(self, text: str, marks=()) -> str | None:
        """Append text and the marks emitted with it, whose offsets count
        from the start of ``text``; returns what is wrong with the first
        message mark that does not nest, or None."""
        problem = None
        if marks:
            self.in_message, problem = nest_messages(self.in_message, marks)
            self.marks.extend([mark.shifted(self.length) for mark in marks])
        if text:
            self._parts.append(text)
            self.length += len(text)
        return problem

    def append_value(self, text: str) -> None:
        """Append an escaped value; inside a message, between ExprStart and
        ExprEnd marks."""
        if self.in_message:
            self.marks.append(Mark(EXPR_START, self.length))
            self.append_text(text)
            self.marks.append(Mark(EXPR_END, self.length))
        else:
            self.append_text(text)

    def text(self) -> str:
        return "".join(self._parts)


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

    def fail(self, message: str, pos: Position) -> list[Diagnostic]:
        """Stop the render with an error at ``pos``."""
        diag = Diagnostic(Severity.ERROR, message, pos)
        self.diagnostics.append(diag)
        self.state = machine_mod.MachineState(context=self.state.context, error=message)
        return [diag]

    def _absorb(self, result, pos: Position) -> list[Diagnostic]:
        problem = self.collector.append_text(result.emitted, result.marks)
        self.diagnostics.extend(result.diagnostics)
        self.state = result.state
        if problem and not self.errored:
            return result.diagnostics + self.fail(problem, pos)
        return result.diagnostics

    def append_fixed(self, text: str, pos: Position) -> list[Diagnostic]:
        return self._absorb(machine_mod.step_fixed(self.machine, self.state, text, pos), pos)

    def flush_boundary(self, pos: Position) -> list[Diagnostic]:
        """Force held-back text through; used at control-flow edges where
        fixed text on different paths must not be joined for matching."""
        return self._absorb(machine_mod.finish(self.machine, self.state, pos, memo=self.memo),
                            pos)

    def append_unsafe(self, value, pos: Position, path: str) -> list[Diagnostic]:
        """Escape and append ``value``; an escaper error names ``path``, as in a plan."""
        r = machine_mod.step_interp(self.machine, self.state, pos, memo=self.memo)
        diags = self._absorb(r, pos)
        if self.errored:
            return diags
        self.collector.append_text(r.pre)
        escape = self.chains.get(r.escapers)
        if escape is None:
            escape = self.chains[r.escapers] = chain(r.escapers)
        try:
            self.collector.append_value(escape(value))
        except EscapeError as exc:
            return self.fail(f"{exc} (path {path!r})", pos)
        self.collector.append_text(r.post)
        return r.diagnostics

    def collected(self, pos: Position | None = None):
        """Finish composition. Returns (SafeContent | None, diagnostics);
        a non-terminal end context is a warning, not an error."""
        if pos is None:
            pos = Position("<template>", 0, 1)
        if not self.errored:
            self._absorb(machine_mod.finish(self.machine, self.state, pos, memo=self.memo), pos)
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

    def run(nodes, frames):  # Collected runs below, so its diagnostics keep their position
        for node in nodes:
            if acc.errored:
                break
            if isinstance(node, AppendFixed):
                acc.append_fixed(node.text, node.pos)
            elif isinstance(node, AppendUnsafe):
                value = resolve_segs(node.path.split("."), bindings, frames, node.pos)
                acc.append_unsafe(value, node.pos, node.path)
            elif isinstance(node, LoopBlock):
                acc.flush_boundary(node.pos)
                seq = resolve_segs(node.path.split("."), bindings, frames, node.pos)
                if not isinstance(seq, list):
                    raise RenderError(
                        f"loop over non-list value at path {node.path!r}", node.pos)
                for item in seq:
                    run_body(node.body, frames + [{node.var: item}], node.pos, "loop body")
            elif isinstance(node, BranchBlock):
                acc.flush_boundary(node.pos)
                value = resolve_segs(node.path.split("."), bindings, frames, node.pos,
                                     strict=False)
                run_body(node.then if truthy(value) else node.els, frames, node.pos, "branch")

    def run_body(nodes, frames, pos, where):
        """Run a loop body or branch arm and flush; the render fails when
        the body opens or closes a message."""
        in_message = acc.collector.in_message
        run(nodes, frames)
        acc.flush_boundary(pos)
        if not acc.errored and acc.collector.in_message != in_message:
            acc.fail(body_change(where, not in_message), pos)

    run(program.body, [])
    end_pos = program.body[-1].pos if program.body else None
    value, diags = acc.collected(end_pos)
    if value is None or has_errors(diags):
        first = next(d for d in diags if d.severity is Severity.ERROR)
        raise RenderError(first.message, first.position)
    return value, tuple(acc.collector.marks), diags
