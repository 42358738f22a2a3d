"""The left-to-right context machine.

A machine is a root transition table plus the subsidiary tables and codecs it
can spin up (URL inside an HTML attribute, CSS inside a style element).
Machine states are immutable values; stepping produces a new state. Between
steps a machine may hold back a bounded amount of unconsumed text so regex
matching is independent of how fixed text is chunked.

One loop, ``_Run.drain``, steps a thawed state: it fires the innermost
machine's epsilon rows and consumes that machine's text, at any nesting
depth. Every trigger consumes text, so one match of a context's fused
pattern picks each row, in ``drain`` and ``_consume_at`` alike. *Plain*
rows, which only emit their matched text and move the context, are applied
in the loop, which takes the successor's rows from the row's resolved entry;
``_Run._fire`` applies every other row, whatever its trigger. Text an
enclosing machine holds back moves inward through ``_consume_at``, one
decoded unit at a time, until one of that machine's own rows matches.
``step_fixed`` feeds long text in windows, and returns at once while every
level holds back less than its table's lookahead and the innermost context
has no epsilon row: then nothing can move. At an interpolation site the
machine flushes held-back text, fires epsilon and interp rows (epsilon
first), then reads escaper-map rows from the innermost machine outward.
``finish`` and ``step_interp`` take a ``memo`` that one compile or render
owns: a step whose result holds no position (no diagnostics, error or
held-back root text) is replayed after.
"""

from __future__ import annotations

import functools
import re

from .diagnostics import Diagnostic, Position, Severity
from .marks import Mark
from .records import FrozenRecord, Record, slot_setters
from .tables import Rule, TransitionTable, context_str

_op_count = 0
_WINDOW = 1024  # step_fixed feeds longer text a window at a time, as separate chunks
_NOWHERE = Position("<input>", 1, 1)  # where text that no step placed starts


def transition_op_count() -> int:
    """Monotone counter of transition-table operations (rule applications,
    default copies, escaper-map lookups). Used to prove that compiled plans
    never touch the machine. A memo replay adds the ops its first run
    counted, so the count does not depend on the memo."""
    return _op_count


class IdentityCodec:
    def decode_unit(self, text):
        return 1, text[0], None

    def encode(self, text):
        return text


class HtmlEntityCodec:
    """Decodes the named entities for ``& < > "`` plus numeric references;
    encodes those four characters back to entities."""

    _ENTITY = re.compile(r"&(?:(amp|lt|gt|quot)|#(?:([0-9]{1,7})|[xX]([0-9a-fA-F]{1,6})));")
    _NAMED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"'}
    _ENCODE = {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;", ord('"'): "&quot;"}

    def decode_unit(self, text):
        ch = text[0]
        if ch != "&":
            return 1, ch, None
        m = self._ENTITY.match(text)
        if m:
            if m.group(1):
                return m.end(), self._NAMED[m.group(1)], None
            cp = int(m.group(2)) if m.group(2) else int(m.group(3), 16)
            if 0 < cp <= 0x10FFFF and not (0xD800 <= cp <= 0xDFFF):
                return m.end(), chr(cp), None
            return 1, ch, "malformed numeric character reference copied verbatim"
        if text.startswith("&#"):
            return 1, ch, "malformed numeric character reference copied verbatim"
        return 1, ch, None

    def encode(self, text):
        return text.translate(self._ENCODE)


# A codec bridges a nesting and a nested content language: decode_unit consumes
# one unit (a character or one full escape sequence) from the head of non-empty
# text, and encode re-applies the outer language's encoding to text emitted by
# the nested machine. Tables can name only these.
BUILTIN_CODECS = {
    "identityCodec": IdentityCodec(),
    "htmlCodec": HtmlEntityCodec(),
}


class Frame(FrozenRecord):
    """One active subsidiary machine: its name, the codec bridging it to the
    enclosing machine, its context, and its own held-back text."""

    __slots__ = _fields = ("machine", "codec", "context", "pending")

    def __init__(self, machine: str, codec: str, context: tuple[str, ...], pending: str):
        _set_machine(self, machine)
        _set_codec(self, codec)
        _set_fr_context(self, context)
        _set_fr_pending(self, pending)


class MachineState(FrozenRecord):
    """``pending_at`` is where held-back text came from in the template: one
    (offset in pending, position) anchor per chunk, the first at offset 0.
    Copies keep it; ``==``, hashing and repr leave it out."""

    _fields = ("context", "pending", "frames", "error")
    __slots__ = (*_fields, "pending_at")

    def __init__(self, context: tuple[str, ...], pending: str = "", frames: tuple = (),
                 error: str | None = None, pending_at=()):
        _set_context(self, context)
        _set_pending(self, pending)
        _set_frames(self, frames)
        _set_error(self, error)
        _set_at(self, pending_at)

    def __reduce__(self):
        return self.__class__, (*self._values(self), self.pending_at)


_set_machine, _set_codec, _set_fr_context, _set_fr_pending = slot_setters(Frame)
_set_context, _set_pending, _set_frames, _set_error, _set_at = slot_setters(MachineState)


class StepResult(Record):
    __slots__ = _fields = ("state", "emitted", "marks", "diagnostics")

    def __init__(self, state: MachineState, emitted: str, marks: tuple[Mark, ...],
                 diagnostics: list[Diagnostic]):
        self.state, self.emitted, self.marks, self.diagnostics = state, emitted, marks, diagnostics


class InterpResult(Record):
    """Everything the caller needs to splice one untrusted value: the flush
    output that precedes it, the escaper chain (innermost first), inserted
    delimiter text, and the successor state, errored where no value may go."""

    __slots__ = _fields = ("state", "site", "emitted", "marks", "escapers", "pre", "post",
                           "diagnostics")

    def __init__(self, state: MachineState, site: MachineState, emitted: str,
                 marks: tuple[Mark, ...], escapers: tuple[str, ...], pre: str, post: str,
                 diagnostics: list[Diagnostic]):
        self.state, self.site, self.emitted, self.marks = state, site, emitted, marks
        self.escapers, self.pre, self.post, self.diagnostics = escapers, pre, post, diagnostics


class Machine:
    def __init__(self, root_table: TransitionTable, subs: dict[str, TransitionTable]):
        self.root_table = root_table
        self.subs = subs

    @property
    def language(self) -> str:
        return self.root_table.name

    def zero_state(self) -> MachineState:
        return MachineState(context=self.root_table.start)


class _Level:
    """One machine of the running stack; ``rows`` are its table's resolved
    rows for its context, which ``rows.context`` holds."""

    __slots__ = ("table", "machine_name", "codec_name", "codec", "rows", "pending")

    def __init__(self, machine_name, codec_name, rows, pending):
        self.table, self.rows, self.pending = rows.table, rows, pending
        self.machine_name, self.codec_name = machine_name, codec_name
        self.codec = BUILTIN_CODECS.get(codec_name)


class _Run:
    """Mutable working form of a MachineState for one step call.

    The root's text is kept once, as ``_text`` at thaw. The root's
    ``pending`` is consumed only from the front, nothing appends to it
    during a run (``_consume_at`` appends to inner levels only), and every
    path stores it before a diagnostic can fire; so the consumed text is
    ``_text`` up to ``pending``. ``_anchors`` are the state's, plus ``pos``
    at the end of ``_text`` when the step has a position of its own."""

    def __init__(self, machine: Machine, state: MachineState, pos: Position | None):
        self.machine = machine
        root = machine.root_table
        self._levels = [_Level(root.name, None, root.rows(state.context), state.pending)]
        for fr in state.frames:
            rows = machine.subs[fr.machine].rows(fr.context)
            self._levels.append(_Level(fr.machine, fr.codec, rows, fr.pending))
        self.error: str | None = state.error
        self.out: list[str] = []
        self.out_len = 0
        self.marks: list[Mark] = []
        self.diags: list[Diagnostic] = []
        self._text = state.pending
        self.unfed = 0
        self._anchors = state.pending_at + ((len(self._text), pos),) if pos else state.pending_at

    @property
    def _end(self) -> int:
        return len(self._text) - len(self._levels[0].pending) - self.unfed

    @property
    def pos(self) -> Position:
        """The last anchor at or before the consumed end, advanced over the text since."""
        end, start, pos = self._end, 0, _NOWHERE
        for off, at in self._anchors:
            if off > end:
                break
            start, pos = off, at
        return pos.advance(self._text[start:end])

    # -- output ------------------------------------------------------------

    def _encode_text(self, i: int, text: str) -> str:
        for j in range(i, 0, -1):
            text = self._levels[j].codec.encode(text)
        return text

    def _diag(self, severity: Severity, message: str) -> None:
        self.diags.append(Diagnostic(severity, message, self.pos))
        if severity is Severity.ERROR and self.error is None:
            self.error = message

    def _fire(self, i: int, rule: Rule, rows, string: str = "", end: int = 0) -> None:
        """Apply one ``[rules]`` row at level ``i``, whatever its trigger, and
        move that level to ``rows``, the successor's. A regex row matched
        ``string[:end]``; the caller consumes it."""
        action = rule.action
        if action is not None and action.kind == "end":
            self._pop_below(i)
        severity = rule.severity
        if severity is Severity.ERROR:
            self._diag(severity, rule.message)
            return
        if rule.events:  # only root rows have events: machine_for_tag checks
            m = rule.regex and rule.regex.match(string)  # the rule's own group numbers
            for ev in rule.events:
                ident = ev.ident if ev.group is None or m is None else m.group(ev.group)
                self.marks.append(Mark(ev.kind, self.out_len, ident))
        text = string[:end] if rule.substitution is None else rule.substitution
        if text:
            if i:
                text = self._encode_text(i, text)
            self.out.append(text)
            self.out_len += len(text)
        if severity is Severity.WARNING:
            self._diag(severity, rule.message)
        self._levels[i].rows = rows
        if action is not None and action.kind == "start":
            if i != len(self._levels) - 1:
                self._diag(Severity.ERROR, "subsidiary started while another is active (table bug)")
                return
            table = self.machine.subs[action.machine]
            self._levels.append(_Level(action.machine, action.codec, table.rows(table.start), ""))

    # -- stepping ----------------------------------------------------------

    def drain(self, flushing: bool, min_level: int = 0, at_interp: bool = False) -> None:
        """Fire rows and consume held-back text until nothing moves. Each turn
        fires the innermost machine's epsilon row (with ``at_interp``, all text
        flushed, else its interp row), moves an enclosing level's text inward
        (``_consume_at``), or consumes the innermost machine's own text here,
        until a row that is not plain needs ``_fire`` or the new context has
        an epsilon row. The consume loop counts its ops locally."""
        global _op_count
        levels = self._levels
        streak = 0
        while self.error is None:
            i = len(levels) - 1
            lvl = levels[i]
            rows = lvl.rows
            row = rows.epsilon or (rows.interp if at_interp else None)
            if row is not None:
                rule, successor = row
                _op_count += 1
                if (successor is rows and rule.action is None
                        and rule.severity is not Severity.ERROR):
                    self._diag(Severity.ERROR, f"{rule.trigger} rule at {lvl.table.filename}:"
                               f"{rule.line} does not change the context (table bug)")
                else:
                    self._fire(i, rule, successor)
                streak += 1
                if streak > len(levels[-1].table.rules) + 4:
                    self._diag(Severity.ERROR, "epsilon and interp rules never reached "
                                               "a consuming step (table bug)")
                    return
                continue
            streak = 0
            if i:
                j = min_level
                while j < i and not (levels[j].pending and self._consume_at(j, flushing)):
                    j += 1
                if j < i:
                    continue
            pending, out, ops = lvl.pending, self.out, 0
            fused, won, hold = rows.fused, rows.won, 0 if flushing else lvl.table.lookahead
            while pending and len(pending) >= hold:
                m = fused(pending)
                rule, successor, plain = won[m.lastindex] or rows.lane(m.lastindex)
                end = m.end()
                ops += 1
                if not plain:
                    lvl.pending = pending
                    self._fire(i, rule, successor, pending, end)
                    pending = pending[end:]
                    break
                text, pending = pending[:end], pending[end:]
                if i:
                    text = self._encode_text(i, text)
                out.append(text)
                self.out_len += len(text)
                if successor is not rows:
                    lvl.rows = rows = successor
                    fused, won = rows.fused, rows.won
                    if rows.epsilon:
                        break
            else:
                lvl.pending = pending
                _op_count += ops
                return
            lvl.pending = pending
            _op_count += ops

    def _pop_below(self, i: int) -> None:
        while len(self._levels) - 1 > i:
            lvl = self._levels.pop()
            if not lvl.rows.terminal:
                self._diag(Severity.WARNING,
                           f"nested {lvl.table.name} content ended prematurely: "
                           f"{lvl.table.end_message(lvl.rows.context)}")

    def _consume_at(self, i: int, flushing: bool) -> bool:
        """Move enclosing level ``i``'s text inward unit by unit until one of
        its rows matches, then drain the inner machines and fire that row, as
        a drain turn per unit would (a decoded unit moves no context, so no
        epsilon row fires). False if ``i`` holds back less than its lookahead."""
        global _op_count
        lvl = self._levels[i]
        pending = lvl.pending
        hold = 0 if flushing else lvl.table.lookahead
        if len(pending) < hold:
            return False
        inner, rows = self._levels[i + 1], lvl.rows
        while True:
            m = rows.fused(pending)
            rule, successor, _ = rows.won[m.lastindex] or rows.lane(m.lastindex)
            if rule is not None:
                _op_count += 1
                lvl.pending, end = pending, m.end()
                self.drain(flushing=True, min_level=i + 1)
                if self.error is not None:
                    return True
                self._fire(i, rule, successor, pending, end)
                lvl.pending = pending[end:]
                return True
            n, out, warn = inner.codec.decode_unit(pending)
            if warn:
                lvl.pending = pending
                self._diag(Severity.WARNING, warn)
            inner.pending += out
            pending = pending[n:]
            if not pending or len(pending) < hold:
                lvl.pending = pending
                return True

    def freeze(self) -> MachineState:
        levels = self._levels
        root = levels[0]
        if self.error is not None:
            return MachineState(root.rows.context, "", (), self.error)
        frames = tuple([Frame(lvl.machine_name, lvl.codec_name, lvl.rows.context, lvl.pending)
                        for lvl in levels[1:]]) if len(levels) > 1 else ()
        if not root.pending:
            return MachineState(root.rows.context, "", frames)
        end = self._end
        return MachineState(root.rows.context, root.pending, frames, None, ((0, self.pos), *[
            (off - end, at) for off, at in self._anchors if off > end]))


def step_fixed(machine: Machine, state: MachineState, chunk: str,
               pos: Position | None = None) -> StepResult:
    """Consume a fixed chunk. An errored state absorbs input and emits
    nothing. The chunk joins the held-back text first, anchored at ``pos``.
    While every level holds back less than its table's lookahead and the
    innermost context has no epsilon row, nothing can move, and that is the
    result; else one run drains the text a window at a time."""
    held, table = state.pending, machine.root_table
    at = state.pending_at + ((len(held), pos),) if pos else state.pending_at
    state = MachineState(state.context, held + chunk, state.frames, state.error, at)
    text = state.pending
    if state.error is None and len(text) < table.lookahead:
        context = state.context
        for fr in state.frames:
            table, context = machine.subs[fr.machine], fr.context
            if len(fr.pending) >= table.lookahead:
                break
        else:
            if table.rows(context).epsilon is None:
                return StepResult(state, "", (), [])
    run = _Run(machine, state, None)
    root = run._levels[0]
    root.pending = ""
    for fed in range(0, len(text) or 1, _WINDOW):
        root.pending += text[fed:fed + _WINDOW]
        run.unfed = max(len(text) - fed - _WINDOW, 0)
        run.drain(flushing=False)
    return StepResult(run.freeze(), "".join(run.out), tuple(run.marks), run.diags)


def _memoizable(step):
    """Add ``memo`` to ``step(machine, state, pos)``, keyed by a plain tuple. A replay
    counts its first run's ops and gets a fresh diagnostics list (each result's last field)."""

    @functools.wraps(step)
    def stepped(machine, state, pos=None, memo=None):
        global _op_count
        if memo is None:
            return step(machine, state, pos)
        key = (step, state.context, state.pending, state.frames, state.error)
        if key in memo:
            result, ops = memo[key]
            _op_count += ops
            return result.__class__(*result._values(result)[:-1], [])
        before = _op_count
        result = step(machine, state, pos)
        if not result.diagnostics and result.state.error is None and not result.state.pending:
            memo[key] = result, _op_count - before
        return result

    return stepped


@_memoizable
def finish(machine: Machine, state: MachineState, pos: Position | None = None) -> StepResult:
    """Flush all held-back text. Called at interpolation sites, control-flow
    boundaries, and before the end-context check."""
    run = _Run(machine, state, pos)
    run.drain(flushing=True)
    return StepResult(run.freeze(), "".join(run.out), tuple(run.marks), run.diags)


@_memoizable
def step_interp(machine: Machine, state: MachineState,
                pos: Position | None = None) -> InterpResult:
    """Resolve an interpolation boundary: flush held-back text, fire epsilon
    and interp rows (epsilon first), then assemble the escaper chain from
    the innermost machine outward."""
    global _op_count
    run = _Run(machine, state, pos)
    run.drain(flushing=True)
    run.drain(flushing=True, at_interp=True)
    site = run.freeze()
    emitted = "".join(run.out)
    emitted_marks = tuple(run.marks)
    if run.error is not None:
        return InterpResult(site, site, emitted, emitted_marks, (), "", "", run.diags)

    chain: list[str] = []
    map_pres: list[tuple[int, str]] = []
    map_posts: list[tuple[int, str]] = []
    for li in range(len(run._levels) - 1, -1, -1):
        lvl = run._levels[li]
        if lvl.rows.escape is None:
            context = context_str(lvl.rows.context)
            if li == len(run._levels) - 1:
                msg = f"interpolation not allowed in this context: ({context})"
            else:
                msg = f"no escaper mapping for enclosing {lvl.table.name} context ({context})"
            run._diag(Severity.ERROR, msg)
            return InterpResult(run.freeze(), site, emitted, emitted_marks, (), "", "", run.diags)
        row, lvl.rows = lvl.rows.escape
        _op_count += 1
        chain.extend(row.escapers)
        if row.pre:
            map_pres.append((li, row.pre))
        if row.post:
            map_posts.append((li, row.post))

    # outer delimiters wrap inner ones
    pre = "".join([run._encode_text(li, t) for li, t in reversed(map_pres)])
    post = "".join([run._encode_text(li, t) for li, t in map_posts])
    return InterpResult(run.freeze(), site, emitted, emitted_marks, tuple(chain), pre, post,
                        run.diags)


def merge(a: MachineState, b: MachineState,
          table: TransitionTable | None = None) -> MachineState:
    """Conservative join of two flushed states (``finish`` results, which
    hold back no text) at a control-flow merge point.

    Equal states merge to themselves; an errored input is absorbing; any
    disagreement fail-stops with a message naming the conflicting fields.
    """
    if a.error is not None:
        return a
    if b.error is not None:
        return b
    if a == b:
        return a
    conflicts: list[str] = []
    if a.context != b.context:
        names = table.fields if table is not None else None
        for k, (x, y) in enumerate(zip(a.context, b.context)):
            if x != y:
                fname = names[k] if names else f"field {k}"
                conflicts.append(f"{fname}: {x} vs {y}")
    if len(a.frames) != len(b.frames):
        conflicts.append(f"subsidiary stack depth: {len(a.frames)} vs {len(b.frames)}")
    else:
        for fa, fb in zip(a.frames, b.frames):
            if fa != fb:
                conflicts.append(
                    f"subsidiary {fa.machine}: ({context_str(fa.context)}) "
                    f"vs {fb.machine}: ({context_str(fb.context)})")
    msg = "context conflict at join: " + "; ".join(conflicts)
    return MachineState(context=a.context, pending="", frames=(), error=msg)


def is_valid_end(machine: Machine, state: MachineState) -> tuple[bool, str | None]:
    """Whether composed content may validly end in this flushed state (a
    ``finish`` result, which holds back no text)."""
    if state.error is not None:
        return False, state.error
    table = machine.root_table
    if not table.rows(state.context).terminal:
        return False, table.end_message(state.context)
    if state.frames:
        return False, f"content ends inside nested {state.frames[-1].machine} content"
    return True, None


def state_str(state: MachineState) -> str:
    """Render a state the way annotations print it: ``(Pcdata, _, _, _)``."""
    if state.error is not None:
        return f"<error: {state.error}>"
    out = f"({context_str(state.context)})"
    for fr in state.frames:
        out += f" / {fr.machine}({context_str(fr.context)})"
    return out
