"""Transition table model, file format parser, and static validation.

Tables are pipe-delimited: each rule row is

    | pattern | trigger | substitution | successor[; subsidiary-action] | [severity: message] |

where the trigger is a backtick-quoted regex anchored at the cursor, the
keyword ``interp`` (an interpolated value is arriving), or empty (an epsilon
transition). A preamble declares the context fields and their vocabularies,
regex macros, the start and terminal contexts, and the escaper map. Rule
order is significant: the first matching rule wins, always.

Contexts are finite, so a table resolves its rules per context, not per step:
it keeps one memo of resolved rows per context. The first time a context is
seen, its regex rows are memoized in file order; each row's successor rows
and whether it is plain are resolved the first time it wins, and the first
epsilon, interp and escape row the first time it is read. Every trigger
consumes at least one character, which the parser checks on the regex's
parse tree, so dispatch is one match of the regex rows' alternation, a group
per row, with no file-order walk: ``re`` tries alternatives left to right, so
"first match wins" is unchanged, and ``lastindex`` names the winner.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
try:
    from re import _constants as _sre, _parser
except ImportError:  # Python 3.10, where re is one module
    import sre_constants as _sre, sre_parse as _parser

from . import escapers, marks
from .diagnostics import Diagnostic, Position, Severity, error

WILDCARD = "_"

TRIGGER_REGEX = "regex"
TRIGGER_INTERP = "interp"
TRIGGER_EPSILON = "epsilon"

DEFAULT_LOOKAHEAD = 16

_FIRST_ROWS = {"epsilon": "epsilon_rules", "interp": "interp_rules", "escape": "escapes"}
_EDGES = {_sre.AT_BEGINNING: "^", _sre.AT_BEGINNING_STRING: r"\A", _sre.AT_END: "$",
          _sre.AT_END_STRING: r"\Z", _sre.AT_BOUNDARY: r"\b", _sre.AT_NON_BOUNDARY: r"\B"}


def _unfusable(parsed) -> str | None:
    """The first thing in a parsed regex that a trigger may not hold: a
    backreference or group conditional (fusing renumbers groups), or an edge
    anchor, word boundary or lookbehind (it reads outside the trigger's text)."""
    for op, av in parsed:
        if op is _sre.GROUPREF or op is _sre.GROUPREF_EXISTS:
            return "backreference"
        if op is _sre.AT:
            return _EDGES[av]
        if op in (_sre.ASSERT, _sre.ASSERT_NOT) and av[0] < 0:
            return "lookbehind"
        for sub in av if isinstance(av, tuple) else (av,):
            for p in sub if isinstance(sub, list) else (sub,):
                if isinstance(p, _parser.SubPattern) and (found := _unfusable(p)):
                    return found
    return None


_FLAG_LETTERS = ((re.A, "a"), (re.I, "i"), (re.L, "L"), (re.M, "m"), (re.S, "s"), (re.X, "x"))


def _alternative(regex: re.Pattern) -> str:
    """A rule regex as one group of a fused alternation, with its global
    flags, which its parse sets in ``regex.flags``, scoped as one group:
    ``(?i)(?s)x`` -> ``((?is:x))``."""
    letters = "".join(letter for flag, letter in _FLAG_LETTERS if regex.flags & flag)
    src = re.sub(r"\A(?:\(\?[aiLmsux]+\))+", "", regex.pattern)
    return f"((?{letters}:{src}))" if letters else f"({src})"


@dataclass(frozen=True)
class Pattern:
    """One slot per context field; a slot is a vocabulary value or ``_``."""

    slots: tuple[str, ...]

    def matches(self, context: tuple[str, ...]) -> bool:
        return all(s == WILDCARD or s == c for s, c in zip(self.slots, context))

    def apply_to(self, context: tuple[str, ...]) -> tuple[str, ...]:
        """As a successor: wildcard slots keep the current field."""
        return tuple(c if s == WILDCARD else s for s, c in zip(self.slots, context))


@dataclass(frozen=True)
class Event:
    kind: str
    ident: str | None = None
    group: int | None = None


@dataclass(frozen=True)
class Action:
    kind: str  # "start" | "end"
    machine: str | None = None
    codec: str | None = None


@dataclass(frozen=True)
class Rule:
    line: int
    pattern: Pattern
    trigger: str
    regex_src: str | None
    regex: "re.Pattern | None"
    substitution: str | None
    events: tuple[Event, ...]
    successor: Pattern
    action: Action | None
    severity: Severity | None
    message: str | None


@dataclass(frozen=True)
class EscapeRule:
    """Escaper map row: what to do when an interpolation arrives in a
    matching context (pre/post text wraps the escaped value)."""

    line: int
    pattern: Pattern
    pre: str
    escapers: tuple[str, ...]
    post: str
    successor: Pattern


class ContextRows:
    """The rows of one table that match one context, resolved once: the
    regex rows in file order as ``{group: rule}``, ``fused``, their
    alternation plus a last group for the default row, which copies one
    character, and ``won``, each group's entry (rule, successor's rows,
    plain), resolved at first use; the default's is (None, self, True). Every
    row consumes at least one character, so one fused match picks the row:
    ``won[m.lastindex] or lane(m.lastindex)``. A *plain* row has no action,
    events, severity or substitution. ``epsilon``, ``interp`` and ``escape``,
    resolved at first read, are the first such row as (row, successor's rows)
    or None; ``terminal`` says whether content may end here. Successor rows are
    ``self`` or ``table.rows``: racing fills agree."""

    __slots__ = ("table", "context", "regex", "fused", "won", "epsilon", "interp", "escape", "terminal")

    def __init__(self, table: "TransitionTable", context: tuple[str, ...]):
        self.table, self.context = table, context
        rules = [r for r in table.regex_rules if r.pattern.matches(context)]
        groups = list(itertools.accumulate([1 + r.regex.groups for r in rules], initial=1))
        self.regex = dict(zip(groups, rules))
        self.fused = re.compile("|".join(
            [_alternative(r.regex) for r in rules] + [r"([\s\S])"])).match
        self.won = [None] * groups[-1] + [(None, self, True)]
        self.terminal = table.terminal.matches(context)

    def __getattr__(self, name):  # epsilon, interp and escape, at first read
        if name not in _FIRST_ROWS:
            raise AttributeError(name)
        row = next((r for r in getattr(self.table, _FIRST_ROWS[name])
                    if r.pattern.matches(self.context)), None)
        setattr(self, name, entry := row and (row, self.after(row)))
        return entry

    def after(self, row) -> "ContextRows":
        """The rows of ``row``'s successor context."""
        successor = row.successor.apply_to(self.context)
        return self if successor == self.context else self.table.rows(successor)

    def lane(self, group: int):
        """Resolve and keep the ``won`` entry of the row at ``group``."""
        rule = self.regex[group]
        self.won[group] = entry = (rule, self.after(rule), not (
            rule.action or rule.events or rule.severity or rule.substitution is not None))
        return entry


@dataclass
class TransitionTable:
    """A parsed table, with one memo of resolved rows per context
    (``rows``, which fills ``row_memo``). An entry depends only on the table
    and the context, so threads that race to fill one compute equal rows."""

    name: str
    filename: str
    fields: tuple[str, ...]
    vocab: dict[str, tuple[str, ...]]
    start: tuple[str, ...]
    terminal: Pattern
    lookahead: int
    uses: tuple[str, ...]
    endmsgs: dict[str, str]
    rules: tuple[Rule, ...]
    escapes: tuple[EscapeRule, ...]
    regex_rules: tuple[Rule, ...] = field(init=False)
    epsilon_rules: tuple[Rule, ...] = field(init=False)
    interp_rules: tuple[Rule, ...] = field(init=False)
    row_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.regex_rules = tuple(r for r in self.rules if r.trigger == TRIGGER_REGEX)
        self.epsilon_rules = tuple(r for r in self.rules if r.trigger == TRIGGER_EPSILON)
        self.interp_rules = tuple(r for r in self.rules if r.trigger == TRIGGER_INTERP)

    def rows(self, context: tuple[str, ...]) -> ContextRows:
        hit = self.row_memo.get(context)
        if hit is None:
            hit = self.row_memo[context] = ContextRows(self, context)
        return hit

    def end_message(self, context) -> str:
        state = context[0]
        if state in self.endmsgs:
            return self.endmsgs[state]
        return f"content may not end in context ({context_str(context)})"

    def all_contexts(self):
        return itertools.product(*(self.vocab[f] for f in self.fields))


def context_str(context: tuple[str, ...]) -> str:
    return ", ".join(WILDCARD if v == "None" else v for v in context)


def _split_row(line: str) -> list[str]:
    """Split a stripped ``|``-delimited row, ignoring pipes inside backticks."""
    cells, cur, ticked = [], [], False
    for ch in line:
        if ch == "`":
            ticked = not ticked
            cur.append(ch)
        elif ch == "|" and not ticked:
            cells.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    cells.append("".join(cur).strip())
    # drop the empty cells produced by the leading and trailing pipes
    if cells and cells[0] == "":
        cells = cells[1:]
    if cells and cells[-1] == "":
        cells = cells[:-1]
    return cells


_EVENT_RE = re.compile(r"!([A-Za-z]+)(?:\(([^()]*)\))?")
_NAME_RE = re.compile(r"[A-Za-z_]\w*")


class _Parser:
    def __init__(self, text: str, filename: str):
        self.lines = text.splitlines()
        self.filename = filename
        self.diags: list[Diagnostic] = []
        self.name = None
        self.fields: tuple[str, ...] | None = None
        self.vocab: dict[str, tuple[str, ...]] = {}
        self.start = None
        self.terminal = None
        self.lookahead = DEFAULT_LOOKAHEAD
        self.macros: dict[str, str] = {}
        self.uses: list[str] = []
        self.endmsgs: dict[str, str] = {}
        self.rules: list[Rule] = []
        self.escapes: list[EscapeRule] = []

    def err(self, lineno: int, msg: str):
        self.diags.append(error(msg, Position(self.filename, lineno, 1)))

    def parse(self) -> TransitionTable | None:
        section = None
        for idx, raw in enumerate(self.lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == "[rules]":
                section = "rules"
                continue
            if line == "[escapers]":
                section = "escapers"
                continue
            if line.startswith("|"):
                cells = _split_row(line)
                if section == "rules":
                    self._parse_rule(idx, cells)
                elif section == "escapers":
                    self._parse_escape(idx, cells)
                else:
                    self.err(idx, "table row outside of a [rules] or [escapers] section")
                continue
            self._parse_directive(idx, line)

        if self.name is None:
            self.err(0, "missing 'machine' directive")
        if self.fields is None:
            self.err(0, "missing 'fields' directive")
        if self.start is None:
            self.err(0, "missing 'start' directive")
        if any(d.severity is Severity.ERROR for d in self.diags):
            return None
        if self.terminal is None:
            self.terminal = Pattern((WILDCARD,) * len(self.fields))
        return TransitionTable(
            name=self.name,
            filename=self.filename,
            fields=self.fields,
            vocab=self.vocab,
            start=self.start,
            terminal=self.terminal,
            lookahead=self.lookahead,
            uses=tuple(self.uses),
            endmsgs=dict(self.endmsgs),
            rules=tuple(self.rules),
            escapes=tuple(self.escapes),
        )

    def _parse_directive(self, idx: int, line: str):
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "machine":
            self.name = rest
        elif word == "fields":
            self.fields = tuple(rest.split())
        elif word == "values":
            fname, _, vals = rest.partition(":")
            fname = fname.strip()
            if self.fields is None or fname not in self.fields:
                self.err(idx, f"values for undeclared field {fname!r}")
                return
            self.vocab[fname] = tuple(vals.split())
        elif word == "start":
            ctx = tuple(s.strip() for s in rest.split(","))
            pat = self._parse_pattern(idx, rest, allow_wildcard=False)
            if pat is not None:
                self.start = ctx
        elif word == "terminal":
            self.terminal = self._parse_pattern(idx, rest)
        elif word == "lookahead":
            try:
                self.lookahead = int(rest)
            except ValueError:
                self.err(idx, f"bad lookahead value {rest!r}")
        elif word == "macro":
            mname, _, body = rest.partition("=")
            self.macros[mname.strip()] = body.strip()
        elif word == "uses":
            self.uses.extend(rest.split())
            for name in rest.split():
                if not _NAME_RE.fullmatch(name):  # it names a table file
                    self.err(idx, f"'uses' name {name!r} is not an identifier")
        elif word == "endmsg":
            state, _, msg = rest.partition(":")
            self.endmsgs[state.strip()] = msg.strip()
        else:
            self.err(idx, f"unknown directive {word!r}")

    def _parse_pattern(self, idx: int, text: str, allow_wildcard=True) -> Pattern | None:
        slots = tuple(s.strip() for s in text.split(","))
        if self.fields is None:
            self.err(idx, "pattern before 'fields' directive")
            return None
        if len(slots) != len(self.fields):
            self.err(idx, f"pattern {text!r} has {len(slots)} slots; table declares {len(self.fields)} fields")
            return None
        for slot, fname in zip(slots, self.fields):
            if slot == WILDCARD:
                if not allow_wildcard:
                    self.err(idx, f"wildcard not allowed in {text!r}")
                    return None
                continue
            if slot not in self.vocab.get(fname, ()):
                self.err(idx, f"unknown {fname} name {slot!r}")
                return None
        return Pattern(slots)

    def _expand_macros(self, idx: int, src: str) -> str | None:
        def repl(m):
            name = m.group(1)
            if name not in self.macros:
                missing.append(name)
                return ""
            return "(?:" + self.macros[name] + ")"

        missing: list[str] = []
        out = re.sub(r"\{\{(\w+)\}\}", repl, src)
        if missing:
            self.err(idx, f"unknown macro {missing[0]!r}")
            return None
        return out

    def _parse_regex(self, idx: int, src: str) -> "re.Pattern | None":
        expanded = self._expand_macros(idx, src)
        if expanded is None:
            return None
        try:
            parsed = _parser.parse(expanded)
            compiled = re.compile(expanded)
        except re.error as exc:
            self.err(idx, f"malformed regex {src!r}: {exc}")
            return None
        found = _unfusable(parsed)
        if found:
            self.err(idx, f"backreferences are not supported: {src!r}" if found == "backreference"
                     else f"{found} in regex {src!r} looks outside its own text: a trigger "
                     "is matched from a token to a chunk or window edge")
            return None
        try:  # as two rows of a context's fused pattern, so group names clash
            re.compile("|".join([_alternative(compiled)] * 2))
        except re.error as exc:
            self.err(idx, f"regex {src!r} cannot be one row of a fused pattern: {exc}")
            return None
        if parsed.getwidth()[0] == 0:
            self.err(idx, f"regex {src!r} may match an empty prefix")
            return None
        return compiled

    def _tick_text(self, cell: str) -> str | None:
        """Unwrap a backtick-quoted cell; None when the cell is empty."""
        if cell == "":
            return None
        if cell.startswith("`") and cell.endswith("`") and len(cell) >= 2:
            return cell[1:-1]
        return cell

    def _parse_substitution(self, idx: int, cell: str):
        """Substitution cell: optional backtick text plus zero or more
        ``!Event`` entries. Events imply erasing the matched text."""
        text: str | None = None
        events: list[Event] = []
        rest = cell.strip()
        if rest.startswith("`"):
            # _split_row ends a cell only outside backticks, so this one closes
            end = rest.index("`", 1)
            text = rest[1:end]
            rest = rest[end + 1 :].strip()
        while rest:
            m = _EVENT_RE.match(rest)
            if not m:
                self.err(idx, f"bad substitution cell {cell!r}")
                return None, ()
            kind, arg = m.group(1), m.group(2)
            if kind not in marks.LITERAL_MARK_KINDS:
                self.err(idx, f"event kind {kind!r} is added only around rendered values"
                         if kind in marks.MARK_KINDS else f"unknown event kind {kind!r}")
                return None, ()
            if arg and arg.startswith("$"):
                events.append(Event(kind, group=int(arg[1:])))
            else:
                events.append(Event(kind, ident=arg or None))
            rest = rest[m.end() :].strip()
        if events and text is None:
            text = ""
        return text, tuple(events)

    def _parse_successor(self, idx: int, cell: str):
        body, _, action_src = cell.partition(";")
        succ = self._parse_pattern(idx, body.strip())
        action = None
        action_src = action_src.strip()
        if action_src:
            m = re.fullmatch(r"start\(\s*(\w+)\s*,\s*(\w+)\s*\)", action_src)
            if m:
                action = Action("start", machine=m.group(1), codec=m.group(2))
            elif action_src == "end":
                action = Action("end")
            else:
                self.err(idx, f"bad subsidiary action {action_src!r}")
        return succ, action

    def _parse_rule(self, idx: int, cells: list[str]):
        if len(cells) not in (4, 5):
            self.err(idx, f"rule row has {len(cells)} columns; expected 4 or 5")
            return
        pattern = self._parse_pattern(idx, cells[0])
        if pattern is None:
            return
        trig_cell = cells[1]
        regex = regex_src = None
        if trig_cell == "":
            trigger = TRIGGER_EPSILON
        elif trig_cell == "interp":
            trigger = TRIGGER_INTERP
        else:
            trigger = TRIGGER_REGEX
            regex_src = self._tick_text(trig_cell)
            regex = self._parse_regex(idx, regex_src)
            if regex is None:
                return
        substitution, events = self._parse_substitution(idx, cells[2])
        successor, action = self._parse_successor(idx, cells[3])
        if successor is None:
            return
        severity = message = None
        if len(cells) == 5 and cells[4]:
            m = re.fullmatch(r"([WE]):\s*(.*)", cells[4])
            if not m:
                self.err(idx, f"bad diagnostic cell {cells[4]!r}")
                return
            severity = Severity.WARNING if m.group(1) == "W" else Severity.ERROR
            message = m.group(2)
        self.rules.append(
            Rule(idx, pattern, trigger, regex_src, regex, substitution, events,
                 successor, action, severity, message)
        )

    def _parse_escape(self, idx: int, cells: list[str]):
        if len(cells) != 5:
            self.err(idx, f"escaper row has {len(cells)} columns; expected 5")
            return
        pattern = self._parse_pattern(idx, cells[0])
        if pattern is None:
            return
        pre = self._tick_text(cells[1]) or ""
        names = tuple(cells[2].split())
        for name in names:
            if name not in escapers.known_names():
                self.err(idx, f"unknown escaper name {name!r}")
                return
        post = self._tick_text(cells[3]) or ""
        successor = self._parse_pattern(idx, cells[4])
        if successor is None:
            return
        self.escapes.append(EscapeRule(idx, pattern, pre, names, post, successor))


def parse_table(text: str, filename: str = "<table>"):
    """Parse a transition table. Returns (table, diagnostics); the table is
    None when any diagnostic is an error."""
    parser = _Parser(text, filename)
    table = parser.parse()
    return table, parser.diags


_VALIDATE_PRODUCT_CAP = 50_000


def validate_table(table: TransitionTable) -> list[Diagnostic]:
    """Static lint of a parsed table, every finding an error: epsilon and
    interp rows that make no progress, shadowed rules, undeclared subsidiary
    machines."""
    diags: list[Diagnostic] = []
    pos = lambda line: Position(table.filename, line, 1)  # noqa: E731

    for rule in table.rules:
        if rule.action and rule.action.kind == "start":
            if rule.action.machine not in table.uses:
                diags.append(error(
                    f"subsidiary machine {rule.action.machine!r} is not declared in 'uses'",
                    pos(rule.line)))

    seen: dict[tuple, int] = {}
    for rule in table.rules:
        first = seen.setdefault((rule.pattern.slots, rule.trigger, rule.regex_src), rule.line)
        if first != rule.line:
            diags.append(error(f"rule is shadowed by the identical rule at line {first}",
                               pos(rule.line)))

    total = 1
    for f in table.fields:
        total *= max(1, len(table.vocab.get(f, ())))
    # Walk each context as an interpolation site fires rows: its epsilon row,
    # else its interp row. As at run time, a row with an action or an error
    # severity ends the walk, and any other row must change the context.
    walked = table.epsilon_rules + table.interp_rules
    if walked and total <= _VALIDATE_PRODUCT_CAP:
        reported: set[tuple] = set()
        for ctx in table.all_contexts():
            cur = ctx
            chain: list[Rule] = []
            visited = {cur}
            while len(chain) <= 100:
                # a scan, not the row memo: this lint visits every context,
                # most of which no input reaches, and resolving all of their
                # rows would cost several times the lint itself
                rule = next((r for r in walked if r.pattern.matches(cur)), None)
                if rule is None or rule.action is not None or rule.severity is Severity.ERROR:
                    break
                nxt = rule.successor.apply_to(cur)
                chain.append(rule)
                if nxt == cur:
                    key, line = (rule.line,), rule.line
                    message = (f"{rule.trigger} rule produces a successor context identical "
                               "to the current context")
                elif nxt in visited:
                    key, line = tuple(sorted({r.line for r in chain})), chain[0].line
                    kinds = "/".join(sorted({r.trigger for r in chain}, reverse=True))
                    message = f"{kinds} cycle through rules at lines {', '.join(map(str, key))}"
                else:
                    visited.add(nxt)
                    cur = nxt
                    continue
                if key not in reported:
                    reported.add(key)
                    diags.append(error(message, pos(line)))
                break
    return diags
