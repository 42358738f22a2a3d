import copy
import pickle
import random

import pytest

from conftest import program_of
from ctxesc import machine as machine_mod
from ctxesc.compiler import erase, propagate
from ctxesc.diagnostics import Position, Severity, TableError
from ctxesc.machine import (
    Frame,
    MachineState,
    build_machine,
    finish,
    is_valid_end,
    merge,
    state_str,
    step_fixed,
    step_interp,
    transition_op_count,
)
from ctxesc.marks import Mark
from ctxesc.plan import execute_plan
from ctxesc.runtime import Bindings, render_full
from ctxesc.tables import parse_table
from support import random_template

POS = Position("t", 1, 1)
CTX = ("Attr", "None", "Url", "Double")
FRAME = Frame("Url", "htmlCodec", ("Path",), "a")


def run_fixed(machine, text, state=None):
    state = state or machine.zero_state()
    r = step_fixed(machine, state, text, POS)
    f = finish(machine, r.state, POS)
    return f.state, r.emitted + f.emitted, list(r.diagnostics) + list(f.diagnostics)


def toy_machine(extra):
    table, diags = parse_table(
        "machine toy\nfields state\nvalues state: A B C\nstart A\nterminal A\n" + extra)
    assert table is not None, [str(d) for d in diags]
    return build_machine(table)


def test_pcdata_attack_surface_reduction(html):
    state, emitted, _ = run_fixed(html, "I <3 <b>you</b>")
    assert emitted == "I &lt;3 <b>you</b>"
    assert state.context == ("Pcdata", "None", "None", "None")


def test_empty_chunk_leaves_state_unchanged(html):
    state = html.zero_state()
    r = step_fixed(html, state, "", POS)
    assert r.state == state
    assert r.emitted == ""


def test_close_tag_attribute_warning(html):
    state = MachineState(context=("CName", "None", "None", "None"))
    r = step_fixed(html, state, '"x"', POS)
    f = finish(html, r.state, POS)
    diags = r.diagnostics + f.diagnostics
    assert [d.message for d in diags] == ["HTML attribute in close tag"]
    assert diags[0].severity is Severity.WARNING


def test_close_tag_entry(html):
    # `</` alone cannot start a close tag: the lookahead needs a letter
    state, emitted, _ = run_fixed(html, "</")
    assert state.context[0] == "Pcdata"
    assert emitted == "&lt;/"
    state2, _, _ = run_fixed(html, "</a")
    assert state2.context[0] == "CName"


def test_script_element_lands_in_raw_text(html):
    state, emitted, _ = run_fixed(html, "<script>")
    assert state.context == ("RawText", "Script", "None", "None")
    assert emitted == "<script>"
    # a longer tag name falls through to the generic open-tag rule
    state2, _, _ = run_fixed(html, "<scripts>")
    assert state2.context[0] == "Pcdata"


def test_style_element_starts_css_subsidiary(html):
    state, _, _ = run_fixed(html, "<style>p{}")
    assert state.context[:2] == ("RawText", "Style")
    assert [f.machine for f in state.frames] == ["Css"]
    state2, emitted, _ = run_fixed(html, "<style>p{}</style>done")
    assert state2.context[0] == "Pcdata"
    assert state2.frames == ()
    assert emitted == "<style>p{}</style>done"


def test_url_attribute_classification(html):
    state, _, _ = run_fixed(html, "<a href=")
    assert state.context == ("BeforeValue", "None", "Url", "None")
    state, _, _ = run_fixed(html, "<a title=")
    assert state.context[2] == "Plain"
    state, _, _ = run_fixed(html, "<a hreflang=")
    assert state.context[2] == "Plain"


def test_quoted_url_attribute_spins_up_subsidiary(html):
    state, _, _ = run_fixed(html, '<a href="')
    assert state.context == ("Attr", "None", "Url", "Double")
    assert [f.machine for f in state.frames] == ["Url"]
    assert [f.codec for f in state.frames] == ["htmlCodec"]


def test_entities_decode_for_subsidiary_and_reencode(html):
    _, emitted, _ = run_fixed(html, '<a href="x&quot;y">')
    assert emitted == '<a href="x&quot;y">'


def test_step_interp_in_pcdata(html):
    r = step_interp(html, html.zero_state(), POS)
    assert r.state.error is None
    assert r.escapers == ("HtmlPcdataEscaper",)
    assert (r.pre, r.post) == ("", "")
    assert r.state.context[0] == "Pcdata"


def test_step_interp_unquoted_url_attribute(html):
    state, _, _ = run_fixed(html, "<a href=")
    r = step_interp(html, state, POS)
    assert r.state.error is None
    assert r.escapers == ("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper")
    assert (r.pre, r.post) == ('"', '"')
    assert r.state.context == ("AfterValue", "None", "None", "None")
    assert state_str(r.site) == "(BeforeValue, _, Url, _)"


def test_step_interp_quoted_url_attribute_uses_subsidiary(html):
    state, _, _ = run_fixed(html, '<a href="')
    r = step_interp(html, state, POS)
    assert r.escapers == ("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper")
    assert (r.pre, r.post) == ("", "")
    assert [f.machine for f in r.state.frames] == ["Url"]
    assert r.state.frames[0].context == ("QueryOrFragment",)


def test_step_interp_errored_state_is_absorbing(html):
    bad = MachineState(context=html.zero_state().context, error="boom")
    r = step_interp(html, bad, POS)
    assert r.state.error
    assert r.state == bad


def test_step_interp_comment_fails_stop(html):
    state, _, _ = run_fixed(html, "<!-- ")
    r = step_interp(html, state, POS)
    assert r.state.error
    assert "interpolation not allowed" in r.state.error


def test_errored_state_absorbs_fixed_input(html):
    bad = MachineState(context=html.zero_state().context, error="boom")
    r = step_fixed(html, bad, "<script>", POS)
    assert r.state == bad
    assert r.emitted == ""
    assert r.diagnostics == []


def test_merge_idempotent(html):
    s = html.zero_state()
    assert merge(s, s) is s
    state, _, _ = run_fixed(html, "<a href=")
    assert merge(state, state) == state


def test_merge_conflict_names_fields(html):
    a, _, _ = run_fixed(html, "<p>")
    b, _, _ = run_fixed(html, "<p")
    merged = merge(a, b, html.root_table)
    assert merged.error is not None
    assert "state: Pcdata vs OName" in merged.error


def test_merge_with_errored_state_is_errored(html):
    good = html.zero_state()
    bad = MachineState(context=good.context, error="boom")
    assert merge(good, bad).error == "boom"
    assert merge(bad, good).error == "boom"


def test_merge_subsidiary_stack_depth_conflict(html):
    a, _, _ = run_fixed(html, '<a href="')
    b, _, _ = run_fixed(html, '<a title="')
    merged = merge(a, b, html.root_table)
    assert merged.error is not None
    assert "stack depth" in merged.error or "attr" in merged.error


def test_merge_subsidiary_conflict_at_equal_stack_depth(html):
    a, _, _ = run_fixed(html, '<a href="')
    b, _, _ = run_fixed(html, '<a href="x')
    assert a.context == b.context and len(a.frames) == len(b.frames) == 1
    assert merge(a, b, html.root_table).error == (
        "context conflict at join: subsidiary Url: (Start) vs Url: (MaybeScheme)")


def test_state_str_prints_errors_and_frames(html):
    state, _, _ = run_fixed(html, '<a href="x')
    assert state_str(state) == "(Attr, _, Url, Double) / Url(MaybeScheme)"
    assert state_str(MachineState(CTX, error="boom")) == "<error: boom>"


def test_is_valid_end(html):
    ok, msg = is_valid_end(html, html.zero_state())
    assert ok and msg is None
    state, _, _ = run_fixed(html, "<a href=hello>link</a")
    ok, msg = is_valid_end(html, state)
    assert not ok
    assert "close tag" in msg
    bad = MachineState(context=html.zero_state().context, error="boom")
    assert is_valid_end(html, bad) == (False, "boom")


def test_unclosed_style_is_not_a_valid_end(html):
    state, _, _ = run_fixed(html, "<style>p{")
    ok, msg = is_valid_end(html, state)
    assert not ok
    assert "raw text element" in msg


def test_first_match_wins_order_matters():
    ordered = toy_machine("""
[rules]
| A | `ab` | `1` | B |
| A | `a` | `2` | C |
""")
    flipped = toy_machine("""
[rules]
| A | `a` | `2` | C |
| A | `ab` | `1` | B |
""")
    s1, e1, _ = run_fixed(ordered, "ab")
    s2, e2, _ = run_fixed(flipped, "ab")
    assert (e1, s1.context) == ("1", ("B",))
    assert (e2, s2.context) == ("2b", ("C",))


def test_error_severity_rule_sets_fail_stop():
    machine = toy_machine("""
[rules]
| A | `x` | | _ | E: forbidden |
""")
    state, emitted, diags = run_fixed(machine, "ax")
    assert state.error == "forbidden"
    assert emitted == "a"  # the default-copied prefix, nothing after the error
    assert any(d.severity is Severity.ERROR for d in diags)
    # absorbed afterwards
    r = step_fixed(machine, state, "more", POS)
    assert r.emitted == "" and r.state == state


def test_interp_trigger_rule_emits_its_substitution():
    machine = toy_machine("""
[escapers]
| B | | | | _ |
[rules]
| A | interp | `[` | B |
""")
    r = step_interp(machine, machine.zero_state(), POS)
    assert r.state.error is None
    assert r.emitted == "["
    assert r.pre == ""
    assert r.state.context == ("B",)
    assert r.escapers == ()


def test_interp_rule_records_its_events():
    machine = toy_machine("""
[escapers]
| B | | | | _ |
[rules]
| A | interp | !MsgStart(x) | B |
""")
    r = step_interp(machine, machine.zero_state(), POS)
    assert r.state.error is None
    assert r.marks == (Mark("MsgStart", 0, "x"),)


def test_interp_row_output_precedes_the_rows_it_leads_to():
    machine = toy_machine("""
[escapers]
| C | | | | _ |
[rules]
| A | interp | `1` | B |
| B | | `2` | C |
""")
    r = step_interp(machine, machine.zero_state(), POS)
    assert r.state.error is None
    assert r.emitted + r.pre == "12"
    assert r.state.context == ("C",)


def test_interp_row_events_agree_between_engines():
    machine = toy_machine("""
[escapers]
| B | | | | A |
[rules]
| A | interp | `[` !MsgStart(m) | B |
""")
    program = program_of('tag: toy\n"x${v}y\n')
    bindings = Bindings({"v": "<v>"})
    value, marks, _ = render_full(program, bindings, machine)
    plan_value, plan_marks = execute_plan(erase(propagate(program, machine)), bindings)
    assert (plan_value.text, plan_marks) == (value.text, marks)
    assert value.text == "x[<v>y\n"
    assert Mark("MsgStart", 1, "m") in marks


def assert_table_bug(r):
    assert r.state.error
    assert "table bug" in r.state.error
    assert any(d.severity is Severity.ERROR and d.position == POS and "table bug" in d.message
               for d in r.diagnostics)


def test_interp_rule_that_keeps_its_context_is_a_table_bug():
    machine = toy_machine("""
[escapers]
| A | | | | _ |
[rules]
| A | interp | `[` | _ |
""")
    assert_table_bug(step_interp(machine, machine.zero_state(), POS))


def test_interp_epsilon_ping_pong_is_a_table_bug():
    machine = toy_machine("""
[escapers]
| _ | | | | _ |
[rules]
| A | interp | | B |
| B | | | A |
""")
    assert_table_bug(step_interp(machine, machine.zero_state(), POS))


def test_epsilon_rule_with_substitution_and_diagnostic():
    machine = toy_machine("""
[rules]
| A | | `+` | B | W: epsilon fired |
""")
    state, emitted, diags = run_fixed(machine, "z")
    assert emitted == "+z"
    assert state.context == ("B",)
    assert [d.message for d in diags] == ["epsilon fired"]


def test_runaway_epsilon_reported_as_internal_error():
    machine = toy_machine("""
[rules]
| A | | | B |
| B | | | C |
| C | | | A |
""")
    state, _, diags = run_fixed(machine, "x")
    assert state.error is not None
    assert any("table bug" in d.message for d in diags)


def test_end_message_defaults_to_naming_the_context():
    machine = toy_machine("[rules]\n| A | `x` | | B |\n")
    state, _, _ = run_fixed(machine, "x")
    assert is_valid_end(machine, state) == (False, "content may not end in context (B)")


def test_out_of_range_numeric_reference_in_an_attribute_is_copied_with_a_warning(html):
    state, emitted, diags = run_fixed(html, '<a href="&#0;x">')
    assert emitted == '<a href="&amp;#0;x">'
    assert [str(d) for d in diags] == [
        "t:1:10: warning: malformed numeric character reference copied verbatim"]


def test_a_step_without_a_position_reports_at_the_input_start(html):
    state, _, _ = run_fixed(html, "<!-- ")
    r = step_interp(html, state)
    assert [str(d.position) for d in r.diagnostics] == ["<input>:1:1"]


def test_bounded_lookahead_is_declared_per_table(html):
    assert html.root_table.lookahead == 64


def _linked(root_rows, sub_rows=None):
    """Link a toy root table, and a toy ``Sub`` table when given rows."""
    head = "machine {}\nfields state\nvalues state: A B\nstart A\n[rules]\n"
    root, diags = parse_table(head.format("toy") + root_rows, filename="root.tt")
    assert root is not None, [str(d) for d in diags]
    subs = {}
    if sub_rows is not None:
        subs["Sub"], diags = parse_table(head.format("Sub") + sub_rows, filename="sub.tt")
        assert subs["Sub"] is not None, [str(d) for d in diags]
    return build_machine(root, subs)


def test_link_rejects_unknown_subsidiary():
    with pytest.raises(TableError) as info:
        _linked("| A | `x` | | B; start(Nope, identityCodec) |\n")
    assert str(info.value) == "root.tt:6: unknown subsidiary machine 'Nope'"


def test_link_rejects_unknown_codec():
    with pytest.raises(TableError) as info:
        _linked("| A | `x` | | B; start(Sub, rot13Codec) |\n", "| A | `y` | | B |\n")
    assert str(info.value) == "root.tt:6: unknown codec 'rot13Codec'"


def test_link_rejects_marks_from_a_subsidiary():
    with pytest.raises(TableError) as info:
        _linked("| A | `x` | | B; start(Sub, identityCodec) |\n",
                "| A | `y` | | B |\n| B | `m` | !MsgStart(m1) | A |\n")
    assert str(info.value) == "sub.tt:7: subsidiary machines may not emit marks"


START_SUB = "| A | `<` | | B; start(Sub, identityCodec) |\n"


def test_subsidiary_started_while_another_is_active_is_a_table_bug():
    machine = _linked(START_SUB + "| B | `<` | | A; start(Sub, identityCodec) |\n",
                      "| A | `y` | | B |\n")
    state, _, diags = run_fixed(machine, "<<")
    assert state.error == "subsidiary started while another is active (table bug)"
    assert [str(d) for d in diags] == [
        "t:1:2: error: subsidiary started while another is active (table bug)"]


def test_an_error_in_a_subsidiary_stops_the_enclosing_row():
    machine = _linked(START_SUB + "| B | `>` | `!` | A; end |\n",
                      "| A | `y` | | _ | E: no y here |\n")
    state, emitted, diags = run_fixed(machine, "<y>")
    assert state.error == "no y here"
    assert emitted == "<"  # the enclosing row that would end the subsidiary never fires
    # reported where the enclosing row matched, as nested diagnostics are
    assert [str(d) for d in diags] == ["t:1:3: error: no y here"]


def test_interpolation_in_a_subsidiary_needs_an_escaper_at_every_level():
    machine = _linked("[escapers]\n| A | | HtmlPcdataEscaper | | _ |\n[rules]\n" + START_SUB,
                      "[escapers]\n| A | | HtmlPcdataEscaper | | _ |\n")
    assert step_interp(machine, machine.zero_state(), POS).escapers == ("HtmlPcdataEscaper",)
    state, _, _ = run_fixed(machine, "<")
    r = step_interp(machine, state, POS)
    assert r.state.error
    assert r.state.error == "no escaper mapping for enclosing toy context (B)"


def test_content_may_not_end_inside_a_subsidiary():
    machine = _linked(START_SUB, "| A | `y` | | B |\n")
    state, _, _ = run_fixed(machine, "<y")
    assert state_str(state) == "(B) / Sub(B)"
    assert is_valid_end(machine, state) == (False, "content ends inside nested Sub content")


# -- long chunks ------------------------------------------------------------------

def long_document(rng, size):
    """About ``size`` characters of markup in lines: tags, messages, style
    elements full of url()s, URL attributes with a malformed "&#" and close
    tags with an attribute, each of the last two warned about."""
    pieces = [lambda n: f'<p class="c{n}">text {n} &amp; more</p>\n',
              lambda n: f'<p><message i18n="@@m{n}">hi</message></p>\n',
              lambda n: "<style>\n" + "".join(
                  f".c{i} {{ background: url('/img/{i}.png') no-repeat; color: red; }}\n"
                  for i in range(n % 30)) + "</style>\n",
              lambda n: f'<a href="https://e.com/?a={n}&#c#f">t</a>\n',
              lambda n: f'<b>{n}</b title="x">\n']
    text = ""
    while len(text) < size:
        text += rng.choice(pieces)(len(text))
    return text


def step_chunks(machine, chunks, end):
    """Step (chunk, position) pairs, then finish at ``end``: the emitted
    text, the final state, the marks and the diagnostics."""
    state, emitted, marks, diags = machine.zero_state(), "", [], []
    for chunk, pos in chunks + [(None, end)]:
        r = finish(machine, state, pos) if chunk is None else step_fixed(machine, state, chunk, pos)
        marks += [m.shifted(len(emitted)) for m in r.marks]
        emitted += r.emitted
        diags += map(str, r.diagnostics)
        state = r.state
    return emitted, state, marks, diags


@pytest.mark.parametrize("seed, size", [(0, 2_000), (1, 9_000), (2, 40_000)])
def test_a_long_chunk_steps_as_its_lines_do(html, seed, size):
    text = long_document(random.Random(seed), size)
    lines = text.splitlines(keepends=True)
    end = Position("d", len(lines) + 1, 1)
    whole = step_chunks(html, [(text, Position("d", 1, 1))], end)
    assert whole == step_chunks(html, [(line, Position("d", i, 1))
                                       for i, line in enumerate(lines, start=1)], end)
    emitted, state, marks, diags = whole
    assert state == html.zero_state() and emitted.count("<p>") == len(marks) // 2
    # warnings are found, and positioned, past the first window
    first_window_lines = text[:machine_mod._WINDOW].count("\n") + 1
    assert any(int(d.split(":")[1]) > first_window_lines for d in diags)
    assert {d.split(": ", 2)[2] for d in diags} == {
        "malformed numeric character reference copied verbatim",
        "HTML attribute in close tag"}


def test_a_step_runs_when_any_level_holds_back_a_full_lookahead(html):
    # the root holds back nothing, but the URL machine a full lookahead
    state = MachineState(CTX, "", (Frame("Url", "htmlCodec", ("Path",), "p" * 20),))
    r = step_fixed(html, state, "", POS)
    assert r.emitted + r.state.frames[0].pending == "p" * 20
    assert 0 < len(r.emitted) and len(r.state.frames[0].pending) < html.subs["Url"].lookahead
    # below every level's lookahead and with no epsilon row, nothing moves
    idle = MachineState(CTX, "", (FRAME,))
    r = step_fixed(html, idle, "x", POS)
    assert (r.state, r.emitted, r.marks, r.diagnostics) == (
        MachineState(CTX, "x", (FRAME,)), "", (), [])


# -- state records ---------------------------------------------------------------


def held_back_state():
    state = MachineState(CTX, "x\ny", (FRAME,), None, POS, ((2, Position("t", 4, 3)),))
    assert state.pending_pos == POS and state.pending_at == ((2, Position("t", 4, 3)),)
    return state


def test_state_equality_and_hash_ignore_held_back_positions():
    a = held_back_state()
    b = MachineState(CTX, "x\ny", (FRAME,))
    assert a == b and hash(a) == hash(b) and {a, b} == {a}
    assert a != MachineState(CTX, "x\nz", (FRAME,), None, POS, a.pending_at)
    assert a != MachineState(CTX, "x\ny", (Frame("Url", "htmlCodec", ("Path",), "b"),))
    assert a != MachineState(CTX, "x\ny", (FRAME,), "boom")
    assert repr(b) == repr(a) == (
        f"MachineState(context={CTX!r}, pending='x\\ny', frames=({FRAME!r},), error=None)")
    assert Frame("Url", "htmlCodec", ("Path",), "a") == FRAME
    assert hash(Frame("Url", "htmlCodec", ("Path",), "a")) == hash(FRAME)


@pytest.mark.parametrize("record, names", [
    (held_back_state(), ("context", "pending", "frames", "error", "pending_pos", "pending_at")),
    (FRAME, ("machine", "codec", "context", "pending")),
], ids=["MachineState", "Frame"])
def test_state_records_refuse_assignment(record, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1


def test_state_copies_and_pickles_keep_held_back_positions():
    a = held_back_state()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and type(b) is MachineState
        assert (b.pending_pos, b.pending_at) == (a.pending_pos, a.pending_at)
        assert b.frames == (FRAME,) and type(b.frames[0]) is Frame


def test_copied_state_positions_later_diagnostics_alike(html):
    # the root holds back the line-2 "&#" and reports it on the next flush
    state = step_fixed(html, html.zero_state(), '<a href="x\n&#', POS).state
    assert state.pending and state.pending_pos is not None
    expected = [str(d) for d in finish(html, state, POS).diagnostics]
    assert expected == ["t:2:1: warning: malformed numeric character reference copied verbatim"]
    for copied in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert [str(d) for d in finish(html, copied, POS).diagnostics] == expected


# -- the step memo ----------------------------------------------------------------

def counted(step, *args, **kwargs):
    """A step's result with the transition ops it counted."""
    before = transition_op_count()
    result = step(*args, **kwargs)
    return result, transition_op_count() - before


def reached_states(html):
    """The state at every node while compiling random templates."""
    states = []
    for seed in range(50):
        source, _ = random_template(random.Random(seed))
        ann = propagate(program_of(source), html)
        states += [*ann.in_states.values(), *ann.merged.values()]
    return states


def test_memo_hits_equal_memo_free_steps(html):
    other = Position("u", 7, 9)
    cached = {finish: 0, step_interp: 0}
    for state in reached_states(html):
        for step in cached:
            memo = {}
            first = counted(step, html, state, POS, memo=memo)
            assert first == counted(step, html, state, POS), (step.__name__, state)
            # a replay is exact at another site: it holds no position
            assert counted(step, html, state, other, memo=memo) == counted(
                step, html, state, other), (step.__name__, state)
            cached[step] += len(memo)
    assert min(cached.values()) > 200, cached


def test_memo_never_keeps_a_step_that_reports_a_diagnostic(html):
    memo = {}
    first = step_fixed(html, html.zero_state(), '<a href="?&#', Position("t", 1, 1)).state
    again = step_fixed(html, html.zero_state(), '<a href="?&#', Position("t", 5, 3)).state
    assert first == again
    assert [str(d) for d in finish(html, first, POS, memo=memo).diagnostics] == [
        "t:1:11: warning: malformed numeric character reference copied verbatim"]
    assert [str(d) for d in finish(html, again, POS, memo=memo).diagnostics] == [
        "t:5:13: warning: malformed numeric character reference copied verbatim"]
    assert memo == {}


def test_loop_body_warnings_are_reported_once_per_iteration(html):
    program = program_of('tag: html\n"<ul>\n:for item of items {\n'
                         '"<a href="?&#;${item}">x</a>\n:}\n"</ul>\n')
    _, _, diags = render_full(program, Bindings({"items": ["a", "b", "c"]}), html)
    assert [str(d) for d in diags] == [
        "<template>:4:12: warning: malformed numeric character reference copied verbatim"] * 3


def test_memo_replays_do_not_share_a_diagnostics_list(html):
    memo = {}
    state = step_fixed(html, html.zero_state(), "<p>", POS).state
    first = finish(html, state, POS, memo=memo)
    assert first.diagnostics == [] and len(memo) == 1
    first.diagnostics.append("added by a caller")
    replay = finish(html, state, POS, memo=memo)
    assert replay.diagnostics == [] and replay.diagnostics is not first.diagnostics
    replay.diagnostics.append("added by a caller")
    assert finish(html, state, POS, memo=memo).diagnostics == []


def test_memo_tells_an_errored_state_from_a_clean_one(html):
    memo = {}
    clean = html.zero_state()
    errored = MachineState(clean.context, error="boom")
    for step in (finish, step_interp):
        assert step(html, clean, POS, memo=memo).state.error is None
        assert step(html, errored, POS, memo=memo).state.error == "boom"
    assert step_interp(html, errored, POS, memo=memo).state.error
