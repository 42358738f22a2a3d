import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import edit_table
from ctxesc import web
from ctxesc.diagnostics import Severity, TableError
from ctxesc.machine import Machine, finish, step_fixed
from ctxesc.marks import Mark
from ctxesc.tables import (
    TRIGGER_INTERP,
    TRIGGER_REGEX,
    parse_table,
    validate_table,
)
from ctxesc.web import load_table, machine_for_tag

MINIMAL = """\
machine toy
fields state
values state: A B
start A
terminal _
"""


def parse_ok(text):
    table, diags = parse_table(text)
    assert table is not None, [str(d) for d in diags]
    return table


def test_substitution_row_round_trip():
    table = parse_ok(MINIMAL + """
[rules]
| A | `<` | `&lt;` | _ |
""")
    (rule,) = table.rules
    assert rule.trigger == TRIGGER_REGEX
    assert rule.substitution == "&lt;"
    assert rule.successor.slots == ("_",)


def test_empty_rule_body_is_valid():
    table = parse_ok(MINIMAL + "\n[rules]\n")
    assert table.rules == ()


def test_unknown_state_name_is_an_error():
    table, diags = parse_table(MINIMAL + """
[rules]
| Bogus | `x` | | _ |
""")
    assert table is None
    assert any("unknown state name 'Bogus'" in d.message for d in diags)


def test_unknown_escaper_name_is_an_error():
    table, diags = parse_table(MINIMAL + """
[escapers]
| A | | NoSuchEscaper | | _ |
""")
    assert table is None
    assert any("unknown escaper name" in d.message for d in diags)


RULES = MINIMAL + "[rules]\n"  # a row appended to RULES is line 7


@pytest.mark.parametrize("text, line, message", [
    ("fields state\nvalues state: A\nstart A\n", 0, "missing 'machine' directive"),
    ("machine toy\n", 0, "missing 'fields' directive"),
    ("machine toy\nfields state\nvalues state: A\n", 0, "missing 'start' directive"),
    (MINIMAL + "values mode: X\n", 6, "values for undeclared field 'mode'"),
    (MINIMAL + "lookahead many\n", 6, "bad lookahead value 'many'"),
    (MINIMAL + "bogus x\n", 6, "unknown directive 'bogus'"),
    (MINIMAL + "| A | `x` | | _ |\n", 6,
     "table row outside of a [rules] or [escapers] section"),
    ("machine toy\nstart A\nfields state\nvalues state: A\n", 2,
     "pattern before 'fields' directive"),
    (RULES + "| A, B | `x` | | _ |\n", 7,
     "pattern 'A, B' has 2 slots; table declares 1 fields"),
    ("machine toy\nfields state\nvalues state: A\nstart _\n", 4, "wildcard not allowed in '_'"),
    (RULES + "| A | `x` | | C |\n", 7, "unknown state name 'C'"),
    # a lone backtick quotes the rest of the row, so the row is short a column
    (RULES + "| A | `x` | `abc | _ |\n", 7, "rule row has 3 columns; expected 4 or 5"),
    (RULES + "| A | `x` | junk | _ |\n", 7, "bad substitution cell 'junk'"),
    (RULES + "| A | `x` | !Bogus | _ |\n", 7, "unknown event kind 'Bogus'"),
    (RULES + "| A | `x` | !ExprStart | _ |\n", 7,
     "event kind 'ExprStart' is added only around rendered values"),
    (RULES + "| A | `x` | !ExprEnd | _ |\n", 7,
     "event kind 'ExprEnd' is added only around rendered values"),
    (RULES + "| A | `x` | | B; launch(Url) |\n", 7, "bad subsidiary action 'launch(Url)'"),
    (RULES + "| A | `x` |\n", 7, "rule row has 2 columns; expected 4 or 5"),
    (RULES + "| A | `x` | | _ | W: a | b |\n", 7, "rule row has 6 columns; expected 4 or 5"),
    (RULES + "| A | `x` | | _ | X: oops |\n", 7, "bad diagnostic cell 'X: oops'"),
    (MINIMAL + "[escapers]\n| A | | HtmlPcdataEscaper |\n", 7,
     "escaper row has 3 columns; expected 5"),
    (MINIMAL + "[escapers]\n| A | | NoSuchEscaper | | _ |\n", 7,
     "unknown escaper name 'NoSuchEscaper'"),
    (MINIMAL + "[escapers]\n| C | | HtmlPcdataEscaper | | _ |\n", 7, "unknown state name 'C'"),
    (MINIMAL + "[escapers]\n| A | | HtmlPcdataEscaper | | A, A |\n", 7,
     "pattern 'A, A' has 2 slots; table declares 1 fields"),
    # a verbose-mode comment would swallow the group that fusing wraps the row in
    (RULES + "| A | `(?x)a # c` | | _ |\n", 7, "regex '(?x)a # c' cannot be one row of a "
     "fused pattern: missing ), unterminated subpattern at position 1"),
    (RULES + "| A | `(?P<n>x)` | | _ |\n", 7, "regex '(?P<n>x)' cannot be one row of a "
     "fused pattern: redefinition of group name 'n' as group 4; was group 2 at position 16"),
    # a backreference or a conditional names its group by a number that fusing shifts
    (RULES + "| A | `(a)\\1` | | _ |\n", 7, "backreferences are not supported: '(a)\\\\1'"),
    (RULES + "| A | `(?i)(a)\\1` | | _ |\n", 7,
     "backreferences are not supported: '(?i)(a)\\\\1'"),
    (RULES + "| A | `(?P<n>a)(?P=n)` | | _ |\n", 7,
     "backreferences are not supported: '(?P<n>a)(?P=n)'"),
    (RULES + "| A | `(x)?(?(1)y|z)` | | _ |\n", 7,
     "backreferences are not supported: '(x)?(?(1)y|z)'"),
    # every trigger consumes a character, so one fused match picks each row
    (RULES + "| A | `(?=a)` | | _ |\n", 7, "regex '(?=a)' may match an empty prefix"),
    (RULES + "| A | `a*(?=b)` | | _ |\n", 7, "regex 'a*(?=b)' may match an empty prefix"),
    (RULES + "| A | `(?=x)|y` | | _ |\n", 7, "regex '(?=x)|y' may match an empty prefix"),
    (RULES + "| A | `(?:a|)` | | _ |\n", 7, "regex '(?:a|)' may match an empty prefix"),
])
def test_malformed_table_is_an_error_on_its_line(text, line, message):
    table, diags = parse_table(text)
    assert table is None
    assert (line, message) in [(d.position.line, d.message) for d in diags
                               if d.severity is Severity.ERROR]


def test_malformed_regex_is_an_error():
    table, diags = parse_table(MINIMAL + """
[rules]
| A | `(unclosed` | | _ |
""")
    assert table is None
    assert any("malformed regex" in d.message for d in diags)


def test_escaped_backslash_and_octal_class_are_not_backreferences():
    # read on the parse tree: a literal backslash then 1, and a class holding chr(1)
    table = parse_ok(MINIMAL + "[rules]\n| A | `a\\\\1` | | _ |\n| A | `[\\1]` | | _ |\n")
    escaped, octal = table.rules
    assert escaped.regex.fullmatch("a\\1") and octal.regex.fullmatch("\x01")


def test_each_trigger_is_parsed_once(monkeypatch):
    from importlib import resources

    from ctxesc import tables

    parsed = []

    class Spy:
        def __getattr__(self, name):
            return getattr(real, name)

        def parse(self, src, *args):
            parsed.append(src)
            return real.parse(src, *args)

    real = tables._parser
    monkeypatch.setattr(tables, "_parser", Spy())
    for name in ("html.tt", "url.tt", "css.tt", "text.tt"):
        parsed.clear()
        table = parse_ok(resources.files("ctxesc").joinpath("data").joinpath(name).read_text())
        assert parsed == [r.regex.pattern for r in table.regex_rules], name
    parsed.clear()
    table, _ = parse_table(MINIMAL + "[rules]\n| A | `(a)\\1` | | _ |\n| A | `a*(?=b)` | | _ |\n")
    assert table is None and parsed == ["(a)\\1", "a*(?=b)"]


def test_backreferences_rejected():
    table, diags = parse_table(MINIMAL + r"""
[rules]
| A | `(x)\1` | | _ |
""")
    assert table is None
    assert any("backreferences" in d.message for d in diags)


@pytest.mark.parametrize("trigger, found", [
    ("^a", "^"), ("a$", "$"), (r"\Aa", r"\A"), (r"a\Z", r"\Z"), (r"a\b", r"\b"),
    (r"\Ba", r"\B"), ("(?<=a)b", "lookbehind"), ("(?<!a)b", "lookbehind"),
    ("(?i:x|^y)", "^"), ("(?:a$)+b", "$"), (r"(?=a\b)a", r"\b"),
])
def test_trigger_may_not_look_outside_its_own_text(trigger, found):
    # held-back text starts at a token and ends at a chunk or window edge, so
    # these would see edges the template does not have
    table, diags = parse_table(MINIMAL + f"[rules]\n| A | `{trigger}` | | _ |\n")
    assert table is None
    assert [(d.position.line, d.message) for d in diags] == [(7, (
        f"{found} in regex {trigger!r} looks outside its own text: a trigger is matched "
        "from a token to a chunk or window edge"))]


def test_trigger_may_use_caret_and_dollar_in_a_class_and_a_lookahead():
    table = parse_ok(MINIMAL + "[rules]\n| A | `[^<]+` | | _ |\n| A | `<(?=a)` | | _ |\n"
                     "| A | `[$^]\\$` | | _ |\n")
    assert len(table.rules) == 3


def test_trigger_lint_falls_back_to_the_sre_modules(monkeypatch):
    # Python 3.10 has no re._constants or re._parser (re is one module), so
    # tables.py takes the same names from sre_constants and sre_parse
    import importlib.util
    import re
    import warnings

    from ctxesc import tables

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import sre_constants
        import sre_parse
    for name in ("_constants", "_parser"):
        monkeypatch.delattr(re, name)
        monkeypatch.setitem(sys.modules, "re." + name, None)
    spec = importlib.util.spec_from_file_location("ctxesc.tables", tables.__file__)
    old = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(old)
    assert old._sre is sre_constants and old._parser is sre_parse
    for trigger, found in [("^a", "^"), (r"a\Z", r"\Z"), ("(?<!a)b", "lookbehind")]:
        table, diags = old.parse_table(MINIMAL + f"[rules]\n| A | `{trigger}` | | _ |\n")
        assert table is None and diags[0].message.startswith(f"{found} in regex "), diags
    for trigger, message in [(r"(a)\1", r"backreferences are not supported: '(a)\\1'"),
                             ("a*(?=b)", "regex 'a*(?=b)' may match an empty prefix")]:
        table, diags = old.parse_table(MINIMAL + f"[rules]\n| A | `{trigger}` | | _ |\n")
        assert table is None and [d.message for d in diags] == [message]
    table, diags = old.parse_table(MINIMAL + "[rules]\n| A | `[^<]+` | | _ |\n")
    assert table is not None and diags == []


def test_shipped_tables_parse_with_no_diagnostic():
    from importlib import resources

    for name in ("html.tt", "url.tt", "css.tt", "text.tt"):
        text = resources.files("ctxesc").joinpath("data").joinpath(name).read_text()
        table, diags = parse_table(text, name)
        assert table is not None and [str(d) for d in diags] == [], name


def test_possibly_empty_regex_rejected():
    table, diags = parse_table(MINIMAL + """
[rules]
| A | `x*` | | _ |
""")
    assert table is None
    assert any("empty prefix" in d.message for d in diags)


def test_macro_expansion():
    table = parse_ok(MINIMAL + """
macro letter = [a-z]
[rules]
| A | `{{letter}}+` | | B |
""")
    assert table.rules[0].regex.match("abc").end() == 3


def test_unknown_macro_is_an_error():
    table, diags = parse_table(MINIMAL + """
[rules]
| A | `{{nope}}` | | _ |
""")
    assert table is None
    assert any("unknown macro" in d.message for d in diags)


def test_interp_trigger_parses():
    table = parse_ok(MINIMAL + """
[rules]
| A | interp | `[` | B |
""")
    assert table.rules[0].trigger == TRIGGER_INTERP


def test_event_substitution_parses():
    table = parse_ok(MINIMAL + """
[rules]
| A | `<m id="([a-z]+)">` | !MsgStart($1) | _ |
| A | `</m>` | !MsgEnd | _ |
""")
    start, end = table.rules
    assert start.events[0].kind == "MsgStart" and start.events[0].group == 1
    assert start.substitution == ""  # events imply erasing the matched text
    assert end.events[0].kind == "MsgEnd"


def test_pipes_inside_regex_do_not_split_columns():
    table = parse_ok(MINIMAL + """
[rules]
| A | `(?:x|y)` | | B |
""")
    assert table.rules[0].regex.match("y")


def test_cells_without_backticks_are_taken_as_written():
    table = parse_ok(MINIMAL + """
[escapers]
| A | '' | HtmlAttributeEscaper | ' | _ |
[rules]
| A | a+ | | B |
""")
    assert table.rules[0].regex_src == "a+" and table.rules[0].regex.match("aa")
    (escape,) = table.escapes
    assert (escape.pre, escape.post) == ("''", "'")


def test_diagnostic_column():
    table = parse_ok(MINIMAL + """
[rules]
| A | `"` | | _ | W: quoted string looks wrong |
""")
    rule = table.rules[0]
    assert rule.severity is Severity.WARNING
    assert rule.message == "quoted string looks wrong"


def test_epsilon_cycle_detected():
    table = parse_ok(MINIMAL + """
[rules]
| A | | | B |
| B | | | A |
""")
    diags = validate_table(table)
    assert any("epsilon cycle" in d.message for d in diags)
    cycle = next(d for d in diags if "epsilon cycle" in d.message)
    for rule in table.rules:  # both row lines named
        assert str(rule.line) in cycle.message


def test_epsilon_identical_successor_detected():
    table = parse_ok(MINIMAL + """
[rules]
| A | | | _ |
""")
    diags = validate_table(table)
    assert any("identical" in d.message for d in diags)


def test_interp_row_that_keeps_its_context_detected():
    table = parse_ok(MINIMAL + """
[rules]
| A | interp | `[` | _ |
""")
    diags = validate_table(table)
    assert [d.message for d in diags] == [
        "interp rule produces a successor context identical to the current context"]
    assert diags[0].position.line == table.rules[0].line


def test_interp_epsilon_cycle_detected():
    table = parse_ok(MINIMAL + """
[rules]
| A | interp | | B |
| B | | | A |
""")
    diags = validate_table(table)
    lines = ", ".join(str(rule.line) for rule in table.rules)
    assert [d.message for d in diags] == [f"interp/epsilon cycle through rules at lines {lines}"]


def test_epsilon_error_row_that_keeps_its_context_is_accepted():
    # the row stops the run with its own diagnostic, so it needs no progress
    table = parse_ok(MINIMAL + """
[rules]
| A | | | _ | E: no content may follow here |
""")
    assert validate_table(table) == []


def test_shadowed_duplicate_rule_error():
    # the second row can never fire
    table = parse_ok(MINIMAL + """
[rules]
| A | `x` | | B |
| A | `x` | `y` | _ |
""")
    diags = validate_table(table)
    shadow = [d for d in diags if "shadowed" in d.message]
    assert len(shadow) == 1
    assert shadow[0].severity is Severity.ERROR
    assert f"line {table.rules[0].line}" in shadow[0].message


def test_undeclared_subsidiary_machine_detected():
    table = parse_ok(MINIMAL + """
[rules]
| A | `x` | | B ; start(Zap, identityCodec) |
""")
    diags = validate_table(table)
    assert any("not declared in 'uses'" in d.message for d in diags)


@pytest.mark.parametrize("name", ["../x", "url.tt", "a/b", "9lives", "Url-2"])
def test_uses_name_must_be_an_identifier(name):
    table, diags = parse_table(MINIMAL + f"uses Url {name}\n", filename="toy.tt")
    assert table is None
    assert [str(d) for d in diags] == [
        f"toy.tt:6:1: error: 'uses' name {name!r} is not an identifier"]


def test_uses_name_without_a_table_file_is_a_table_error(tables_dir):
    edit_table(tables_dir / "css.tt", "uses Url", "uses Url Js")
    with pytest.raises(TableError) as exc:
        machine_for_tag("html", str(tables_dir))
    assert str(exc.value) == f"{tables_dir / 'css.tt'}: 'uses Js' names no table js.tt"
    assert machine_for_tag("url", str(tables_dir)).language == "url"


@pytest.mark.parametrize("table, name, tag, chain", [
    ("css.tt", "Css", "html", "html -> css -> css"),
    ("css.tt", "Css", "css", "css -> css"),
    ("css.tt", "Html", "html", "html -> css -> html"),
    ("html.tt", "Html", "html", "html -> html"),
], ids=["self", "self-as-root", "root", "root-self"])
def test_uses_cycle_is_a_table_error(tables_dir, table, name, tag, chain):
    edit_table(tables_dir / table, "uses Url", f"uses Url {name}")
    with pytest.raises(TableError) as exc:
        machine_for_tag(tag, str(tables_dir))
    assert str(exc.value) == f"{tables_dir / table}: 'uses {name}' makes a cycle: {chain}"


def test_shared_subsidiary_is_loaded_once(tables_dir, monkeypatch):
    loaded = []
    real = web.load_table
    monkeypatch.setattr(web, "load_table", lambda name, d=None: loaded.append(name) or real(name, d))
    machine = machine_for_tag("html", str(tables_dir))
    assert sorted(loaded) == ["css.tt", "html.tt", "url.tt"]
    assert machine.subs["Css"].uses == ("Url",)


def test_shipped_html_table_validates_clean():
    table = load_table("html.tt")
    assert [str(d) for d in validate_table(table)] == []


def test_shipped_url_and_css_tables_validate_clean():
    for name in ("url.tt", "css.tt", "text.tt"):
        table = load_table(name)
        assert [str(d) for d in validate_table(table)] == [], name


def test_rule_order_is_preserved():
    table = load_table("html.tt")
    pcdata = [r for r in table.rules if r.pattern.slots[0] == "Pcdata"]
    # the close-tag rule must come before the generic open-tag rule, and the
    # attack-surface rule before the bulk text rule
    srcs = [r.regex_src for r in pcdata if r.regex_src]
    assert srcs.index("</(?=[a-zA-Z])") < srcs.index("<(?=[a-zA-Z])")
    assert srcs.index("<") < srcs.index("[^<]+")


# -- memoized dispatch against a linear scan -----------------------------------

DISPATCH_TEXTS = ("<", "</x", '"', "a b", "-->", "&amp;")


def scan_first(rows, context):
    """The first matching row with its successor for ``context``, or None."""
    row = next((r for r in rows if r.pattern.matches(context)), None)
    return row and (row, row.successor.apply_to(context))


def scan_regex(table, context, text):
    for rule in table.regex_rules:
        if rule.pattern.matches(context):
            m = rule.regex.match(text)
            if m and m.end() > 0:
                return rule, m.group(0)
    return None, None


def fused_regex(table, context, text):
    """The row that one call of the context's fused pattern picks, as the
    machine dispatches."""
    rows = table.rows(context)
    m = rows.fused(text)
    rule, successor, _ = rows.won[m.lastindex] or rows.lane(m.lastindex)
    assert successor.context == (rule.successor.apply_to(context) if rule else context)
    return (rule, m.group()) if rule else (None, None)


def resolved(entry):
    """A memoized (row, successor's rows) entry as (row, successor context)."""
    return entry and (entry[0], entry[1].context)


def memo_regex(table, context, text):
    """The first memoized regex row that matches, as the machine walks them."""
    rows = table.rows(context)
    for group, rule in rows.regex.items():
        assert resolved(rows.won[group] or rows.lane(group)) == (
            rule, rule.successor.apply_to(context))
        m = rule.regex.match(text)
        if m and m.end() > 0:
            return rule, m.group(0)
    return None, None


@pytest.mark.parametrize("name", ["html.tt", "url.tt", "css.tt", "text.tt"])
def test_memoized_dispatch_equals_linear_scan(name):
    table = load_table(name)
    for ctx in table.all_contexts():
        for _cold_then_warm in range(2):
            rows = table.rows(ctx)
            assert resolved(rows.epsilon) == scan_first(table.epsilon_rules, ctx), ctx
            assert resolved(rows.interp) == scan_first(table.interp_rules, ctx), ctx
            assert resolved(rows.escape) == scan_first(table.escapes, ctx), ctx
            assert rows.terminal == table.terminal.matches(ctx), ctx
            for text in DISPATCH_TEXTS:
                expected = scan_regex(table, ctx, text)
                assert memo_regex(table, ctx, text) == expected, (ctx, text)
                assert fused_regex(table, ctx, text) == expected, (ctx, text)


SHIPPED = {name: load_table(name) for name in ("html.tt", "url.tt", "css.tt", "text.tt")}
# the characters the shipped tables' regexes single out, letters and whitespace
SIGNIFICANT = "<>/\"'&#;=:()\\`-!*" + string.ascii_letters + " \t\n"


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SHIPPED)), st.data(),
       st.text(st.sampled_from(SIGNIFICANT), min_size=1, max_size=12))
def test_fused_dispatch_equals_linear_scan_on_significant_text(name, data, text):
    table = SHIPPED[name]
    ctx = data.draw(st.sampled_from(sorted(table.all_contexts())))
    assert fused_regex(table, ctx, text) == scan_regex(table, ctx, text)


FUSION_TOY = MINIMAL + r"""
[rules]
| A | `(?i)<x` | `X` | _ |
| A | `(a)(b)?` | | _ |
| A | `(c)|(d)` | | _ |
| A | `m(\w+);` | !MsgStart($1) | _ |
"""


def test_fused_dispatch_keeps_flags_and_group_numbers():
    table = parse_ok(FUSION_TOY)
    upper, ab, cd, msg = table.rules
    for text, row, matched in [("<X", upper, "<X"), ("<x", upper, "<x"), ("a", ab, "a"),
                               ("abz", ab, "ab"), ("d", cd, "d"), ("mfoo;", msg, "mfoo;"),
                               ("z", None, None), ("<y", None, None),
                               ("D", None, None)]:
        assert scan_regex(table, ("A",), text) == (row, matched), text
        assert fused_regex(table, ("A",), text) == (row, matched), text
    # $1 is the event row's own first group, not the fused pattern's
    machine = Machine(table, {})
    r = step_fixed(machine, machine.zero_state(), "<Xab mfoo;d", None)
    f = finish(machine, r.state, None)
    assert r.emitted + f.emitted == "Xab d"
    assert r.marks + f.marks == (Mark("MsgStart", 4, "foo"),)


@pytest.mark.parametrize("flags", ["(?i)(?s)", "(?is)", "(?s)(?i)", "(?i)(?is)"])
def test_every_leading_flag_group_is_scoped_in_the_fused_pattern(flags):
    # re compiles each spelling with the same global flags, so each loads as one fused
    # row; the flags stay in that row's group
    table = parse_ok(MINIMAL + f"[rules]\n| A | `{flags}<x.y` | | _ |\n| A | `a` | | _ |\n")
    row, other = table.rules
    assert table.rows(("A",)).fused.__self__.pattern == r"((?is:<x.y))|(a)|([\s\S])"
    for text, expected in [("<X\nY", (row, "<X\nY")), ("<x-yz", (row, "<x-y")),
                           ("a", (other, "a")), ("A", (None, None)), ("<xy", (None, None))]:
        assert fused_regex(table, ("A",), text) == scan_regex(table, ("A",), text) == expected


def test_context_rows_resolve_only_their_three_first_rows_lazily():
    rows = parse_ok(MINIMAL).rows(("A",))
    assert (rows.epsilon, rows.interp, rows.escape) == (None, None, None)
    with pytest.raises(AttributeError):
        rows.successor


def test_wildcard_row_before_specific_row_wins():
    table = parse_ok("""\
machine toy
fields state mode
values state: A B
values mode: X Y
start A, X
terminal _, _

[rules]
| _, _ | `a` | `wild` | B, _ |
| A, X | `[ab]+` | `specific` | B, X |
| _, _ | | | B, Y |
| A, X | | | B, X |
| _, _ | interp | | B, _ |
| A, X | interp | | A, Y |

[escapers]
| _, _ | | HtmlPcdataEscaper | | _, _ |
| A, X | | HtmlAttributeEscaper | | _, _ |
""")
    ctx = ("A", "X")
    wild_regex, specific_regex, wild_eps, _, wild_interp, _ = table.rules
    for _cold_then_warm in range(2):
        # the shorter wildcard match wins over the longer specific one
        assert memo_regex(table, ctx, "ab") == (wild_regex, "a")
        assert memo_regex(table, ctx, "ba") == (specific_regex, "ba")
        assert memo_regex(table, ("B", "Y"), "ba") == (None, None)
        rows = table.rows(ctx)
        assert rows.epsilon[0] is wild_eps
        assert rows.interp[0] is wild_interp
        assert rows.escape[0].escapers == ("HtmlPcdataEscaper",)
