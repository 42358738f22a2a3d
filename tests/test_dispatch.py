"""The per-context row memo and the lazily folded machine positions.

Each table resolves a context's rows once: the matching regex rows with
their successor contexts, and the first epsilon, interp and escape row.
These tests check that memo against a plain linear scan over the table's
rules, and pin every diagnostic's position across a fixed input set, so a
position the lazy fold shifted shows up as a changed digest. A last pin
covers long literal text inside subsidiary machines.
"""

import hashlib
import random

import pytest

from conftest import LIST_TEMPLATE, MESSAGE_TEMPLATE, program_of
from ctxesc import machine as machine_mod
from ctxesc import web
from ctxesc.compiler import analyze_template, compile_template
from ctxesc.diagnostics import RenderError
from ctxesc.runtime import Bindings, render_full
from ctxesc.tables import TRIGGER_EPSILON, TRIGGER_INTERP, TRIGGER_REGEX
from support import STRUCTURE_CORPUS, corpus_bindings, random_template

# -- the row memo ------------------------------------------------------------------

TABLES = ["html.tt", "url.tt", "css.tt", "text.tt"]


def scanned_rows(table, context):
    """The rows and successors of ``context`` by a linear scan over the
    table's rules in file order."""
    matching = [r for r in table.rules if r.pattern.matches(context)]

    def first(rows):
        for r in rows:
            return r, r.successor.apply_to(context)
        return None

    return (
        [(r, r.successor.apply_to(context)) for r in matching if r.trigger == TRIGGER_REGEX],
        first(r for r in matching if r.trigger == TRIGGER_EPSILON),
        first(r for r in matching if r.trigger == TRIGGER_INTERP),
        first(r for r in table.escapes if r.pattern.matches(context)),
    )


def memo_rows(table, context):
    """The memoized rows in ``scanned_rows``'s form, each successor read off
    the resolved rows its entry holds."""
    rows = table.rows(context)
    regex = [(r, (rows.won[g] or rows.lane(g))[1].context) for g, r in rows.regex.items()]
    resolved = [row and (row[0], row[1].context) for row in (rows.epsilon, rows.interp,
                                                               rows.escape)]
    return (regex, *resolved)


@pytest.mark.parametrize("name", TABLES)
def test_memoized_rows_equal_a_linear_scan_cold_and_warm(name):
    table = web.load_table(name)  # uncached: the memo starts cold
    contexts = list(table.all_contexts())
    cold = {ctx: memo_rows(table, ctx) for ctx in contexts}
    for ctx in contexts:
        expected = scanned_rows(table, ctx)
        assert cold[ctx] == expected, ctx
        assert memo_rows(table, ctx) == expected, ctx  # warm
        assert table.rows(ctx) is table.rows(ctx)


@pytest.mark.parametrize("name", TABLES)
def test_each_resolved_entry_holds_its_successors_rows(name):
    table = web.load_table(name)  # uncached: every entry resolves here
    for ctx in table.all_contexts():
        rows = table.rows(ctx)
        assert rows.context == ctx and rows.won[-1] == (None, rows, True)
        # each row's group is the fused pattern's next group after the row before's
        groups = [1] + [g + 1 + r.regex.groups for g, r in rows.regex.items()]
        assert list(rows.regex) == groups[:-1] and groups[-1] == len(rows.won) - 1
        for group, rule in rows.regex.items():
            entry = rows.won[group] or rows.lane(group)
            assert entry is rows.won[group]
            entry_rule, successor, plain = entry
            assert entry_rule is rule
            assert successor is table.rows(rule.successor.apply_to(ctx)), (ctx, rule.line)
            # a row _fire must apply is never consumed in the loop
            fires = bool(rule.action or rule.events or rule.severity) or (
                rule.substitution is not None)
            assert plain is not fires, (ctx, rule.line)
        for entry in (rows.epsilon, rows.interp, rows.escape):
            if entry is not None:
                row, successor = entry
                assert successor is table.rows(row.successor.apply_to(ctx)), (ctx, row.line)


# -- every diagnostic position, pinned ------------------------------------------------

# Templates that raise warnings or errors, several of them over more than one
# line, so the position of text held back across lines is exercised.
WARNING_TEMPLATES = [
    'tag: html\n"<p\n',
    'tag: html\n"<p class=\n',
    'tag: html\n"<p title="x\n',
    'tag: html\n"</p class="x">\n',
    'tag: html\n"ab</b "x">cd\n"</i "y">\n',
    'tag: html\n"<a href="&#bogus;${x}">t</a>\n',
    'tag: html\n"<a href="/p?a=1&#;b=${x}">t</a>\n',
    'tag: html\n"<a href="&#99999999;x">t</a>\n"<a href=\'&#xZZ;${x}\'>u</a>\n',
    'tag: html\n"<div style="a: &#;b">d</div>\n',
    'tag: html\n"line one\n"line two <b\n"line three\n',
    'tag: html\n"<p>\n"  </b "q">\n"  <!-- open\n',
    'tag: html\n"<!-- ${x} -->\n',
    'tag: html\n"<style>p { color: "${x}\n',
    'tag: html\n"<script>var a = 1;\n',
    'tag: html\n:if c {\n"<a href=\n:}\n"done\n',
    'tag: html\n:for x of xs {\n"<a href=\n:}\n"x\n',
    'tag: html\n"${x.}\n',
    'tag: html\n"${f()}\n',
    'tag: html\n"a ${x\n',
    'tag: html\n:for x of xs {\n"y\n',
    'tag: html\n"<a href=${x}>\n"</a "t" "u">\n"${y}\n',
    "tag: html\n\"<p title='a\n\"b' ${x}>\n\"</p x>\n",
    'tag: html\n"<a href="x\n"&#1;&#\n"${x}">z</a>\n',
    'tag: html\n:for x of xs {\n"</i "${x}">\n:}\n"<b\n',
]

WARNING_BINDINGS = {"x": "v", "y": "w", "c": True, "xs": ["1", "2"]}

# sha256 over (stage, severity, message, file:line:col) of every diagnostic
# analyze_template and render_full report for the inputs of
# diagnostic_cases(), recorded once the machine positioned held-back text
# from each fed chunk's own position (past its line's margin and indent).
PINNED_DIAGNOSTICS_SHA256 = "5f82181a6e57f15973e438f755063c4400edc08dbf9266a62ad19fa1053b7e5e"


def diagnostic_cases():
    cases = [(LIST_TEMPLATE, {"items": [{"url": "/a", "label": "b"}]}),
             (MESSAGE_TEMPLATE, {"s": "x", "n": 1})]
    cases += [(source, corpus_bindings("v")) for source in STRUCTURE_CORPUS]
    cases += [random_template(random.Random(seed)) for seed in range(200)]
    cases += [(source, WARNING_BINDINGS) for source in WARNING_TEMPLATES]
    return cases


def diagnostic_rows(source, values, filename):
    program, ann, diags = analyze_template(source, filename)
    rows = [("analyze", d.severity.value, d.message, str(d.position)) for d in diags]
    if ann is not None:
        try:
            _, _, dyn = render_full(program, Bindings(values), ann.machine)
        except RenderError as exc:
            rows.append(("render-error", "error", exc.message, str(exc.position)))
        else:
            rows += [("render", d.severity.value, d.message, str(d.position)) for d in dyn]
    return rows


def test_diagnostic_positions_are_pinned():
    digest, count = hashlib.sha256(), 0
    for i, (source, values) in enumerate(diagnostic_cases()):
        for row in diagnostic_rows(source, values, f"t{i}.tpl"):
            digest.update(repr(row).encode("utf-8"))
            count += 1
    assert count >= 40
    assert digest.hexdigest() == PINNED_DIAGNOSTICS_SHA256


_MALFORMED_REF = "malformed numeric character reference copied verbatim"


@pytest.mark.parametrize("lines, where", [
    ('"&#1;&#', "3:6"),
    ('    "&#1;&#', "3:10"),
    ('"y\n  "&#', "4:4"),
], ids=["unindented", "indented", "three-lines"])
def test_held_back_text_is_positioned_from_its_own_line(lines, where):
    # the root machine holds back "x\n" and the next lines' text until it
    # has a full lookahead, then reports the "&#" it finds there
    source = f'tag: html\n"<a href="x\n{lines}\n"${{x}}">z</a>\n'
    assert diagnostic_rows(source, {"x": "v"}, "t.tpl") == [
        ("analyze", "warning", _MALFORMED_REF, f"t.tpl:{where}"),
        ("render", "warning", _MALFORMED_REF, f"t.tpl:{where}"),
    ]


_URL_OPEN = "nested css content ended prematurely: CSS url( is never closed"
_CSS_STRING_OPEN = "nested css content ended prematurely: CSS string is never closed"
_CLOSE_TAG_ATTR = "HTML attribute in close tag"


# Diagnostics fired while a subsidiary machine runs or is popped: a nested
# machine cut off by its attribute's closing quote or by the end of a style
# element, malformed references decoded on their way into CSS and URL
# machines, and close-tag warnings on lines that continue a tag. Each fires
# once at analysis and once at render, at the same position.
@pytest.mark.parametrize("source, expected", [
    ('tag: html\n"<p style="a: url(x">\n"${x}</p>\n', [(_URL_OPEN, "2:20")]),
    ('tag: html\n"<b>t</b>\n"<p style="content: \'x">\n"${x}</p>\n',
     [(_CSS_STRING_OPEN, "3:23")]),
    ('tag: html\n"<b>t</b>\n"<p id="abc" style="bg: url(\'&#;x&#;\')">\n"${x}</p>\n',
     [(_MALFORMED_REF, "3:30"), (_MALFORMED_REF, "3:34")]),
    ('tag: html\n"<style>p { background: url(x</style>\n"<p>${x}</p>\n',
     [(_URL_OPEN, "2:30")]),
    ('tag: html\n"<p style="a: url(${x}">\n', [(_URL_OPEN, "2:23")]),
    ('tag: html\n"<a href="/p?a=1\n"xy&amp;b=2&#;" style="a:\n"ab&#;c;\n"&#;&#;">${x}</a>\n',
     [(_MALFORMED_REF, "3:12"), (_MALFORMED_REF, "4:4"),
      (_MALFORMED_REF, "5:2"), (_MALFORMED_REF, "5:5")]),
    ('tag: html\n"<i>a</i\n"  "x">ab</b "y">\n"${x}</i "z">\n',
     [(_CLOSE_TAG_ATTR, "3:4"), (_CLOSE_TAG_ATTR, "3:14"), (_CLOSE_TAG_ATTR, "4:10")]),
], ids=["url-cut-by-quote", "css-string-cut-by-quote", "refs-in-css-url",
        "url-cut-by-style-end", "url-cut-after-interp", "refs-across-lines",
        "close-tag-attrs"])
def test_nested_machine_diagnostics_are_positioned(source, expected):
    assert diagnostic_rows(source, {"x": "v"}, "t.tpl") == [
        (stage, "warning", message, f"t.tpl:{where}")
        for stage in ("analyze", "render") for message, where in expected]


# -- nested-machine work, pinned ------------------------------------------------------

# Long literal text inside subsidiary machines, one and two levels deep: a
# style element body full of url()s (Css, then Url), many lines of literal
# URL and style attribute values (Url and Css behind the HTML entity codec),
# a malformed "&#" in a URL attribute on a later line, and an interpolation
# inside a style attribute's url().
NESTED_TEMPLATES = [
    'tag: html\n"<style>\n' + "".join(
        f"\"  .c{i} {{ background: url('/img/{i}.png?v=1') no-repeat; color: red; }}\n"
        for i in range(120)) + '"</style>\n"<p>${x}</p>\n',
    'tag: html\n' + "".join(
        f'"<a href="https://example.com/p/{i}?a=1&amp;b=2#f" style="color: red">t{i}</a>\n'
        for i in range(120)) + '"<b title=${x}>e</b>\n',
    'tag: html\n"<a href="https://example.com/?a=1\n"&amp;b=2\n"&#c#f">t</a>\n"<p>${x}</p>\n',
    'tag: html\n"<div style="background: url(${x})">d</div>\n',
]

# Per template: the transition_op_count deltas of compile_template and of
# render_full, the sha256 of all plans' JSON, and every diagnostic_rows row,
# recorded on the machine that consumed nested text one step per drain turn.
PINNED_NESTED_OPS = [(1215, 1215), (3252, 3252), (28, 28), (22, 22)]
PINNED_NESTED_PLANS_SHA256 = "edebc473c420280e7feaea16700ee6b32bf04cb4b75f6c6c40dc140c62094d2d"
PINNED_NESTED_DIAGNOSTICS = [
    ("analyze", "warning", _MALFORMED_REF, "n2.tpl:4:2"),
    ("render", "warning", _MALFORMED_REF, "n2.tpl:4:2"),
]


def test_nested_machine_work_is_pinned(html):
    ops, digest, diagnostics = [], hashlib.sha256(), []
    for i, source in enumerate(NESTED_TEMPLATES):
        before = machine_mod.transition_op_count()
        plan, _ = compile_template(source, f"n{i}.tpl")
        compile_ops = machine_mod.transition_op_count() - before
        digest.update(plan.to_json().encode("utf-8"))
        before = machine_mod.transition_op_count()
        render_full(program_of(source), Bindings({"x": "v"}), html)
        ops.append((compile_ops, machine_mod.transition_op_count() - before))
        diagnostics += diagnostic_rows(source, {"x": "v"}, f"n{i}.tpl")
    assert ops == PINNED_NESTED_OPS
    assert digest.hexdigest() == PINNED_NESTED_PLANS_SHA256
    assert diagnostics == PINNED_NESTED_DIAGNOSTICS
