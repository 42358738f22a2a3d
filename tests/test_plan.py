"""Plans as a render runtime: loaded plans against the dynamic engine, the
template positions compiled plans report, and untrusted plan documents."""

import copy
import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LIST_TEMPLATE, MESSAGE_TEMPLATE, program_of
from ctxesc import escapers
from ctxesc.compiler import compile_template
from ctxesc.diagnostics import PlanError, RenderError, has_errors
from ctxesc.marks import LITERAL_MARK_KINDS, MARK_KINDS
from ctxesc import plan as plan_mod
from ctxesc.marks import Mark
from ctxesc.plan import (
    Bindings,
    CompiledPlan,
    Lit,
    PlanFor,
    PlanIf,
    PlanInterp,
    execute_plan,
    plan_from_json,
    plan_to_json,
)
from ctxesc.runtime import render_full
from ctxesc.values import SafeContent
from support import STRUCTURE_CORPUS, adversarial_values, corpus_bindings, random_template

NESTED_MESSAGE_TEMPLATE = """tag: html
"<ul>
:for item of items {
"  <li><message i18n="@@item">See ${item.label} at <a href=${item.url}>here</a></message></li>
:}
"</ul>
"""


def oracle_cases():
    """(source, bindings) pairs: the list template, the message templates,
    the structure corpus and 200 random templates."""
    items = [{"url": v, "label": v[::-1]} for v in adversarial_values(12)]
    cases = [(LIST_TEMPLATE, {"items": items}),
             (MESSAGE_TEMPLATE, {"s": "Hello <b>", "n": 5}),
             (NESTED_MESSAGE_TEMPLATE, {"items": items})]
    for value in adversarial_values(6):
        cases += [(source, corpus_bindings(value)) for source in STRUCTURE_CORPUS]
    cases += [random_template(random.Random(seed)) for seed in range(200)]
    return cases


@pytest.mark.parametrize("bindings", [{"items": []}, None, [("items", [])]])
def test_execute_plan_rejects_bindings_that_are_not_a_bindings(bindings):
    plan, _ = compile_template(LIST_TEMPLATE)
    with pytest.raises(TypeError, match=r"bindings must be a ctxesc Bindings, not "):
        execute_plan(plan, bindings)
    assert execute_plan(plan, Bindings({"items": []}))[0].text == "<ul>\n</ul>\n"


def test_loaded_plans_render_like_the_dynamic_engine(html):
    with_marks = 0
    for source, values in oracle_cases():
        plan, diags = compile_template(source)
        assert not has_errors(diags), (source, [str(d) for d in diags])
        # marks are attached to loaded literals after construction, and the
        # loaded plan is lowered on its own first render
        loaded = plan_from_json(plan_to_json(plan))
        static_value, static_marks = execute_plan(loaded, Bindings(values))
        dyn_value, dyn_marks, _ = render_full(program_of(source), Bindings(values), html)
        assert static_value.text == dyn_value.text, source
        assert static_marks == dyn_marks, source
        with_marks += bool(dyn_marks)
    assert with_marks >= 10


# -- site positions ---------------------------------------------------------------

@pytest.mark.parametrize("values, message, where", [
    ({"items": [{"url": "x"}]}, "unbound path 'item.label'", "list.tpl:4:28"),
    ({"items": 3}, "loop over non-list value at path 'items'", "list.tpl:3:1"),
    ({"items": [{"url": [1], "label": "x"}]}, "cannot render a list", "list.tpl:4:16"),
])
def test_compiled_plans_name_the_template_site_and_loaded_plans_do_not(
        html, values, message, where):
    plan, _ = compile_template(LIST_TEMPLATE, "list.tpl")
    with pytest.raises(RenderError, match=message) as compiled:
        execute_plan(plan, Bindings(values))
    assert str(compiled.value.position) == where
    with pytest.raises(RenderError) as dynamic:
        render_full(program_of(LIST_TEMPLATE, "list.tpl"), Bindings(values), html)
    assert dynamic.value.position == compiled.value.position
    loaded = plan_from_json(plan.to_json())
    assert loaded == plan  # positions are not part of a plan's value
    with pytest.raises(RenderError, match=message) as from_json:
        execute_plan(loaded, Bindings(values))
    assert str(from_json.value.position) == "<plan>:0:0"


# -- escapers in both engines ------------------------------------------------------

# every code point, lone surrogates and control characters included
any_text = st.text(st.characters(exclude_categories=()))

# one site per escaper chain the HTML tables assign
ESCAPER_SITES = [
    'tag: html\n"<p>${x}</p>\n',
    'tag: html\n"<p title="${x}">t</p>\n',
    'tag: html\n"<a href="${x}">t</a>\n',
    'tag: html\n"<a href=${x}>t</a>\n',
    'tag: html\n"<script>var v = ${x};</script>\n',
    'tag: html\n"<style>p { content: "${x}" }</style>\n',
    'tag: html\n"<style>p { background: url(${x}) }</style>\n',
    'tag: html\n"<div style="background: url(${x})">d</div>\n',
]


def render_outcome(render):
    """("ok", text, marks), or ("error", message, position) for a RenderError."""
    try:
        value, marks = render()[:2]
    except RenderError as exc:
        return "error", exc.message, exc.position
    return "ok", value.text, marks


@pytest.mark.parametrize("source", ESCAPER_SITES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=st.tuples(st.sampled_from(["", "http:", "/", "javascript:", "a b"]),
                       any_text).map("".join))
def test_both_engines_agree_on_text_with_surrogates(html, source, value):
    plan, diags = compile_template(source, "site.tpl")
    assert not has_errors(diags)
    bindings = Bindings({"x": value})
    static = render_outcome(lambda: execute_plan(plan, bindings))
    dynamic = render_outcome(
        lambda: render_full(program_of(source, "site.tpl"), bindings, html))
    assert static == dynamic


def test_url_with_a_lone_surrogate_is_a_positioned_render_error(html):
    plan, _ = compile_template(LIST_TEMPLATE, "list.tpl")
    values = Bindings({"items": [{"url": "\ud800x", "label": "a"}]})
    with pytest.raises(RenderError, match="cannot percent-encode") as compiled:
        execute_plan(plan, values)
    assert str(compiled.value.position) == "list.tpl:4:16"
    with pytest.raises(RenderError, match="cannot percent-encode") as dynamic:
        render_full(program_of(LIST_TEMPLATE, "list.tpl"), values, html)
    assert dynamic.value.position == compiled.value.position


TEXT_SITE = 'tag: html\n"<p>\n"${x}\n'
HREF_SITE = 'tag: html\n"<a href="\n"${x}">t</a>\n'


@pytest.mark.parametrize("source, value, expected", [
    (TEXT_SITE, {"k": 1}, "cannot render a dict as text (path 'x')"),
    (TEXT_SITE, [1], "cannot render a list as text (path 'x')"),
    (HREF_SITE, {"k": 1}, "cannot render a dict as text (path 'x')"),
    (HREF_SITE, "a\ud800", "cannot percent-encode URL value: surrogates not allowed at index 1 "
                           "(path 'x')"),
    (TEXT_SITE, None, "unbound path 'x'"),  # a root-name site, with no binding at all
], ids=["dict-text", "list-text", "dict-href", "surrogate-href", "unbound-root-name"])
def test_both_engines_give_the_same_error_text_and_position(html, source, value, expected):
    bindings = Bindings({} if value is None else {"x": value})
    plan, _ = compile_template(source, "e.tpl")
    with pytest.raises(RenderError) as static:
        execute_plan(plan, bindings)
    with pytest.raises(RenderError) as dynamic:
        render_full(program_of(source, "e.tpl"), bindings, html)
    assert str(static.value) == str(dynamic.value) == f"e.tpl:3:2: {expected}"
    assert static.value.position == dynamic.value.position


# -- flat loop bodies rendered column by column ---------------------------------------
# A loop outside any message whose body holds only literals without marks and
# interpolations renders a list of two or more items column by column; any
# item it cannot render exactly as the item walk would sends the whole loop
# back to the walk.

class _MissingIsText(dict):
    def __missing__(self, key):
        return "from __missing__"


class _UpperItems(dict):
    def __getitem__(self, key):
        return str(dict.__getitem__(self, key)).upper()


class _WalkedList(list):
    """A list the column step leaves to the item walk: the walk's reference."""


_scalars = st.one_of(
    st.text(max_size=5), st.sampled_from(["javascript:x", "\ud800", "<b>&'\"", "/a b"]),
    st.integers(), st.floats(), st.booleans(), st.none(), st.just([1]),
    st.builds(SafeContent, st.sampled_from(["html", "css"]),
              st.one_of(st.text(max_size=4), st.just(5), st.none())))


def _mappings(values):
    """Mostly plain dicts with fields a and b; some with any of a, b and c,
    and a few dict subclasses."""
    fields = st.dictionaries(st.sampled_from("abc"), values, max_size=3)
    full = st.fixed_dictionaries({"a": values, "b": values})
    kinds = [fields.map(_MissingIsText), fields.map(_UpperItems), fields, fields]
    return st.integers(0, 9).flatmap(lambda k: kinds[k] if k < len(kinds) else full)


_level2 = st.one_of(st.text(max_size=5), _scalars, _mappings(_scalars))
_item_mappings = _mappings(st.one_of(st.text(max_size=5), _scalars, _mappings(_level2)))
# one item in eight is a scalar
_items = st.integers(0, 7).flatmap(lambda k: _scalars if k == 0 else _item_mappings)

_FLAT_PATHS = ["it", "it.a", "it.b", "it.a.b", "it.a.b.c", "r", "o.a"]
_flat_nodes = st.one_of(
    st.sampled_from(["x", "<i>y</i>", ", "]),
    st.tuples(st.sampled_from(['${%s}', '<b title="${%s}">t</b>', '<a href="${%s}">u</a>']),
              st.sampled_from(_FLAT_PATHS)).map(lambda t: t[0] % t[1]))


def flat_loop_template(body: str) -> str:
    return ('tag: html\n"<ul>\n:for o of outer {\n:for it of items {\n'
            f'"<li>{body}</li>\n:}}\n:}}\n"</ul>\n')


@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=st.lists(_flat_nodes, max_size=5).map("".join),
       items=st.lists(_items, max_size=6),
       outer=st.lists(st.one_of(st.fixed_dictionaries({"a": _scalars}), _scalars),
                      min_size=1, max_size=2),
       root=_scalars)
def test_flat_loop_bodies_render_like_the_item_walk_and_the_dynamic_engine(
        html, body, items, outer, root):
    source = flat_loop_template(body)
    plan, diags = compile_template(source, "flat.tpl")
    assert not has_errors(diags), [str(d) for d in diags]
    values = {"items": items, "outer": outer, "r": root}
    static = render_outcome(lambda: execute_plan(plan, Bindings(values)))
    walked = render_outcome(lambda: execute_plan(
        plan, Bindings({**values, "items": _WalkedList(items)})))
    assert static == walked
    dynamic = render_outcome(
        lambda: render_full(program_of(source, "flat.tpl"), Bindings(values), html))
    if static[0] == "error":
        # the plan adds the interpolation's path to an escaper's message
        assert dynamic[0] == "error" and static[2] == dynamic[2], (static, dynamic)
        assert static[1] == dynamic[1] or static[1].startswith(f"{dynamic[1]} (path "), \
            (static, dynamic)
    else:
        assert static == dynamic


def test_a_flat_loop_reports_the_first_error_by_item_then_by_site(html):
    source = flat_loop_template("${it.a}|${it.b}")
    items = [{"a": str(i), "b": str(i)} for i in range(8)]
    items[5]["a"] = [1]  # site 1 fails at item 5
    items[3]["b"] = [2]  # site 2 fails at item 3
    plan, _ = compile_template(source, "flat.tpl")
    values = Bindings({"items": items, "outer": [1], "r": ""})
    with pytest.raises(RenderError, match=r"cannot render a list as text \(path 'it.b'\)") as exc:
        execute_plan(plan, values)
    assert str(exc.value.position) == "flat.tpl:5:14"
    with pytest.raises(RenderError, match="cannot render a list as text") as dynamic:
        render_full(program_of(source, "flat.tpl"), values, html)
    assert dynamic.value.position == exc.value.position


@pytest.fixture
def column_renders(monkeypatch):
    """The lengths of the lists that loops lowered from now on render
    column by column."""
    lengths = []
    lower = plan_mod._column_render

    def spied(parts, var):
        render = lower(parts, var)

        def spy(seq, scope):
            lengths.append(len(seq))
            return render(seq, scope)
        return spy

    monkeypatch.setattr(plan_mod, "_column_render", spied)
    return lengths


def test_a_flat_loop_escapes_sites_off_the_loop_variable_once_per_loop(column_renders):
    calls = []
    saved = escapers.get("HtmlPcdataEscaper")
    escapers.register(escapers.Escaper(saved.name, lambda v: calls.append(v) or str(v)))
    try:
        plan = CompiledPlan("html", [PlanFor("it", "items", [
            PlanInterp("it", (saved.name,)), PlanInterp("r", (saved.name,))])])
        text = execute_plan(plan, Bindings({"items": [1, 2, 3], "r": "R"}))[0].text
    finally:
        escapers.register(saved)
    assert text == "1R2R3R"
    assert column_renders == [3]
    assert sorted(calls, key=str) == [1, 2, 3, "R"]


@pytest.mark.parametrize("body", [[Lit("<li>"), Lit("x</li>")], [Lit("x")], []])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_a_literal_only_loop_body_renders_once_per_item(column_renders, body, n):
    plan = CompiledPlan("html", [Lit("<ul>"), PlanFor("it", "items", body), Lit("</ul>")])
    expected = "<ul>" + "".join(node.text for node in body) * n + "</ul>"
    assert execute_plan(plan, Bindings({"items": [0] * n}))[0].text == expected
    # a list of one item has no column to share a pass, so it is walked
    assert column_renders == ([n] if n > 1 else [])


def test_a_list_subclass_or_a_plan_with_marks_takes_the_item_walk(column_renders):
    plan = CompiledPlan("html", [PlanFor("it", "items", [PlanInterp("it", ())])])
    marked = CompiledPlan("html", [PlanFor("it", "items", [
        Lit("x", (Mark("MsgStart", 0, "m"), Mark("MsgEnd", 1))), PlanInterp("it", ())])])
    assert execute_plan(plan, Bindings({"items": _WalkedList([1, 2])}))[0].text == "12"
    assert execute_plan(marked, Bindings({"items": [1, 2]}))[0].text == "x1x2"
    assert column_renders == []
    assert execute_plan(plan, Bindings({"items": [1, 2]}))[0].text == "12"
    assert column_renders == [2]


def both_engines(html, source, values):
    """(text, marks) of a compiled plan's render, checked against render_full."""
    plan, diags = compile_template(source)
    assert not has_errors(diags), [str(d) for d in diags]
    rendered = execute_plan(plan, Bindings(values))
    assert rendered == render_full(program_of(source), Bindings(values), html)[:2]
    return rendered[0].text, rendered[1]


LOOP_IN_A_MESSAGE = """tag: html
"<p><message i18n="@@m">
:for it of items {
"${it},
:}
"</message></p><ul>
:for it of items {
"<li>${it}</li>
:}
"</ul>
"""


def test_a_loop_inside_a_message_walks_its_items_and_a_mark_free_loop_takes_columns(
        html, column_renders):
    text, marks = both_engines(html, LOOP_IN_A_MESSAGE, {"items": ["a", "b<", "c"]})
    assert text == ("<p>\na,\nb&lt;,\nc,\n</p><ul>\n"
                    "<li>a</li>\n<li>b&lt;</li>\n<li>c</li>\n</ul>\n")
    assert [m.kind for m in marks] == ["MsgStart"] + ["ExprStart", "ExprEnd"] * 3 + ["MsgEnd"]
    spans = [text[a.offset:b.offset] for a, b in zip(marks[1::2], marks[2::2])]
    assert spans == ["a", "b&lt;", "c"]
    assert column_renders == [3]  # the second loop only


def test_an_empty_value_inside_a_message_has_an_empty_span(html):
    text, marks = both_engines(html, MESSAGE_TEMPLATE, {"s": "", "n": 5})
    assert [m.kind for m in marks] == ["MsgStart"] + ["ExprStart", "ExprEnd"] * 2 + ["MsgEnd"]
    assert marks[1].offset == marks[2].offset == text.index("'") + 1


@pytest.mark.parametrize("c", [True, False])
def test_marks_in_both_arms_of_a_branch(html, c):
    source = ('tag: html\n:if c {\n"<p><message i18n="@@a">yes ${x}</message></p>\n'
              ':} else {\n"<p><message i18n="@@b">no ${x}</message></p>\n:}\n')
    text, marks = both_engines(html, source, {"c": c, "x": "<"})
    assert text == ("<p>yes &lt;</p>\n" if c else "<p>no &lt;</p>\n")
    assert [(m.kind, m.ident) for m in marks] == [
        ("MsgStart", "a" if c else "b"), ("ExprStart", None), ("ExprEnd", None),
        ("MsgEnd", None)]


def test_a_marked_literal_with_empty_text(html):
    source = 'tag: html\n"<message i18n="@@m">${x}</message>\n'
    plan, _ = compile_template(source)
    assert plan.body[0] == Lit("", (Mark("MsgStart", 0, "m"),))
    text, marks = both_engines(html, source, {"x": "v"})
    assert text == "v\n"
    assert marks == (Mark("MsgStart", 0, "m"), Mark("ExprStart", 0), Mark("ExprEnd", 1),
                     Mark("MsgEnd", 1))


# Where a message sits decides how a render places its marks: in the plan's
# first run (built once at lowering if no value precedes it, else from the
# values' lengths), or in a later run, a loop body or a branch arm (one mark
# row per execution). Each message is empty, holds empty literals between
# values, or holds text.
PLACED_MESSAGES = ['<message i18n="@@a"></message>', '<message i18n="@@b">${x}</message>',
                   '<message i18n="@@c">${x}${y}</message>',
                   '<message i18n="@@d">one ${y} two</message>']
MESSAGE_PLACES = {
    "start": '"{m}\n',
    "after a value": '"${{x}}{m}\n',
    "after a loop": ':for it of items {{\n"${{it}}\n:}}\n"{m}\n',
    "in a loop": ':for it of items {{\n"{m}\n:}}\n',
    "in each arm": ':if c {{\n"{m}\n:}} else {{\n"-{m}\n:}}\n',
}


def placed_message_templates():
    """Each place on its own and each ordered pair, with every message."""
    places = [[p] for p in MESSAGE_PLACES] + [[p, q] for p in MESSAGE_PLACES
                                               for q in MESSAGE_PLACES]
    for names in places:
        for m in PLACED_MESSAGES:  # a message in a loop holds the item, not x
            in_loop = m.replace("${x}", "${it}")
            yield "tag: html\n" + "".join(
                MESSAGE_PLACES[name].format(m=in_loop if name == "in a loop" else m)
                for name in names)


def test_marks_placed_from_specs_match_the_dynamic_engine(html):
    # one plan renders every value set in turn, so a mark built at lowering
    # from the first render's values would be wrong at a later one
    value_sets = [{"x": "", "y": "<"}, {"x": "a&b<c", "y": ""}, {"x": "z", "y": "yy"}]
    for source in placed_message_templates():
        plan, diags = compile_template(source)
        assert not has_errors(diags), (source, [str(d) for d in diags])
        loaded = plan_from_json(plan_to_json(plan))
        for values in value_sets:
            for n in (0, 1, 3):
                for c in (True, False):
                    bindings = {**values, "items": ["", "i<", "three"][:n], "c": c}
                    expected = render_full(program_of(source), Bindings(bindings), html)[:2]
                    for compiled in (plan, loaded):
                        value, marks = execute_plan(compiled, Bindings(bindings))
                        assert (value, marks) == expected, (source, bindings)
                        spans = {value.text[a.offset:b.offset] for a, b in zip(marks, marks[1:])
                                 if (a.kind, b.kind) == ("ExprStart", "ExprEnd")}
                        assert spans <= {escapers.escape_pcdata(v) for v in
                                         [*values.values(), *bindings["items"]]}


def test_safe_content_with_non_str_text_renders_or_is_a_render_error():
    plan = CompiledPlan("html", [Lit("a"), PlanInterp("x", ())])
    assert execute_plan(plan, Bindings({"x": SafeContent("html", 5)}))[0].text == "a5"
    with pytest.raises(RenderError, match="cannot render a list as text") as exc:
        execute_plan(plan, Bindings({"x": SafeContent("html", [1])}))
    assert str(exc.value.position) == "<plan>:0:0"


# -- plan JSON writer ---------------------------------------------------------------

def node_to_obj(node, path, mark_rows):
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
                        "body": body_to_obj(node.body, path + ["body"], mark_rows)}}
    return {"if": {"path": node.path,
                   "then": body_to_obj(node.then, path + ["then"], mark_rows),
                   "else": body_to_obj(node.els, path + ["else"], mark_rows)}}


def body_to_obj(body, path, mark_rows):
    return [node_to_obj(node, path + [i], mark_rows) for i, node in enumerate(body)]


def dumped(plan) -> str:
    """The plan document as json.dumps writes it from a dict tree."""
    mark_rows: list = []
    doc = {"language": plan.language,
           "body": body_to_obj(plan.body, [], mark_rows),
           "marks": mark_rows}
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def test_plan_json_equals_json_dumps_on_the_corpus():
    for source, _ in oracle_cases()[::5]:
        plan = compile_template(source)[0]
        assert plan_to_json(plan) == dumped(plan)


# strings with what JSON has to escape: quotes, backslashes, C0 controls,
# U+2028/2029, lone surrogates and characters outside the BMP
json_text = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028",
                     "\u2029", "\ud800", "\udfff", "\U0001f600", "é", "a"]),
    st.characters(exclude_categories=())), max_size=8)

plan_bodies = st.recursive(
    st.lists(st.one_of(
        st.builds(Lit, json_text, st.lists(st.builds(Mark, st.sampled_from(MARK_KINDS),
                                                     st.integers(0, 9),
                                                     st.one_of(st.none(), json_text)),
                                           max_size=2).map(tuple)),
        st.builds(PlanInterp, json_text,
                  st.lists(st.sampled_from(["HtmlPcdataEscaper", "JsonValueEscaper"]),
                           max_size=2).map(tuple))), max_size=3),
    lambda inner: st.lists(st.one_of(
        st.builds(PlanFor, json_text, json_text, inner),
        st.builds(PlanIf, json_text, inner, inner)), max_size=3),
    max_leaves=10)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(language=json_text, body=plan_bodies)
def test_plan_json_equals_json_dumps(language, body):
    plan = CompiledPlan(language, body)
    assert plan_to_json(plan) == dumped(plan)


def test_plan_json_refuses_a_node_outside_the_plan_family():
    with pytest.raises(TypeError, match="unexpected plan node"):
        plan_to_json(CompiledPlan("html", [PlanFor("v", "xs", [Lit("a"), "b"])]))


@pytest.mark.parametrize("node", ["b", None])
def test_plan_render_refuses_a_node_outside_the_plan_family(node):
    with pytest.raises(PlanError, match=f"^unexpected plan node {node!r}$"):
        execute_plan(CompiledPlan("html", [PlanFor("v", "xs", [Lit("a"), node])]), Bindings({}))
    with pytest.raises(PlanError, match=f"^unexpected plan node {node!r}$"):
        execute_plan(CompiledPlan("html", [Lit("a"), node, Lit("c")]), Bindings({}))


@pytest.mark.parametrize("x", [{}, {"z": 1}, "s", None], ids=["empty", "other-field", "str", "null"])
def test_a_condition_over_a_missing_field_is_false_in_both_engines(html, x):
    source = 'tag: html\n:if x.y {\n"yes\n:} else {\n"no\n:}\n'
    plan, _ = compile_template(source)
    dynamic, _, _ = render_full(program_of(source), Bindings({"x": x}), html)
    static, _ = execute_plan(plan, Bindings({"x": x}))
    assert static.text == dynamic.text == "no\n"


# -- untrusted plan documents --------------------------------------------------------

def test_plan_text_that_is_not_json_is_a_plan_error():
    with pytest.raises(PlanError, match="^plan is not valid JSON: Expecting value: "
                                        "line 1 column 1 \\(char 0\\)$"):
        plan_from_json("not json")


@pytest.mark.parametrize("offset", [-50, -1, 10**6])
def test_mark_offsets_outside_their_literal_are_rejected(html, offset):
    doc = json.loads(compile_template(MESSAGE_TEMPLATE)[0].to_json())
    start = next(row for row in doc["marks"] if row["kind"] == "MsgStart")
    start["offset"] = offset
    with pytest.raises(PlanError, match="outside its literal"):
        plan_from_json(json.dumps(doc))


def _lit_doc(**mark):
    return {"language": "html", "body": [{"lit": "a"}],
            "marks": [{"at": [0], "offset": 0, "kind": "MsgStart", **mark}]}


def _interp(path):
    return {"interp": {"path": path, "escapers": ["HtmlPcdataEscaper"]}}


@pytest.mark.parametrize("doc", [
    _lit_doc(at=[False], offset=True, kind="Bogus"),
    _lit_doc(at=[False]),
    _lit_doc(offset=True),
    _lit_doc(kind="Bogus"),
    _lit_doc(kind="msgstart"),
    # Collector.append_value adds these around each value at render time; a
    # plan that carried them would report a value where the render made none
    _lit_doc(kind="ExprStart"),
    _lit_doc(kind="ExprEnd"),
] + [
    {"language": "html", "body": [node]} for node in (
        _interp(""), _interp("a..b"), _interp(".a"), _interp("a."), _interp("1a"),
        _interp("a b"), _interp("a[0]"),
        {"for": {"var": "i", "path": "", "body": []}},
        {"for": {"var": "i", "path": "a..b", "body": []}},
        {"if": {"path": "", "then": [], "else": []}},
        {"if": {"path": "a.", "then": [], "else": []}},
        {"for": {"var": "", "path": "xs", "body": []}},
        {"for": {"var": "i.j", "path": "xs", "body": []}},
        {"for": {"var": "1", "path": "xs", "body": []}},
    )
])
def test_values_no_compiled_plan_holds_are_rejected(doc):
    with pytest.raises(PlanError):
        plan_from_json(json.dumps(doc))


def test_every_mark_kind_and_a_dotted_path_load():
    # MsgStart, then MsgEnd: a message end needs its start
    doc = {"language": "html", "body": [{"lit": "a"}],
           "marks": [{"at": [0], "offset": i, "kind": kind}
                     for i, kind in enumerate(LITERAL_MARK_KINDS)]}
    plan = plan_from_json(json.dumps(doc))
    assert plan.body[0].marks == tuple(Mark(kind, i) for i, kind in enumerate(LITERAL_MARK_KINDS))
    plan = plan_from_json(json.dumps({"language": "html", "body": [
        {"for": {"var": "_i2", "path": "page.items", "body": [_interp("_i2.x_1")]}}]}))
    assert plan.body[0].body[0].path == "_i2.x_1"


def test_mark_offsets_at_either_end_of_their_literal_load(html):
    doc = json.loads(compile_template(MESSAGE_TEMPLATE)[0].to_json())
    start = next(row for row in doc["marks"] if row["kind"] == "MsgStart")
    literal = _at(doc["body"], start["at"])["lit"]
    for offset in (0, len(literal)):
        start["offset"] = offset
        plan = plan_from_json(json.dumps(doc))
        assert _at(plan.body, start["at"]).marks[0].offset == offset



@functools.lru_cache(maxsize=None)
def valid_cases() -> tuple:
    """(plan JSON, bindings) pairs that render: where the mutations start."""
    items = [{"url": v, "label": v[::-1]} for v in adversarial_values(4)]
    pairs = [(LIST_TEMPLATE, {"items": items}),
             (MESSAGE_TEMPLATE, {"s": "Hello <b>", "n": 5}),
             (NESTED_MESSAGE_TEMPLATE, {"items": items})]
    pairs += [(source, corpus_bindings("x")) for source in STRUCTURE_CORPUS]
    pairs += [random_template(random.Random(seed)) for seed in range(20)]
    return tuple((compile_template(source)[0].to_json(), values) for source, values in pairs)


def _positions(obj) -> list[tuple]:
    """Every position in a JSON-like value, as key/index tuples from the root."""
    out, stack = [], [((), obj)]
    while stack:
        at, value = stack.pop()
        out.append(at)
        if isinstance(value, dict):
            stack.extend((at + (key,), item) for key, item in value.items())
        elif isinstance(value, list):
            stack.extend((at + (i,), item) for i, item in enumerate(value))
    return out


def _at(obj, at):
    for step in at:
        obj = obj[step]
    return obj


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)

mark_rows = st.fixed_dictionaries({}, optional={
    "at": st.one_of(st.lists(st.one_of(st.integers(-1, 6),
                                       st.sampled_from(["body", "then", "else", "x"])),
                             max_size=4), json_values),
    "offset": st.one_of(st.integers(), json_values),
    "kind": st.one_of(st.sampled_from(MARK_KINDS + ("Other",)), json_values),
    "id": st.one_of(st.text(max_size=4), json_values),
})

NODE_KEYS = ["path", "var", "body", "then", "else", "escapers", "lit", "interp", "for", "if",
             "x"]


def mutate_document(draw, doc) -> None:
    """One mutation of a plan document, in place."""
    kind = draw(st.sampled_from(["drop", "rename", "retype", "escaper", "mark", "deep"]))
    if kind == "mark":
        marks = doc.get("marks")
        doc["marks"] = (marks if isinstance(marks, list) else []) + [draw(mark_rows)]
        return
    if kind == "deep":
        node = draw(st.sampled_from(["for", "if"]))
        for _ in range(draw(st.sampled_from([1, 2, 100, 300, 400]))):
            payload = ({"var": "v", "path": "xs", "body": doc["body"]} if node == "for"
                       else {"path": "c", "then": doc["body"], "else": []})
            doc["body"] = [{node: payload}]
        return
    targets = [at for at in _positions(doc) if at and (
        kind == "retype"
        or kind in ("drop", "rename") and isinstance(_at(doc, at), dict) and _at(doc, at)
        or kind == "escaper" and at[-1] == "escapers")]
    if not targets:
        return
    at = draw(st.sampled_from(targets))
    target = _at(doc, at)
    if kind == "retype":
        _at(doc, at[:-1])[at[-1]] = draw(json_values)
    elif kind == "escaper":
        name = draw(st.one_of(st.sampled_from(["NoSuchEscaper", "", "JsonValueEscaper"]),
                              json_values))
        target.insert(draw(st.integers(0, len(target))), name)
    else:
        value = target.pop(draw(st.sampled_from(sorted(target))))
        if kind == "rename":
            target[draw(st.sampled_from(NODE_KEYS))] = value


def _names(doc) -> list[str]:
    """The path segments and loop variables a plan document mentions."""
    names = set()
    for at in _positions(doc):
        if at and at[-1] in ("path", "var") and isinstance(_at(doc, at), str):
            names.update(_at(doc, at).split("."))
    return sorted(names) or ["x"]


@st.composite
def documents_and_bindings(draw):
    """A valid plan document with up to two mutations, and its bindings with
    up to three values replaced by random ones built from the names the
    document mentions."""
    text, values = draw(st.sampled_from(valid_cases()))
    doc, values = json.loads(text), copy.deepcopy(values)
    for _ in range(draw(st.integers(0, 2))):
        mutate_document(draw, doc)
    names = st.sampled_from(_names(doc))
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), any_text,
                        st.builds(SafeContent, st.sampled_from(["html", "css"]), st.text()))
    random_values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                                 | st.dictionaries(names, inner, max_size=3), max_leaves=12)
    values.update({"xs": [0], "c": 1})  # the loops and branches "deep" wraps around
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(_positions(values)[1:]))
        _at(values, at[:-1])[at[-1]] = draw(random_values)
    return doc, values


@settings(max_examples=300, deadline=None, derandomize=True)
@given(documents_and_bindings())
def test_mutated_plan_documents_fail_only_with_typed_errors(case):
    doc, values = case
    try:
        plan = plan_from_json(json.dumps(doc))
    except PlanError:
        return
    for _ in range(2):  # the first render lowers the plan, the second reuses it
        try:
            execute_plan(plan, Bindings(values))
        except (RenderError, PlanError):
            pass
