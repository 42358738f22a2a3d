import hashlib
import importlib.util
import json
import pathlib
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import LIST_TEMPLATE, MESSAGE_TEMPLATE, program_of
from ctxesc import escapers
from ctxesc import machine as machine_mod
from ctxesc import web
from ctxesc.compiler import (
    CompiledPlan,
    Lit,
    PlanFor,
    PlanIf,
    PlanInterp,
    analyze_template,
    compile_template,
    erase,
    execute_plan,
    plan_from_json,
    plan_to_json,
    propagate,
)
from ctxesc.diagnostics import PlanError, RenderError, Severity, has_errors
from ctxesc.frontend import AppendFixed, AppendUnsafe, LoopBlock
from ctxesc.machine import state_str
from ctxesc.marks import Mark
from ctxesc.runtime import Bindings, render_full
from support import STRUCTURE_CORPUS, adversarial_values, random_template, walk

GOLDEN = pathlib.Path(__file__).parent / "golden" / "list_plan.json"


def annotations_for(source, html):
    program = program_of(source)
    ann = propagate(program, html)
    return program, ann


def test_list_template_annotations(html):
    program, ann = annotations_for(LIST_TEMPLATE, html)
    nodes = list(walk(program.body))
    by_kind = {}
    for n in nodes:
        by_kind.setdefault(type(n).__name__, []).append(n)

    fixed = by_kind["AppendFixed"]
    assert [state_str(ann.in_states[n]) for n in fixed] == [
        "(Pcdata, _, _, _)",      # <ul>\n
        "(Pcdata, _, _, _)",      # "  <li><a href="
        "(AfterValue, _, _, _)",  # ">"
        "(Pcdata, _, _, _)",      # "</a></li>\n"
        "(Pcdata, _, _, _)",      # "</ul>\n"
    ]
    unsafe = by_kind["AppendUnsafe"]
    interps = [n for n in ann.items[1].body if isinstance(n, PlanInterp)]
    assert [n.pos for n in interps] == [n.pos for n in unsafe]
    assert state_str(ann.in_states[unsafe[0]]) == "(BeforeValue, _, Url, _)"
    assert interps[0].escapers == ("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper")
    assert state_str(ann.in_states[unsafe[1]]) == "(Pcdata, _, _, _)"
    assert interps[1].escapers == ("HtmlPcdataEscaper",)

    loop = by_kind["LoopBlock"][0]
    assert ann.merged[loop] == ann.in_states[loop]
    assert state_str(ann.merged[loop]) == "(Pcdata, _, _, _)"
    assert ann.end_ok
    assert ann.diagnostics == []


def test_straight_line_program_single_pass(html):
    _, ann = annotations_for('tag: html\n"<p>hello</p>\n', html)
    assert ann.merged == {}
    assert ann.end_ok


def test_branch_context_conflict_reports_both_fields(html):
    src = 'tag: html\n:if c {\n"<a href=\n:}\n"done\n'
    _, ann, diags = analyze_template(src)
    errors = [d for d in diags if d.severity is Severity.ERROR]
    assert len(errors) == 1
    assert "context conflict at join" in errors[0].message
    assert "state: BeforeValue vs Pcdata" in errors[0].message


def test_erase_refuses_blocking_diagnostics(html):
    src = 'tag: html\n:if c {\n"<a href=\n:}\n"done\n'
    _, ann, diags = analyze_template(src)
    assert has_errors(diags)
    with pytest.raises(PlanError):
        erase(ann)


def test_fail_stop_inside_loop_keeps_its_diagnostic(html):
    src = 'tag: html\n:for x of xs {\n"<!-- ${x} -->\n:}\n'
    _, ann, diags = analyze_template(src)
    errors = [d for d in diags if d.severity is Severity.ERROR]
    assert len(errors) == 1
    assert "interpolation not allowed" in errors[0].message
    assert errors[0].position.line == 3
    with pytest.raises(PlanError):
        erase(ann)


def test_loop_body_context_change_is_a_conflict(html):
    src = 'tag: html\n:for x of xs {\n"<a href=\n:}\n"x\n'
    _, ann, diags = analyze_template(src)
    errors = [d for d in diags if d.severity is Severity.ERROR]
    assert len(errors) == 1
    assert "context conflict" in errors[0].message
    assert "BeforeValue" in errors[0].message


# -- message marks must nest -------------------------------------------------------

NOT_NESTED = [
    # (source, bindings, error, where): both engines report the same error there
    ('tag: html\n"</message><p>${x}</p>\n', {"x": "a"},
     "message end without a message start", "t.tpl:2:15"),
    ('tag: html\n"<ul>\n:for it of items {\n"<li><message i18n="@@a">${it}\n:}\n"</ul>\n',
     {"items": [1, 2]}, "loop body leaves a message open", "t.tpl:3:1"),
    ('tag: html\n"<p><message i18n="@@a">\n:for it of items {\n"${it}</message>\n:}\n"</p>\n',
     {"items": [1]}, "loop body closes a message opened before it", "t.tpl:3:1"),
    ('tag: html\n"<p>\n:if c {\n"<message i18n="@@a">x\n:}\n"</p>\n',
     {"c": 1}, "branch leaves a message open", "t.tpl:3:1"),
    ('tag: html\n"<p><message i18n="@@a">x<message i18n="@@b">y</message></message></p>\n',
     {}, "message 'b' starts inside another message", "t.tpl:3:1"),
]


@pytest.mark.parametrize("source, values, message, where", NOT_NESTED)
def test_message_marks_that_do_not_nest_are_errors_in_both_engines(html, source, values,
                                                                   message, where):
    _, _, diags = analyze_template(source, "t.tpl")
    errors = [(d.message, str(d.position)) for d in diags if d.severity is Severity.ERROR]
    assert errors == [(message, where)]
    assert compile_template(source, "t.tpl")[0] is None
    with pytest.raises(RenderError) as exc:
        render_full(program_of(source, "t.tpl"), Bindings(values), html)
    assert (exc.value.message, str(exc.value.position)) == (message, where)


# -- site errors after held-back text ----------------------------------------------

# The root holds back a line's text until the next step flushes it; an error
# raised at the site that flushes it names the site's `${`, not the end of
# the held text on the line before.
SITE_AFTER_HELD_TEXT = [
    ('"<!-- a\n  "${x}', "(Comment, _, _, _)", "t.tpl:3:4"),
    ('"<style>p {\n"${x}', "(Decls, _)", "t.tpl:3:2"),
    ('"<p title="a" <!--\n"${x}', "(BeforeAttr, _, _, _)", "t.tpl:3:2"),
]


@pytest.mark.parametrize("body, context, where", SITE_AFTER_HELD_TEXT)
def test_a_site_error_after_held_back_text_names_the_site_in_both_engines(html, body, context,
                                                                         where):
    source = f"tag: html\n{body}\n"
    message = f"interpolation not allowed in this context: {context}"
    plan, diags = compile_template(source, "t.tpl")
    assert plan is None
    assert [(d.message, str(d.position)) for d in diags] == [(message, where)]
    with pytest.raises(RenderError) as exc:
        render_full(program_of(source, "t.tpl"), Bindings({"x": "a"}), html)
    assert (exc.value.message, str(exc.value.position)) == (message, where)


# -- self-closing tags -------------------------------------------------------------

# A browser ignores `/` before `>` on a non-void element, so `<script/>` opens
# script data and `<style/>` a style sheet. Chains and rendered text are
# asserted directly, not through the structure oracle: html.parser also reads
# `<script/>` as a start-end tag, so that oracle sees no difference between a
# value escaped as script and one escaped as text.
SELF_CLOSING = [
    ("<script/>${x}</script>", "JsonValueEscaper", '<script/>"alert(1)"</script>'),
    ("<SCRIPT src=/a.js />${x}</script>", "JsonValueEscaper",
     '<SCRIPT src=/a.js />"alert(1)"</script>'),
    ("<script a=b/>${x}</script>", "JsonValueEscaper", '<script a=b/>"alert(1)"</script>'),
    # void elements: the value is text after the tag
    ("<br/>${x}", "HtmlPcdataEscaper", "<br/>alert(1)"),
    ("<img src=x/>${x}", "HtmlPcdataEscaper", "<img src=x/>alert(1)"),
]


@pytest.mark.parametrize("body, escaper, text", SELF_CLOSING)
def test_self_closing_tags_keep_their_element_in_both_engines(html, body, escaper, text):
    source, values = f'tag: html\n"{body}\n', Bindings({"x": "alert(1)"})
    plan, diags = compile_template(source, "t")
    assert diags == []
    assert [n.escapers for n in plan.body if isinstance(n, PlanInterp)] == [(escaper,)]
    assert execute_plan(plan, values)[0].text == text + "\n"
    assert render_full(program_of(source, "t"), values, html)[0].text == text + "\n"


def test_self_closing_style_opens_a_style_sheet_in_both_engines(html):
    source = 'tag: html\n"<style/>p{color:${x}}</style>\n'
    message = "interpolation not allowed in this context: (Decls, _)"
    plan, diags = compile_template(source, "t")
    assert plan is None
    assert [(d.message, str(d.position)) for d in diags] == [(message, "t:2:18")]
    with pytest.raises(RenderError) as exc:
        render_full(program_of(source, "t"), Bindings({"x": "red"}), html)
    assert (exc.value.message, str(exc.value.position)) == (message, "t:2:18")


def test_no_recorded_state_holds_an_element_in_pcdata(html):
    # a tag closes into Pcdata with its element kept, and the element's
    # epsilon row into raw text fires before any state is recorded
    sources = [LIST_TEMPLATE, *STRUCTURE_CORPUS,
               *(f'tag: html\n"{body}\n' for body, _, _ in SELF_CLOSING),
               *(random_template(random.Random(seed))[0] for seed in range(200))]
    for source in sources:
        ann = propagate(program_of(source), html)
        for state in [*ann.in_states.values(), *ann.merged.values()]:
            assert state.context[0] != "Pcdata" or state.context[1] == "None", (source, state)


def _start(at, ident="a"):
    return {"at": at, "offset": 0, "kind": "MsgStart", "id": ident}


def _end(at):
    return {"at": at, "offset": 0, "kind": "MsgEnd"}


@pytest.mark.parametrize("body, rows, message", [
    ([{"lit": "</p>"}], [_end([0])], "message end without a message start"),
    ([{"for": {"var": "it", "path": "items", "body": [{"lit": "<li>"}]}}],
     [_start([0, "body", 0])], "loop body leaves a message open"),
    ([{"lit": "<p>"}, {"for": {"var": "it", "path": "items", "body": [{"lit": "x"}]}}],
     [_start([0]), _end([1, "body", 0])], "loop body closes a message opened before it"),
    ([{"if": {"path": "c", "then": [], "else": [{"lit": "x"}]}}],
     [_start([0, "else", 0])], "branch leaves a message open"),
    ([{"lit": "<p>"}, {"lit": "<p>"}], [_start([0]), _start([1], "b")],
     "message 'b' starts inside another message"),
])
def test_plans_whose_message_marks_do_not_nest_do_not_load(body, rows, message):
    doc = {"language": "html", "body": body, "marks": rows}
    with pytest.raises(PlanError, match=f"^{message}$"):
        plan_from_json(json.dumps(doc))
    # a message left open at the end loads, as the engines allow it
    doc = {"language": "html", "body": [{"lit": "<p>"}], "marks": [_start([0])]}
    assert plan_from_json(json.dumps(doc)).body[0].marks == (Mark("MsgStart", 0, "a"),)


def test_a_message_left_open_at_the_end_compiles(html):
    source = 'tag: html\n"<p><message i18n="@@a">${x}\n'
    plan, diags = compile_template(source)
    assert not has_errors(diags)
    values = Bindings({"x": "v"})
    static = execute_plan(plan_from_json(plan.to_json()), values)
    assert static == render_full(program_of(source), values, html)[:2]
    assert [m.kind for m in static[1]] == ["MsgStart", "ExprStart", "ExprEnd"]


def test_list_template_plan_matches_golden(html):
    plan, diags = compile_template(LIST_TEMPLATE, "list.tpl")
    assert diags == []
    assert plan.to_json() == GOLDEN.read_text(encoding="utf-8")


def test_list_template_plan_shape(html):
    plan, _ = compile_template(LIST_TEMPLATE)
    lit0, loop, lit2 = plan.body
    assert lit0 == Lit("<ul>\n")
    assert lit2 == Lit("</ul>\n")
    assert isinstance(loop, PlanFor)
    assert [type(n).__name__ for n in loop.body] == [
        "Lit", "PlanInterp", "Lit", "PlanInterp", "Lit"]
    assert loop.body[0].text == '  <li><a href="'
    assert loop.body[1] == PlanInterp(
        "item.url", ("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper"))
    assert loop.body[2].text == '">'
    assert loop.body[3] == PlanInterp("item.label", ("HtmlPcdataEscaper",))
    assert loop.body[4].text == "</a></li>\n"


def test_pure_literal_template_plan(html):
    plan, _ = compile_template('tag: html\n"<p>a</p>\n"<p>b</p>\n')
    assert [type(n).__name__ for n in plan.body] == ["Lit"]
    assert plan.body[0].text == "<p>a</p>\n<p>b</p>\n"


def test_adjacent_literals_coalesce(html):
    plan, _ = compile_template('tag: html\n"one\n"two\n"three\n')
    assert len(plan.body) == 1


def test_erasure_is_total(html):
    plan, _ = compile_template(LIST_TEMPLATE)
    import json

    def strings(obj):
        if isinstance(obj, str):
            yield obj
        elif isinstance(obj, dict):
            for k, v in obj.items():
                yield k
                yield from strings(v)
        elif isinstance(obj, list):
            for v in obj:
                yield from strings(v)

    vocab = set()
    for values in html.root_table.vocab.values():
        vocab.update(values)
    payload = set(strings(json.loads(plan.to_json())))
    # no machine-state value survives erasure as a token of the plan
    assert not (payload & vocab)
    assert "context" not in payload and "state" not in payload


def test_compiled_plan_execution_zero_transitions(html):
    plan, _ = compile_template(LIST_TEMPLATE)
    bindings = Bindings({"items": [{"url": "/a", "label": "x"}] * 5})
    execute_plan(plan, bindings)  # warm the resolver cache
    before = machine_mod.transition_op_count()
    execute_plan(plan, bindings)
    assert machine_mod.transition_op_count() == before


def test_execute_plan_blocks_bad_scheme(html):
    plan, _ = compile_template(LIST_TEMPLATE)
    bindings = Bindings({"items": [{"url": "javascript:evil()", "label": "hi"}]})
    value, _ = execute_plan(plan, bindings)
    assert value.text == ('<ul>\n  <li><a href="about:invalid#blocked">hi</a></li>\n'
                          "</ul>\n")


def test_execute_plan_single_lit():
    plan = CompiledPlan("html", [Lit("x")])
    value, marks = execute_plan(plan, Bindings({}))
    assert value.text == "x"
    assert marks == ()


def test_execute_plan_loop_order():
    plan = CompiledPlan("html", [PlanFor("i", "xs", [PlanInterp("i", ("HtmlPcdataEscaper",))])])
    value, _ = execute_plan(plan, Bindings({"xs": ["a", "b", "c"]}))
    assert value.text == "abc"


def test_execute_plan_if_branches():
    plan = CompiledPlan("html", [PlanIf("c", [Lit("y")], [Lit("n")])])
    assert execute_plan(plan, Bindings({"c": 1}))[0].text == "y"
    assert execute_plan(plan, Bindings({"c": 0}))[0].text == "n"
    assert execute_plan(plan, Bindings({}))[0].text == "n"


def test_execute_plan_errors(html):
    plan, _ = compile_template(LIST_TEMPLATE)
    with pytest.raises(RenderError, match="unbound path"):
        execute_plan(plan, Bindings({}))
    with pytest.raises(RenderError, match="non-list"):
        execute_plan(plan, Bindings({"items": 5}))


def test_plan_json_round_trip_preserves_execution(html):
    plan, _ = compile_template(MESSAGE_TEMPLATE)
    bindings = Bindings({"s": "Hello", "n": 5})
    direct_value, direct_marks = execute_plan(plan, bindings)
    loaded = plan_from_json(plan.to_json())
    loaded_value, loaded_marks = execute_plan(loaded, bindings)
    assert loaded_value == direct_value
    assert loaded_marks == direct_marks
    assert plan_to_json(loaded) == plan.to_json()


@pytest.mark.parametrize("doc", [
    {"language": 1, "body": []},
    {"language": "html", "body": {}},
    {"language": "html", "body": [{"lit": 3}]},
    {"language": "html", "body": [{"interp": "x"}]},
    {"language": "html", "body": [{"interp": {"path": "x", "escapers": [7]}}]},
    {"language": "html", "body": [{"for": {"var": "i", "path": "xs", "body": "b"}}]},
    {"language": "html", "body": [{"if": {"path": "c", "else": []}}]},
    {"language": "html", "body": [{"lit": "a"}], "marks": 1},
    {"language": "html", "body": [{"lit": "a"}], "marks": [{"at": [0], "kind": "MsgStart"}]},
] + [
    {"language": "html", "body": [{"lit": "a"}],
     "marks": [{"at": at, "offset": 0, "kind": "MsgStart"}]}
    for at in ([5], [-1], [0, 0], [[]], ["then"])
] + [
    # nested past the interpreter's recursion limit, so given as JSON text
    pytest.param('{"language": "html", "body": ' + "[" * 5000 + "]" * 5000 + "}",
                 id="deep_lists"),
    pytest.param('{"language": "html", "body": '
                 + '[{"for": {"var": "i", "path": "xs", "body": ' * 400 + "[]"
                 + "}}]" * 400 + "}", id="deep_fors"),
])
def test_malformed_plan_documents_raise_plan_error(doc):
    with pytest.raises(PlanError):
        plan_from_json(doc if isinstance(doc, str) else json.dumps(doc))


def test_plan_marks_serialized_at_tree_paths(html):
    plan, _ = compile_template(MESSAGE_TEMPLATE)
    import json

    doc = json.loads(plan.to_json())
    kinds = [(row["kind"], row["at"]) for row in doc["marks"]]
    assert ("MsgStart", [0]) in kinds          # on the opening literal
    assert ("MsgEnd", [len(doc["body"]) - 1]) in kinds  # on the closing literal
    start = next(r for r in doc["marks"] if r["kind"] == "MsgStart")
    assert start["id"] == "s-has-n"
    assert start["offset"] == len("<p>")


def test_plan_bytes_are_stable(html):
    a, _ = compile_template(LIST_TEMPLATE)
    b, _ = compile_template(LIST_TEMPLATE)
    assert a.to_json() == b.to_json()


def test_oracle_equivalence_on_core_templates(html):
    cases = [
        (LIST_TEMPLATE, {"items": [{"url": "https://e.com/a b", "label": "x<y&z'\""},
                                   {"url": "javascript:no", "label": ""}]}),
        (MESSAGE_TEMPLATE, {"s": "He<l>lo", "n": 5}),
        ('tag: html\n"<a href=${x} other-attr=${y}>\n', {"x": "", "y": "v"}),
        ('tag: html\n:if c {\n"<b>${v}</b>\n:} else {\n"none\n:}\n', {"c": True, "v": "q<"}),
        ('tag: html\n"<div style="background: url(${u})">x</div>\n', {"u": "a b.png"}),
        ('tag: html\n"<script>var v = ${v};</script>\n', {"v": ["</script>", 1]}),
    ]
    for src, bindings in cases:
        program = program_of(src)
        dyn_value, dyn_marks, _ = render_full(program, Bindings(bindings), html)
        plan, diags = compile_template(src)
        assert diags == [] or not has_errors(diags), [str(d) for d in diags]
        static_value, static_marks = execute_plan(plan, Bindings(bindings))
        assert static_value.text == dyn_value.text, src
        assert static_marks == dyn_marks, src


def test_propagate_diagnostics_cover_dynamic_warnings(html):
    src = 'tag: html\n:for x of xs {\n"</b "a">${x}\n:}\n'
    _, ann, diags = analyze_template(src)
    static_set = {(d.severity, d.message, d.position) for d in diags}
    program = program_of(src)
    _, _, dyn_diags = render_full(program, Bindings({"xs": ["1", "2"]}), html)
    dynamic_set = {(d.severity, d.message, d.position) for d in dyn_diags}
    assert dynamic_set <= static_set


def test_every_diagnostic_carries_a_position(html):
    sources = [
        'tag: html\n"<a href=hello>link</a\n',
        'tag: html\n:if c {\n"<a href=\n:}\n"done\n',
        'tag: html\n"</b "x">\n',
    ]
    for src in sources:
        _, _, diags = analyze_template(src)
        for d in diags:
            assert d.position.line >= 1 and d.position.col >= 1


# -- dispatch invariance ---------------------------------------------------------

# transition_op_count deltas of compile_template, list template first, then
# STRUCTURE_CORPUS in order, and the sha256 of the corpus plans' JSON, as the
# linear-scan rule dispatch produced them. The counter counts rule
# applications, not pattern scans, so no dispatch change may move them; a
# table change that adds a hop does (each raw-text element's epsilon row
# into raw text is one op).
PINNED_COMPILE_OPS = [27, 8, 15, 15, 12, 16, 12, 12, 17, 12, 12, 22, 23, 16, 13, 9, 23, 20,
                      12, 19, 15]
PINNED_CORPUS_PLANS_SHA256 = "b672e2e7b6db45e3d4fc7b33eb9c455cc54f28c56dbb802c7f0369663675c00c"


def test_compile_op_counts_and_plans_are_pinned():
    ops, digest = [], hashlib.sha256()
    for i, source in enumerate([LIST_TEMPLATE] + STRUCTURE_CORPUS):
        before = machine_mod.transition_op_count()
        plan, diags = compile_template(source, "list.tpl")
        ops.append(machine_mod.transition_op_count() - before)
        assert diags == []
        if i == 0:
            assert plan.to_json() == GOLDEN.read_text(encoding="utf-8")
        else:
            digest.update(plan.to_json().encode("utf-8"))
    assert ops == PINNED_COMPILE_OPS
    assert digest.hexdigest() == PINNED_CORPUS_PLANS_SHA256


# The same pins over random_template seeds 0-199, whose CSS inside
# attributes, style and script elements, messages, loops and branches
# keep subsidiary machines running: the sums and sha256 digests of the
# per-seed transition_op_count deltas of compile_template and of
# render_full, and the sha256 of the plans' JSON.
PINNED_RANDOM_COMPILE_OPS = (
    6466, "5f649425fecab50980837d619f9c4d0a65fc8caf366e32244063c3aa34a9a7b7")
PINNED_RANDOM_RENDER_OPS = (
    5554, "13d73e19911d91f199201cbde3f7b97697d022ddfb00b2b3a0d326ba31085526")
PINNED_RANDOM_PLANS_SHA256 = "a037f98eb2ca4d005fc391f593ae8976db3e20f313739e3a23dc97b2d714f28d"


def _sum_and_digest(counts):
    return sum(counts), hashlib.sha256(repr(counts).encode("ascii")).hexdigest()


def test_random_template_op_counts_and_plans_are_pinned(html):
    compile_ops, render_ops, digest = [], [], hashlib.sha256()
    for seed in range(200):
        source, values = random_template(random.Random(seed))
        before = machine_mod.transition_op_count()
        plan, diags = compile_template(source, f"t{seed}.tpl")
        compile_ops.append(machine_mod.transition_op_count() - before)
        assert not has_errors(diags)
        digest.update(plan.to_json().encode("utf-8"))
        before = machine_mod.transition_op_count()
        render_full(program_of(source), Bindings(values), html)
        render_ops.append(machine_mod.transition_op_count() - before)
    assert _sum_and_digest(compile_ops) == PINNED_RANDOM_COMPILE_OPS
    assert _sum_and_digest(render_ops) == PINNED_RANDOM_RENDER_OPS
    assert digest.hexdigest() == PINNED_RANDOM_PLANS_SHA256


# The benchmark's long line (seed 1 of perfbench's compile batch, one
# 34,828-byte literal): compile_template's transition_op_count delta and the
# sha256 of its plan's JSON. The ops were 5995 when the line reached the
# machine in one piece; feeding it in windows splits one text run at a window
# edge into two rows.
PINNED_LONG_LINE_OPS = 5996
PINNED_LONG_LINE_PLAN_SHA256 = "e71513a8197710f52f4c03dfc6b0d3235ff45a34e550a2bbac1ff27ed0a5c4be"


def test_long_line_op_count_and_plan_are_pinned():
    spec = importlib.util.spec_from_file_location("gen", GOLDEN.parents[2] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    kind, source, _ = gen.compile_batch(1, pages=8, page_bytes=4096, line_bytes=34 * 1024,
                                        corpus_values=5)[-1]
    assert kind == "line" and len(source) > 30 * machine_mod._WINDOW
    before = machine_mod.transition_op_count()
    plan, diags = compile_template(source, "line.tpl")
    assert machine_mod.transition_op_count() - before == PINNED_LONG_LINE_OPS
    assert diags == []
    assert hashlib.sha256(plan.to_json().encode("utf-8")).hexdigest() == \
        PINNED_LONG_LINE_PLAN_SHA256


def fresh_html_machine():
    """The HTML machine on newly loaded tables, bypassing web's cache, so
    every rule-selection memo starts cold."""
    return web._machine.__wrapped__("html", None)


def compile_corpus(machine, order):
    return {i: plan_to_json(erase(propagate(program_of(STRUCTURE_CORPUS[i]), machine)))
            for i in order}


def test_cold_tables_compile_identically_from_four_threads():
    n = len(STRUCTURE_CORPUS)
    expected = compile_corpus(fresh_html_machine(), range(n))

    def worker(machine, start, k):
        start.wait()
        # each thread starts at a different template, so the threads fill
        # the shared memo in different orders
        return compile_corpus(machine, [(k * 5 + i) % n for i in range(n)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _round in range(8):
                machine, start = fresh_html_machine(), threading.Barrier(4, timeout=60)
                results = list(pool.map(worker, [machine] * 4, [start] * 4, range(4), timeout=120))
                assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


# -- lazily bound escaper chains -------------------------------------------------

def test_fresh_plan_renders_identically_from_four_threads(html):
    text = compile_template(LIST_TEMPLATE)[0].to_json()
    values = adversarial_values(32)
    pages = [Bindings({"items": [{"url": v, "label": v[::-1]} for v in values[k:k + 4]]})
             for k in range(0, len(values), 4)]
    expected = [execute_plan(plan_from_json(text), page) for page in pages]

    def worker(plan, start, k):
        start.wait()
        # the threads reach the plan's unbound interpolation nodes together,
        # each on a different page
        order = [(k + i) % len(pages) for i in range(len(pages))]
        return {i: execute_plan(plan, pages[i]) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            # a race can only happen on a plan's first renders, so every
            # round loads a fresh plan
            for _round in range(500):
                plan, start = plan_from_json(text), threading.Barrier(4, timeout=60)
                results = list(pool.map(worker, [plan] * 4, [start] * 4, range(4), timeout=120))
                assert results == [dict(enumerate(expected))] * 4
    finally:
        sys.setswitchinterval(interval)


def test_plan_binds_escapers_at_first_render_not_at_load(html):
    text = compile_template(LIST_TEMPLATE)[0].to_json()
    page = Bindings({"items": [{"url": "https://e.com", "label": "<x>"}]})
    saved = escapers.get("HtmlPcdataEscaper")
    try:
        escapers.register(escapers.Escaper(saved.name, lambda v: "[A]"))
        plan = plan_from_json(text)
        escapers.register(escapers.Escaper(saved.name, lambda v: "[B]"))
        first = execute_plan(plan, page)[0].text
        escapers.register(saved)
        # the chain stays bound: a render after the registry changes again
        # still uses the escaper the first render found
        second = execute_plan(plan, page)[0].text
    finally:
        escapers.register(saved)
    assert "[B]" in first and "[A]" not in first and "<x>" not in first
    assert second == first
