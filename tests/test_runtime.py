import pytest

from conftest import LIST_TEMPLATE, program_of, render_text
from ctxesc import escapers, runtime
from ctxesc.diagnostics import Position, RenderError, Severity
from ctxesc.compiler import compile_template
from ctxesc.machine import finish, step_fixed, step_interp
from ctxesc.plan import execute_plan
from ctxesc.runtime import Accumulator, Bindings, render_full, resolve_segs
from ctxesc.values import SafeContent

POS = Position("t", 1, 1)


def test_new_accumulator_zero_context(html):
    acc = Accumulator(html)
    assert acc.state.context == ("Pcdata", "None", "None", "None")
    value, diags = acc.collected()
    assert value == SafeContent("html", "")
    assert diags == []
    assert acc.collector.marks == []


def test_append_fixed_accumulates(html):
    acc = Accumulator(html)
    acc.append_fixed("<ul>\n", POS)
    acc.flush_boundary(POS)
    assert acc.collector.text() == "<ul>\n"
    assert acc.state.context[0] == "Pcdata"
    acc.append_fixed("", POS)
    assert acc.collector.text() == "<ul>\n"


def test_collected_warns_on_bad_end_context(html):
    acc = Accumulator(html)
    acc.append_fixed("<a href=hello>link</a", POS)
    value, diags = acc.collected(POS)
    assert value is not None
    warnings = [d for d in diags if d.severity is Severity.WARNING]
    assert len(warnings) == 1
    assert "close tag" in warnings[0].message


def test_append_unsafe_quotes_empty_unquoted_value(html):
    acc = Accumulator(html)
    acc.append_fixed("<a href=", POS)
    acc.append_unsafe("", POS, "x")
    acc.append_fixed(">", POS)
    value, _ = acc.collected(POS)
    assert value.text == '<a href="">'


def test_append_unsafe_passthrough_in_pcdata(html):
    acc = Accumulator(html)
    safe = SafeContent("html", "<b>hi</b>")
    acc.append_unsafe(safe, POS, "x")
    value, _ = acc.collected(POS)
    assert value.text == "<b>hi</b>"


def test_append_unsafe_structured_value_fails_stop(html):
    acc = Accumulator(html)
    diags = acc.append_unsafe([1, 2], POS, "x")
    assert acc.errored
    assert any(d.severity is Severity.ERROR for d in diags)
    value, _ = acc.collected(POS)
    assert value is None


def test_accumulator_state_equals_fold_of_steps(html):
    parts = ["<ul>", "<li><a href=", None, ">", None, "</a></li>", "</ul>"]
    acc = Accumulator(html)
    state = html.zero_state()
    for part in parts:
        if part is None:
            acc.append_unsafe("v", POS, "x")
            r = step_interp(html, state, POS)
            state = r.state
        else:
            acc.append_fixed(part, POS)
            r = step_fixed(html, state, part, POS)
            state = r.state
    acc.flush_boundary(POS)
    state = finish(html, state, POS).state
    assert acc.state == state


def test_resolve_path_frames_shadow_root():
    b = Bindings({"x": 1, "item": {"url": "root"}})
    frames = [{"item": {"url": "frame"}}]
    assert resolve_segs("item.url".split("."), b, frames, POS) == "frame"
    assert resolve_segs("x".split("."), b, frames, POS) == 1


def test_resolve_path_absent_strict_raises():
    b = Bindings({})
    with pytest.raises(RenderError, match="unbound path 'nope'"):
        resolve_segs("nope".split("."), b, [], POS)
    assert resolve_segs("nope".split("."), b, [], POS, strict=False) is None


def test_render_list_template(html):
    items = [{"url": "https://e.com", "label": "a<b"}]
    text, _, diags = render_text(LIST_TEMPLATE, {"items": items}, html)
    assert text == '<ul>\n  <li><a href="https://e.com">a&lt;b</a></li>\n</ul>\n'
    assert diags == []


def test_render_loop_over_empty_list(html):
    text, _, _ = render_text(LIST_TEMPLATE, {"items": []}, html)
    assert text == "<ul>\n</ul>\n"


def test_render_conditionals(plain):
    src = 'tag: text\n:if c {\n"yes\n:} else {\n"no\n:}\n'
    assert render_text(src, {"c": True}, plain)[0] == "yes\n"
    assert render_text(src, {"c": False}, plain)[0] == "no\n"
    assert render_text(src, {"c": ""}, plain)[0] == "no\n"
    assert render_text(src, {"c": []}, plain)[0] == "no\n"
    assert render_text(src, {"c": 0}, plain)[0] == "no\n"
    assert render_text(src, {}, plain)[0] == "no\n"  # absent is false
    assert render_text(src, {"c": "x"}, plain)[0] == "yes\n"


def test_render_story_under_identity_machine(plain):
    src = ('tag: text\n'
           '"I am the ${title} who loves to ${verb}!\n'
           ':for item of items {\n'
           '"${item}! Ha ha ha.\n'
           ':}\n'
           '"Brought to you by the number ${last}.\n')
    bindings = {"title": "Count", "verb": "count",
                "items": ["Zero", "One", "Two"], "last": "Two"}
    text, _, _ = render_text(src, bindings, plain)
    assert text == ("I am the Count who loves to count!\n"
                    "Zero! Ha ha ha.\n"
                    "One! Ha ha ha.\n"
                    "Two! Ha ha ha.\n"
                    "Brought to you by the number Two.\n")


def test_identity_round_trip_without_interpolations(plain):
    src = 'tag: text\n"line one\n"line <two> & three\n'
    text, _, _ = render_text(src, {}, plain)
    assert text == "line one\nline <two> & three\n"


def test_render_unbound_path_raises(html):
    with pytest.raises(RenderError, match="unbound path"):
        render_text(LIST_TEMPLATE, {}, html)


def test_render_for_over_non_list_raises(html):
    with pytest.raises(RenderError, match="non-list"):
        render_text(LIST_TEMPLATE, {"items": "nope"}, html)


def test_render_full_rejects_a_plain_dict_as_execute_plan_does(html):
    with pytest.raises(TypeError, match=r"bindings must be a ctxesc Bindings") as dynamic:
        render_full(program_of(LIST_TEMPLATE), {"items": []}, html)
    with pytest.raises(TypeError) as static:
        execute_plan(compile_template(LIST_TEMPLATE)[0], {"items": []})
    assert str(dynamic.value) == str(static.value)


def test_render_fail_stop_has_no_partial_output(html):
    src = 'tag: html\n"before\n"<!-- ${x} -->\n'
    with pytest.raises(RenderError, match="interpolation not allowed"):
        render_text(src, {"x": "y"}, html)


def test_integer_too_long_to_print_is_a_render_error_in_both_engines(html):
    src = 'tag: html\n"<p>\n"${x}</p>\n'
    bindings = Bindings({"x": 10**5000})
    with pytest.raises(RenderError, match="cannot render a number as text") as dynamic:
        render_full(program_of(src), bindings, html)
    with pytest.raises(RenderError, match="cannot render a number as text") as static:
        execute_plan(compile_template(src)[0], bindings)
    assert dynamic.value.position == static.value.position == Position("<template>", 3, 2)


def test_render_determinism(html):
    items = [{"url": "/a?x=1&y=2", "label": "L'<>&"}]
    a = render_text(LIST_TEMPLATE, {"items": items}, html)
    b = render_text(LIST_TEMPLATE, {"items": items}, html)
    assert a == b


def test_render_returns_value_and_diags_pair(html):
    program = program_of('tag: html\n"<a href=hello>link</a\n')
    value, _, diags = render_full(program, Bindings({}), html)
    assert value.text == "<a href=hello>link</a\n"
    assert [d.severity for d in diags] == [Severity.WARNING]


def test_marks_are_well_nested(html):
    src = ('tag: html\n'
           '"<p><message i18n="@@a">x ${v} y</message></p>\n'
           '"<p><message i18n="@@b">z</message></p>\n')
    text, marks, _ = render_text(src, {"v": 5}, html)
    kinds = [m.kind for m in marks]
    assert kinds == ["MsgStart", "ExprStart", "ExprEnd", "MsgEnd", "MsgStart", "MsgEnd"]
    offsets = [m.offset for m in marks]
    assert offsets == sorted(offsets)
    assert all(m.offset <= len(text) for m in marks)


def test_bindings_from_json_safe_content_escape_hatch(html):
    b = Bindings.from_json('{"love": {"$safe": "html", "content": "<b>x</b>"}, "n": 3}')
    assert b.values["love"] == SafeContent("html", "<b>x</b>")
    assert b.values["n"] == 3


@pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
def test_bindings_document_that_is_not_an_object_is_a_value_error(text):
    with pytest.raises(ValueError, match="^bindings document must be a JSON object$"):
        Bindings.from_json(text)


@pytest.mark.parametrize("value, expected", [
    (None, False), (False, False), ("", False), (0, False), (0.0, False), ([], False),
    (True, True), ("0", True), (-1, True), ([0], True),
    # a record and safe content are true, even empty
    ({}, True), (SafeContent("html", ""), True),
])
def test_condition_truth_in_both_engines(html, value, expected):
    source = 'tag: html\n:if c {\n"yes\n:} else {\n"no\n:}\n'
    bindings = Bindings({"c": value})
    dynamic = render_full(program_of(source), bindings, html)[0].text
    static = execute_plan(compile_template(source)[0], bindings)[0].text
    assert static == dynamic == ("yes\n" if expected else "no\n")


@pytest.mark.parametrize("text, expected", [(5, '<p title="5">t</p>\n'),
                                            (None, "cannot render null as text")])
def test_safe_content_with_non_str_text_renders_or_is_a_positioned_error(html, text, expected):
    program = program_of('tag: html\n"<p title="${x}">t</p>\n', "s.tpl")
    bindings = Bindings({"x": SafeContent("css", text)})
    if text is None:
        with pytest.raises(RenderError, match=expected) as exc:
            render_full(program, bindings, html)
        assert str(exc.value.position) == "s.tpl:2:12"
    else:
        assert render_full(program, bindings, html)[0].text == expected


def test_a_render_binds_each_chain_once_and_the_next_render_sees_a_replacement(html, monkeypatch):
    built = []

    def counting_chain(names):
        built.append(names)
        return escapers.chain(names)

    monkeypatch.setattr(runtime, "chain", counting_chain)
    items = [{"url": f"/u{i}", "label": f"<{i}>"} for i in range(5)]
    program = program_of(LIST_TEMPLATE)
    first = render_full(program, Bindings({"items": items}), html)[0].text
    assert sorted(built) == [("HtmlPcdataEscaper",),
                             ("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper")]
    assert "&lt;4&gt;" in first
    original = escapers.get("HtmlPcdataEscaper")
    try:
        escapers.register(escapers.Escaper("HtmlPcdataEscaper", str.upper))
        second = render_full(program, Bindings({"items": items}), html)[0].text
    finally:
        escapers.register(original)
    assert "<4>" not in first and "<4>" in second
    assert len(built) == 4
