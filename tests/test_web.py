import pathlib

import pytest

from conftest import program_of
from ctxesc import web
from ctxesc.compiler import compile_template, execute_plan
from ctxesc.diagnostics import Position, RenderError, TableError
from ctxesc.machine import finish, step_fixed, step_interp, transition_op_count
from ctxesc.runtime import Bindings, render_full
from ctxesc.web import html_machine, machine_for_tag
from support import adversarial_values, codec_decode, codec_encode

POS = Position("t", 1, 1)


def feed(machine, text):
    r = step_fixed(machine, machine.zero_state(), text, POS)
    f = finish(machine, r.state, POS)
    return f.state, r.emitted + f.emitted


def test_url_attribute_starts_subsidiary_via_html_codec(html):
    state, _ = feed(html, '<a href="')
    (frame,) = state.frames
    assert (frame.machine, frame.codec) == ("Url", "htmlCodec")


def test_style_body_keeps_html_end_detection(html):
    state, emitted = feed(html, "<style>p{color:red}</style")
    assert state.context[0] == "CName"
    assert state.frames == ()
    assert emitted == "<style>p{color:red}</style"


def test_style_end_tag_case_insensitive(html):
    state, _ = feed(html, "<style>x</STYLE>")
    assert state.context[0] == "Pcdata"
    state, _ = feed(html, "<script>x</ScRiPt>")
    assert state.context[0] == "Pcdata"


def test_url_machine_tracks_position(html):
    state, _ = feed(html, '<a href="https://e.com/p')
    assert state.frames[0].context == ("AfterAuthority",)
    state, _ = feed(html, '<a href="jav')
    assert state.frames[0].context == ("MaybeScheme",)
    state, _ = feed(html, '<a href="?q=')
    assert state.frames[0].context == ("QueryOrFragment",)


def test_css_url_reaches_depth_three(html):
    state, _ = feed(html, '<div style="background: url(')
    assert [f.machine for f in state.frames] == ["Css", "Url"]


def test_codec_round_trip():
    for text in ['a"b', "x<y>&z", "plain", 'entities &amp; "quotes"']:
        assert codec_decode("htmlCodec", codec_encode("htmlCodec", text)) == text


import re


def test_codec_encode_output_has_no_raw_specials():
    out = codec_encode("htmlCodec", 'a"b<c>d&e')
    for ch in '"<>':
        assert ch not in out
    # every ampersand left is the start of an entity we produced
    assert all(re.match(r"&(amp|lt|gt|quot);", out[m.start():])
               for m in re.finditer("&", out))


def test_codec_decode_numeric_references():
    assert codec_decode("htmlCodec", "&#60;") == "<"
    assert codec_decode("htmlCodec", "&#x3C;") == "<"
    assert codec_decode("htmlCodec", "&#39;") == "'"


def test_codec_decode_malformed_reference_is_lenient():
    assert codec_decode("htmlCodec", "&#zz;") == "&#zz;"
    assert codec_decode("htmlCodec", "&#99999999;") == "&#99999999;"
    assert codec_decode("htmlCodec", "&bogus;") == "&bogus;"


def test_malformed_reference_in_subsidiary_produces_warning(html):
    r = step_fixed(html, html.zero_state(), '<a href="&#zz;">', POS)
    f = finish(html, r.state, POS)
    warnings = [d for d in r.diagnostics + f.diagnostics]
    assert any("malformed numeric" in d.message for d in warnings)


def test_identity_codec():
    assert codec_decode("identityCodec", "a&amp;b") == "a&amp;b"
    assert codec_encode("identityCodec", '"<>&') == '"<>&'


def test_machine_for_tag():
    for tag in ("css", "html", "text", "url"):
        assert machine_for_tag(tag).language == tag
    assert set(machine_for_tag("css").subs) == {"Url"}
    assert machine_for_tag("url").subs == {} and machine_for_tag("text").subs == {}
    assert set(machine_for_tag("html").subs) == {"Url", "Css"}
    with pytest.raises(KeyError) as exc:
        machine_for_tag("nope")
    assert exc.value.args[0] == (
        "no machine registered for tag 'nope' (known: css, html, text, url)")


def test_html_machine_cache_clear_builds_a_cold_machine():
    warm = html_machine()
    compile_template('tag: html\n"<a href="${x}" style="b: url(${y})">\n')
    assert warm.root_table.row_memo and warm.subs["Url"].row_memo and warm.subs["Css"].row_memo
    html_machine.cache_clear()
    cold = html_machine()
    assert cold is not warm and cold is html_machine() is machine_for_tag("html", None)
    for table in (cold.root_table, *cold.subs.values()):
        assert table.row_memo == {}, table.name


def test_one_machine_per_tag_and_tables_dir():
    html_machine.cache_clear()
    machine = machine_for_tag("html")
    assert machine is machine_for_tag("html", None) is machine_for_tag(tag="html") is html_machine()
    assert machine_for_tag("text") is machine_for_tag("text", tables_dir=None)
    assert web._machine.cache_info().currsize == 2


def test_one_machine_per_tables_dir_however_it_is_named():
    html_machine.cache_clear()
    data = pathlib.Path(web.__file__).parent / "data"
    machine = machine_for_tag("html", str(data))
    assert machine is machine_for_tag("html", data) is html_machine(data)
    # the package data without a directory names its table files without one
    assert machine_for_tag("html") is not machine
    assert web._machine.cache_info().currsize == 2


def test_a_table_that_fails_validation_is_a_table_error(tmp_path):
    # parses, but starts a subsidiary that no 'uses' line declares
    (tmp_path / "bad.tt").write_text(
        "machine bad\nfields state\nvalues state: A B\nstart A\n[rules]\n"
        "| A | `x` | | B; start(Sub, identityCodec) |\n", encoding="utf-8")
    with pytest.raises(TableError) as exc:
        web.load_table("bad.tt", tmp_path)
    assert str(exc.value) == (f"{tmp_path / 'bad.tt'}:6:1: error: "
                              "subsidiary machine 'Sub' is not declared in 'uses'")


# -- css and url as root languages ---------------------------------------------

CSS_URL_TEMPLATES = [
    'tag: css\n"p { background: url(${x}) }\n',
    'tag: css\n"p { content: "${x}" }\n',
    "tag: css\n\"p { content: '${x}'; background: url('${y}') }\n",
    'tag: css\n"a { background: url( "${x}") } b { content: "${y}" }\n',
    ('tag: css\n:if c {\n"p { content: "${x}" }\n'
     ':} else {\n"q { background: url(${y}) }\n:}\n'),
    'tag: css\n:for it of items {\n"li { content: "${it.k}" }\n:}\n',
    'tag: url\n"${x}\n',
    'tag: url\n"/search?q=${x}&lang=${y}\n',
    'tag: url\n"https://example.com/${x}#${y}\n',
    'tag: url\n:if c {\n"${x}\n:} else {\n"/a/${y}\n:}\n',
]


@pytest.mark.parametrize("source", CSS_URL_TEMPLATES)
def test_css_and_url_roots_render_static_equal_dynamic(source):
    plan, diags = compile_template(source)
    assert plan is not None and diags == [], [str(d) for d in diags]
    assert plan.language == source[5:8]
    machine, program = machine_for_tag(plan.language), program_of(source)
    for value in adversarial_values(100):
        for c in (True, False):
            bindings = {"x": value, "y": value[::-1], "c": c,
                        "items": [{"k": value}, {"k": "plain"}]}
            static_value, static_marks = execute_plan(plan, Bindings(bindings))
            dyn_value, dyn_marks, _ = render_full(program, Bindings(bindings), machine)
            assert static_value == dyn_value, (source, value)
            assert static_marks == dyn_marks == ()


@pytest.mark.parametrize("quote", ['"', "'", ""], ids=["double", "single", "unquoted"])
def test_css_root_blocks_javascript_url(quote):
    source = f'tag: css\n"p {{ background: url({quote}${{x}}{quote}) }}\n'
    plan, diags = compile_template(source)
    assert diags == []
    text = execute_plan(plan, Bindings({"x": "javascript:alert(1)"}))[0].text
    q = quote or '"'
    assert text == f"p {{ background: url({q}about:invalid#blocked{q}) }}\n"


def test_css_root_declarations_interpolation_is_the_same_error_in_both_engines():
    source = 'tag: css\n"p { color: ${x} }\n'
    plan, diags = compile_template(source)
    assert plan is None
    assert [str(d) for d in diags] == [
        "<template>:2:13: error: interpolation not allowed in this context: (Decls, _)"]
    with pytest.raises(RenderError) as exc:
        render_full(program_of(source), Bindings({"x": "red"}), machine_for_tag("css"))
    assert (str(exc.value.position), exc.value.message) == (
        "<template>:2:13", "interpolation not allowed in this context: (Decls, _)")


def test_plain_text_machine_is_identity(plain):
    text = "anything <at all> & more\nlines"
    state, emitted = feed(plain, text)
    assert emitted == text
    r = step_interp(plain, plain.zero_state(), POS)
    assert r.escapers == () and r.state.error is None


def test_unquoted_fixed_attribute_value_ends_at_space_or_gt(html):
    state, emitted = feed(html, "<a href=hello>link")
    assert state.context[0] == "Pcdata"
    assert emitted == "<a href=hello>link"
    state, _ = feed(html, "<a href=a b=c>")
    assert state.context[0] == "Pcdata"


def test_message_tags_are_erased_and_marked(html):
    r = step_fixed(html, html.zero_state(), '<p><message i18n="@@m">hi</message></p>', POS)
    f = finish(html, r.state, POS)
    emitted = r.emitted + f.emitted
    assert emitted == "<p>hi</p>"
    marks = list(r.marks) + [m.shifted(len(r.emitted)) for m in f.marks]
    assert [(m.kind, m.offset, m.ident) for m in marks] == [
        ("MsgStart", 3, "m"), ("MsgEnd", 5, None)]


def test_comment_interpolation_has_no_escaper(html):
    state, _ = feed(html, "<!-- ")
    r = step_interp(html, state, POS)
    assert r.state.error


def test_attr_name_interpolation_has_no_escaper(html):
    state, _ = feed(html, "<a data-")
    r = step_interp(html, state, POS)
    assert r.state.error


def test_script_body_interpolation_uses_json_escaper(html):
    state, _ = feed(html, "<script>var x = ")
    r = step_interp(html, state, POS)
    assert r.escapers == ("JsonValueEscaper",)


def test_style_declarations_interpolation_fails_stop(html):
    state, _ = feed(html, '<div style="color: ')
    r = step_interp(html, state, POS)
    assert r.state.error
    assert "Decls" in r.state.error


def test_css_url_interpolation_chain_and_quotes(html):
    state, _ = feed(html, '<div style="background: url(')
    r = step_interp(html, state, POS)
    assert r.escapers == ("UrlPrefixFilteringEscaper", "CssStringEscaper",
                          "HtmlAttributeEscaper")
    # the CSS-inserted quotes are re-encoded for the HTML attribute context
    assert (r.pre, r.post) == ("&quot;", "&quot;")


def test_css_url_in_style_body_inserts_plain_quotes(html):
    state, _ = feed(html, "<style>p { background: url(")
    r = step_interp(html, state, POS)
    assert r.escapers == ("UrlPrefixFilteringEscaper", "CssStringEscaper")
    assert (r.pre, r.post) == ('"', '"')


# -- attributes typed by name ------------------------------------------------------

URL_ATTRIBUTES = ["href", "src", "action", "formaction", "data", "poster", "cite",
                  "background", "codebase", "longdesc", "manifest", "icon", "usemap",
                  "ping", "xmlns", "xlink:href"]


@pytest.mark.parametrize("name", URL_ATTRIBUTES + ["XLINK:HREF", "Data"])
def test_every_url_attribute_reaches_a_url_context(html, name):
    state, _ = feed(html, f"<a {name}=")
    assert state.context == ("BeforeValue", "None", "Url", "None")
    state, _ = feed(html, f'<a {name}="')
    assert state.context[2] == "Url" and [f.machine for f in state.frames] == ["Url"]


@pytest.mark.parametrize("name, attr", [
    ("onclick", "Js"), ("ONLOAD", "Js"), ("srcdoc", "Deny"), ("srcset", "Deny"),
    ("src-set", "Plain"), ("database", "Plain"), ("hreflang", "Plain"), ("xlink:title", "Plain"),
])
def test_attributes_outside_the_url_list_are_typed_by_name(html, name, attr):
    state, _ = feed(html, f"<a {name}=")
    assert state.context[2] == attr


# Values an attacker controls in attributes the tables once typed Plain or
# missed as URLs. Each either fails to compile at the interpolation or has its
# URL filtered, in the plan and in the dynamic engine alike.
@pytest.mark.parametrize("line, value, expected", [
    ('<button onclick="f(${x})">', "1);alert(2", "(Attr, _, Js, Double)"),
    ('<iframe srcdoc="${x}">', "<script>alert(3)</script>", "(Attr, _, Deny, Double)"),
    ('<object data="${x}">', "javascript:alert(4)", '<object data="about:invalid#blocked">'),
    ('<svg><a xlink:href="${x}">', "javascript:alert(7)",
     '<svg><a xlink:href="about:invalid#blocked">'),
    ('<img srcset="${x}">', "javascript:alert(8)", "(Attr, _, Deny, Double)"),
    ('<script src="${x}">', "https://evil.example/x.js", "(Attr, Script, Deny, Double)"),
], ids=["probe2-onclick", "probe3-srcdoc", "probe4-object-data", "probe7-xlink-href",
        "probe8-srcset", "script-src"])
def test_attribute_probes_fail_closed(html, line, value, expected):
    source = f'tag: html\n"{line}\n'
    plan, diags = compile_template(source, "p.tpl")
    bindings = Bindings({"x": value})
    if expected.startswith("("):
        where = f"p.tpl:2:{line.index('${') + 2}"
        assert plan is None
        assert [str(d) for d in diags] == [
            f"{where}: error: interpolation not allowed in this context: {expected}"]
        with pytest.raises(RenderError) as exc:
            render_full(program_of(source, "p.tpl"), bindings, html)
        assert str(exc.value.position) == where
    else:
        assert diags == []
        assert execute_plan(plan, bindings)[0].text == expected + "\n"
        assert render_full(program_of(source, "p.tpl"), bindings, html)[0].text == expected + "\n"


# CSS escapes end in a space, which ends an unquoted attribute value: with
# `'` escaped as `\27 `, the value `x' onmouseover=alert(1)` once added an
# event handler to `<p style=url('${x}')>`. A value in CSS in an unquoted
# style attribute is an error; quoted, it compiles.
@pytest.mark.parametrize("line", ["<p style=url('${x}')>t</p>", "<p style=content:'${x}'>t</p>"])
def test_css_in_an_unquoted_style_attribute_takes_no_value(html, line):
    source = f'tag: html\n"{line}\n'
    where = f"p.tpl:2:{line.index('${') + 2}"
    assert [str(d) for d in compile_template(source, "p.tpl")[1]] == [
        f"{where}: error: no escaper mapping for enclosing html context (Attr, _, Css, Space)"]
    with pytest.raises(RenderError) as exc:
        render_full(program_of(source, "p.tpl"), Bindings({"x": "x"}), html)
    assert str(exc.value.position) == where
    quoted = source.replace("style=", 'style="').replace(")>", ')">').replace("'>", "'\">")
    assert compile_template(quoted)[1] == []


# A script's src loads code, so no value may go there; a literal src and a
# script's other attributes are as before.
@pytest.mark.parametrize("line, expected", [
    ('<script src="/a.js"></script><p>${x}</p>', '<script src="/a.js"></script><p>v</p>'),
    ('<script src-x="${x}"></script>', '<script src-x="v"></script>'),
], ids=["literal-src", "src-x"])
def test_script_src_denies_values_only(html, line, expected):
    source = f'tag: html\n"{line}\n'
    plan, diags = compile_template(source, "p.tpl")
    assert diags == []
    bindings = Bindings({"x": "v"})
    assert execute_plan(plan, bindings)[0].text == expected + "\n"
    assert render_full(program_of(source, "p.tpl"), bindings, html)[0].text == expected + "\n"


# Literal text in a Js or Deny value is consumed a run at a time, as in a
# Plain value: a 200-character value costs what it costs in a title.
@pytest.mark.parametrize("quote", ['"', "'", ""], ids=["double", "single", "unquoted"])
@pytest.mark.parametrize("name", ["onclick", "srcdoc", "srcset"])
def test_js_and_deny_values_cost_what_plain_values_cost(quote, name):
    def compile_ops(attr):
        source = f'tag: html\n"<p {attr}={quote}{"a" * 200}{quote}>t</p>\n'
        before = transition_op_count()
        plan, diags = compile_template(source)
        assert plan is not None and diags == []
        return transition_op_count() - before

    assert compile_ops(name) == compile_ops("title") == (15 if quote else 14)
