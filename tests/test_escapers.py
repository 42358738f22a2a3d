import html.parser
import json
import re
import urllib.parse

import pytest
from hypothesis import given, settings, strategies as st

from ctxesc import escapers
from ctxesc.escapers import (
    URL_REPLACEMENT,
    Escaper,
    apply_chain,
    chain,
    escape_css_string,
    escape_html_attr,
    escape_json_value,
    escape_pcdata,
    filter_url_attr,
    filter_url_css,
    filter_url_prefix,
    get,
    known_names,
    register,
)
from ctxesc.diagnostics import RenderError
from ctxesc.plan import Bindings, CompiledPlan, PlanInterp, execute_plan
from ctxesc.values import EscapeError, SafeContent, stringify
from ctxesc.web import load_table
from support import adversarial_values


def test_registry_ships_the_wire_format_names():
    assert {"HtmlPcdataEscaper", "HtmlAttributeEscaper", "UrlPrefixFilteringEscaper",
            "JsonValueEscaper", "CssStringEscaper"} <= known_names()


def test_pcdata_passthrough_for_safe_html():
    love = SafeContent("html", "I &lt;3 <b>you</b>")
    assert get("HtmlPcdataEscaper").apply(love) == "I &lt;3 <b>you</b>"


def test_pcdata_escapes_plain_text():
    assert escape_pcdata("") == ""
    assert escape_pcdata("a&b<c") == "a&amp;b&lt;c"
    assert escape_pcdata("5") == "5"


def test_pcdata_escapes_foreign_safe_content():
    css = SafeContent("css", "a<b")
    assert get("HtmlPcdataEscaper").apply(css) == "a&lt;b"


def test_attr_escaper_reescapes_safe_html():
    love = SafeContent("html", "I &lt;3 <b>you</b>")
    assert get("HtmlAttributeEscaper").apply(love) == "I &amp;lt;3 &lt;b&gt;you&lt;/b&gt;"


def test_attr_escaper_basics():
    assert escape_html_attr('"') == "&quot;"
    assert escape_html_attr("'") == "&#39;"
    assert escape_html_attr(5) == "5"
    assert escape_html_attr(2.5) == "2.5"
    assert escape_html_attr(True) == "true"


def test_text_escapers_reject_structured_values():
    for value in ([1, 2], {"a": 1}, None):
        with pytest.raises(EscapeError):
            escape_html_attr(value)
        with pytest.raises(EscapeError):
            escape_pcdata(value)


def test_url_filter_blocks_script_scheme():
    assert filter_url_prefix("javascript:sendMyCryptoWalletToAlice()") == URL_REPLACEMENT
    assert filter_url_prefix("JAVASCRIPT:x") == URL_REPLACEMENT
    assert filter_url_prefix("vbscript:x") == URL_REPLACEMENT
    assert filter_url_prefix(":leading-colon") == URL_REPLACEMENT
    assert filter_url_prefix("data:text/html,<script>") == URL_REPLACEMENT


def test_url_filter_allows_allowlisted_schemes():
    assert filter_url_prefix("https://example.com/a") == "https://example.com/a"
    assert filter_url_prefix("HTTP://example.com") == "HTTP://example.com"
    assert filter_url_prefix("mailto:a@b.c") == "mailto:a@b.c"


def test_url_filter_allows_relative_urls():
    assert filter_url_prefix("/path with space") == "/path%20with%20space"
    assert filter_url_prefix("img.png") == "img.png"
    assert filter_url_prefix("//host/path") == "//host/path"
    assert filter_url_prefix("?q=a b") == "?q=a%20b"
    assert filter_url_prefix("") == ""


def test_url_filter_never_deletes():
    # rejection substitutes a fixed value instead of producing empty output
    assert filter_url_prefix("unknown:thing") != ""


def test_url_filter_colon_after_slash_is_not_a_scheme():
    assert filter_url_prefix("foo/bar:baz") == "foo/bar:baz"
    assert filter_url_prefix("?next=x:y") == "?next=x:y"


def test_url_filter_percent_encodes_quotes_and_angles():
    out = filter_url_prefix('/a"b<c>d')
    assert '"' not in out and "<" not in out and ">" not in out


def test_json_escaper_cannot_close_script():
    assert escape_json_value("</script>") == '"\\u003c/script\\u003e"'
    assert "</script" not in escape_json_value("x</script>y<!--")


def test_json_escaper_values():
    assert escape_json_value(True) == "true"
    assert escape_json_value([1, 2]) == "[1,2]"
    assert escape_json_value({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert escape_json_value(None) == "null"


def test_json_escaper_rejects_safe_content():
    with pytest.raises(EscapeError):
        escape_json_value(SafeContent("html", "<b>x</b>"))


def test_css_string_escaper():
    out = escape_css_string('a"b\\c</style>')
    assert '"' not in out and "<" not in out and ">" not in out
    assert out == "a\\22 b\\\\c\\3c /style\\3e "


def test_apply_chain_applies_innermost_first():
    out = apply_chain(("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper"),
                      'https://e.com/?a=1&b="x"')
    # the filter percent-encodes the quotes, then attr escaping maps &
    assert out == "https://e.com/?a=1&amp;b=%22x%22"


def test_apply_chain_empty_chain_stringifies():
    assert apply_chain((), 5) == "5"
    assert apply_chain((), "x") == "x"


class _AttrProbe(html.parser.HTMLParser):
    def __init__(self):
        super().__init__()
        self.attrs = []

    def handle_starttag(self, tag, attrs):
        self.attrs.extend(attrs)


@pytest.mark.parametrize("value", [
    "plain", 'has "quotes"', "has 'single'", "a<b>c</b>", "&amp; preencoded",
    "trailing\\", "", "multi\nline", "sp ace", "=equals=", "`backtick`",
])
def test_attr_escaper_round_trips_through_tokenizer(value):
    probe = _AttrProbe()
    probe.feed('<i a="' + escape_html_attr(value) + '">')
    probe.close()
    assert probe.attrs == [("a", value)]


def test_escapers_are_pure():
    value = SafeContent("html", "x<b>y</b>")
    assert escape_pcdata(value) == escape_pcdata(value)
    assert filter_url_prefix("a b") == filter_url_prefix("a b")


# -- equivalence with the escapers' original formulas ------------------------------
# The escapers search for a character to change before they build new text.
# These are the formulas they replaced, kept as the oracle: each escaper must
# give the same text, or raise the same exception type, for every value.

_OLD_PCDATA_MAP = {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;"}
_OLD_ATTR_MAP = {**_OLD_PCDATA_MAP, ord('"'): "&quot;", ord("'"): "&#39;"}
_OLD_CSS_MAP = {"\\": "\\\\", '"': "\\22 ", "'": "\\27 ", "<": "\\3c ", ">": "\\3e ",
                "&": "\\26 ", "(": "\\28 ", ")": "\\29 ", "\n": "\\a ", "\r": "\\a ",
                "\f": "\\a "}


def _old_stringify(value):
    if isinstance(value, SafeContent):
        return value.text
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value) if isinstance(value, float) else str(value)
    if isinstance(value, str):
        return value
    if value is None:
        raise EscapeError("cannot render null as text")
    raise EscapeError(f"cannot render a {type(value).__name__} as text")


def _old_pcdata(value):
    if isinstance(value, SafeContent) and value.language == "html":
        return value.text
    return _old_stringify(value).translate(_OLD_PCDATA_MAP)


def _old_attr(value):
    return _old_stringify(value).translate(_OLD_ATTR_MAP)


def _old_url(value):
    text = _old_stringify(value)
    m = re.search(r"[:/?#]", text)
    if m and text[m.start()] == ":":
        if text[: m.start()].lower() not in {"http", "https", "mailto", "tel", "ftp"}:
            return URL_REPLACEMENT
    try:
        return urllib.parse.quote(text, safe=":/?#[]@!$&'()*+,;=%-._~")
    except UnicodeEncodeError:
        # the one intended change: a value with no UTF-8 form (a lone
        # surrogate) is an EscapeError, not a bare codec error
        raise EscapeError("cannot percent-encode URL value") from None


def _old_url_attr(value):
    return _old_attr(_old_url(value))


def _old_url_css(value):
    return _old_css(_old_url(value))


def _old_json(value):
    if isinstance(value, SafeContent):
        raise EscapeError("safe content has no meaning inside a script body")
    try:
        out = json.dumps(value, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise EscapeError(f"cannot serialize value as JSON: {exc}") from None
    return out.replace("<", "\\u003c").replace(">", "\\u003e").replace("&", "\\u0026")


def _old_css(value):
    return re.sub(r'[\\"\'<>&()\n\r\f]', lambda m: _OLD_CSS_MAP[m.group(0)],
                  _old_stringify(value))


ORACLES = [
    (escape_pcdata, _old_pcdata),
    (escape_html_attr, _old_attr),
    (filter_url_prefix, _old_url),
    (filter_url_attr, _old_url_attr),
    (filter_url_css, _old_url_css),
    (escape_json_value, _old_json),
    (escape_css_string, _old_css),
]

# every code point, lone surrogates and control characters included
_any_text = st.text(st.characters(exclude_categories=()))
_url_like = st.tuples(
    st.sampled_from(["", "http:", "HTTPS:", "javascript:", "mailto:", "x:", "//", "/", "?", "#"]),
    _any_text,
).map("".join)
escaper_inputs = st.one_of(
    _any_text,
    _url_like,
    st.sampled_from(adversarial_values(300)),
    st.builds(SafeContent, st.sampled_from(["html", "css", "url", "text"]), _any_text),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _outcome(fn, value):
    try:
        return "ok", fn(value)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return "raises", type(exc)


@pytest.mark.parametrize("escaper, oracle", ORACLES, ids=[f.__name__ for f, _ in ORACLES])
@settings(max_examples=400, deadline=None, derandomize=True)
@given(value=escaper_inputs)
def test_escaper_matches_its_original_formula(escaper, oracle, value):
    assert _outcome(escaper, value) == _outcome(oracle, value)


@pytest.mark.parametrize("escaper, oracle", ORACLES, ids=[f.__name__ for f, _ in ORACLES])
def test_escaper_matches_its_original_formula_on_the_adversarial_corpus(escaper, oracle):
    for value in adversarial_values(2000) + ["\ud800", "a\udfffb", "\x00\x7f\x9f", "ü€😀"]:
        assert _outcome(escaper, value) == _outcome(oracle, value), repr(value)


# The URL filters pass a value through when one fullmatch finds an allowed or
# no scheme and only kept characters. These URLs sit on both sides of that
# check: a scheme-like head, a tail of kept characters, and sometimes one
# character from outside the kept set at a random position.
_URL_KEPT = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
             ":/?#[]@!$&'()*+,;=%-._~")


def _url_with(head, tail, odd, at):
    at %= len(tail) + 1
    return head + tail[:at] + odd + tail[at:]


_url_near_kept = st.builds(
    _url_with,
    st.sampled_from(["", "http:", "HTTP:", "https:", "HtTpS:", "mailto:", "MAILTO:", "tel:",
                     "Tel:", "ftp:", "FTP:", "x:", ":a", "a/b:", "/", "//", "?", "#", "%", "&",
                     "'", "http\u017f:", "javascript:"]),
    st.text(st.sampled_from(_URL_KEPT), max_size=24),
    st.one_of(st.just(""), st.sampled_from(' "<>`\\^{|}\x00\x7f\xa0ü\u017f\u0130€😀\ud800'),
              st.characters(exclude_categories=()).filter(lambda c: c not in _URL_KEPT)),
    st.integers(0, 64),
)
URL_ORACLES = [(filter_url_prefix, _old_url), (filter_url_attr, _old_url_attr)]


@pytest.mark.parametrize("escaper, oracle", URL_ORACLES,
                         ids=[f.__name__ for f, _ in URL_ORACLES])
@settings(max_examples=600, deadline=None, derandomize=True)
@given(value=_url_near_kept)
def test_url_filter_matches_its_original_formula_around_the_pass_through(escaper, oracle,
                                                                         value):
    assert _outcome(escaper, value) == _outcome(oracle, value)


def test_url_with_a_lone_surrogate_names_the_reason_and_index():
    for escaper in (filter_url_prefix, filter_url_attr):
        with pytest.raises(EscapeError) as exc:
            escaper("a\ud800b")
        assert str(exc.value) == \
            "cannot percent-encode URL value: surrogates not allowed at index 1"


# -- chain-level oracle --------------------------------------------------------------
# Every chain a shipped table's [escapers] row names, plus the empty chain, must
# give the same text (or raise the same exception type) through apply_chain and
# through a compiled one-interp plan as this copy of the original chain rule: a
# per-escaper SafeContent pass-through, then the transform, innermost first,
# then stringify.

_ORIGINAL_ESCAPERS = {
    "HtmlPcdataEscaper": (escape_pcdata, frozenset({"html"})),
    "HtmlAttributeEscaper": (escape_html_attr, frozenset()),
    "UrlPrefixFilteringEscaper": (filter_url_prefix, frozenset()),
    "JsonValueEscaper": (escape_json_value, frozenset()),
    "CssStringEscaper": (escape_css_string, frozenset()),
}


def _original_chain(names, value):
    out = value
    for name in names:
        transform, passthrough = _ORIGINAL_ESCAPERS[name]
        if isinstance(out, SafeContent) and out.language in passthrough:
            out = out.text
        else:
            out = transform(out)
    return out if isinstance(out, str) else stringify(out)


def _shipped_chains():
    chains = {()}
    for name in ("html.tt", "url.tt", "css.tt", "text.tt"):
        chains.update(row.escapers for row in load_table(name).escapes)
    return sorted(chains)


SHIPPED_CHAINS = _shipped_chains()


def _plan_chain(names):
    plan = CompiledPlan("html", [PlanInterp("x", tuple(names))])

    def render(value):
        try:
            return execute_plan(plan, Bindings({"x": value}))[0].text
        except RenderError as exc:  # the plan reports an EscapeError with its site
            raise EscapeError(exc.message) from None
    return render


def test_shipped_chains_include_a_two_escaper_chain():
    assert () in SHIPPED_CHAINS
    assert ("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper") in SHIPPED_CHAINS


@pytest.mark.parametrize("names", SHIPPED_CHAINS, ids="+".join)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(value=escaper_inputs)
def test_chain_matches_the_original_chain_rule(names, value):
    expected = _outcome(lambda v: _original_chain(names, v), value)
    assert _outcome(lambda v: apply_chain(names, v), value) == expected
    assert _outcome(_plan_chain(names), value) == expected


@pytest.mark.parametrize("names", SHIPPED_CHAINS, ids="+".join)
def test_chain_matches_the_original_chain_rule_on_safe_content(names):
    render = _plan_chain(names)
    values = adversarial_values(200) + ["\ud800", 5, 2.5, True, None, [1]]
    values += [SafeContent(lang, text) for lang in ("html", "css", "url", "text")
               for text in ("", "I &lt;3 <b>you</b>", 'a"b', "javascript:x")]
    for value in values:
        expected = _outcome(lambda v: _original_chain(names, v), value)
        assert _outcome(lambda v: apply_chain(names, v), value) == expected, repr(value)
        assert _outcome(render, value) == expected, repr(value)


@pytest.mark.parametrize("names", SHIPPED_CHAINS, ids="+".join)
def test_chain_matches_the_original_chain_rule_on_safe_content_with_non_str_text(names):
    # SafeContent does not check that its text is a str; stringify gives such
    # text the text form of its value, so every chain but the JSON one (which
    # rejects all SafeContent) renders ("css", 5) as "5" and ("css", None) as
    # an EscapeError, never a bare TypeError
    render = _plan_chain(names)
    for value in [SafeContent(lang, text) for lang in ("html", "css", "url", "text")
                  for text in (5, 2.5, True, None, [1])]:
        outcome = _outcome_and_message(lambda v: apply_chain(names, v), value)
        assert outcome == _outcome_and_message(lambda v: _original_chain(names, v), value), \
            repr(value)
        if names == ("JsonValueEscaper",) or not isinstance(value.text, (int, float)):
            assert outcome[:2] == ("raises", EscapeError), repr(value)
        else:
            assert outcome == ("ok", stringify(value.text)), repr(value)
        assert _outcome(render, value) == _outcome(lambda v: apply_chain(names, v), value)


# -- chain fusion --------------------------------------------------------------------
# chain() rewrites adjacent shipped transforms through escapers._FUSED. Each
# rewrite, and each chain a compiled plan holds that a rewrite shortens, must
# give the same text as running the named transforms one by one, or raise the
# same exception with the same message.

# every pair of registered names whose transforms a rewrite fuses; a rewrite
# of a fused-only transform shows in the longer chain that leads to it
FUSED_CHAINS = sorted({(first, second) for first in known_names() for second in known_names()
                       if (get(first).transform, get(second).transform) in escapers._FUSED}
                      # the chain of a style attribute's url(...) value
                      | {("UrlPrefixFilteringEscaper", "CssStringEscaper",
                          "HtmlAttributeEscaper")})


def _unfused(names):
    fns = [get(name).transform for name in names]

    def escape(value):
        for f in fns:
            value = f(value)
        return value if isinstance(value, str) else stringify(value)
    return escape


def _outcome_and_message(fn, value):
    try:
        return "ok", fn(value)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raises", type(exc), str(exc)


def test_fusion_rewrites_to_the_expected_transforms():
    assert chain(("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper")) is filter_url_attr
    assert chain(("CssStringEscaper", "HtmlAttributeEscaper")) is escape_css_string
    assert chain(("UrlPrefixFilteringEscaper", "CssStringEscaper")) is filter_url_css
    assert chain(("UrlPrefixFilteringEscaper", "CssStringEscaper",
                  "HtmlAttributeEscaper")) is filter_url_css
    assert len(FUSED_CHAINS) == len(escapers._FUSED)
    # a chain of one shipped transform is that transform, with no wrapper
    for name in ("HtmlPcdataEscaper", "HtmlAttributeEscaper", "UrlPrefixFilteringEscaper",
                 "JsonValueEscaper", "CssStringEscaper"):
        assert chain((name,)) is get(name).transform
    assert chain(()) is stringify


@pytest.mark.parametrize("names", FUSED_CHAINS, ids="+".join)
@settings(max_examples=400, deadline=None, derandomize=True)
@given(value=escaper_inputs)
def test_fused_chain_equals_the_unfused_chain(names, value):
    assert _outcome_and_message(chain(names), value) == \
        _outcome_and_message(_unfused(names), value)


@pytest.mark.parametrize("names", FUSED_CHAINS, ids="+".join)
def test_fused_chain_equals_the_unfused_chain_on_the_adversarial_corpus(names):
    values = adversarial_values(2000) + ["\ud800", "a\udfffb", "/a\ud800'&", "ü€😀",
                                         "a&b'c", "&'", "javascript:x'&", 5, 2.5, True,
                                         None, [1], {"a": 1}]
    values += [SafeContent(lang, text) for lang in ("html", "css", "url", "text")
               for text in ("", "I &lt;3 <b>you</b>", "a'b&c", "javascript:x", 5, None)]
    fused, unfused = chain(names), _unfused(names)
    for value in values:
        assert _outcome_and_message(fused, value) == _outcome_and_message(unfused, value), \
            repr(value)


@pytest.mark.parametrize("url", ["http\u017f:x", "ma\u0130lto:x", "ma\u0131lto:x"])
def test_non_ascii_scheme_letters_are_blocked(url):
    # each letter case-folds to ASCII (ſ to s, İ and ı to i), so a check that
    # matched the scheme case-insensitively outside ASCII would let it pass
    assert filter_url_prefix(url) == URL_REPLACEMENT
    assert chain(("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper"))(url) == URL_REPLACEMENT


def test_uppercase_allowed_scheme_passes_the_fused_chain():
    assert chain(("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper"))("HTTPS://a") == "HTTPS://a"


def test_a_registered_replacement_is_applied_and_not_fused():
    original = get("HtmlAttributeEscaper")
    names = ("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper")
    try:
        register(Escaper("HtmlAttributeEscaper", lambda value: f"[{value}]"))
        assert chain(names)("/a b&c") == "[/a%20b&c]"
    finally:
        register(original)
    assert get("HtmlAttributeEscaper") is original
    assert chain(names) is filter_url_attr
    assert chain(names)("/a b&c") == "/a%20b&amp;c"


# -- the shared JSON encoder ------------------------------------------------------------

_json_keys = st.one_of(_any_text, st.integers(), st.floats(), st.booleans(), st.none())
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _any_text),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_json_keys, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(value=json_values)
def test_json_escaper_equals_the_json_dumps_formula(value):
    # NaN and infinities, keys of mixed types (which sort_keys cannot order)
    # and nesting: the same text, or the same exception type and message
    assert _outcome_and_message(escape_json_value, value) == \
        _outcome_and_message(_old_json, value)


def test_json_escaper_keeps_no_state_between_calls():
    holder = {"k": None}
    cycle = [holder]
    holder["k"] = cycle
    with pytest.raises(EscapeError, match="Circular reference"):
        escape_json_value(cycle)
    # a failed call leaves no circular-reference marker behind for the next
    holder["k"] = 1
    assert escape_json_value(cycle) == '[{"k":1}]'


class _Str(str):
    pass


class _Int(int):
    pass


# the scalars escape_json_value encodes without the shared encoder, next to
# their subclasses and the values that only the encoder takes
json_scalars = st.one_of(
    _any_text, _any_text.map(_Str), st.integers(), st.integers().map(_Int),
    st.sampled_from([10 ** 4300, -(10 ** 4299) * 3, 10 ** 4299, float("nan"), float("inf"),
                     float("-inf"), True, False, None, _Int(5), _Str("</script>")]),
    st.floats(), st.booleans(), st.none(),
    st.builds(SafeContent, st.sampled_from(["html", "js"]), _any_text))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(value=st.one_of(json_scalars, st.lists(json_scalars, max_size=3),
                       st.dictionaries(_any_text, json_scalars, max_size=3)))
def test_json_escaper_scalar_paths_equal_the_json_dumps_formula(value):
    assert _outcome_and_message(escape_json_value, value) == \
        _outcome_and_message(_old_json, value)
