import html.parser
import random

from hypothesis import given, settings, strategies as st

from ctxesc.compiler import analyze_template, compile_template
from ctxesc.diagnostics import Position, RenderError
from ctxesc.escapers import escape_html_attr, escape_pcdata, filter_url_prefix
from ctxesc.i18n import apply_translation, extract_messages
from ctxesc.plan import execute_plan
from ctxesc.machine import MachineState, finish, merge, step_fixed, step_interp
from ctxesc.runtime import Bindings, render_full
from ctxesc.values import SafeContent
from ctxesc.web import html_machine
from conftest import program_of
from support import (
    STRUCTURE_CORPUS,
    adversarial_values,
    codec_decode,
    codec_encode,
    corpus_bindings,
)

POS = Position("t", 1, 1)

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=80)
settings.load_profile("suite")

HTML = html_machine()

_FRAGMENTS = [
    "x", "ab cd", "<", ">", '"', "'", "&amp;", "&#60;", "&quot;", "&bogus;",
    "<b>", "</b>", "<a href=", '<a href="', "https://e.com/a", "javascript:x",
    "'>", '">', "<style>", "</style>", "url(", ")", "<script>", "</script>",
    "<p title=", "=", " ", "\n", "\\", "<!--", "-->", '<message i18n="@@m">',
    "</message>", "</p", "->", "-",
    # for nested machines (the openers below), and runs longer than a lookahead
    "color: red; ", "url('/i.png')", "/img/a.png", "&#", "&#x;", '</b class="x">', "x" * 70,
    "a: b; " * 12,
    # self-closing and attributed tags, raw-text ones among them
    "<script/>", "<style/>", "/>", "<br/>", "<script src=x>", "<p a=b>",
]
# a style attribute, a url( in one, and a style element body with a url(
_OPENERS = ['<p style="', '<p style="color: red; background: url(',
            "<style>.c { background: url("]
_FRAGMENTS += _OPENERS

# most draws are longer than the root's lookahead, so a step consumes text
# before finish flushes it
html_text = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.text(alphabet="abc<>&\"' =/", max_size=6)),
    min_size=14, max_size=28,
).map("".join)


def _holds_back_less_than_lookahead(state):
    return len(state.pending) < HTML.root_table.lookahead and all(
        len(fr.pending) < HTML.subs[fr.machine].lookahead for fr in state.frames)


def _pcdata_has_no_element(state):
    """A tag that closes with its element set passes through Pcdata only for
    the epsilon row into the element's raw text: no state keeps it there."""
    return state.context[0] != "Pcdata" or state.context[1] == "None"


def _run_chunks(chunks):
    """Step the chunks, each at its own position, then finish; after each
    step, every machine holds back less than its table's lookahead, held-back
    text is anchored at its start, and every state, the finished one too,
    holds no element in Pcdata."""
    state = HTML.zero_state()
    emitted, marks, diags, pos = [], [], [], POS
    for chunk in chunks:
        r = step_fixed(HTML, state, chunk, pos)
        assert r.state.error is not None or _holds_back_less_than_lookahead(r.state)
        assert not r.state.pending or r.state.pending_at[0][0] == 0
        assert _pcdata_has_no_element(r.state)
        for m in r.marks:
            marks.append(m.shifted(sum(map(len, emitted))))
        emitted.append(r.emitted)
        diags += map(str, r.diagnostics)
        state, pos = r.state, pos.advance(chunk)
    f = finish(HTML, state, pos)
    assert _pcdata_has_no_element(f.state)
    for m in f.marks:
        marks.append(m.shifted(sum(map(len, emitted))))
    emitted.append(f.emitted)
    return "".join(emitted), f.state, marks, diags + list(map(str, f.diagnostics))


def _split(text, cuts):
    chunks, last = [], 0
    for cut in sorted(cuts) + [len(text)]:
        chunks.append(text[last:cut])
        last = cut
    return chunks


# declarations that keep a style attribute, style body or url( open
_CSS = ["color: red; ", "a: b; ", "url('/i.png') ", "margin: 0 auto; "]


@st.composite
def cut_texts(draw):
    """A text and its cuts. Half of the texts open a nested machine and give
    it more than the root's lookahead of text with a cut in it: the root
    only steps once it holds that much, so the chunk after the cut arrives
    while the root holds back text and a nested machine runs, which may hold
    back text of its own."""
    if draw(st.booleans()):
        text = draw(html_text)
        return text, draw(st.lists(st.integers(0, len(text)), max_size=3))
    head = draw(st.sampled_from(_OPENERS)) + "".join(
        draw(st.lists(st.sampled_from(_CSS), min_size=10, max_size=16)))
    text = head + draw(html_text)
    cut = draw(st.integers(HTML.root_table.lookahead, len(head)))
    return text, [cut] + draw(st.lists(st.integers(0, len(text)), max_size=2))


@given(cut_texts())
def test_chunk_boundary_independence(cut_text):
    text, cuts = cut_text
    assert _run_chunks(_split(text, cuts)) == _run_chunks([text])


def _inside(text, cut):
    """The nested machine a cut of ``text`` lands in, if one of three."""
    state = finish(HTML, step_fixed(HTML, HTML.zero_state(), text[:cut], POS).state, POS).state
    machines = [fr.machine for fr in state.frames]
    if machines == ["Css", "Url"]:
        return "url("
    if machines == ["Css"]:
        return {"Css": "style attribute", "Style": "style body"}.get(
            state.context[2] if state.context[0] == "Attr" else state.context[1])
    return None


def test_chunk_boundary_independence_counts_cuts_inside_nested_machines():
    # html_text's fragments drawn with a seeded Random, half of the texts
    # with one more opener, so the share of examples cut inside each nested
    # machine is counted, not hoped for
    rng = random.Random(7)
    examples = {"style attribute": 0, "url(": 0, "style body": 0}
    for _ in range(300):
        pieces = [rng.choice(_FRAGMENTS) for _ in range(rng.randrange(1, 13))]
        if rng.random() < 0.5:
            pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(_OPENERS))
        text = "".join(pieces)
        cuts = [rng.randrange(len(text) + 1) for _ in range(rng.randrange(1, 4))]
        assert _run_chunks(_split(text, cuts)) == _run_chunks([text]), (text, cuts)
        for where in {_inside(text, cut) for cut in cuts} - {None}:
            examples[where] += 1
    assert min(examples.values()) >= 30, examples  # 10% of the examples each


def test_chunk_boundary_independence_pathological_corpus():
    corpus = [
        '<a href =  "x">y</a>',
        "<a href" + " " * 20 + '= "x">y</a>',
        "<a href=" + " " * 30 + '"x">y</a>',
        '<div style="background: url(' + " " * 12 + '"img.png")">d</div>',
        '<p><message i18n="@@' + "long-id-" * 3 + 'x">hello</message></p>',
        '<message   i18n="@@m"   >in</message>',
        '<style>a{content:"' + "x" * 100 + '"}</style>',
        '<a href="' + "y" * 200 + "&quot;" + "z" * 40 + '">t</a>',
        "<script>" + "v" * 100 + "</script>",
        "<!--" + "-" * 50 + "-->after",
        '</b "' + "q" * 90 + '">tail',
        "<a href=hello" + " " * 40 + 'title="x">t</a>',
        "text" + "&" * 30 + "more",
        "<p title=" + "u" * 80 + ">x</p>",
    ]
    rng = random.Random(99)
    for text in corpus:
        base = _run_chunks([text])
        for _ in range(100):
            cuts = [rng.randrange(0, len(text) + 1) for _ in range(rng.randrange(1, 5))]
            assert _run_chunks(_split(text, cuts)) == base, (text, cuts)


@given(html_text)
def test_merge_is_idempotent_on_reachable_states(text):
    state = finish(HTML, step_fixed(HTML, HTML.zero_state(), text, POS).state, POS).state
    assert merge(state, state) == state


@given(html_text)
def test_errored_state_absorbs_everything(text):
    bad = MachineState(context=HTML.zero_state().context, error="boom")
    r = step_fixed(HTML, bad, text, POS)
    assert r.state == bad and r.emitted == "" and r.marks == ()
    ri = step_interp(HTML, bad, POS)
    assert ri.state.error and ri.state == bad


@given(st.text(max_size=200))
def test_codec_round_trip(text):
    assert codec_decode("htmlCodec", codec_encode("htmlCodec", text)) == text


@given(st.one_of(st.text(max_size=50), st.integers(), st.booleans(),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_pcdata_output_contains_no_markup(value):
    out = escape_pcdata(value)
    assert "<" not in out and ">" not in out


def test_pcdata_safe_html_may_contain_markup():
    assert "<b>" in escape_pcdata(SafeContent("html", "<b>x</b>"))


_SCHEME_ALLOWLIST = ("http", "https", "mailto", "tel", "ftp")


@given(st.text(max_size=60))
def test_url_filter_output_scheme_is_allowlisted(url):
    out = filter_url_prefix(url)
    normalized = "".join(ch for ch in out if ord(ch) > 0x20).lower()
    if ":" in normalized.split("/")[0].split("?")[0].split("#")[0]:
        scheme = normalized.split(":", 1)[0]
        assert scheme in _SCHEME_ALLOWLIST or out == "about:invalid#blocked"


class _Probe(html.parser.HTMLParser):
    def __init__(self):
        super().__init__()
        self.attrs = []

    def handle_starttag(self, tag, attrs):
        self.attrs.extend(attrs)


@given(st.one_of(st.text(max_size=40), st.integers(), st.booleans()))
def test_attr_escaper_tokenizer_round_trip(value):
    from ctxesc.values import stringify

    probe = _Probe()
    probe.feed('<i a="' + escape_html_attr(value) + '">')
    probe.close()
    assert probe.attrs == [("a", stringify(value))]


@given(st.text(alphabet=st.characters(blacklist_characters="{}",
                                      blacklist_categories=("Cs",)), max_size=20))
def test_extraction_identity_reapplication(value):
    src = 'tag: html\n"<p><message i18n="@@m">a ${v} b</message></p>\n'
    program = program_of(src)
    out, marks, _ = render_full(program, Bindings({"v": value}), HTML)
    bundle = extract_messages(out.text, marks)
    assert apply_translation(out.text, marks, "m", bundle["m"]) == out.text


@given(html_text)
def test_fixed_chunk_coalescing_is_semantics_preserving(text):
    mid = len(text) // 2
    a, b = text[:mid] + "\n", text[mid:] + "\n"
    end = POS.advance(a + b)
    one = step_fixed(HTML, HTML.zero_state(), a + b, POS)
    two_first = step_fixed(HTML, HTML.zero_state(), a, POS)
    two = step_fixed(HTML, two_first.state, b, POS.advance(a))
    end_one = finish(HTML, one.state, end)
    end_two = finish(HTML, two.state, end)
    assert one.emitted + end_one.emitted == \
        two_first.emitted + two.emitted + end_two.emitted
    assert end_one.state == end_two.state
    assert [str(d) for d in one.diagnostics + end_one.diagnostics] == [
        str(d) for d in two_first.diagnostics + two.diagnostics + end_two.diagnostics]


_SITE_ERRORS = ("interpolation not allowed", "no escaper mapping")


@given(html_text, st.integers(min_value=0, max_value=4))
def test_a_site_error_names_its_dollar_brace_in_both_engines(text, indent):
    # the text's lines are held back until the site's step flushes them
    lines = text.split("\n")
    source = "tag: html\n" + "".join(f'"{line}\n' for line in lines) + " " * indent + '"${x}\n'
    where = f"t:{len(lines) + 2}:{indent + 2}"
    _, _, diags = analyze_template(source, "t")
    assert all(str(d.position) == where for d in diags if d.message.startswith(_SITE_ERRORS))
    try:
        render_full(program_of(source, "t"), Bindings({"x": "a"}), HTML)
    except RenderError as exc:
        assert not exc.message.startswith(_SITE_ERRORS) or str(exc.position) == where


# -- the machine re-steps its own renders -------------------------------------------

_SENTINEL = "zq7sentinel"  # alphanumeric: every escaper copies it as it is


def _restep(text):
    """Step a render as one literal from the start state, then finish."""
    r = step_fixed(HTML, HTML.zero_state(), text, POS)
    f = finish(HTML, r.state, POS.advance(text))
    return f.state, [str(d) for d in r.diagnostics + f.diagnostics]


def _without_url_context(state):
    """The URL machine's context moves with the value (`Start` to
    `MaybeScheme` or `AfterAuthority`), so it is left out."""
    return state.context, state.error, [
        (fr.machine, fr.codec, None if fr.machine == "Url" else fr.context) for fr in state.frames]


def test_a_render_restepped_as_a_literal_leaves_each_value_where_a_benign_value_does():
    # Split each render of a single-site template at its value's end, found
    # from the sentinel's render: the literal text after the site is the
    # same in both. Stepping up to there must reach the sentinel's state at
    # every level but the URL machine's, and stepping the whole render must
    # end where the sentinel's render does, with no diagnostic.
    values = adversarial_values(300)
    for source in [s for s in STRUCTURE_CORPUS if s.count("${") == 1]:
        plan, program = compile_template(source)[0], program_of(source)
        for render in (lambda v: execute_plan(plan, Bindings(corpus_bindings(v)))[0].text,
                       lambda v: render_full(program, Bindings(corpus_bindings(v)), HTML)[0].text):
            benign = render(_SENTINEL)
            tail = len(benign) - benign.index(_SENTINEL) - len(_SENTINEL)
            at_value = _without_url_context(_restep(benign[:len(benign) - tail])[0])
            end = _restep(benign)
            assert end[1] == []
            for value in values:
                text = render(value)
                assert _without_url_context(_restep(text[:len(text) - tail])[0]) == at_value, (
                    source, value)
                assert _restep(text) == end, (source, value)
