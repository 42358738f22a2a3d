"""Shared fuzz machinery: random template/bindings generators, two
structure oracles (an independent tokenizer, and the machine re-stepping
its own renders), the adversarial value corpus, the template corpora, a
codec decoder that steps the way the machine does, and a program node walk."""

from __future__ import annotations

import html.parser
import itertools
import random

from ctxesc.compiler import compile_template
from ctxesc.diagnostics import Position
from ctxesc.frontend import BranchBlock, LoopBlock
from ctxesc.machine import BUILTIN_CODECS, finish, step_fixed
from ctxesc.values import SafeContent

LIST_TEMPLATE = """tag: html
"<ul>
:for item of items {
"  <li><a href=${item.url}>${item.label}</a></li>
:}
"</ul>
"""


def walk(nodes):
    """All program nodes in source order, recursing into blocks."""
    for node in nodes:
        yield node
        if isinstance(node, LoopBlock):
            yield from walk(node.body)
        elif isinstance(node, BranchBlock):
            yield from walk(node.then)
            yield from walk(node.els)


# -- codecs --------------------------------------------------------------------


def codec_decode(name: str, text: str) -> str:
    """Decode ``text`` one ``decode_unit`` at a time, as the machine feeds a
    subsidiary; a unit that consumes nothing would stall the machine."""
    codec, out = BUILTIN_CODECS[name], []
    while text:
        n, piece, _ = codec.decode_unit(text)
        assert n > 0, f"{name} consumed nothing at {text[:16]!r}"
        out.append(piece)
        text = text[n:]
    return "".join(out)


def codec_encode(name: str, text: str) -> str:
    return BUILTIN_CODECS[name].encode(text)


# -- independent tokenizer oracle ---------------------------------------------

URL_ATTRS = {"href", "src", "action", "formaction"}


class _SignatureParser(html.parser.HTMLParser):
    """Structure-only view of a document: element starts/ends and attribute
    names, with attribute values and text excluded (they may legally vary
    with interpolated values)."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.events = []
        self.url_values = []

    def handle_starttag(self, tag, attrs):
        self.events.append(("start", tag, tuple(name for name, _ in attrs)))
        for name, value in attrs:
            if name in URL_ATTRS:
                self.url_values.append(value or "")

    def handle_endtag(self, tag):
        self.events.append(("end", tag))

    def handle_startendtag(self, tag, attrs):
        self.events.append(("startend", tag, tuple(name for name, _ in attrs)))

    def handle_comment(self, data):
        self.events.append(("comment",))

    def handle_decl(self, decl):
        self.events.append(("decl",))

    def handle_pi(self, data):
        self.events.append(("pi",))


def tokenize_structure(document: str):
    """Returns (structural event tuple, URL attribute values)."""
    parser = _SignatureParser()
    parser.feed(document)
    parser.close()
    return tuple(parser.events), parser.url_values


_DANGEROUS_PREFIXES = ("javascript:", "vbscript:", "data:text/html")


def dangerous_urls(url_values) -> list[str]:
    out = []
    for value in url_values:
        normalized = "".join(ch for ch in value if ord(ch) > 0x20).lower()
        if normalized.startswith(_DANGEROUS_PREFIXES):
            out.append(value)
    return out


def structure_breaks(render, values, benign=None):
    """Each value whose render changes the structure of ``benign``, by
    default the render of ``"x"``, or holds a dangerous URL; ``render``
    maps a value to an HTML document."""
    base, _ = tokenize_structure(render("x") if benign is None else benign)
    for value in values:
        signature, urls = tokenize_structure(render(value))
        if signature != base or dangerous_urls(urls):
            yield value


# -- the machine re-steps its own renders -----------------------------------------

SENTINEL = "zq7sentinel"  # alphanumeric: every escaper copies it as it is
_START = Position("t", 1, 1)


def _without_url_context(state):
    """The URL machine's context moves with the value (`Start` to
    `MaybeScheme` or `AfterAuthority`), so it is left out."""
    return state.context, state.error, [
        (fr.machine, fr.codec, None if fr.machine == "Url" else fr.context) for fr in state.frames]


def restep(machine, text, cut):
    """Step ``text`` as one literal from ``machine``'s start state: the
    state just after ``cut`` characters, without the URL machine's context,
    and the finished state and diagnostics at the end."""
    head = step_fixed(machine, machine.zero_state(), text[:cut], _START)
    at_cut = finish(machine, head.state, _START.advance(text[:cut])).state
    tail = step_fixed(machine, head.state, text[cut:], _START.advance(text[:cut]))
    end = finish(machine, tail.state, _START.advance(text))
    return (_without_url_context(at_cut), end.state,
            [str(d) for d in head.diagnostics + tail.diagnostics + end.diagnostics])


def _value_end(text):
    return text.index(SENTINEL) + len(SENTINEL)


def restep_breaks(machine, render, values, benign=None):
    """Each value, the sentinel first, whose render, re-stepped by
    ``machine`` as one literal, leaves the value somewhere ``benign`` (by
    default the sentinel's render) does not leave the sentinel, at any
    level but the URL machine's, or ends elsewhere; every value if
    ``benign``'s re-step reports a diagnostic. ``render`` maps a value to
    the text of a one-site template; the literal text after the site is the
    same in every render, so the sentinel's render gives its length."""
    own = render(SENTINEL)
    tail = len(own) - _value_end(own)
    benign = own if benign is None else benign
    expected = restep(machine, benign, _value_end(benign))
    for value in [SENTINEL, *values]:
        text = render(value)
        if expected[2] or restep(machine, text, len(text) - tail) != expected:
            yield value


# -- adversarial values --------------------------------------------------------

HANDCRAFTED_VALUES = [
    "", "x", " ", "\t", "\n", "\f", "\r\n",
    "><script>alert(1)</script>",
    '"><script>evil()</script>',
    "' onmouseover='alert(1)",
    '" onload="evil()',
    "javascript:alert(1)",
    "JaVaScRiPt:alert(1)",
    " javascript:alert(1)",
    "java\tscript:alert(1)",
    "java\nscript:alert(1)",
    "javascript&colon;alert(1)",
    "&#106;avascript:x",
    "&#x6a;avascript:x",
    "vbscript:msgbox(1)",
    "data:text/html,<script>x</script>",
    "</script><script>evil()</script>",
    "</style><script>x</script>",
    "</textarea><script>x</script>",
    "</title><script>x</script>",
    "<!--", "-->", "--!>", "<b>", "</b>", "<plaintext>",
    "&lt;script&gt;", "&amp;", "&quot;", "&#34;", "&#x22;", "&#39;", "&bogus;",
    "%3Cscript%3E", "%0d%0aSet-Cookie:x",
    "\\\"", "\\'", "`", "``", "=", "==", "a=b c=d", "a b",
    "x'y\"z", "\u00a0", "\u2028", "\u2029", "“smart”", "＜script＞",
    "url(javascript:alert(1))", "expression(alert(1))",
    "*/{}</style>", "{}*{background:url(javascript:x)}",
    "0;url=javascript:x", "a\x00b", "\x1b[31m",
    "scr ipt:x", ":alert(1)", "//evil.example/x", "ja&Tab;vascript:x",
    # one character that some escaper changes, alone among letters; a last
    # backslash; end tags with no `>`; every printable ASCII character; and
    # relative URLs with a `:` after a path or query and a byte to encode
    'a"b', "a'b", "a<b", "a>b", "a&b", "a(b", "a)b", "a\\b", "a\nb", "a\rb", "a\fb", "a\\",
    "</style", "</script", "".join(map(chr, range(0x20, 0x7f))), "/a b:c", "?a b:c",
]

_SOUP_ALPHABET = "<>\"'&;:=/ \\`%#?!(){}javscript\t\n-"


def adversarial_values(total: int, seed: int = 0x5afe) -> list[str]:
    rng = random.Random(seed)
    values = list(HANDCRAFTED_VALUES)
    while len(values) < total:
        n = rng.randrange(0, 24)
        values.append("".join(rng.choice(_SOUP_ALPHABET) for _ in range(n)))
    return values[:total]


# -- structure-preservation corpus ---------------------------------------------

# Each template uses ${x} (and sometimes ${y}); every one compiles clean.
STRUCTURE_CORPUS = [
    'tag: html\n"<p>${x}</p>\n',
    'tag: html\n"<p title="${x}">y</p>\n',
    "tag: html\n\"<p title='${x}'>y</p>\n",
    'tag: html\n"<p title=${x}>y</p>\n',
    'tag: html\n"<a href="${x}">link</a>\n',
    'tag: html\n"<a href=${x}>link</a>\n',
    'tag: html\n"<a href=${x} other-attr=${y}>\n',
    'tag: html\n"<a href=java${x}>link</a>\n',
    'tag: html\n"<img src="${x}">\n',
    'tag: html\n"<form action=${x}>z</form>\n',
    'tag: html\n"<div style="background: url(${x})">d</div>\n',
    "tag: html\n\"<div style=\"background: url('${x}')\">d</div>\n",
    'tag: html\n"<style>p { background: url(${x}) }</style>\n',
    'tag: html\n"<style>p { content: "${x}" }</style>\n',
    'tag: html\n"<script>var v = ${x};</script>\n',
    ('tag: html\n"<ul>\n:for it of items {\n'
     '"<li data-k="${it.k}">${it.v}</li>\n:}\n"</ul>\n'),
    ('tag: html\n:if c {\n"<b title=${x}>${x}</b>\n'
     ':} else {\n"<i>${x}</i>\n:}\n'),
    'tag: html\n"<p><message i18n="@@m1">Value \'${x}\' here</message></p>\n',
    'tag: html\n"<b>${x}</b><i id=${x}>t</i>\n',
    'tag: html\n"<textarea title="${x}">${x}</textarea>\n',
]


# One-site `tag: css` roots: strings in both quote styles, url( quoted and
# not (after literal URL text, the inserted quotes do not open a string, so
# only escaped parentheses keep the value inside the url), among
# declarations.
CSS_CORPUS = [
    'tag: css\n"p { content: "${x}" }\n',
    "tag: css\n\"p { content: '${x}' }\n",
    'tag: css\n"p { color: red; font-family: "a", "${x}"; margin: 0 }\n',
    'tag: css\n"p { background: url(${x}) }\n',
    'tag: css\n"p { background: url( ${x} ) no-repeat }\n',
    'tag: css\n"p { background: url("${x}") }\n',
    "tag: css\n\"p { background: url('${x}'); color: red }\n",
    'tag: css\n"a { color: red }\n"b { background: URL(${x}) }\n',
    'tag: css\n"p { background: url(/i/${x}.png) }\n',
    # strings and url( closed before the site, escapes in and out of strings
    'tag: css\n"p { content: "a"; background: url(${x}) }\n',
    "tag: css\n\"p { content: 'a'; background: url(${x}) }\n",
    'tag: css\n"p { background: url(/a.png); content: "${x}" }\n',
    'tag: css\n"p { content: "a\\"b ${x}" }\n',
    'tag: css\n"p:after { content: \\"; } q { content: "${x}" }\n',
]


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


def corpus_bindings(value: str) -> dict:
    return {
        "x": value,
        "y": value,
        "c": True,
        "items": [{"k": value, "v": value}],
    }


# -- random template generator --------------------------------------------------

_LITERAL_POOL = [
    "plain words", "a &amp; b", "1 < 2", "q > p", "it's", 'say "hi"',
    "<b>bold</b>", "<i>italic</i>", "&#60;lt",
    "spaced   out", "-dash-", "end.",
]

_STRING_POOL = [
    "", "plain", "two words", "b<c", "x&y", 'q"r', "s's", "&amp;",
    "1/2?a=b#f", "javascript:x", "https://e.com/p", "</div>", "a=b",
    "100%", "üñî", "tick`tock",
]


def random_template(rng: random.Random):
    """A template drawn from a grammar over literals, plain and URL
    attributes, style and script embeddings, messages, loops, and
    conditionals, plus bindings that cover every path it mentions."""
    counter = itertools.count()
    bindings: dict = {}
    lines: list[str] = ["tag: html"]

    def fresh(prefix, value):
        name = f"{prefix}{next(counter)}"
        bindings[name] = value
        return name

    def rand_scalar():
        r = rng.random()
        if r < 0.55:
            return rng.choice(_STRING_POOL)
        if r < 0.7:
            return rng.randrange(-99, 100)
        if r < 0.8:
            return rng.random() < 0.5
        if r < 0.9:
            return SafeContent("html", "<b>safe</b>")
        return rng.choice(_STRING_POOL)

    def value_ref(loop_vars):
        if loop_vars and rng.random() < 0.5:
            var = rng.choice(loop_vars)
            return f"{var}.{rng.choice('ab')}"
        return fresh("p", rand_scalar())

    def emit_element(depth, loop_vars, in_message):
        kind = rng.randrange(0, 10 if depth < 2 else 8)
        if kind == 0:
            lines.append('"' + rng.choice(_LITERAL_POOL))
        elif kind == 1:
            lines.append(f'"{rng.choice(_LITERAL_POOL)} ${{{value_ref(loop_vars)}}}')
        elif kind == 2:
            quote = rng.choice(['"', "'", ""])
            ref = value_ref(loop_vars)
            lines.append(f'"<span title={quote}${{{ref}}}{quote}>${{{ref}}}</span>')
        elif kind == 3:
            quote = rng.choice(['"', ""])
            lines.append(f'"<a href={quote}${{{value_ref(loop_vars)}}}{quote}>t</a>')
        elif kind == 4:
            lines.append(f'"<div style="background: url(${{{value_ref(loop_vars)}}})">d</div>')
        elif kind == 5:
            json_value = rng.choice([1, 2.5, True, False, None, "s", [1, "a"],
                                     {"k": "v"}, "</script>"])
            lines.append(f'"<script>var v = ${{{fresh("j", json_value)}}};</script>')
        elif kind == 6 and not in_message:
            ident = f"m{next(counter)}"
            ref = value_ref(loop_vars)
            lines.append(f'"<p><message i18n="@@{ident}">note ${{{ref}}} end</message></p>')
        elif kind == 7:
            lines.append(f'"<style>p {{ background: url(${{{value_ref(loop_vars)}}}) }}</style>')
        elif kind == 8:
            items = [{"a": rng.choice(_STRING_POOL), "b": rng.randrange(0, 9)}
                     for _ in range(rng.randrange(0, 4))]
            name = fresh("l", items)
            var = f"it{next(counter)}"
            lines.append(f":for {var} of {name} {{")
            emit_body(depth + 1, loop_vars + [var], in_message)
            lines.append(":}")
        elif kind == 9:
            cond = fresh("c", rng.choice([True, False, "", "yes", 0, 3, []]))
            lines.append(f":if {cond} {{")
            emit_body(depth + 1, loop_vars, in_message)
            if rng.random() < 0.5:
                lines.append(":} else {")
                emit_body(depth + 1, loop_vars, in_message)
            lines.append(":}")
        else:
            lines.append('"' + rng.choice(_LITERAL_POOL))

    def emit_body(depth, loop_vars, in_message):
        for _ in range(rng.randrange(1, 4)):
            emit_element(depth, loop_vars, in_message)

    emit_body(0, [], False)
    return "\n".join(lines) + "\n", bindings


def with_value(bindings: dict, value) -> dict:
    """``random_template`` bindings with ``value`` in place of every string:
    scalars, JSON values and loop items' fields. Conditions are kept, so a
    render takes the benign render's branches."""
    def put(v):
        if isinstance(v, str):
            return value
        if isinstance(v, list):
            return [put(x) for x in v]
        if isinstance(v, dict):
            return {k: put(x) for k, x in v.items()}
        return v
    return {k: v if k.startswith("c") else put(v) for k, v in bindings.items()}


# -- random one-site markup -------------------------------------------------------

# Attribute names of each type (plain, URL, style, event handler, denied),
# valueless or with a literal value, and the names a value may go in.
_MARKUP_NAMES = ["title", "alt", "data-k", "hidden", "id", "href", "src", "action",
                 "xlink:href", "style", "onclick", "srcdoc", "srcset"]
_MARKUP_SITE_NAMES = ["title", "alt", "data-k", "href", "src", "action", "xlink:href"]
_MARKUP_CSS_SITES = ["url(${x})", "url('${x}')", "content: '${x}'", 'content: "${x}"']
_MARKUP_VALUES = ["x", "a b", "/p?q=1&amp;r=2", "color: red", "f(1)", "it's", 'say "hi"', ""]
_MARKUP_GAPS = [" ", "  ", "\t", " \t "]
_MARKUP_ELEMENTS = ["a", "p", "img", "div", "span", "form", "textarea", "script", "style"]
# text before a value in text, markup-significant characters among it
_MARKUP_TEXT = ["", "t ", "a < b ", "<", "1 <", "</", "a &amp; b ", "<b>", "</b> ",
                "<!-- c -->", "a > b", "&", "<br/>"]


def random_markup(rng: random.Random) -> str:
    """A one-site template: an element whose attributes are drawn by type,
    valueless or with a quoted or unquoted literal value and random gaps
    around them, with the value ``x`` in one attribute's value or in text
    after the tag. Some draws do not compile: a value in a style, script
    or event handler context, say."""
    element = rng.choice(_MARKUP_ELEMENTS)

    def attribute(name, value):
        if value is None:
            return name
        quote = rng.choice(['"', "'", ""])
        if quote and quote in value or not quote and (value == "" or " " in value):
            quote = "'" if '"' in value else '"'
        eq = rng.choice(["=", "=", " = ", "= "])
        return f"{name}{eq}{quote}{value}{quote}"

    attrs = [attribute(rng.choice(_MARKUP_NAMES),
                       None if rng.random() < 0.4 else rng.choice(_MARKUP_VALUES))
             for _ in range(rng.randrange(0, 4))]
    in_text = rng.random() < 0.35
    if not in_text:
        if rng.random() < 0.7:
            name, site = rng.choice(_MARKUP_SITE_NAMES), "${x}"
        else:
            name, site = "style", rng.choice(_MARKUP_CSS_SITES)
        attrs.insert(rng.randrange(len(attrs) + 1), attribute(name, site))
    tag = "<" + element + "".join(rng.choice(_MARKUP_GAPS) + a for a in attrs)
    if rng.random() < 0.15:  # a last attribute with `=` and no value
        tag += f" {rng.choice(_MARKUP_NAMES)}=>"
    else:
        tag += rng.choice(["", " ", "/"]) + ">" if attrs else rng.choice([">", "/>"])
    text = rng.choice(_MARKUP_TEXT) + "${x}" + rng.choice(["", " ", "."]) if in_text else "t"
    return f'tag: html\n"{tag}{text}</{element}{rng.choice(["", " "])}>\n'


def markup_corpus(seeds) -> list[str]:
    """The ``random_markup`` templates of ``seeds`` that compile with no
    diagnostic, each once, in seed order."""
    out = []
    for source in dict.fromkeys(random_markup(random.Random(seed)) for seed in seeds):
        plan, diags = compile_template(source)
        if plan is not None and not diags:
            out.append(source)
    return out


def nested_loops(depth: int) -> str:
    """A template of ``depth`` nested loops over the root list ``xs``, each
    binding a fresh variable, around one interpolation of the innermost."""
    opens = "".join(f":for v{i} of xs {{\n" for i in range(depth))
    return f'tag: html\n{opens}"<p>${{v{depth - 1}}}</p>\n' + ":}\n" * depth
