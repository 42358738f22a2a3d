"""Shared fuzz machinery: a random template/bindings generator, an
independent tokenizer oracle, the adversarial value corpus, a codec
decoder that steps the way the machine does, and a program node walk."""

from __future__ import annotations

import html.parser
import itertools
import random

from ctxesc.frontend import BranchBlock, LoopBlock
from ctxesc.machine import BUILTIN_CODECS
from ctxesc.values import SafeContent


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


def nested_loops(depth: int) -> str:
    """A template of ``depth`` nested loops over the root list ``xs``, each
    binding a fresh variable, around one interpolation of the innermost."""
    opens = "".join(f":for v{i} of xs {{\n" for i in range(depth))
    return f'tag: html\n{opens}"<p>${{v{depth - 1}}}</p>\n' + ":}\n" * depth
