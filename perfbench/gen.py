"""Seeded input generators for the benchmark workloads.

The template grammar, the adversarial value corpus and the structure corpus
are the test suite's (``tests/support.py``), copied here so that the
benchmark's inputs change only when the benchmark does. ``random_template``
takes a name prefix so that several outputs can be joined into one page.
Every generator is a pure function of its seed.
"""

from __future__ import annotations

import itertools
import json
import random

from ctxesc.values import SafeContent

LIST_TEMPLATE = """tag: html
"<ul>
:for item of items {
"  <li><a href=${item.url}>${item.label}</a></li>
:}
"</ul>
"""

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


# -- structure corpus ----------------------------------------------------------

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
    return {"x": value, "y": value, "c": True, "items": [{"k": value, "v": value}]}


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


def random_template(rng: random.Random, prefix: str = ""):
    """A template drawn from a grammar over literals, plain and URL
    attributes, style and script embeddings, messages, loops and
    conditionals, plus bindings that cover every path it mentions. Every
    binding, loop variable and message id starts with ``prefix``."""
    counter = itertools.count()
    bindings: dict = {}
    lines: list[str] = ["tag: html"]

    def fresh(kind, value):
        name = f"{prefix}{kind}{next(counter)}"
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
            ident = f"{prefix}m{next(counter)}"
            ref = value_ref(loop_vars)
            lines.append(f'"<p><message i18n="@@{ident}">note ${{{ref}}} end</message></p>')
        elif kind == 7:
            lines.append(f'"<style>p {{ background: url(${{{value_ref(loop_vars)}}}) }}</style>')
        elif kind == 8:
            items = [{"a": rng.choice(_STRING_POOL), "b": rng.randrange(0, 9)}
                     for _ in range(rng.randrange(0, 4))]
            name = fresh("l", items)
            var = f"{prefix}it{next(counter)}"
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


# -- workload inputs ------------------------------------------------------------

_HOSTS = ["shop.example", "docs.example.org", "cdn.example.net", "news.example.com"]
_WORDS = ["blue", "widget", "garden", "report", "river", "alpha", "market",
          "summer", "orbit", "paper", "copper", "lantern", "harbor", "meadow"]


def benign_url(rng: random.Random) -> str:
    path = "/".join(rng.choice(_WORDS) for _ in range(rng.randrange(1, 4)))
    return f"https://{rng.choice(_HOSTS)}/{path}/{rng.randrange(10_000)}?ref={rng.choice(_WORDS)}"


def benign_label(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randrange(1, 5))]
    return " ".join(words).capitalize() + f" {rng.randrange(1000)}"


LIST_ITEMS = 100
ADVERSARIAL_SHARE = 0.2


def list_pages(seed: int, pages: int) -> list[dict]:
    """Bindings for the list template: each page holds ``LIST_ITEMS`` items
    whose URL and label are each drawn from the adversarial corpus with
    probability ``ADVERSARIAL_SHARE`` and are benign otherwise."""
    rng = random.Random(f"list-pages:{seed}")
    corpus = adversarial_values(512, seed=rng.randrange(1 << 30))
    out = []
    for _ in range(pages):
        rows = []
        for _ in range(LIST_ITEMS):
            url = (rng.choice(corpus) if rng.random() < ADVERSARIAL_SHARE
                   else benign_url(rng))
            label = (rng.choice(corpus) if rng.random() < ADVERSARIAL_SHARE
                     else benign_label(rng))
            rows.append({"url": url, "label": label})
        out.append({"items": rows})
    return out


def joined_page(rng: random.Random, target_bytes: int, tag: str):
    """One multi-line template of at least ``target_bytes`` bytes made by
    joining the bodies of random templates, with the union of their
    bindings."""
    lines = ["tag: html"]
    size = len(lines[0]) + 1
    bindings: dict = {}
    for k in itertools.count():
        source, part = random_template(rng, prefix=f"{tag}x{k}_")
        body = source.split("\n", 1)[1]
        lines.append(body.rstrip("\n"))
        size += len(body.encode("utf-8"))
        bindings.update(part)
        if size >= target_bytes:
            break
    return "\n".join(lines) + "\n", bindings


def long_line(rng: random.Random, target_bytes: int) -> str:
    """A template with one content line of ``target_bytes`` bytes of
    literal markup and no interpolations."""
    parts: list[str] = []
    size = 0
    while size < target_bytes:
        piece = rng.choice(_LITERAL_POOL) + " "
        parts.append(piece)
        size += len(piece)
    return 'tag: html\n"' + "".join(parts)[:target_bytes] + "\n"


def compile_batch(seed: int, pages: int, page_bytes: int, line_bytes: int,
                  corpus_values: int):
    """The compile_pages batch as (kind, source, bindings) triples: the
    structure corpus, each template with ``corpus_values`` adversarial
    values, the list template with one list page, joined pages and one long
    single-line literal page."""
    rng = random.Random(f"compile-batch:{seed}")
    values = adversarial_values(256, seed=rng.randrange(1 << 30))
    batch = [("corpus", source, corpus_bindings(rng.choice(values)))
             for source in STRUCTURE_CORPUS for _ in range(corpus_values)]
    batch.append(("list", LIST_TEMPLATE, list_pages(rng.randrange(1 << 30), 1)[0]))
    for k in range(pages):
        source, bindings = joined_page(rng, page_bytes, f"g{k}")
        batch.append(("page", source, bindings))
    batch.append(("line", long_line(rng, line_bytes), {}))
    return batch


def _encode(value):
    if isinstance(value, SafeContent):
        return {"$safe": value.language, "content": value.text}
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def bindings_to_json(bindings: dict) -> str:
    """The bindings document the CLI reads (``$safe`` form for SafeContent)."""
    return json.dumps(_encode(bindings), ensure_ascii=False)
