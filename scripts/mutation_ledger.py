#!/usr/bin/env python3
"""Mutation ledger: which rows of the transition tables, which escaper-map
cells and which parts of the escapers does an oracle defend?

It builds three kinds of mutant, and copies or edits no file under ``src/``:

- **row deletions:** each ``|`` row of the shipped tables, deleted from a
  copy of the tables directory that the compiler reads as ``tables_dir``;
- **cell swaps:** each ``[escapers]`` cell pointed at each other chain that
  a shipped cell names, in a copied directory too;
- **escaper cuts:** each replacement and each searched character dropped
  from each shipped escaper and fused kernel, and each character the URL
  filters percent-encode kept instead. A cut is patched into
  ``ctxesc.escapers`` in this process (a function's code, or a module
  constant and the constants built from it) and undone after its run.

The inputs are the corpora and generators of ``tests/support.py``: the
list template, ``STRUCTURE_CORPUS``, ``CSS_CORPUS``, ``random_template``
seeds 0-199 and ``random_markup`` seeds 0-299 (the templates, each with a
window of ``adversarial_values``), ``WARNING_TEMPLATES``, and the probes
and roots below. Each mutant meets these oracles, cheapest first; the
ledger records the first that catches it:

1. **compile:** every template still compiles, and every fail-closed
   probe still does not;
2. **C6:** ``html.parser`` finds the shipped benign render's structure,
   and no dangerous URL, in every render of an adversarial value;
3. **re-step:** the shipped machine, stepping each one-site render as one
   literal, finds each value where the shipped sentinel's render leaves
   the sentinel (``support.restep_breaks``);
4. **bytes:** plans and diagnostics, and for an escaper cut the renders,
   equal the shipped ones byte for byte;
5. **ops:** each compile's transition op count equals the shipped one.

Only a render that differs from the shipped one is judged by C6 and the
re-step: the shipped renders pass both.

Oracles 1-3 kill. A mutant that only the pins (4 and 5) catch, or nothing,
survives and needs one reason in ``EXPECTED``: ``speed:`` for a row whose
deletion changes only op counts, ``item 3:`` for the URL states that share
one escaper chain until ROADMAP item 3, or ``gap:`` for a listed gap. The
ledger exits 1 on a survivor with no entry, on an entry whose mutant is
killed or no longer exists, on a ``speed:`` entry that is not a speed row,
and when the shipped tables and escapers fail an oracle. Standard library
only, run from anywhere:

    python3 scripts/mutation_ledger.py
"""

import ast
import copy
import pathlib
import random
import re
import sys
import tempfile
import time
from collections import Counter
from importlib import resources

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from support import (  # noqa: E402
    CSS_CORPUS,
    LIST_TEMPLATE,
    SENTINEL,
    STRUCTURE_CORPUS,
    WARNING_TEMPLATES,
    adversarial_values,
    corpus_bindings,
    markup_corpus,
    random_template,
    restep_breaks,
    structure_breaks,
    with_value,
)

from ctxesc import escapers, web  # noqa: E402
from ctxesc.compiler import compile_template  # noqa: E402
from ctxesc.machine import transition_op_count  # noqa: E402
from ctxesc.plan import Bindings, execute_plan, plan_to_json  # noqa: E402
from ctxesc.tables import _split_row  # noqa: E402

TABLES = ("html.tt", "css.tt", "url.tt", "text.tt")
RANDOM_SEEDS = range(200)
MARKUP_SEEDS = range(300)
VALUES = adversarial_values(100)

# Templates that must not compile: a value in a comment, an event handler,
# srcdoc, srcset, a script's src, a tag or attribute name, a bare style
# value, or CSS declarations.
PROBES = [
    'tag: html\n"<!-- ${x} -->\n',
    'tag: html\n"<button onclick="f(${x})">b</button>\n',
    "tag: html\n\"<p onmouseover='${x}'>t</p>\n",
    'tag: html\n"<iframe srcdoc="${x}"></iframe>\n',
    'tag: html\n"<img srcset=${x}>\n',
    'tag: html\n"<script src="${x}"></script>\n',
    'tag: html\n"<p ${x}>t</p>\n',
    'tag: html\n"<p${x}>t</p>\n',
    'tag: html\n"<p style=${x}>t</p>\n',
    'tag: html\n"<style>p { color: ${x} }</style>\n',
    'tag: css\n"p { color: ${x} }\n',
]

# Roots that no structure oracle judges: their plans, diagnostics and op
# counts are pinned.
ROOTS = [
    'tag: text\n"Hello, ${x}!\n',
    'tag: url\n"/search?q=${x}&lang=en\n',
    'tag: url\n"${x}\n',
    'tag: url\n"https://example.com/a/${x}#top\n',
]

# Reasons a mutant may survive: a speed row, the URL states awaiting item 3,
# or a listed gap.
SPEED = "speed: the default row copies the same text a character at a time"
URL_STATES = ("item 3: every URL state gets the one URL filter, so a URL state moves no "
              "byte until the URL parts get their own chains")
FIDELITY = ("gap: the chain keeps the value inside its delimiters but changes what it "
            "reads as; only the plan bytes see that, and a fidelity oracle (item 2) would")
CSS_COVERS = ("gap: the CSS chain inside escapes every character the attribute cares "
              "about, so chain fusion drops this escaper and no render changes")
NO_STRUCTURE = "gap: a text root has no structure, so only its plan bytes show its chain"
WARNING_ONLY = "gap: the row's only effect is its warning, which only the diagnostics show"
SINGLE_QUOTED_URL = ("gap: without it `url('` reads as an unquoted url(, and the value gains "
                     "double quotes inside the single ones; it stays in its string")
ENTITY = ("gap: a raw `&` can make the value read as a character reference, which moves "
          "its meaning, not the structure; a fidelity oracle (item 2) would see it")
INERT = ("gap: the character is inert where this escaper runs (a quoted attribute, text "
         "whose `<` is escaped, a script body or a CSS string), so no structure oracle "
         "sees it kept; it is escaped as defence in depth")
URL_INERT = ("gap: RFC 3986 has no place for the character, but it is inert in a quoted "
             "attribute and in a CSS string, so only the render bytes see it kept")
OVERBLOCK = ("gap: the scheme check then blocks a relative URL with a `:` after this "
             "character; only the render bytes see that")
PAREN = ("gap: a parenthesis is inert in a CSS string, and `(` is in a `url(` whose inserted "
         "quotes open no string; only a `)` there ends the url, and the others escape it")
NEWLINE = ("gap: a browser ends a CSS string at a raw newline (a bad-string token), which "
           "css.tt does not model, so the re-step cannot see one kept")

# mutant key -> why no oracle kills it
EXPECTED = {
    **dict.fromkeys([
        ('html.tt', 'RawText, Style, _, _', 'CssStringEscaper'),
        ('html.tt', 'RawText, Style, _, _', 'HtmlAttributeEscaper'),
        ('html.tt', 'RawText, Style, _, _', 'HtmlPcdataEscaper'),
        ('html.tt', 'RawText, Style, _, _', 'UrlPrefixFilteringEscaper'),
        ('html.tt', 'RawText, Style, _, _', 'UrlPrefixFilteringEscaper HtmlAttributeEscaper'),
        ('html.tt', 'BeforeValue, _, Plain, _', 'CssStringEscaper'),
        ('html.tt', 'BeforeValue, _, Plain, _', 'UrlPrefixFilteringEscaper'),
        ('html.tt', 'BeforeValue, _, Plain, _', 'UrlPrefixFilteringEscaper HtmlAttributeEscaper'),
        ('html.tt', 'Attr, _, Url, _', 'UrlPrefixFilteringEscaper HtmlAttributeEscaper'),
        ('html.tt', 'Attr, _, Css, Double', 'CssStringEscaper'),
        ('html.tt', 'Attr, _, Css, Double', 'HtmlPcdataEscaper'),
        ('html.tt', 'Attr, _, Css, Double', 'UrlPrefixFilteringEscaper'),
        ('html.tt', 'Attr, _, Css, Double', 'UrlPrefixFilteringEscaper HtmlAttributeEscaper'),
        ('html.tt', 'Attr, _, Css, Single', 'CssStringEscaper'),
        ('html.tt', 'Attr, _, Css, Single', 'HtmlPcdataEscaper'),
        ('html.tt', 'Attr, _, Css, Single', 'UrlPrefixFilteringEscaper'),
        ('html.tt', 'Attr, _, Css, Single', 'UrlPrefixFilteringEscaper HtmlAttributeEscaper'),
        ('html.tt', 'Attr, _, Plain, Double', 'CssStringEscaper'),
        ('html.tt', 'Attr, _, Plain, Double', 'UrlPrefixFilteringEscaper'),
        ('html.tt', 'Attr, _, Plain, Double', 'UrlPrefixFilteringEscaper HtmlAttributeEscaper'),
        ('html.tt', 'Attr, _, Plain, Single', 'CssStringEscaper'),
        ('html.tt', 'Attr, _, Plain, Single', 'UrlPrefixFilteringEscaper HtmlAttributeEscaper'),
        ('css.tt', 'InString, _', 'UrlPrefixFilteringEscaper HtmlAttributeEscaper'),
        ('url.tt', '_', 'UrlPrefixFilteringEscaper HtmlAttributeEscaper'),
    ], FIDELITY),
    **dict.fromkeys([
        ('html.tt', 'Attr, _, Css, Double', '(no escaper)'),
        ('html.tt', 'Attr, _, Css, Single', '(no escaper)'),
    ], CSS_COVERS),
    **dict.fromkeys([
        ('html.tt', '| Pcdata, _, _, _ | `[^<]+` | | _, _, _, _ |'),
        ('html.tt', '| Comment, _, _, _ | `[^-]+` | | _, _, _, _ |'),
        ('html.tt', '| OName, _, _, _ | `{{nmc}}+` | | _, _, _, _ |'),
        ('html.tt', '| BeforeAttr, _, _, _ | `{{ws}}+` | | _, _, _, _ |'),
        ('html.tt', '| Attr, _, Plain, Double | `[^"]+` | | _, _, _, _ |'),
        ('html.tt', "| Attr, _, Plain, Single | `[^']+` | | _, _, _, _ |"),
        ('html.tt', '| Attr, _, Plain, Space | `[^ \\t\\r\\n\\f>]+` | | _, _, _, _ |'),
        ('html.tt', '| Attr, _, Js, Double | `[^"]+` | | _, _, _, _ |'),
        ('html.tt', "| Attr, _, Js, Single | `[^']+` | | _, _, _, _ |"),
        ('html.tt', '| Attr, _, Js, Space | `[^ \\t\\r\\n\\f>]+` | | _, _, _, _ |'),
        ('html.tt', '| Attr, _, Deny, Double | `[^"]+` | | _, _, _, _ |'),
        ('html.tt', "| Attr, _, Deny, Single | `[^']+` | | _, _, _, _ |"),
        ('html.tt', '| Attr, _, Deny, Space | `[^ \\t\\r\\n\\f>]+` | | _, _, _, _ |'),
        ('html.tt', '| RawText, Script, _, _ | `[^<]+` | | _, _, _, _ |'),
        ('html.tt', '| CName, _, _, _ | `{{nmc}}+` | | _, _, _, _ |'),
        ('css.tt', '| Decls, _ | `[^"\'uU\\\\]+` | | _, _ |'),
        ('url.tt', '| MaybeScheme | `[a-zA-Z0-9+.\\-]+` | | _ |'),
        ('url.tt', '| AfterAuthority | `[^?#]+` | | _ |'),
        ('url.tt', '| QueryOrFragment | `[\\s\\S]+` | | _ |'),
        ('text.tt', '| Text | `[\\s\\S]+` | | _ |'),
    ], SPEED),
    **dict.fromkeys([
        ('html.tt', '| CName, _, _, _ | `"[^"]{0,48}"?` | | _, _, _, _ | W: HTML attribute in close tag |'),
    ], WARNING_ONLY),
    **dict.fromkeys([
        ('css.tt', "| Decls, _ | `(?i)url\\([ \\t]{0,8}'` | | InString, Single ; start(Url, identityCodec) |"),
    ], SINGLE_QUOTED_URL),
    **dict.fromkeys([
        ('url.tt', '| Start | `[?#]` | | QueryOrFragment |'),
        ('url.tt', '| Start | `[a-zA-Z0-9+.\\-]` | | MaybeScheme |'),
        ('url.tt', '| Start | `[^?#]` | | AfterAuthority |'),
        ('url.tt', '| MaybeScheme | `:` | | AfterAuthority |'),
        ('url.tt', '| MaybeScheme | `[?#]` | | QueryOrFragment |'),
        ('url.tt', '| MaybeScheme | `[^a-zA-Z0-9+.\\-:?#]` | | AfterAuthority |'),
        ('url.tt', '| AfterAuthority | `[?#]` | | QueryOrFragment |'),
    ], URL_STATES),
    **dict.fromkeys([
        ('text.tt', '_', 'CssStringEscaper'),
        ('text.tt', '_', 'HtmlAttributeEscaper'),
        ('text.tt', '_', 'HtmlPcdataEscaper'),
        ('text.tt', '_', 'JsonValueEscaper'),
        ('text.tt', '_', 'UrlPrefixFilteringEscaper'),
        ('text.tt', '_', 'UrlPrefixFilteringEscaper HtmlAttributeEscaper'),
    ], NO_STRUCTURE),
    **dict.fromkeys([
        ('_ATTR_SEARCH', "search '&'"),
        ('escape_pcdata', "search '&'"),
        ('escape_pcdata', "replace '&'"),
        ('escape_html_attr', "replace '&'"),
    ], ENTITY),
    **dict.fromkeys([
        ('_ATTR_SEARCH', "search '<'"),
        ('_ATTR_SEARCH', "search '>'"),
        ('_CSS_STRING_SEARCH', "search '>'"),
        ('escape_pcdata', "search '>'"),
        ('escape_pcdata', "replace '>'"),
        ('escape_html_attr', "replace '>'"),
        ('escape_html_attr', "replace '<'"),
        ('escape_json_value', "replace '&'"),
        ('escape_json_value', "search '>'"),
        ('escape_json_value', "search '&'"),
        ('escape_json_value', "replace '>'"),
        ('escape_css_string', "replace '>'"),
    ], INERT),
    **dict.fromkeys([
        ('_URL_KEPT', "keep '^'"),
        ('_URL_KEPT', "keep '`'"),
        ('_URL_KEPT', "keep '{'"),
        ('_URL_KEPT', "keep '|'"),
        ('_URL_KEPT', "keep '}'"),
    ], URL_INERT),
    **dict.fromkeys([
        ('_URL_SCHEME_END', "search '#'"),
        ('_URL_SCHEME_END', "search '/'"),
        ('_URL_SCHEME_END', "search '?'"),
    ], OVERBLOCK),
    **dict.fromkeys([
        ('_CSS_STRING_SEARCH', "search '\\n'"),
        ('_CSS_STRING_SEARCH', "search '\\x0c'"),
        ('_CSS_STRING_SEARCH', "search '\\r'"),
        ('escape_css_string', "replace '\\x0c'"),
        ('escape_css_string', "replace '\\r'"),
        ('escape_css_string', "replace '\\n'"),
    ], NEWLINE),
    **dict.fromkeys([
        ('_URL_CSS_PASSES', "replace '('"),
        ('_PCT_CSS', "replace '('"),
        ('_CSS_STRING_SEARCH', "search '('"),
        ('_CSS_STRING_SEARCH', "search ')'"),
        ('escape_css_string', "replace '('"),
        ('escape_css_string', "replace ')'"),
    ], PAREN),
}

ORACLES = ("compile", "C6", "re-step", "bytes", "ops")
KILLS = ORACLES[:3]


class Template:
    """A ledger input: its source, its bindings for a value, and which
    oracles judge it (``html``: C6; ``judge``: the tag that re-steps it)."""

    def __init__(self, label, source, bind, values, html=True, judge=None):
        self.label, self.source, self.bind, self.values = label, source, bind, values
        self.html, self.judge = html, judge


def _window(i, size):
    start = i * size % len(VALUES)
    return (VALUES + VALUES)[start:start + size]


def ledger_templates():
    """The templates that compile, with the values each is rendered with."""
    out = [Template("list", LIST_TEMPLATE, lambda v: {"items": [{"url": v, "label": v}]},
                    VALUES)]
    for i, source in enumerate(STRUCTURE_CORPUS):
        out.append(Template(f"corpus{i}", source, corpus_bindings, VALUES,
                            judge="html" if source.count("${") == 1 else None))
    for i, source in enumerate(CSS_CORPUS):
        out.append(Template(f"css{i}", source, lambda v: {"x": v}, VALUES, False, "css"))
    for seed in RANDOM_SEEDS:
        source, bindings = random_template(random.Random(seed))
        out.append(Template(f"random{seed}", source,
                            lambda v, b=bindings: with_value(b, v), _window(seed, 8)))
    for i, source in enumerate(markup_corpus(MARKUP_SEEDS)):
        out.append(Template(f"markup{i}", source, lambda v: {"x": v}, _window(i, 24),
                            judge="html"))
    for i, source in enumerate(ROOTS):
        out.append(Template(f"root{i}", source, lambda v: {"x": v}, [], False))
    return out


# -- mutants -----------------------------------------------------------------------

def row_key(line):
    """A row as its cells joined by single spaces around each ``|``."""
    return "|" + "|".join(f" {cell} " if cell else " " for cell in _split_row(line.strip())) + "|"


def shipped_text(name):
    return resources.files("ctxesc").joinpath("data", name).read_text(encoding="utf-8")


def _rows(text):
    """(line index, section, cells) of each ``|`` row."""
    section = None
    for i, line in enumerate(text.splitlines()):
        stripped = line.strip()
        if stripped in ("[rules]", "[escapers]"):
            section = stripped
        elif stripped.startswith("|"):
            yield i, section, _split_row(stripped)


def shipped_chains():
    return sorted({cells[2] for name in TABLES for _, section, cells in _rows(shipped_text(name))
                   if section == "[escapers]"})


class Mutant:
    """``key`` names it in ``EXPECTED``; a table mutant carries the mutated
    table's name and text, an escaper cut the function that applies it and
    returns its undo."""

    def __init__(self, key, table=None, text=None, apply=None):
        self.key, self.table, self.text, self.apply = key, table, text, apply


def table_mutants(names=TABLES):
    chains = shipped_chains()
    for name in names:
        text = shipped_text(name)
        lines = text.splitlines(keepends=True)
        for i, section, cells in _rows(text):
            yield Mutant((name, row_key(lines[i])), name, "".join(lines[:i] + lines[i + 1:]))
            if section != "[escapers]":
                continue
            for chain in chains:
                if chain != cells[2]:
                    swapped = cells[:2] + [chain] + cells[3:]
                    line = "| " + " | ".join(swapped) + " |\n"
                    yield Mutant((name, cells[0], chain or "(no escaper)"), name,
                                 "".join(lines[:i] + [line] + lines[i + 1:]))


_ESCAPERS_PATH = pathlib.Path(escapers.__file__)
_CLASS = re.compile(r"\[[^\]]+\]")


def _call(node, method):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == method and node.args and isinstance(node.args[0], ast.Constant))


def _class_chars(pattern):
    """The characters of a one-class regex; the escapers search for ASCII."""
    compiled = re.compile(pattern)
    return [chr(c) for c in range(128) if compiled.match(chr(c))]


def _sites(node):
    """``(what, char, cut)`` for each cut site under ``node``, in walk
    order; ``cut()`` edits the tree in place. A site is a ``.replace(c, r)``
    (cut: it replaces ``c`` with ``c``), a ``c not in text`` among ``and``ed
    tests, a character of a one-class regex, an entry of a dict of
    replacements, or, in ``_URL_KEPT``, a printable ASCII character the URL
    filters percent-encode (cut: it is kept)."""
    for n in ast.walk(node):
        if _call(n, "replace"):
            yield "replace", n.args[0].value, lambda n=n: n.args.__setitem__(1, n.args[0])
        elif isinstance(n, ast.BoolOp) and isinstance(n.op, ast.And):
            for test in n.values:
                if (isinstance(test, ast.Compare) and isinstance(test.ops[0], ast.NotIn)
                        and isinstance(test.left, ast.Constant)):
                    yield "search", test.left.value, lambda n=n, t=test: n.values.remove(t)
        elif _call(n, "compile") and _CLASS.fullmatch(n.args[0].value):
            chars = _class_chars(n.args[0].value)
            for char in chars:
                yield "search", char, lambda arg=n.args[0], char=char, chars=chars: setattr(
                    arg, "value", "[" + "".join(re.escape(c) for c in chars if c != char) + "]")
        elif isinstance(n, ast.Dict):
            for i, key in enumerate(n.keys):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield "replace", key.value, lambda n=n, i=i: (n.keys.pop(i), n.values.pop(i))
        elif (isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name)
              and n.targets[0].id == "_URL_KEPT"):
            for char in map(chr, range(0x20, 0x7f)):
                if char not in n.value.value:
                    yield "keep", char, lambda kept=n.value, char=char: setattr(
                        kept, "value", kept.value + char)


def _statements():
    """``(name, node)`` of the module's top-level functions and one-name
    assignments."""
    for node in ast.parse(_ESCAPERS_PATH.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            yield node.targets[0].id, node


def _apply(statements, k, site):
    """Patch the ``k``-th statement, with its ``site``-th cut, into the
    module: a function gets the cut code, and an assignment runs again with
    every later assignment that reads a name it changed. Returns the undo."""
    name, node = statements[k]
    node = copy.deepcopy(node)
    list(_sites(node))[site][2]()
    code = compile(ast.Module([node], []), str(_ESCAPERS_PATH), "exec")
    module = vars(escapers)
    if isinstance(node, ast.FunctionDef):
        fn, old = module[name], module[name].__code__
        fn.__code__ = next(c for c in code.co_consts if getattr(c, "co_name", None) == name)
        return lambda: setattr(fn, "__code__", old)
    saved, changed = {name: module[name]}, {name}
    exec(code, module)
    for later, stmt in statements[k + 1:]:
        if isinstance(stmt, ast.Assign) and changed & {
                n.id for n in ast.walk(stmt.value) if isinstance(n, ast.Name)}:
            saved.setdefault(later, module[later])
            exec(compile(ast.Module([stmt], []), str(_ESCAPERS_PATH), "exec"), module)
            changed.add(later)
    return lambda: module.update(saved)


def escaper_cuts():
    statements = list(_statements())
    for k, (name, node) in enumerate(statements):
        for site, (what, char, _) in enumerate(_sites(node)):
            yield Mutant((name, f"{what} {char!r}"),
                         apply=lambda k=k, site=site: _apply(statements, k, site))


def all_mutants(tables=TABLES):
    return [*table_mutants(tables), *escaper_cuts()]


# -- oracles -----------------------------------------------------------------------

class Compiled:
    """What compiling a template gives: its plan, plan JSON, diagnostics
    and op count; no plan, and the exception as the one diagnostic, when
    compiling raises."""

    def __init__(self, source, label, tables_dir):
        before = transition_op_count()
        try:
            self.plan, diags = compile_template(source, label, tables_dir)
        except Exception as exc:  # a mutant table may not load, or may crash
            self.plan, diags = None, [f"{type(exc).__name__}: {exc}"]
        self.ops = transition_op_count() - before
        self.diags = [str(d) for d in diags]
        self.json = None if self.plan is None else plan_to_json(self.plan)


def _renders(plan, template):
    """``{value: render}`` of ``"x"``, the sentinel and the template's values."""
    return {v: execute_plan(plan, Bindings(template.bind(v)))[0].text
            for v in ("x", SENTINEL, *template.values)}


class Ledger:
    """The ledger's inputs whose machines read one of ``tables``, and the
    shipped tables' results on them: each input's compile, and each
    template's renders."""

    def __init__(self, tables=TABLES):
        templates = ledger_templates()
        probes = [Template(f"probe{i}", p, None, []) for i, p in enumerate(PROBES)]
        warned = [Template(f"warned{i}", p, None, []) for i, p in enumerate(WARNING_TEMPLATES)]
        self.judges = {tag: web.machine_for_tag(tag) for tag in ("html", "css")}
        self.uses = {}
        for t in templates + probes + warned:
            machine = web.machine_for_tag(t.source[5:t.source.index("\n")].strip())
            self.uses[t.label] = {machine.root_table.filename,
                                  *(table.filename for table in machine.subs.values())}
        self.templates, self.probes, self.warned = (
            [t for t in group if self.uses[t.label] & set(tables)]
            for group in (templates, probes, warned))
        self.base = self.compile_all(None, tables)
        self.renders = {t.label: _renders(self.base[t.label].plan, t) for t in self.templates
                        if self.base[t.label].plan is not None}

    def compile_all(self, tables_dir, changed):
        """``{label: Compiled}`` of each template and probe whose machine
        reads a table in ``changed``."""
        web.html_machine.cache_clear()  # a mutant directory's machine is built afresh
        return {t.label: Compiled(t.source, f"{t.label}.tpl", tables_dir)
                for t in self.templates + self.probes + self.warned
                if self.uses[t.label] & set(changed)}

    def shipped_failures(self):
        """What the shipped tables and escapers fail: it must be nothing."""
        out = [f"does not compile: {t.source!r}" for t in self.templates
               if self.base[t.label].plan is None]
        out += [f"probe compiles: {t.source!r}" for t in self.probes
                if self.base[t.label].plan is not None]
        for t in self.templates:
            renders = self.renders.get(t.label)
            if renders and t.html and next(structure_breaks(renders.get, t.values),
                                           None) is not None:
                out.append(f"C6 fails: {t.source!r}")
            if renders and t.judge and next(restep_breaks(self.judges[t.judge], renders.get,
                                                          t.values), None) is not None:
                out.append(f"re-step fails: {t.source!r}")
        return out

    def broken(self, changed):
        """The first of C6 and re-step that fails on ``changed``, a list of
        (template, its renders by a mutant) that differ from the shipped
        renders. A shipped render passes both, so only the values whose
        render differs are judged, against the shipped benign render."""
        for oracle in KILLS[1:]:
            for t, renders in changed:
                shipped = self.renders[t.label]
                values = [v for v in t.values if renders[v] != shipped[v]]
                if oracle == "C6" and t.html and next(structure_breaks(
                        renders.get, ["x", *values], shipped["x"]), None) is not None:
                    return oracle
                if oracle == "re-step" and t.judge and next(restep_breaks(
                        self.judges[t.judge], renders.get, values, shipped[SENTINEL]),
                        None) is not None:
                    return oracle
        return None

    def judge_tables(self, mutant, tables_dir):
        (tables_dir / mutant.table).write_text(mutant.text, encoding="utf-8")
        try:
            runs = self.compile_all(tables_dir, [mutant.table])
        finally:
            (tables_dir / mutant.table).write_text(shipped_text(mutant.table), encoding="utf-8")
        if any(t.label in runs and runs[t.label].plan is None for t in self.templates) or any(
                t.label in runs and runs[t.label].plan is not None for t in self.probes):
            return "compile"
        changed = []
        for t in self.templates:
            run = runs.get(t.label)
            if run is not None and run.json != self.base[t.label].json:
                try:
                    renders = _renders(run.plan, t)
                except Exception:  # a render that raises fails the first render oracle
                    return "C6" if t.html else "re-step"
                if renders != self.renders[t.label]:
                    changed.append((t, renders))
        oracle = self.broken(changed)
        if oracle is None and any(r.json != self.base[s].json or r.diags != self.base[s].diags
                                  for s, r in runs.items()):
            return "bytes"
        if oracle is None and any(r.ops != self.base[s].ops for s, r in runs.items()):
            return "ops"
        return oracle

    def judge_cut(self, mutant):
        undo = mutant.apply()
        try:
            changed = []
            for t in self.templates:
                try:
                    renders = _renders(self.base[t.label].plan, t)
                except Exception:
                    return "C6" if t.html else "re-step"
                if renders != self.renders[t.label]:
                    changed.append((t, renders))
            return self.broken(changed) or ("bytes" if changed else None)
        finally:
            undo()

    def run(self, mutants):
        """``{key: first oracle that caught the mutant, or None}``."""
        outcomes = {}
        with tempfile.TemporaryDirectory() as tmp:
            tables_dir = pathlib.Path(tmp)
            for name in TABLES:
                (tables_dir / name).write_text(shipped_text(name), encoding="utf-8")
            for mutant in mutants:
                outcomes[mutant.key] = (self.judge_tables(mutant, tables_dir) if mutant.table
                                        else self.judge_cut(mutant))
        web.html_machine.cache_clear()
        return outcomes


def problems(outcomes, expected=EXPECTED, every_key=None):
    """What is wrong with the outcomes against ``expected``: a survivor with
    no reason, a ``speed:`` reason for a mutant that is not a speed row, a
    listed mutant that is killed, and, with ``every_key``, a listed key no
    mutant has."""
    out = []
    for key, oracle in outcomes.items():
        reason = expected.get(key)
        if oracle in KILLS:
            if reason is not None:
                out.append(f"listed but killed by {oracle}: {key!r}")
        elif reason is None:
            out.append(f"survives ({oracle or 'nothing'} catches it), not listed: {key!r}")
        elif reason.startswith("speed:") and oracle != "ops":
            out.append(f"listed as a speed row, but {oracle or 'nothing'} catches it: {key!r}")
    if every_key is not None:
        out += [f"listed, but no such mutant: {key!r}" for key in expected
                if key not in every_key]
    return out


def kind(key):
    if key[0] in TABLES:
        return "row deletion" if len(key) == 2 else "cell swap"
    return "escaper cut"


def main():
    start = time.perf_counter()
    ledger = Ledger()
    failures = ledger.shipped_failures()
    if failures:
        print("the shipped tables and escapers fail an oracle:", *failures, sep="\n  ")
        return 1
    mutants = all_mutants()
    outcomes = ledger.run(mutants)
    counts = Counter((kind(key), oracle) for key, oracle in outcomes.items())
    columns = [*ORACLES, None]
    print("| mutants | " + " | ".join(o or "nothing" for o in columns) + " | total |")
    print("| --- " * (len(columns) + 2) + "|")
    for k in ("row deletion", "cell swap", "escaper cut"):
        row = [counts[k, o] for o in columns]
        print(f"| {k} | " + " | ".join(map(str, row)) + f" | {sum(row)} |")
    print()
    for key, oracle in outcomes.items():
        if oracle not in KILLS:
            print(f"{oracle or 'nothing':8} {key!r}\n         {EXPECTED.get(key, 'NOT LISTED')}")
    found = problems(outcomes, every_key={m.key for m in mutants})
    print(*found, sep="\n")
    print(f"{len(mutants)} mutants, {sum(o in KILLS for o in outcomes.values())} killed, "
          f"{len(found)} problems ({time.perf_counter() - start:.0f} s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
