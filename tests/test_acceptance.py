"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line. Tolerances and counts are pinned here, not deferred.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import pathlib
import random
import time

import pytest

from conftest import LIST_TEMPLATE, MESSAGE_TEMPLATE, TWO_ATTR_TEMPLATE, program_of
from ctxesc import machine as machine_mod
from ctxesc.compiler import compile_template, execute_plan, propagate
from ctxesc.diagnostics import RenderError, Severity, has_errors
from ctxesc.escapers import chain, escape_pcdata
from ctxesc.i18n import extract_messages, substitute_placeholders
from ctxesc.machine import state_str
from ctxesc.runtime import Bindings, render_full
from ctxesc.values import SafeContent
from support import (
    STRUCTURE_CORPUS,
    adversarial_values,
    corpus_bindings,
    dangerous_urls,
    random_template,
    tokenize_structure,
    walk,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "list_plan.json"


@contextlib.contextmanager
def criterion(ident: str, summary: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {ident}: FAIL - {summary}")
        raise
    print(f"[acceptance] {ident}: PASS - {summary}")


def test_c01_list_template_plan_reproduction(html):
    with criterion("C1", "list-template plan matches the golden file in under 1s"):
        start = time.perf_counter()
        plan, diags = compile_template(LIST_TEMPLATE, "list.tpl")
        elapsed = time.perf_counter() - start
        assert diags == []
        assert plan.to_json() == GOLDEN.read_text(encoding="utf-8")
        loop = plan.body[1]
        assert loop.body[0].text == '  <li><a href="'
        assert loop.body[1].escapers == ("UrlPrefixFilteringEscaper",
                                         "HtmlAttributeEscaper")
        assert loop.body[2].text == '">'
        assert loop.body[3].escapers == ("HtmlPcdataEscaper",)
        assert elapsed < 1.0, f"compile took {elapsed:.3f}s"


def test_c02_propagation_annotations(html):
    with criterion("C2", "context annotations, one-iteration loop fixed point, valid end"):
        program = program_of(LIST_TEMPLATE)
        ann = propagate(program, html)
        states = [state_str(ann.in_states[n]) for n in walk(program.body)
                  if n in ann.in_states]
        assert states == [
            "(Pcdata, _, _, _)",       # appendFixed "<ul>\n"
            "(Pcdata, _, _, _)",       # loop header
            "(Pcdata, _, _, _)",       # appendFixed "  <li><a href="
            "(BeforeValue, _, Url, _)",  # appendUnsafe item.url
            "(AfterValue, _, _, _)",   # appendFixed ">"
            "(Pcdata, _, _, _)",       # appendUnsafe item.label
            "(Pcdata, _, _, _)",       # appendFixed "</a></li>\n"
            "(Pcdata, _, _, _)",       # appendFixed "</ul>\n"
            "(Pcdata, _, _, _)",       # collected
        ]
        (loop,) = ann.merged
        assert ann.merged[loop] == ann.in_states[loop]
        (merged,) = ann.merged.values()
        assert state_str(merged) == "(Pcdata, _, _, _)"
        assert ann.end_ok
        assert ann.diagnostics == []


def test_c03_end_context_diagnostic(html):
    with criterion("C3", "unterminated close tag checks with exactly one warning"):
        src = 'tag: html\n"<a href=hello>link</a\n'
        from ctxesc.compiler import analyze_template

        _, ann, diags = analyze_template(src)
        warnings = [d for d in diags if d.severity is Severity.WARNING]
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert len(warnings) == 1
        assert len(errors) == 0
        assert "close tag" in warnings[0].message


def test_c04_safe_content_two_contexts(html):
    with criterion("C4", "safe HTML passes through in text, is re-escaped in attributes"):
        love = SafeContent("html", "I &lt;3 <b>you</b>")
        src = 'tag: html\n"<i id=${love}\n">${love}</i>\n'
        program = program_of(src)
        value, _, _ = render_full(program, Bindings({"love": love}), html)
        expected = ('<i id="I &amp;lt;3 &lt;b&gt;you&lt;/b&gt;"\n'
                    ">I &lt;3 <b>you</b></i>\n")
        assert value.text == expected
        # pass-through: markup intact in the text node
        assert "<b>you</b>" in value.text
        # re-escape: no markup and a re-escaped ampersand inside the attribute
        attr = value.text.split('"')[1]
        assert "<" not in attr and ">" not in attr
        assert attr.startswith("I &amp;lt;3")


def test_c05_oracle_equivalence(html):
    with criterion("C5", "static execution byte-identical to dynamic rendering "
                         "on 1000 random template/bindings pairs in under 60s"):
        rng = random.Random(0xC0FFEE)
        start = time.perf_counter()
        checked = 0
        while checked < 1000:
            source, bindings = random_template(rng)
            plan, diags = compile_template(source)
            assert not has_errors(diags), (source, [str(d) for d in diags])
            program = program_of(source)
            dyn_value, dyn_marks, _ = render_full(program, Bindings(bindings), html)
            static_value, static_marks = execute_plan(plan, Bindings(bindings))
            assert static_value.text == dyn_value.text, source
            assert static_marks == dyn_marks, source
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"equivalence fuzz took {elapsed:.1f}s"


def perturb_bindings(rng, bindings):
    """A copy of ``random_template`` bindings with one defect, and its kind:
    a binding dropped, a value made a record, a list or null, a loop path
    made a non-list, or a loop item a field path reads made a non-record."""
    out = dict(bindings)
    name = rng.choice(sorted(out))
    loops = sorted(k for k in out if k.startswith("l"))
    kind = rng.choice(["drop", "value", "loop", "item"])
    if kind == "drop":
        del out[name]
    elif kind == "value" or not loops:
        kind, out[name] = "value", rng.choice([{"k": "v"}, [1, "a"], None])
    elif kind == "loop" or not any(out[k] for k in loops):
        kind, out[rng.choice(loops)] = "loop", rng.choice(["s", 3, {"a": 1}, None, True])
    else:
        loop = rng.choice([k for k in loops if out[k]])
        items = out[loop] = list(out[loop])
        items[rng.randrange(len(items))] = rng.choice(["s", 5, [1], None])
    return out, kind


def render_outcome(render):
    """("ok", text, marks) of a render, or ("error", str, position) of its RenderError."""
    try:
        value, marks = render()
    except RenderError as exc:
        return "error", str(exc), exc.position
    return "ok", value.text, marks


def test_c05_engines_agree_on_defective_bindings(html):
    rng = random.Random(0xBADB1D)
    seen = set()
    checked = 0
    while checked < 1000:
        source, bindings = random_template(rng)
        if not bindings:  # a template that reads no path has no bindings to break
            continue
        perturbed, kind = perturb_bindings(rng, bindings)
        plan, _ = compile_template(source)
        program = program_of(source)
        dynamic = render_outcome(lambda: render_full(program, Bindings(perturbed), html)[:2])
        static = render_outcome(lambda: execute_plan(plan, Bindings(perturbed)))
        assert static == dynamic, (source, perturbed)
        seen.add((kind, dynamic[0]))
        checked += 1
    assert {kind for kind, _ in seen} == {"drop", "value", "loop", "item"}
    assert {outcome for _, outcome in seen} == {"ok", "error"}


def test_c06_structure_preservation(html):
    with criterion("C6", "10000 adversarial values through 20 templates preserve "
                         "fixed-part structure; no injected elements or schemes"):
        values = adversarial_values(500)
        plans = []
        for source in STRUCTURE_CORPUS:
            plan, diags = compile_template(source)
            assert not has_errors(diags), (source, [str(d) for d in diags])
            plans.append(plan)
        assert len(plans) == 20
        renders = 0
        for plan, source in zip(plans, STRUCTURE_CORPUS):
            base_value, _ = execute_plan(plan, Bindings(corpus_bindings("x")))
            base_signature, base_urls = tokenize_structure(base_value.text)
            assert not dangerous_urls(base_urls)
            for value in values:
                out, _ = execute_plan(plan, Bindings(corpus_bindings(value)))
                signature, urls = tokenize_structure(out.text)
                assert signature == base_signature, (source, value, out.text)
                assert not dangerous_urls(urls), (source, value, out.text)
                renders += 1
        assert renders >= 10_000


def test_c07_epsilon_hazard_empty_value(html):
    with criterion("C7", "empty unquoted attribute value is quote-delimited; "
                         "the next attribute stays separate"):
        program = program_of(TWO_ATTR_TEMPLATE)
        value, _, _ = render_full(program, Bindings({"x": "", "y": "v"}), html)
        assert 'href=""' in value.text
        events, _ = tokenize_structure(value.text)
        (start_event,) = [e for e in events if e[0] == "start"]
        assert start_event[1] == "a"
        assert start_event[2] == ("href", "other-attr")
        assert dict_attrs(value.text) == {"href": "", "other-attr": "v"}


def dict_attrs(document):
    import html.parser

    class P(html.parser.HTMLParser):
        attrs = {}

        def handle_starttag(self, tag, attrs):
            P.attrs = {k: v for k, v in attrs}

    p = P()
    p.feed(document)
    p.close()
    return P.attrs


def test_c08_close_tag_attribute_warning(html):
    with criterion("C8", "quoted string inside a close tag warns with its position"):
        src = 'tag: html\n"</b "x">\n'
        from ctxesc.compiler import analyze_template

        _, ann, diags = analyze_template(src, "probe.tpl")
        warnings = [d for d in diags if "HTML attribute in close tag" in d.message]
        assert len(warnings) == 1
        (warning,) = warnings
        assert warning.severity is Severity.WARNING
        assert warning.position.file == "probe.tpl"
        assert warning.position.line == 2
        assert warning.position.col == 6  # the opening quote of "x"


def test_c09_i18n_extraction_and_reordering(html):
    with criterion("C9", "message extraction and German placeholder reordering"):
        program = program_of(MESSAGE_TEMPLATE)
        value, marks, _ = render_full(program, Bindings({"s": "Hello", "n": 5}), html)
        bundle = extract_messages(value.text, marks)
        assert bundle == {"s-has-n": "String '{0}' has {1} characters."}
        german = "{1} Zeichen lang ist die Zeichenkette '{0}'."
        out = substitute_placeholders(german, ["Hello", "5"])
        assert out == "5 Zeichen lang ist die Zeichenkette 'Hello'."


def test_c10_runtime_cost(html):
    with criterion("C10", "plan execution does zero machine transitions and runs "
                          "within 3x of naive concatenation with escaping"):
        plan, _ = compile_template(LIST_TEMPLATE)
        items = [{"url": f"https://example.com/item/{i}?q=a b",
                  "label": f"label <{i}> & more"} for i in range(10_000)]
        bindings = Bindings({"items": items})
        execute_plan(plan, bindings)  # warm-up: resolve escapers, caches

        before = machine_mod.transition_op_count()
        plan_start = time.perf_counter()
        plan_value, _ = execute_plan(plan, bindings)
        plan_elapsed = time.perf_counter() - plan_start
        assert machine_mod.transition_op_count() == before, \
            "plan execution touched the transition machinery"

        # the URL chain as a plan calls it: fused by escapers.chain
        escape_url = chain(("UrlPrefixFilteringEscaper", "HtmlAttributeEscaper"))

        def naive(item_list):
            parts = ["<ul>\n"]
            append = parts.append
            for item in item_list:
                append('  <li><a href="')
                append(escape_url(item["url"]))
                append('">')
                append(escape_pcdata(item["label"]))
                append("</a></li>\n")
            append("</ul>\n")
            return "".join(parts)

        naive_start = time.perf_counter()
        naive_value = naive(items)
        naive_elapsed = time.perf_counter() - naive_start

        assert plan_value.text == naive_value
        ratio = plan_elapsed / naive_elapsed
        assert ratio <= 3.0, f"plan/naive ratio {ratio:.2f}"
        print(f"  [bench] plan {plan_elapsed * 1e3:.1f}ms, naive "
              f"{naive_elapsed * 1e3:.1f}ms, ratio {ratio:.2f}")
