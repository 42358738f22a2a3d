import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from conftest import LIST_TEMPLATE, MESSAGE_TEMPLATE
from ctxesc.cli import main
from ctxesc.frontend import MAX_BLOCK_DEPTH
from support import nested_loops

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
DIAG_LINE = re.compile(r"^[^:]+:\d+:\d+: (warning|error): .+$")


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "list.tpl").write_text(LIST_TEMPLATE, encoding="utf-8")
    (tmp_path / "msg.tpl").write_text(MESSAGE_TEMPLATE, encoding="utf-8")
    (tmp_path / "warn.tpl").write_text('tag: html\n"<a href=hello>link</a\n', encoding="utf-8")
    (tmp_path / "conflict.tpl").write_text('tag: html\n:if c {\n"<a href=\n:}\n"x\n',
                                           encoding="utf-8")
    (tmp_path / "b.json").write_text(
        json.dumps({"items": [{"url": "https://e.com", "label": "a<b"}],
                    "s": "Hello", "n": 5}), encoding="utf-8")
    return tmp_path


def test_check_clean_template(workdir, capsys):
    assert main(["check", str(workdir / "list.tpl")]) == 0
    out = capsys.readouterr()
    assert out.out == "" and out.err == ""


def test_check_warning_template_exit_zero(workdir, capsys):
    assert main(["check", str(workdir / "warn.tpl")]) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert DIAG_LINE.match(err[0])
    assert "warning" in err[0]


def test_check_strict_promotes_warnings(workdir, capsys):
    assert main(["check", "--strict", str(workdir / "warn.tpl")]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "warning" not in err


def test_check_context_conflict_exit_one(workdir, capsys):
    assert main(["check", str(workdir / "conflict.tpl")]) == 1
    assert "context conflict" in capsys.readouterr().err


def test_check_parse_failure_exit_two(workdir, capsys):
    bad = workdir / "bad.tpl"
    bad.write_text("tag: html\n:if x {\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "unbalanced" in capsys.readouterr().err


def test_check_missing_file_exit_two(workdir, capsys):
    assert main(["check", str(workdir / "nope.tpl")]) == 2


def test_undecodable_files_are_named_and_exit_two(workdir, capsys):
    bad = workdir / "bad.tpl"
    bad.write_bytes(b"\xff\xfe")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"ctxesc: cannot read {bad}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n")
    bindings = workdir / "bad.json"
    bindings.write_bytes(b'{"s": "\xff"}')
    assert main(["render", str(workdir / "list.tpl"), "--bindings", str(bindings)]) == 2
    assert capsys.readouterr().err.startswith(f"ctxesc: cannot read {bindings}: 'utf-8' codec")


def test_compile_writes_plan(workdir, capsys):
    out = workdir / "plan.json"
    assert main(["compile", str(workdir / "list.tpl"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["language"] == "html"
    assert {"lit": "<ul>\n"} in doc["body"]


def test_compile_without_out_writes_the_plan_to_stdout(workdir, capsys):
    out = workdir / "plan.json"
    assert main(["compile", str(workdir / "list.tpl"), "--out", str(out)]) == 0
    assert main(["compile", str(workdir / "list.tpl")]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_compile_conflict_writes_nothing(workdir, capsys):
    out = workdir / "plan.json"
    assert main(["compile", str(workdir / "conflict.tpl"), "--out", str(out)]) == 1
    assert not out.exists()


def test_render_static_dynamic_agree(workdir, capsys):
    expected = '<ul>\n  <li><a href="https://e.com">a&lt;b</a></li>\n</ul>\n'
    assert main(["render", str(workdir / "list.tpl"), "--bindings",
                 str(workdir / "b.json"), "--mode", "static"]) == 0
    static_out = capsys.readouterr().out
    assert main(["render", str(workdir / "list.tpl"), "--bindings",
                 str(workdir / "b.json"), "--mode", "dynamic"]) == 0
    dynamic_out = capsys.readouterr().out
    assert static_out == dynamic_out == expected


def test_render_precompiled_plan_ignores_missing_tables(workdir, capsys):
    plan = workdir / "plan.json"
    assert main(["compile", str(workdir / "list.tpl"), "--out", str(plan)]) == 0
    capsys.readouterr()
    assert main(["render", str(plan), "--bindings", str(workdir / "b.json"),
                 "--tables", str(workdir / "no-such-dir")]) == 0
    assert "<ul>" in capsys.readouterr().out


def test_render_plan_loads_no_machine(workdir, capsys):
    plan = workdir / "plan.json"
    assert main(["compile", str(workdir / "list.tpl"), "--out", str(plan)]) == 0
    compiled = capsys.readouterr()
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    encoded = workdir / "encoded.json"
    encoded.write_text(json.dumps({"items": [{"url": "/a b/\u00fc", "label": "x"}]}),
                       encoding="utf-8")

    def imports(*flags, bindings=workdir / "b.json",
                out='<ul>\n  <li><a href="https://e.com">a&lt;b</a></li>\n</ul>\n'):
        # -X importtime lists every module the interpreter imports on stderr
        result = subprocess.run(
            [sys.executable, *flags, "-X", "importtime", "-m", "ctxesc", "render", str(plan),
             "--bindings", str(bindings)],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == out
        return {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}

    imported = imports()
    assert {"ctxesc.cli", "ctxesc.plan", "ctxesc.escapers"} <= imported
    heavy = {"ctxesc.machine", "ctxesc.tables", "ctxesc.frontend", "ctxesc.web",
             "ctxesc.compiler"}
    assert not heavy & imported, sorted(heavy & imported)
    # the render path's records are plain slotted classes, not dataclasses
    assert not {"dataclasses", "inspect"} & imported
    # without site, whose hooks may load it anyway, no URL loads
    # urllib.parse: the URL filter percent-encodes with its own table
    assert "urllib.parse" not in imports("-S")
    assert "urllib.parse" not in imports(
        "-S", bindings=encoded,
        out='<ul>\n  <li><a href="/a%20b/%C3%BC">x</a></li>\n</ul>\n')
    assert compiled.err == ""


def test_static_render_error_names_the_template_site(workdir, capsys):
    partial = workdir / "partial.json"
    partial.write_text(json.dumps({"items": [{"url": "x"}]}), encoding="utf-8")
    tpl = str(workdir / "list.tpl")
    assert main(["render", tpl, "--bindings", str(partial)]) == 1
    assert capsys.readouterr().err == (
        f"{tpl}:4:28: error: unbound path 'item.label' (no field 'label')\n")
    # a compiled plan file carries no positions
    plan = workdir / "plan.json"
    main(["compile", tpl, "--out", str(plan)])
    assert main(["render", str(plan), "--bindings", str(partial)]) == 1
    assert capsys.readouterr().err == (
        "<plan>:0:0: error: unbound path 'item.label' (no field 'label')\n")


def test_url_with_a_lone_surrogate_is_a_positioned_render_error(workdir, capsys):
    data = workdir / "surrogate.json"
    data.write_text(json.dumps({"items": [{"url": "\ud800x", "label": "a"}]}),
                    encoding="utf-8")
    tpl, plan = str(workdir / "list.tpl"), workdir / "plan.json"
    main(["compile", tpl, "--out", str(plan)])
    capsys.readouterr()
    for args, where in [([tpl, "--mode", "static"], f"{tpl}:4:16"),
                        ([tpl, "--mode", "dynamic"], f"{tpl}:4:16"),
                        ([str(plan)], "<plan>:0:0")]:
        assert main(["render", *args, "--bindings", str(data)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"{where}: error: cannot percent-encode URL value")
        assert out.err.count("\n") == 1


def test_render_plan_in_dynamic_mode_is_usage_error(workdir, capsys):
    plan = workdir / "plan.json"
    main(["compile", str(workdir / "list.tpl"), "--out", str(plan)])
    capsys.readouterr()
    assert main(["render", str(plan), "--bindings", str(workdir / "b.json"),
                 "--mode", "dynamic"]) == 2


def test_render_safe_content_two_contexts(workdir, capsys):
    tpl = workdir / "two.tpl"
    tpl.write_text('tag: html\n"<i id=${love}\n">${love}</i>\n', encoding="utf-8")
    b = workdir / "love.json"
    b.write_text(json.dumps(
        {"love": {"$safe": "html", "content": "I &lt;3 <b>you</b>"}}), encoding="utf-8")
    for mode in ("static", "dynamic"):
        assert main(["render", str(tpl), "--bindings", str(b), "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert out == ('<i id="I &amp;lt;3 &lt;b&gt;you&lt;/b&gt;"\n'
                       ">I &lt;3 <b>you</b></i>\n"), mode


@pytest.mark.parametrize("value", [
    {"$safe": "html", "content": {"a": 1}},
    {"$safe": None, "content": "<b>x</b>"},
    {"$safe": "html"},
    {"$safe": "html", "content": "<b>x</b>", "note": "y"},
    {"$safe": ["html"], "content": "<b>x</b>"},
], ids=["content-object", "language-null", "no-content", "extra-key", "language-list"])
def test_render_malformed_safe_binding_exit_two(workdir, capsys, value):
    tpl, b = workdir / "safe.tpl", workdir / "safe.json"
    tpl.write_text('tag: html\n"<p>${v}</p>\n', encoding="utf-8")
    b.write_text(json.dumps({"v": value}), encoding="utf-8")
    for mode in ("static", "dynamic"):
        assert main(["render", str(tpl), "--bindings", str(b), "--mode", mode]) == 2
        out = capsys.readouterr()
        assert out.out == "" and '"$safe" binding must be' in out.err, mode


def test_render_missing_binding_exit_one(workdir, capsys):
    empty = workdir / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    assert main(["render", str(workdir / "list.tpl"), "--bindings", str(empty)]) == 1
    assert "unbound path" in capsys.readouterr().err


def test_extract_bundle(workdir, capsys):
    assert main(["extract", str(workdir / "msg.tpl"), "--bindings",
                 str(workdir / "b.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"s-has-n": "String '{0}' has {1} characters."}


def test_extract_template_without_messages(workdir, capsys):
    assert main(["extract", str(workdir / "list.tpl"), "--bindings",
                 str(workdir / "b.json")]) == 0
    assert json.loads(capsys.readouterr().out) == {}


def test_extract_strict_promotes_warnings(workdir, capsys):
    warned = workdir / "warned_msg.tpl"
    warned.write_text('tag: html\n"<p><message i18n="@@m">hi ${s}</message></p><a href=x>t</a\n',
                      encoding="utf-8")
    args = [str(warned), "--bindings", str(workdir / "b.json")]
    assert main(["extract", *args]) == 0
    capsys.readouterr()
    assert main(["extract", "--strict", *args]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert any(DIAG_LINE.match(line) and ": error: " in line
               for line in out.err.splitlines())


def test_extract_nested_messages_exit_one(workdir, capsys):
    nested = workdir / "nested.tpl"
    nested.write_text(
        'tag: html\n"<p><message i18n="@@a">x<message i18n="@@b">y</message>'
        '</message></p>\n', encoding="utf-8")
    assert main(["extract", str(nested), "--bindings", str(workdir / "b.json")]) == 1
    assert "message 'b' starts inside another message" in capsys.readouterr().err


def test_extract_one_message_id_with_two_texts_exit_one(workdir, capsys):
    # check and compile accept the template; only extract finds the clash
    twice = workdir / "twice.tpl"
    twice.write_text('tag: html\n"<message i18n="@@m">a</message><message i18n="@@m">b</message>\n',
                     encoding="utf-8")
    assert main(["check", str(twice)]) == 0
    assert main(["extract", str(twice), "--bindings", str(workdir / "b.json")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "ctxesc: error: message id 'm' extracted twice with different text\n"


def test_diagnostics_are_machine_parseable(workdir, capsys):
    main(["check", str(workdir / "warn.tpl")])
    main(["check", str(workdir / "conflict.tpl")])
    err = capsys.readouterr().err.strip().splitlines()
    assert err
    for line in err:
        assert DIAG_LINE.match(line), line


def test_unknown_tag_is_usage_error(workdir, capsys):
    odd = workdir / "odd.tpl"
    odd.write_text('tag: pdf\n"x\n', encoding="utf-8")
    assert main(["check", str(odd)]) == 2
    assert "no machine registered" in capsys.readouterr().err


def test_malformed_plan_input_is_usage_error(workdir, capsys):
    bad = workdir / "bad_plan.json"
    bad.write_text('{"language": "html"}', encoding="utf-8")
    assert main(["render", str(bad), "--bindings", str(workdir / "b.json")]) == 2


def test_deeply_nested_plan_is_usage_error(workdir, capsys):
    deep = workdir / "deep_plan.json"
    deep.write_text('{"language": "html", "body": ' + "[" * 5000 + "]" * 5000 + "}",
                    encoding="utf-8")
    assert main(["render", str(deep), "--bindings", str(workdir / "b.json")]) == 2
    assert "nests too deeply" in capsys.readouterr().err


def _render_plan_body(workdir, node):
    plan = workdir / "bad_plan.json"
    plan.write_text(json.dumps({"language": "html", "body": [node]}), encoding="utf-8")
    return main(["render", str(plan), "--bindings", str(workdir / "b.json")])


def test_plan_with_unknown_escaper_is_usage_error(workdir, capsys):
    node = {"interp": {"path": "s", "escapers": ["NoSuchEscaper"]}}
    assert _render_plan_body(workdir, node) == 2
    assert "unknown escaper 'NoSuchEscaper'" in capsys.readouterr().err


def test_plan_interp_without_escapers_is_usage_error(workdir, capsys):
    assert _render_plan_body(workdir, {"interp": {"path": "s"}}) == 2
    assert "escaper names" in capsys.readouterr().err


def test_plan_loop_without_path_is_usage_error(workdir, capsys):
    assert _render_plan_body(workdir, {"for": {"var": "it", "body": []}}) == 2
    assert "'path'" in capsys.readouterr().err


def test_fuzzed_diagnostics_always_carry_positions(workdir, capsys):
    import random

    from support import random_template

    rng = random.Random(11)
    mutations = ["${", "${bad()}", ":if x {", ":}", "!", '"</b "x">', '"<a href=']
    for i in range(40):
        source, _ = random_template(rng)
        if i % 2:
            source += rng.choice(mutations) + "\n"
        tpl = workdir / "fuzz.tpl"
        tpl.write_text(source, encoding="utf-8")
        main(["check", str(tpl)])
        for line in capsys.readouterr().err.strip().splitlines():
            assert DIAG_LINE.match(line), (source, line)


def test_tables_override_directory(workdir, capsys, tmp_path):
    # copy the shipped tables and tighten one diagnostic message
    from importlib import resources

    tdir = tmp_path / "tables"
    tdir.mkdir()
    for name in ("html.tt", "url.tt", "css.tt"):
        data = resources.files("ctxesc").joinpath("data").joinpath(name).read_text()
        (tdir / name).write_text(data.replace(
            "W: HTML attribute in close tag", "W: custom close-tag message"),
            encoding="utf-8")
    probe = workdir / "probe.tpl"
    probe.write_text('tag: html\n"</b "x">\n', encoding="utf-8")
    assert main(["check", "--tables", str(tdir), str(probe)]) == 0
    assert "custom close-tag message" in capsys.readouterr().err


def test_a_repeated_table_row_is_a_table_error(workdir, capsys, tmp_path):
    # a row identical to an earlier one can never fire
    from importlib import resources

    tdir = tmp_path / "tables"
    tdir.mkdir()
    for name in ("html.tt", "url.tt", "css.tt"):
        lines = resources.files("ctxesc").joinpath("data").joinpath(name).read_text().splitlines(
            keepends=True)
        if name == "html.tt":
            row = next(n for n, line in enumerate(lines) if r"`</message[ \t]{0,4}>`" in line)
            lines.insert(row + 1, lines[row])
        (tdir / name).write_text("".join(lines), encoding="utf-8")
    assert main(["check", "--tables", str(tdir), str(workdir / "list.tpl")]) == 2
    assert (f"{tdir / 'html.tt'}:{row + 2}:1: error: rule is shadowed by the identical rule "
            f"at line {row + 1}") in capsys.readouterr().err


def test_a_table_file_in_the_tables_dir_is_a_tag(workdir, capsys, tmp_path):
    from importlib import resources

    tdir = tmp_path / "tables"
    tdir.mkdir()
    text = resources.files("ctxesc").joinpath("data").joinpath("text.tt").read_text()
    (tdir / "foo.tt").write_text(text.replace("machine text", "machine foo"), encoding="utf-8")
    tpl, plan = workdir / "foo.tpl", workdir / "foo.json"
    tpl.write_text('tag: foo\n"<b>${x}\n', encoding="utf-8")
    assert main(["compile", "--tables", str(tdir), str(tpl), "--out", str(plan)]) == 0
    assert json.loads(plan.read_text(encoding="utf-8"))["language"] == "foo"
    assert main(["check", str(tpl)]) == 2
    assert "'foo' (known: css, html, text, url)" in capsys.readouterr().err
    assert main(["check", "--tables", str(tdir), str(workdir / "list.tpl")]) == 2
    assert "1:1: error: no machine registered for tag 'html' (known: foo)" in (
        capsys.readouterr().err)


# -- deep inputs: a positioned error or a usage error, never a traceback -------

def test_nesting_at_the_bound_runs_every_command(workdir, capsys):
    tpl, plan, data = workdir / "deep.tpl", workdir / "deep.json", workdir / "xs.json"
    tpl.write_text(nested_loops(MAX_BLOCK_DEPTH), encoding="utf-8")
    data.write_text('{"xs": ["a<b"]}', encoding="utf-8")
    assert main(["check", str(tpl)]) == 0
    assert main(["compile", str(tpl), "--out", str(plan)]) == 0
    capsys.readouterr()
    for argv in ([str(plan)], [str(tpl), "--mode", "static"], [str(tpl), "--mode", "dynamic"]):
        assert main(["render", *argv, "--bindings", str(data)]) == 0, argv
        assert capsys.readouterr().out == "<p>a&lt;b</p>\n", argv
    assert main(["extract", str(tpl), "--bindings", str(data)]) == 0
    assert json.loads(capsys.readouterr().out) == {}


def test_nesting_past_the_bound_exits_two_with_one_diagnostic(workdir, capsys):
    tpl, data = workdir / "deep.tpl", workdir / "xs.json"
    data.write_text('{"xs": ["a"]}', encoding="utf-8")
    commands = (["check"], ["compile"], ["render", "--mode", "static", "--bindings", str(data)],
                ["render", "--mode", "dynamic", "--bindings", str(data)],
                ["extract", "--bindings", str(data)])
    for depth in (MAX_BLOCK_DEPTH + 1, 1200):
        tpl.write_text(nested_loops(depth), encoding="utf-8")
        for command in commands:
            assert main([command[0], str(tpl), *command[1:]]) == 2, (depth, command)
            out = capsys.readouterr()
            assert out.out == ""
            (line,) = out.err.strip().splitlines()
            assert line.startswith(f"{tpl}:{MAX_BLOCK_DEPTH + 2}:1: error: "), line
            assert DIAG_LINE.match(line) and "Traceback" not in out.err


@pytest.mark.parametrize("deep", [
    '{"x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    # json.loads accepts this depth; decoding SafeContent objects recurses past it
    '{"x": ' + '{"k": ' * 900 + "1" + "}" * 900 + "}",
], ids=["lists", "objects"])
def test_deeply_nested_bindings_are_usage_error(workdir, capsys, deep):
    plan, data = workdir / "plan.json", workdir / "deep_bindings.json"
    main(["compile", str(workdir / "list.tpl"), "--out", str(plan)])
    data.write_text(deep, encoding="utf-8")
    for source in (plan, workdir / "list.tpl"):
        assert main(["render", str(source), "--bindings", str(data)]) == 2, source
    err = capsys.readouterr().err
    assert err.count("bindings nest too deeply") == 2 and "Traceback" not in err


def test_unencodable_output_exits_one_and_writes_nothing(workdir, capsys):
    tpl, plan, data = workdir / "p.tpl", workdir / "p.json", workdir / "lone.json"
    tpl.write_text('tag: html\n"<p>${x}</p>\n', encoding="utf-8")
    data.write_text('{"x": "\\ud800"}', encoding="utf-8")
    assert main(["compile", str(tpl), "--out", str(plan)]) == 0
    for source, mode in ((plan, "static"), (tpl, "static"), (tpl, "dynamic")):
        assert main(["render", str(source), "--bindings", str(data), "--mode", mode]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert re.fullmatch(r"ctxesc: error: output offset 3: U\+D800 cannot be encoded "
                            r"as utf-8", line, re.IGNORECASE), line
