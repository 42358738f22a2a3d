"""The experiment scripts and the benchmark import the front end, compiler
and runtime directly, so tier-1 runs each script at a small count, and the
benchmark's own tests, to keep them working."""

import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

from ctxesc import machine as machine_mod
from ctxesc.compiler import compile_template
from ctxesc.frontend import desugar, parse_template
from ctxesc.machine import transition_op_count
from ctxesc.runtime import Bindings, render_full
from ctxesc.web import html_machine

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [["scripts/fuzz_equivalence.py", "-c", "50"],
                                  ["scripts/fuzz_structure.py", "-n", "50"]],
                         ids=["fuzz_equivalence", "fuzz_structure"])
def test_fuzz_script_passes(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "Traceback" not in result.stderr


def test_line_coverage_lists_the_lines_a_test_file_never_runs():
    result = subprocess.run([sys.executable, "scripts/line_coverage.py", "tests/test_package.py"],
                            cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    # importing the package runs none of the machine's steps
    rows = {line.split(":")[0]: line for line in result.stdout.splitlines()
            if re.fullmatch(r"\w+: \d+ never run.*", line)}
    assert re.fullmatch(r"machine: \d+ never run: lines [\d, -]+", rows["machine"])
    assert re.search(r"^never-run lines: [1-9]\d* \(4 allowed\)$", result.stdout, re.M)


def test_line_coverage_allow_list_names_lines_that_exist():
    spec = importlib.util.spec_from_file_location("ledger", ROOT / "scripts" / "line_coverage.py")
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    sources = ledger.module_sources()
    for (module, text), reason in ledger.ALLOWED.items():
        assert text in [line.strip() for line in sources[module]], (module, text)
        assert reason and "\n" not in reason


def memo_free_table_ops(monkeypatch, batch):
    """The transition ops of count_work's compile and dynamic passes over
    ``batch``, with every step run afresh: the memo argument is dropped."""
    for name in ("finish", "step_interp"):
        step = getattr(machine_mod, name)
        monkeypatch.setattr(machine_mod, name,
                            lambda m, s, pos=None, memo=None, step=step: step(m, s, pos))
    machine = html_machine()
    ops = []
    before = transition_op_count()
    for source in dict.fromkeys(source for _, source, _ in batch):
        compile_template(source)
    ops.append(transition_op_count() - before)
    before = transition_op_count()
    for _, source, values in batch:
        render_full(desugar(parse_template(source)[0]), Bindings(values), machine)
    ops.append(transition_op_count() - before)
    return ops


def test_count_work_counts_both_paths(monkeypatch):
    # the long line is longer than a window, so the machine feeds it in pieces
    result = subprocess.run([sys.executable, "scripts/count_work.py", "--pages", "1",
                             "--page-bytes", "512", "--line-bytes", "2500",
                             "--corpus-values", "1", "--list-pages", "2"],
                            cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    rows = {line.split()[0]: [int(n.replace(",", "")) for n in line.split()[1:]]
            for line in lines[2:lines.index("")]}  # the totals table
    assert sorted(rows) == ["compile", "dynamic", "render"]
    assert all(len(counts) == 4 for counts in rows.values())
    assert min(rows["compile"] + rows["dynamic"]) > 0
    # a plan render does no machine work at all
    assert min(rows["render"][:3]) > 0 and rows["render"][3] == 0
    # memo replays count the ops they stand for
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    batch = gen.compile_batch(1, pages=1, page_bytes=512, line_bytes=2500, corpus_values=1)
    assert len(batch[-1][1]) > 2 * machine_mod._WINDOW
    assert [rows["compile"][3], rows["dynamic"][3]] == memo_free_table_ops(monkeypatch, batch)


def test_benchmark_tests_pass():
    # the benchmark's tests put its checkout's src/ on sys.path themselves
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
