"""The experiment scripts and the benchmark import the front end, compiler
and runtime directly, so tier-1 runs each script at a small count, and the
benchmark's own tests, to keep them working."""

import os
import pathlib
import subprocess
import sys

import pytest

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


def test_count_work_counts_both_paths():
    result = subprocess.run([sys.executable, "scripts/count_work.py", "--pages", "1",
                             "--page-bytes", "512", "--line-bytes", "512",
                             "--corpus-values", "1"],
                            cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    rows = {line.split()[0]: line.split()[1:] for line in result.stdout.splitlines()[2:]}
    assert sorted(rows) == ["compile", "dynamic"]
    assert all(int(n.replace(",", "")) > 0 for counts in rows.values() for n in counts)


def test_benchmark_tests_pass():
    # the benchmark's tests put its checkout's src/ on sys.path themselves
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
