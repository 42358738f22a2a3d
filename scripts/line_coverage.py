#!/usr/bin/env python3
"""Line-coverage ledger: which executable lines of ``src/ctxesc`` do the
tests never run?

Runs pytest in this process (tier-1, ``tests``, unless pytest arguments are
given) with ``sys.settrace`` and ``threading.settrace`` recording every line
run in a frame under ``src/ctxesc``. A small pytest plugin re-arms the tracer
before each test's setup, call and teardown, because Hypothesis replaces the
trace function. The executable lines of a module are the line numbers of its
code objects' ``co_lines()``. The ledger prints each module's never-run lines
and exits 1 if any of them is not in ``ALLOWED``, which names a line by its
module and its source text and says why the line may stay unrun. It exits
with pytest's own status if a test fails. Uses the standard library only:

    python3 scripts/line_coverage.py
    python3 scripts/line_coverage.py tests/test_package.py
"""

import pathlib
import sys
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ctxesc"

_CHILD_ONLY = "runs only as `python -m ctxesc`, in the CLI tests' child processes"

# (module, stripped source text of the line) -> why no tier-1 test runs it
ALLOWED = {
    ("__main__", "import sys"): _CHILD_ONLY,
    ("__main__", "from .cli import main"): _CHILD_ONLY,
    ("__main__", 'if __name__ == "__main__":'): _CHILD_ONLY,
    ("__main__", "sys.exit(main())"): _CHILD_ONLY,
}


def module_sources():
    """``{module name: source lines}`` for every module of the package."""
    return {path.stem: path.read_text(encoding="utf-8").splitlines()
            for path in sorted(PACKAGE.glob("*.py"))}


def executable_lines(path):
    """The line numbers that some code object compiled from ``path`` runs."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class Tracer:
    """Records ``{filename: {line}}`` for frames whose code lives under
    ``PACKAGE``."""

    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.hits = {}

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        lines = self.hits.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_lineno)
        return local

    def arm(self):
        sys.settrace(self._global)
        threading.settrace(self._global)

    def disarm(self):
        sys.settrace(None)
        threading.settrace(None)


class RearmPlugin:
    """Puts the tracer back before each phase of each test."""

    def __init__(self, tracer):
        self.tracer = tracer

    def pytest_runtest_setup(self, item):
        self.tracer.arm()

    def pytest_runtest_call(self, item):
        self.tracer.arm()

    def pytest_runtest_teardown(self, item):
        self.tracer.arm()


def compress(numbers):
    """``[1, 2, 3, 7]`` -> ``"1-3, 7"``."""
    spans = []
    for n in sorted(numbers):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def ledger(hits):
    """``{module: [(line, text, allowed reason or None)]}`` of never-run lines."""
    report = {}
    for module, source in module_sources().items():
        path = PACKAGE / f"{module}.py"
        missed = executable_lines(path) - hits.get(str(path), set())
        rows = [(n, source[n - 1].strip(), ALLOWED.get((module, source[n - 1].strip())))
                for n in sorted(missed)]
        if rows:
            report[module] = rows
    return report


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv) or ["tests"]
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    tracer = Tracer()
    tracer.arm()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args],
                             plugins=[RearmPlugin(tracer)])
    finally:
        tracer.disarm()
    imported = pathlib.Path(sys.modules["ctxesc"].__file__).resolve().parent
    if imported != PACKAGE:
        print(f"line_coverage: traced {PACKAGE}, but the tests imported {imported}")
        return 2
    if status != 0:
        return int(status)

    report = ledger(tracer.hits)
    unexplained = 0
    print()
    for module, rows in report.items():
        open_rows = [row for row in rows if row[2] is None]
        unexplained += len(open_rows)
        print(f"{module}: {len(open_rows)} never run"
              + (f" (+{len(rows) - len(open_rows)} allowed)" if len(rows) > len(open_rows) else "")
              + (f": lines {compress(n for n, _, _ in open_rows)}" if open_rows else ""))
        for n, text, reason in rows:
            print(f"  {n:4}  {text}" + (f"    # allowed: {reason}" if reason else ""))
    allowed = sum(len(rows) for rows in report.values()) - unexplained
    print(f"never-run lines: {unexplained} ({allowed} allowed)")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
