"""Locate the checkout the benchmark runs in and put its ``src`` first on
``sys.path``, so that ``import ctxesc`` always loads the code under test
and never an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = ROOT / "tests" / "golden" / "list_plan.json"


class MissingSource(RuntimeError):
    """The checkout has no ctxesc sources to benchmark."""


def bootstrap() -> None:
    if not (SRC / "ctxesc" / "__init__.py").is_file():
        raise MissingSource(f"no ctxesc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ctxesc

    if Path(ctxesc.__file__).resolve().parent != SRC / "ctxesc":
        raise MissingSource(f"ctxesc was imported from {ctxesc.__file__}, not {SRC}")
