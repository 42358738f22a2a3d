#!/usr/bin/env python3
"""Random-template equivalence fuzz: compiled-plan execution must be
byte-identical to dynamic rendering, marks included, for every template and
bindings document the generator produces."""

import argparse
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from support import random_template  # noqa: E402

from ctxesc.compiler import compile_template, execute_plan  # noqa: E402
from ctxesc.diagnostics import has_errors  # noqa: E402
from ctxesc.frontend import desugar, parse_template  # noqa: E402
from ctxesc.runtime import Bindings, render_full  # noqa: E402
from ctxesc.web import machine_for_tag  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-c", "--count", type=int, default=1000)
    ap.add_argument("-s", "--seed", type=lambda v: int(v, 0), default=0xC0FFEE)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    machine = machine_for_tag("html")
    start = time.perf_counter()
    for i in range(args.count):
        source, bindings = random_template(rng)
        plan, diags = compile_template(source)
        if plan is None or has_errors(diags):
            print(source)
            raise SystemExit(f"generated template failed to compile: "
                             f"{[str(d) for d in diags]}")
        ir, _ = parse_template(source)
        program = desugar(ir)
        dyn, dyn_marks, _ = render_full(program, Bindings(bindings), machine)
        static, static_marks = execute_plan(plan, Bindings(bindings))
        if static.text != dyn.text or static_marks != dyn_marks:
            print(source)
            print("dynamic:", repr(dyn.text))
            print("static: ", repr(static.text))
            raise SystemExit("MISMATCH")
        if (i + 1) % 200 == 0:
            print(f"  {i + 1}/{args.count} ok")
    elapsed = time.perf_counter() - start
    print(f"{args.count} template/bindings pairs byte-identical "
          f"in {elapsed:.1f}s (seed {args.seed:#x})")


if __name__ == "__main__":
    main()
