#!/usr/bin/env python3
"""Count the interpreter work of the compile, dynamic and plan render paths.

Runs ``compile_template`` over each distinct template of the benchmark's
``compile_pages`` batch (``perfbench.gen.compile_batch``) and ``render_full``
over each of its (template, bindings) pairs, as the benchmark's compile and
dynamic paths do, and ``execute_plan`` of the list template's plan over
``gen.list_pages``, as its ``plan_pages`` render path does. Each path runs
twice, and the second, warm pass is counted: Python calls and C calls with
``sys.setprofile``, bytecode instructions with ``sys.settrace``, and the
pass's transition-table operations (``transition_op_count``), which a step
memo must not change and a plan render must leave at 0. Unlike wall time,
these counts are the same on every run of the same code, so they can tell
apart two commits whose timings a busy host cannot. A second table counts the
compile and dynamic paths again per template kind of the batch (``corpus``,
``list``, ``page``, ``line``), and a render path, ``execute_plan`` of each
kind's compiled plans over the batch's bindings as the benchmark's
``compile_pages`` render path does, to show where work moved. The defaults
are the benchmark's batch sizes:

    PYTHONPATH=src python scripts/count_work.py --seed 1
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import checkout  # noqa: E402

checkout.bootstrap()

import gen  # noqa: E402
from ctxesc.compiler import compile_template, execute_plan  # noqa: E402
from ctxesc.frontend import desugar, parse_template  # noqa: E402
from ctxesc.machine import transition_op_count  # noqa: E402
from ctxesc.runtime import Bindings, render_full  # noqa: E402
from ctxesc.web import machine_for_tag  # noqa: E402


def count_calls(run):
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def count_opcodes(run):
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def trace(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return count


def count(run):
    """One path's row: the counts of a warm pass of ``run``."""
    run()  # warm the table memo, the machine cache and the lowered plan
    before = transition_op_count()
    calls, c_calls = count_calls(run)
    ops = transition_op_count() - before
    return f"{calls:>13,} {c_calls:>10,} {count_opcodes(run):>11,} {ops:>15,}"


def machine_passes(batch, machine):
    """The compile pass over the batch's distinct templates and the dynamic
    pass over its renders."""
    sources = list(dict.fromkeys(source for _, source, _ in batch))
    programs = [(desugar(parse_template(source)[0]), Bindings(values))
                for _, source, values in batch]

    def compile_pass():
        for source in sources:
            compile_template(source)

    def dynamic_pass():
        for program, bindings in programs:
            render_full(program, bindings, machine)

    return (("compile", compile_pass), ("dynamic", dynamic_pass))


def batch_render_pass(batch):
    """The plan render pass over the batch's renders, its plans compiled once."""
    plans = {source: compile_template(source)[0] for _, source, _ in batch}
    renders = [(plans[source], Bindings(values)) for _, source, values in batch]

    def run():
        for plan, bindings in renders:
            execute_plan(plan, bindings)

    return ("render", run)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pages", type=int, default=8)
    ap.add_argument("--page-bytes", type=int, default=4096)
    ap.add_argument("--line-bytes", type=int, default=34 * 1024)
    ap.add_argument("--corpus-values", type=int, default=5)
    ap.add_argument("--list-pages", type=int, default=64)
    args = ap.parse_args()

    batch = gen.compile_batch(args.seed, pages=args.pages, page_bytes=args.page_bytes,
                              line_bytes=args.line_bytes, corpus_values=args.corpus_values)
    machine = machine_for_tag("html")
    plan, _ = compile_template(gen.LIST_TEMPLATE)
    pages = [Bindings(page) for page in gen.list_pages(args.seed, args.list_pages)]

    def render_pass():
        for bindings in pages:
            execute_plan(plan, bindings)

    header = f"{'python calls':>13} {'C calls':>10} {'opcodes':>11} {'transition ops':>15}"
    print(f"seed {args.seed}: {len(set(s for _, s, _ in batch))} templates, "
          f"{len(batch)} renders, {len(pages)} list pages")
    print(f"{'path':<8} {header}")
    for name, run in machine_passes(batch, machine) + (("render", render_pass),):
        print(f"{name:<8} {count(run)}")
    print()
    print(f"{'kind':<7} {'path':<8} {header}")
    for kind in dict.fromkeys(kind for kind, _, _ in batch):
        kind_batch = [t for t in batch if t[0] == kind]
        for name, run in machine_passes(kind_batch, machine) + (batch_render_pass(kind_batch),):
            print(f"{kind:<7} {name:<8} {count(run)}")


if __name__ == "__main__":
    main()
