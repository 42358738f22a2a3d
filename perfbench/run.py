#!/usr/bin/env python3
"""Layered ctxesc benchmark: one workload per run, single process, closed loop.

    python3 perfbench/run.py --workload plan_pages --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
separate traced pass and reports the per-layer metrics. The last line of
standard output is the result as one JSON object. The run's environment,
input properties and every metric are also written to
``.bench_out/result-<workload>-s<seed>-t<trace>.json``, and the traced pass
writes its spans to ``.bench_out/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import checkout


def environment(args) -> dict:
    try:
        commit = subprocess.run(["git", "--git-dir", str(checkout.ROOT / ".git"), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "git_commit": commit,
        "traced": bool(args.trace),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        checkout.bootstrap()
    except checkout.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.SPECS)})", file=sys.stderr)
        return 2

    extra_failures: list[str] = []
    with workloads.Spawner() as spawner:
        wl, setup_times = workloads.set_up(args.workload, args.seed, spawner)
        if args.trace:
            tracer = tracing.Tracer()
            metrics, plain, traced, extra_failures = tracing.traced_pass(
                wl, args.seconds, tracer)
            attempted, failed = workloads.tally(wl, plain, traced)
            machine_ops = metrics["execute_plan.machine_ops"]["value"]
            tracer.dump(checkout.OUT / f"trace-{args.workload}-s{args.seed}.json")
            stat_sets = (plain, traced)
        else:
            stats = workloads.measure(wl, args.seconds, setup_times)
            metrics = workloads.end_to_end(wl, stats, setup_times)
            attempted, failed = workloads.tally(wl, stats)
            machine_ops = stats["render"].machine_ops
            stat_sets = (stats,)
    if machine_ops != 0:
        extra_failures.append(f"execute_plan performed {machine_ops} transition ops")
    attempted += len(extra_failures)
    failed += len(extra_failures)

    errors = list(wl.setup_failures) + extra_failures + [
        f"{path}: {e}" for stats in stat_sets for path, st in stats.items() for e in st.errors]
    for line in errors[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    env = environment(args)
    env["setup_s_each"] = setup_times
    env["inputs"] = workloads.input_properties(wl)
    env["fail_ratio"] = failed / attempted
    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:45s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"env": env}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    path = checkout.OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps({"env": env, "errors": errors, **result}, indent=1),
                    encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
