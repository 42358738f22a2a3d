"""The traced pass: spans around the public calls into each ctxesc module,
layer probes, and the per-layer metrics.

Wrappers are installed into the module attributes the program calls
through, only inside ``Tracer.installed()``, and the originals are put
back on exit; untraced rounds run the modules and the escaper registry
unmodified. Spans are kept in memory and written once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import random
import statistics
import time

import gen
import workloads
from ctxesc import compiler, escapers, machine, runtime, tables
from ctxesc.machine import transition_op_count

# (module, attribute, span name): the public calls spans are recorded around
TARGETS = [
    (compiler, "parse_template", "frontend.parse_template"),
    (compiler, "desugar", "frontend.desugar"),
    (compiler, "propagate", "compiler.propagate"),
    (compiler, "erase", "compiler.erase"),
    (compiler, "plan_to_json", "compiler.plan_to_json"),
    (compiler, "plan_from_json", "compiler.plan_from_json"),
    (compiler, "execute_plan", "compiler.execute_plan"),
    (runtime, "render_full", "runtime.render_full"),
    (machine, "step_fixed", "machine.step_fixed"),
    (machine, "step_interp", "machine.step_interp"),
    (machine, "finish", "machine.finish"),
    (machine, "merge", "machine.merge"),
]
MACHINE_CALLS = ("step_fixed", "step_interp", "finish", "merge")
LAYERS = ("bench", "frontend", "compiler", "machine", "runtime", "cli")
SPAN_FIELDS = ("op", "span", "parent", "name", "start_ns", "end_ns")
OP_FIELDS = ("path", "case", "bytes", "kind", "transition_ops", "pattern_checks")
PROBE_REPS = 5
LINE_BYTES = 34 * 1024


class _Open:
    """An open root span; ``close`` ends it and, for an operation, records
    the transition ops and pattern checks it caused."""

    def __init__(self, tracer, name, op_row):
        self.tracer, self.op_row = tracer, op_row
        self.handle = tracer._open(name)
        self.before = (transition_op_count(), tracer.pattern_checks)

    def close(self):
        self.tracer._close(self.handle)
        if self.op_row is not None:
            self.op_row.append(transition_op_count() - self.before[0])
            self.op_row.append(self.tracer.pattern_checks - self.before[1])


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.ops: list[list] = []
        self.pattern_checks = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _open(self, name):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, name, time.perf_counter_ns()

    def _close(self, handle):
        end = time.perf_counter_ns()
        sid, parent, name, start = handle
        self._stack.pop()
        self.spans.append((self.op_id, sid, parent, name, start, end))

    def op(self, path: str, case: int, nbytes: int, kind: str = "") -> _Open:
        """Start operation ``len(ops)``: a root span ``op.<path>``."""
        self.op_id = len(self.ops)
        row = [path, case, nbytes, kind]
        self.ops.append(row)
        return _Open(self, f"op.{path}", row)

    def check(self) -> _Open:
        """A root span for the current operation's output check."""
        return _Open(self, "check." + self.ops[self.op_id][0], None)

    def _wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op_id, sid, parent, name, start, end))

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        matches = tables.Pattern.matches

        def counted_matches(pattern, context):
            self.pattern_checks += 1
            return matches(pattern, context)

        try:
            for (module, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(module, attr, self._wrap(name, fn))
            tables.Pattern.matches = counted_matches
            yield self
        finally:
            tables.Pattern.matches = matches
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def dump(self, path) -> None:
        doc = {"span_fields": SPAN_FIELDS, "op_fields": OP_FIELDS,
               "ops": self.ops, "spans": self.spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


# -- probes: layer measurements that do not depend on the workload's traffic ----

def _median_ns(fn, reps=PROBE_REPS) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def escaper_probe(seed: int) -> dict:
    rng = random.Random(f"escaper-probe:{seed}")
    corpora = {
        "benign": [f(rng) for _ in range(128) for f in (gen.benign_url, gen.benign_label)],
        "adversarial": gen.adversarial_values(256, seed=rng.randrange(1 << 30)),
    }
    out = {}
    for name in sorted(escapers.known_names()):
        apply = escapers.get(name).apply
        for corpus, values in corpora.items():
            def calls(values=values):
                for value in values:
                    apply(value)
            out[f"escapers.{name}.ns_per_call_{corpus}"] = (
                _median_ns(calls) / len(values), "ns")
    return out


def plan_vs_naive_probe(seed: int, failures: list) -> dict:
    """The C10 ratio: list-template plan render over naive concatenation with
    the same escapers, on the same 100-item pages."""
    plan, _ = compiler.compile_template(gen.LIST_TEMPLATE)
    pages = gen.list_pages(seed, pages=16)
    bindings = [workloads.Bindings(page) for page in pages]
    for b, page in zip(bindings, pages):
        if compiler.execute_plan(plan, b)[0].text != workloads.naive_list(page["items"]):
            failures.append("plan_over_naive: plan render differs from naive")
    plan_ns = _median_ns(lambda: [compiler.execute_plan(plan, b) for b in bindings])
    naive_ns = _median_ns(lambda: [workloads.naive_list(p["items"]) for p in pages])
    return {
        "plan_over_naive": (plan_ns / naive_ns, "ratio"),
        "plan_over_naive.plan_ms": (plan_ns / len(pages) / 1e6, "ms"),
        "plan_over_naive.naive_ms": (naive_ns / len(pages) / 1e6, "ms"),
    }


def _no_escape(value):
    return value if isinstance(value, str) else ""


def walk_probe(wl) -> tuple[dict, int]:
    """execute_plan over every render input once, with the real escapers and
    with identity escapers registered under the same names; the difference
    is escaper time. Also returns the transition ops the renders made."""
    bare = {t.source: compiler.plan_from_json(t.plan_json) for t in wl.templates}
    saved = [escapers.get(name) for name in escapers.known_names()]
    try:
        for esc in saved:
            escapers.register(escapers.Escaper(esc.name, _no_escape))
        for case in wl.cases:  # resolves and caches the identity chains
            compiler.execute_plan(bare[case.template.source], case.bindings)
    finally:
        for esc in saved:
            escapers.register(esc)
    before = transition_op_count()
    full_ns = _median_ns(lambda: [compiler.execute_plan(c.template.plan, c.bindings)
                                  for c in wl.cases])
    walk_ns = _median_ns(lambda: [compiler.execute_plan(bare[c.template.source], c.bindings)
                                  for c in wl.cases])
    return {
        "execute_plan.walk_ms": (walk_ns / 1e6, "ms"),
        "execute_plan.full_ms": (full_ns / 1e6, "ms"),
        "execute_plan.escaper_share": (1.0 - walk_ns / full_ns, "ratio"),
    }, transition_op_count() - before


def cli_probe(spawner, failures: list) -> dict:
    bare, imports = [], []
    for _ in range(PROBE_REPS):
        for args, sink in ((["-c", "pass"], bare), (["-c", "import ctxesc.cli"], imports)):
            elapsed, code, _, err, _ = spawner.run(args)
            if code != 0:
                failures.append(f"cli probe {args}: exit {code}: {err[-300:]!r}")
            sink.append(elapsed)
    bare_ms = statistics.median(bare) * 1e3
    return {"cli.bare_python_ms": (bare_ms, "ms"),
            "cli.import_ms": (statistics.median(imports) * 1e3 - bare_ms, "ms")}


def line_probe(tracer: Tracer, seed: int, failures: list, reps: int = 3) -> None:
    """Traced compiles of one long single-line literal page."""
    source = gen.long_line(random.Random(f"line-probe:{seed}"), LINE_BYTES)
    with tracer.installed():
        for _ in range(reps):
            span = tracer.op("probe_line", 0, len(source.encode("utf-8")), "line")
            plan, diags = compiler.compile_template(source)
            span.close()
            if plan is None:
                failures.append(f"line probe does not compile: {diags[:1]}")


# -- per-layer metrics -----------------------------------------------------------

def _overhead(plain, traced) -> float:
    common = plain.per_case.keys() & traced.per_case.keys()
    if not common:
        return 0.0
    t = sum(min(traced.per_case[i]) for i in common)
    p = sum(min(plain.per_case[i]) for i in common)
    return t / p - 1.0


def layer_metrics(wl, tracer: Tracer, plain: dict, traced: dict) -> dict:
    parents = {s[1]: (s[2], s[3]) for s in tracer.spans}
    roots: dict[int, str] = {}

    def root_of(sid):
        chain = []
        while sid not in roots:
            parent, name = parents[sid]
            if parent == -1:
                roots[sid] = name
                break
            chain.append(sid)
            sid = parent
        for c in chain:
            roots[c] = roots[sid]
        return roots[sid]

    child_ns: dict[int, int] = {}
    for _, sid, parent, _, start, end in tracer.spans:
        if parent != -1:
            child_ns[parent] = child_ns.get(parent, 0) + end - start

    ops = tracer.ops
    dur: dict[tuple[str, str], int] = {}
    calls: dict[tuple[str, str], int] = {}
    per_op: dict[tuple[int, str, str], int] = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    root_ns = 0
    for op, sid, parent, name, start, end in tracer.spans:
        root = root_of(sid)
        key = (root, name)
        dur[key] = dur.get(key, 0) + end - start
        calls[key] = calls.get(key, 0) + 1
        per_op[(op, root, name)] = per_op.get((op, root, name), 0) + end - start
        if root in ("op.render", "op.compile", "op.dynamic", "op.cli"):
            layer = name.split(".")[0] if name != root else (
                "cli" if root == "op.cli" else "bench")
            self_ns[layer] += end - start - child_ns.get(sid, 0)
            if name == root:
                root_ns += end - start

    def rows(path, kinds=None):
        return [(i, r) for i, r in enumerate(ops)
                if r[0] == path and len(r) == 6 and (kinds is None or kinds(r[3]))]

    compiles = rows("compile")
    dynamics = rows("dynamic")
    machine_ops = [r for _, r in compiles + dynamics]

    def batch_ms(root, name):
        """One pass over the compile inputs: each input's mean, summed
        (short inputs run more often than long ones)."""
        by_case: dict[int, list[int]] = {}
        for i, r in compiles:
            by_case.setdefault(r[1], []).append(per_op.get((i, root, name), 0))
        return sum(statistics.mean(v) for v in by_case.values()) / 1e6

    def us_per_byte(selected, root):
        nbytes = sum(r[2] for _, r in selected)
        return sum(per_op.get((i, root, "compiler.propagate"), 0)
                   for i, _ in selected) / 1e3 / nbytes

    tops = sum(r[4] for r in machine_ops)
    compile_ns = dur.get(("op.compile", "op.compile"), 0)
    out = {
        "frontend.parse_ms": (batch_ms("op.compile", "frontend.parse_template"), "ms"),
        "frontend.desugar_ms": (batch_ms("op.compile", "frontend.desugar"), "ms"),
        "propagate.us_per_byte_pages": (
            us_per_byte(rows("compile", lambda k: k != "line"), "op.compile"), "us/B"),
        "propagate.us_per_byte_line": (us_per_byte(rows("probe_line"), "op.probe_line"),
                                       "us/B"),
        "propagate.share": (dur.get(("op.compile", "compiler.propagate"), 0) / compile_ns,
                            "ratio"),
        "machine.ops_per_byte": (sum(r[4] for _, r in compiles)
                                 / sum(r[2] for _, r in compiles), "ops/B"),
        "tables.pattern_checks_per_op": (sum(r[5] for r in machine_ops) / max(1, tops),
                                         "checks/op"),
        "compiler.erase_ms": (batch_ms("op.compile", "compiler.erase"), "ms"),
        "compiler.plan_to_json_ms": (batch_ms("op.compile", "compiler.plan_to_json"), "ms"),
        "compiler.plan_from_json_ms": (batch_ms("check.compile", "compiler.plan_from_json"),
                                       "ms"),
        "runtime.ops_per_render": (sum(r[4] for _, r in dynamics) / max(1, len(dynamics)),
                                   "count"),
        "runtime.us_per_op": (dur.get(("op.dynamic", "runtime.render_full"), 0) / 1e3
                              / max(1, sum(r[4] for _, r in dynamics)), "us"),
        "escapers.changed_ratio": (sum(c.changed for c in wl.cases)
                                   / max(1, sum(c.sites for c in wl.cases)), "ratio"),
    }
    for fn in MACHINE_CALLS:
        name = f"machine.{fn}"
        n = sum(calls.get((root, name), 0) for root in ("op.compile", "op.dynamic"))
        ns = sum(dur.get((root, name), 0) for root in ("op.compile", "op.dynamic"))
        out[f"{name}.calls_per_op"] = (n / max(1, len(machine_ops)), "count")
        out[f"{name}.us_per_call"] = (ns / 1e3 / n if n else 0.0, "us")
    for layer in LAYERS:
        out[f"self_share.{layer}"] = (self_ns[layer] / root_ns, "ratio")
    for path in workloads.PATHS:
        out[f"trace.overhead_ratio.{path}"] = (_overhead(plain[path], traced[path]), "ratio")
    return out


def traced_pass(wl, seconds: float, tracer: Tracer):
    """Probes, then rounds that alternate untraced and traced. Returns
    (per-layer metrics, untraced stats, traced stats, probe failures)."""
    failures: list[str] = []
    start = time.perf_counter()
    metrics = {}
    metrics.update(escaper_probe(wl.seed))
    metrics.update(plan_vs_naive_probe(wl.seed, failures))
    walk, walk_ops = walk_probe(wl)
    metrics.update(walk)
    metrics.update(cli_probe(wl.spawner, failures))
    line_probe(tracer, wl.seed, failures)
    remaining = max(seconds - (time.perf_counter() - start), seconds / 2)
    plain, traced = workloads.new_stats(), workloads.new_stats()
    start = time.perf_counter()
    r = 0
    while r < 2 or time.perf_counter() - start < remaining:
        if r % 2:
            with tracer.installed():
                workloads.run_round(wl, r, remaining / workloads.ROUNDS, traced, tracer)
        else:
            workloads.run_round(wl, r, remaining / workloads.ROUNDS, plain)
        r += 1
    metrics.update(layer_metrics(wl, tracer, plain, traced))
    metrics["execute_plan.machine_ops"] = (
        plain["render"].machine_ops + traced["render"].machine_ops + walk_ops, "count")
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            plain, traced, failures)
