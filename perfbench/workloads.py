"""Workload set-up, the four measured paths, and the end-to-end metrics.

Every workload runs all four paths on its own inputs, because every run
reports every end-to-end metric:

- ``render``: ``execute_plan`` of a plan compiled in set-up;
- ``compile``: ``compile_template`` + ``plan_to_json`` of a fresh template;
- ``dynamic``: ``runtime.render_full`` of the desugared program;
- ``cli``: ``python -m ctxesc render plan.json --bindings data.json`` as one
  child process.

The four paths share the measured time equally and are interleaved in
rounds, so that drift on a shared machine hits all of them alike. Each
operation is checked against a reference outside its timed region; a failed
check, an exception or a non-zero exit counts as a failed operation.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import gen
from checkout import GOLDEN, OUT, ROOT, SRC
from ctxesc import compiler, frontend, runtime, web
from ctxesc.compiler import PlanFor, PlanIf, PlanInterp
from ctxesc.escapers import apply_chain, escape_html_attr, escape_pcdata, filter_url_prefix
from ctxesc.machine import transition_op_count
from ctxesc.runtime import Bindings
from ctxesc.values import EscapeError, stringify, truthy

PATHS = ("render", "compile", "dynamic", "cli")
ROUNDS = 20
SETUP_REPS = 5
CLI_INPUTS = 2
# one visit to an input runs it up to VISIT_RUNS times, until VISIT_S have
# passed: fast moments on a contended host are a few ms long, and a short
# operation needs several tries to land in one
VISIT_RUNS = 8
VISIT_S = 0.003
CLI_TIMEOUT_S = 60.0


def _plan_pages(seed):
    pages = gen.list_pages(seed, pages=64)
    # the dynamic engine takes 50-90 ms on a 100-item page, long enough for
    # host contention to decide its time; it renders the first two items of
    # 16 pages instead
    return ([("list", gen.LIST_TEMPLATE, page) for page in pages],
            [("list", gen.LIST_TEMPLATE, {"items": page["items"][:2]}) for page in pages[:16]])


def _compile_pages(seed):
    # five values per corpus template keep the render and dynamic
    # percentiles on the corpus, not on which value a seed happened to draw
    batch = gen.compile_batch(seed, pages=8, page_bytes=4096, line_bytes=34 * 1024,
                              corpus_values=5)
    return batch, batch


# workload -> its inputs as (kind, source, bindings) triples: those of every
# path, and those of the dynamic path
SPECS = {"plan_pages": _plan_pages, "compile_pages": _compile_pages}


@dataclass
class Template:
    kind: str
    source: str
    nbytes: int
    plan: compiler.CompiledPlan
    program: frontend.AppendProgram
    plan_json: str
    reference_json: str  # the golden file for the list template


@dataclass
class Case:
    template: Template
    values: dict
    bindings: Bindings
    expected: tuple  # (text, marks) of the plan render checked in set-up
    items: int
    sites: int
    changed: int
    cli: tuple[str, str] | None = None


@dataclass
class Workload:
    name: str
    seed: int
    machine: object
    templates: list[Template]
    cases: list[Case]
    spawner: Spawner
    inputs: dict = field(default_factory=dict)  # path -> what one pass runs
    setup_attempted: int = 0
    setup_failures: list[str] = field(default_factory=list)


@dataclass
class PathStats:
    per_case: dict = field(default_factory=dict)  # input index -> seconds of each run
    attempted: int = 0
    failed: int = 0
    machine_ops: int = 0
    rss_kb: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def record(self, idx: int, seconds: float, ok: bool, error: str | None = None):
        self.attempted += 1
        if ok:
            self.per_case.setdefault(idx, []).append(seconds)
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error or "output differs from its reference")

    def best(self) -> dict[int, float]:
        """Each input's fastest run."""
        return {idx: min(ts) for idx, ts in self.per_case.items()}


def new_stats() -> dict[str, PathStats]:
    return {path: PathStats() for path in PATHS}


# -- references ----------------------------------------------------------------

def naive_list(items) -> str:
    """The list template by hand: concatenation with the same escapers."""
    parts = ["<ul>\n"]
    append = parts.append
    for item in items:
        append('  <li><a href="')
        append(escape_html_attr(filter_url_prefix(item["url"])))
        append('">')
        append(escape_pcdata(item["label"]))
        append("</a></li>\n")
    append("</ul>\n")
    return "".join(parts)


def site_stats(plan, values) -> tuple[int, int, int]:
    """(loop items, interpolated values, values an escaper chain changed)
    for one render of ``plan`` against ``values``."""
    counts = [0, 0, 0]

    def lookup(segs, frames):
        for frame in reversed(frames):
            if segs[0] in frame:
                cur = frame[segs[0]]
                break
        else:
            if segs[0] not in values:
                return None
            cur = values[segs[0]]
        for seg in segs[1:]:
            if not (isinstance(cur, dict) and seg in cur):
                return None
            cur = cur[seg]
        return cur

    def walk(nodes, frames):
        for node in nodes:
            if isinstance(node, PlanInterp):
                value = lookup(node.path.split("."), frames)
                try:
                    raw = stringify(value)
                except EscapeError:
                    raw = None
                counts[1] += 1
                counts[2] += apply_chain(node.escapers, value) != raw
            elif isinstance(node, PlanFor):
                for item in lookup(node.path.split("."), frames):
                    counts[0] += 1
                    walk(node.body, frames + [{node.var: item}])
            elif isinstance(node, PlanIf):
                cond = truthy(lookup(node.path.split("."), frames))
                walk(node.then if cond else node.els, frames)

    walk(plan.body, [])
    return counts[0], counts[1], counts[2]


# -- set-up --------------------------------------------------------------------

def _setup_once(name: str, seed: int, spawner: Spawner) -> Workload:
    web.html_machine.cache_clear()
    machine = web.html_machine()
    triples, dynamic_triples = SPECS[name](seed)
    wl = Workload(name, seed, machine, [], [], spawner)
    golden = GOLDEN.read_text(encoding="utf-8")
    by_source: dict[str, Template] = {}
    for kind, source, _ in triples + dynamic_triples:
        if source in by_source:
            continue
        wl.setup_attempted += 1
        plan, diags = compiler.compile_template(source)
        if plan is None:
            wl.setup_failures.append(f"{kind} template does not compile: {diags[:1]}")
            continue
        program = frontend.desugar(frontend.parse_template(source)[0])
        plan_json = compiler.plan_to_json(plan)
        reference = golden if source == gen.LIST_TEMPLATE else plan_json
        if plan_json != reference:
            wl.setup_failures.append("list template plan differs from the golden plan")
            continue
        by_source[source] = Template(kind, source, len(source.encode("utf-8")), plan,
                                     program, plan_json, reference)
    wl.templates = list(by_source.values())

    def cases(triples):
        out = []
        for kind, source, values in triples:
            template = by_source.get(source)
            if template is None:
                continue
            wl.setup_attempted += 1
            bindings = Bindings(values)
            try:
                value, marks = compiler.execute_plan(template.plan, bindings)
            except Exception:  # noqa: BLE001 - any render failure fails the case
                wl.setup_failures.append(traceback.format_exc(limit=3))
                continue
            if kind == "list" and value.text != naive_list(values["items"]):
                wl.setup_failures.append("plan render differs from naive concatenation")
                continue
            out.append(Case(template, values, bindings, (value.text, marks),
                            *site_stats(template.plan, values)))
        return out

    wl.cases = cases(triples)
    dynamic = wl.cases if dynamic_triples is triples else cases(dynamic_triples)
    wl.inputs = {"render": wl.cases, "compile": wl.templates,
                 "dynamic": dynamic, "cli": wl.cases[:CLI_INPUTS]}
    folder = OUT / "cli" / wl.name
    folder.mkdir(parents=True, exist_ok=True)
    for i, case in enumerate(wl.inputs["cli"]):
        plan_path, data_path = folder / f"plan{i}.json", folder / f"data{i}.json"
        plan_path.write_text(case.template.plan_json, encoding="utf-8")
        data_path.write_text(gen.bindings_to_json(case.values), encoding="utf-8")
        case.cli = (str(plan_path), str(data_path))
    return wl


def _set_up_timed(name: str, seed: int, spawner: Spawner) -> tuple[Workload, float]:
    """Build the workload from cold tables and warm every path once (plan
    executor caches, escaper lookup, CLI bytecode)."""
    start = time.perf_counter()
    wl = _setup_once(name, seed, spawner)
    warm = new_stats()
    for path in PATHS:
        OPS[path](wl, 0, warm[path], None)
    elapsed = time.perf_counter() - start
    for path, st in warm.items():
        wl.setup_attempted += st.attempted
        wl.setup_failures.extend(f"{path}: {e}" for e in st.errors)
    return wl, elapsed


def set_up(name: str, seed: int, spawner: Spawner) -> tuple[Workload, list[float]]:
    """The workload, and the seconds its set-up took, as the first of the
    set-up times ``measure`` adds to."""
    wl, elapsed = _set_up_timed(name, seed, spawner)
    gc.collect()
    gc.freeze()  # the collector need not rescan set-up data in timed regions
    return wl, [elapsed]


# -- the four paths ------------------------------------------------------------

def op_render(wl: Workload, idx: int, stats: PathStats, tracer) -> None:
    case = wl.inputs["render"][idx]
    span = tracer.op("render", idx, case.template.nbytes) if tracer else None
    try:
        before = transition_op_count()
        start = time.perf_counter()
        value, marks = compiler.execute_plan(case.template.plan, case.bindings)
        elapsed = time.perf_counter() - start
        stats.machine_ops += transition_op_count() - before
    except Exception:  # noqa: BLE001 - a raising render is a failed operation
        stats.record(idx, 0.0, False, traceback.format_exc(limit=3))
        return
    finally:
        if span:
            span.close()
    stats.record(idx, elapsed, (value.text, marks) == case.expected)


def op_compile(wl: Workload, idx: int, stats: PathStats, tracer) -> None:
    template = wl.inputs["compile"][idx]
    span = tracer.op("compile", idx, template.nbytes, template.kind) if tracer else None
    try:
        start = time.perf_counter()
        plan, _ = compiler.compile_template(template.source)
        plan_json = compiler.plan_to_json(plan)
        elapsed = time.perf_counter() - start
    except Exception:  # noqa: BLE001
        stats.record(idx, 0.0, False, traceback.format_exc(limit=3))
        return
    finally:
        if span:
            span.close()
    check = tracer.check() if tracer else None
    try:
        ok = (plan_json == template.reference_json
              and compiler.plan_to_json(compiler.plan_from_json(plan_json)) == plan_json)
    except Exception:  # noqa: BLE001
        ok = False
    finally:
        if check:
            check.close()
    stats.record(idx, elapsed, ok)


def op_dynamic(wl: Workload, idx: int, stats: PathStats, tracer) -> None:
    case = wl.inputs["dynamic"][idx]
    span = tracer.op("dynamic", idx, case.template.nbytes) if tracer else None
    try:
        start = time.perf_counter()
        value, marks, _ = runtime.render_full(case.template.program, case.bindings, wl.machine)
        elapsed = time.perf_counter() - start
    except Exception:  # noqa: BLE001
        stats.record(idx, 0.0, False, traceback.format_exc(limit=3))
        return
    finally:
        if span:
            span.close()
    stats.record(idx, elapsed, (value.text, marks) == case.expected)


class Spawner:
    """A small helper process (``spawner.py``) that starts every child
    process, so that each child's peak RSS is its own."""

    def __init__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py")),
             str(OUT / "child-stderr.txt")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, encoding="utf-8")

    def run(self, args: list[str]) -> tuple[float, int, str, str, int]:
        """Run the interpreter with ``args``. Returns (wall seconds, exit
        code, stdout, stderr if it failed, peak RSS in KiB)."""
        self._proc.stdin.write(json.dumps(args) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise OSError(f"spawner exited with {self._proc.poll()}")
        r = json.loads(line)
        return r["elapsed"], r["code"], r["out"], r["err"], r["maxrss_kb"]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def op_cli(wl: Workload, idx: int, stats: PathStats, tracer) -> None:
    case = wl.inputs["cli"][idx]
    plan_path, data_path = case.cli
    span = tracer.op("cli", idx, case.template.nbytes) if tracer else None
    try:
        elapsed, code, out, err, rss = wl.spawner.run(
            ["-m", "ctxesc", "render", plan_path, "--bindings", data_path])
    except OSError:
        stats.record(idx, 0.0, False, traceback.format_exc(limit=3))
        return
    finally:
        if span:
            span.close()
    ok = code == 0 and out == case.expected[0]
    if ok:
        stats.rss_kb.append(rss)
    stats.record(idx, elapsed, ok, None if ok else f"exit {code}: {err[-500:]}")


OPS = {"render": op_render, "compile": op_compile, "dynamic": op_dynamic, "cli": op_cli}


# -- measurement ---------------------------------------------------------------

def run_round(wl: Workload, r: int, seconds: float, stats: dict, tracer=None) -> None:
    """One round: every path, in an order rotated by ``r``, runs whole
    passes over its inputs for a quarter of ``seconds``, at least one pass;
    so every input of a path is visited equally often."""
    order = PATHS[r % len(PATHS):] + PATHS[:r % len(PATHS)]
    for path in order:
        budget = seconds / len(PATHS)
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for idx in range(len(wl.inputs[path])):
                visit_start = time.perf_counter()
                for _ in range(VISIT_RUNS):
                    OPS[path](wl, idx, stats[path], tracer)
                    if time.perf_counter() - visit_start >= VISIT_S:
                        break
            now = time.perf_counter()
            if now - start + (now - pass_start) > budget:
                break


def measure(wl: Workload, seconds: float, setup_times: list[float]) -> dict[str, PathStats]:
    """Rounds of ``seconds / ROUNDS`` nominal length until ``seconds`` are
    used; a round whose passes overrun their shares only means fewer
    rounds. Between rounds the workload is set up again, and timed, until
    ``setup_times`` holds ``SETUP_REPS`` set-ups spread over the run: on a
    shared host a set-up timed only at the start of a run would measure
    whatever that second of the host was like."""
    stats = new_stats()
    start = time.perf_counter()
    r = 0
    while True:
        round_start = time.perf_counter()
        run_round(wl, r, seconds / ROUNDS, stats)
        r += 1
        now = time.perf_counter()
        if (len(setup_times) < SETUP_REPS
                and now - start >= len(setup_times) * seconds / SETUP_REPS):
            again, elapsed = _set_up_timed(wl.name, wl.seed, wl.spawner)
            setup_times.append(elapsed)
            wl.setup_attempted += again.setup_attempted
            wl.setup_failures.extend(again.setup_failures)
        if now - start + (now - round_start) / 2 >= seconds:
            return stats


# -- metrics -------------------------------------------------------------------

def pct(values, q: int) -> float:
    """The q-th percentile (1..99), interpolated between values."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tally(wl: Workload, *stat_sets) -> tuple[int, int]:
    attempted = wl.setup_attempted + sum(st.attempted for s in stat_sets for st in s.values())
    failed = len(wl.setup_failures) + sum(st.failed for s in stat_sets for st in s.values())
    return attempted, failed


def end_to_end(wl: Workload, stats: dict[str, PathStats], setup_times) -> dict:
    """Times are each input's fastest run, and percentiles are taken over
    inputs: on a shared host, contention slows most runs of an operation by
    up to ~1.7x for seconds at a time, and the fastest of many runs is the
    estimate of the operation's own cost that stays put between runs."""
    r, c, d, k = (stats[p].best() for p in PATHS)
    attempted, failed = tally(wl, stats)

    def per_second(best, work):
        total = sum(best.values())
        return sum(work(i) for i in best) / total if total else float("nan")

    rss = stats["cli"].rss_kb
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "render_ms_p50": (pct(r.values(), 50) * 1e3, "ms"),
        "render_ms_p90": (pct(r.values(), 90) * 1e3, "ms"),
        "render_items_per_s": (per_second(r, lambda i: wl.inputs["render"][i].sites),
                               "values/s"),
        "compile_kb_per_s": (per_second(c, lambda i: wl.inputs["compile"][i].nbytes) / 1e3,
                             "KB/s"),
        "compile_ms_p50": (pct(c.values(), 50) * 1e3, "ms"),
        "plan_json_kb": (sum(len(t.plan_json.encode("utf-8")) for t in wl.templates) / 1e3,
                         "KB"),
        "dynamic_renders_per_s": (per_second(d, lambda i: 1), "1/s"),
        "dynamic_ms_p90": (pct(d.values(), 90) * 1e3, "ms"),
        "cli_render_ms_p50": (pct(k.values(), 50) * 1e3, "ms"),
        "cli_render_ms_p90": (pct(k.values(), 90) * 1e3, "ms"),
        "cli_peak_rss_mb": (statistics.median(rss) / 1024 if rss else float("nan"), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def input_properties(wl: Workload) -> dict:
    sites = sum(c.sites for c in wl.cases)
    return {
        "templates": len(wl.templates),
        "template_bytes": sum(t.nbytes for t in wl.templates),
        "template_kinds": sorted({t.kind for t in wl.templates}),
        "pages": len(wl.cases),
        "items": sum(c.items for c in wl.cases),
        "items_per_page": sum(c.items for c in wl.cases) / len(wl.cases),
        "interpolated_values": sites,
        "escaped_value_share": sum(c.changed for c in wl.cases) / sites if sites else 0.0,
        "inputs_per_pass": {path: len(inputs) for path, inputs in wl.inputs.items()},
    }
