"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import checkout

checkout.bootstrap()

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ctxesc import compiler, escapers, machine, runtime, tables  # noqa: E402
from ctxesc.diagnostics import has_errors  # noqa: E402


def test_generators_are_deterministic_per_seed():
    for make in (lambda s: gen.list_pages(s, pages=2),
                 lambda s: gen.compile_batch(s, pages=2, page_bytes=1024, line_bytes=2048,
                                                   corpus_values=2)):
        assert make(7) == make(7)
        assert make(7) != make(8)
    assert gen.adversarial_values(300, seed=3) == gen.adversarial_values(300, seed=3)


def test_joined_pages_compile_without_errors():
    for seed in range(3):
        batch = gen.compile_batch(seed, pages=8, page_bytes=4096, line_bytes=34 * 1024,
                                  corpus_values=1)
        pages = [(kind, source) for kind, source, _ in batch if kind in ("page", "line")]
        assert len(pages) == 9
        for kind, source in pages:
            assert len(source.encode("utf-8")) >= (4096 if kind == "page" else 34 * 1024)
            plan, diags = compiler.compile_template(source)
            assert plan is not None and not has_errors(diags), [str(d) for d in diags]


def test_injected_mismatch_raises_fail_ratio():
    with workloads.Spawner() as spawner:
        wl, setup_times = workloads.set_up("plan_pages", seed=1, spawner=spawner)
        assert workloads.tally(wl) == (wl.setup_attempted, 0)
        for case in (wl.inputs["render"][0], wl.inputs["dynamic"][0]):
            case.expected = (case.expected[0] + "tampered", case.expected[1])
        stats = workloads.measure(wl, 0.5, setup_times)
    metrics = workloads.end_to_end(wl, stats, setup_times)
    attempted, failed = workloads.tally(wl, stats)
    assert failed > 0
    assert metrics["ok_ratio"]["value"] == 1.0 - failed / attempted < 1.0
    for path in ("render", "dynamic", "cli"):
        assert stats[path].failed > 0


def _program_state():
    registry = {name: escapers.get(name) for name in escapers.known_names()}
    attrs = {(module.__name__, attr): getattr(module, attr)
             for module, attr, _ in tracing.TARGETS}
    return registry, attrs, tables.Pattern.matches


def test_traced_pass_restores_the_program():
    before = _program_state()
    with workloads.Spawner() as spawner:
        wl, _ = workloads.set_up("plan_pages", seed=2, spawner=spawner)
        tracer = tracing.Tracer()
        metrics, plain, traced, failures = tracing.traced_pass(wl, 0.5, tracer)
    assert failures == []
    assert _program_state() == before
    assert metrics["execute_plan.machine_ops"]["value"] == 0
    assert traced["render"].attempted > 0 and plain["render"].attempted > 0
    names = {span[3] for span in tracer.spans}
    assert {"op.render", "compiler.execute_plan", "compiler.propagate",
            "runtime.render_full", "machine.step_fixed"} <= names
    assert runtime.render_full is before[1][("ctxesc.runtime", "render_full")]
    assert machine.step_fixed is before[1][("ctxesc.machine", "step_fixed")]
