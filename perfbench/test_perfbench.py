"""Tests of the benchmark's own logic (no timed runs).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import common, layers, serve, sweep, table3
from perfbench.tracing import Span, Tracer

HERE = Path(__file__).resolve().parent


def wire(schedule):
    return [(a.index, a.at, a.kind, a.twin, json.dumps(a.submission.to_wire(), sort_keys=True))
            for a in schedule]


def test_schedule_is_a_function_of_the_seed():
    first, again, other = (serve.build_schedule(seed, 4.0) for seed in (3, 3, 4))
    assert wire(first) == wire(again)
    assert wire(first) != wire(other)
    assert [a.kind for a in first].count("resend") > 0


def test_every_fresh_arrival_has_its_own_cache_key():
    from repro.serve.service import MappingService

    schedule = serve.build_schedule(5, 6.0)
    keys = {a.index: MappingService._build_job(None, a.submission).cache_key() for a in schedule}
    fresh = [keys[a.index] for a in schedule if a.twin is None]
    assert len(fresh) == len(set(fresh))
    for arrival in schedule:
        if arrival.twin is not None:
            assert keys[arrival.index] == keys[arrival.twin]
            assert schedule[arrival.twin].at <= arrival.at - serve.RESEND_AGE


def test_schedule_has_clusters_inside_and_silences_beyond_the_batch_window():
    times = serve.arrival_times(7, 10.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert len(times) == round(serve.RATE * 10.0)
    assert any(gap < 0.025 for gap in gaps) and any(gap > 0.025 for gap in gaps)


def produced_metric_names():
    """Every metric name the workloads can put, literal or generated."""
    names = set()
    for path in HERE.glob("*.py"):
        if not path.name.startswith("test_"):
            names.update(re.findall(r'(?:\.put|p50)\(\s*"([^"]+)"', path.read_text()))
    names.update(f"{span}_ms" for span in layers.CORE_ILP_SPANS)
    names.update(("engine.payload_ms", "io.deserialize_ms", "io.serialize_ms",
                  "engine.fingerprint_ms", "explore.chain_ms", "explore.pareto_ms"))
    names.update(metric for metric, _ in layers.SOLVER_COUNTERS)
    names.update(f"serve.{kind}_p50_ms" for kind in serve.CLASSES)
    names.update(re.findall(r'"(core\.\w+_per_s)"', (HERE / "table3.py").read_text()))
    return names


def test_every_metric_name_is_declared_and_every_declared_name_is_produced():
    declared = set(common.declared_metrics(False)) | set(common.declared_metrics(True))
    produced = produced_metric_names()
    assert produced <= declared, produced - declared
    assert declared <= produced, declared - produced


def test_result_document_refuses_undeclared_metrics_and_fills_unentered_layers():
    outcome = common.Outcome(attempted=1)
    outcome.put("no.such_metric", 1.0, "ms")
    with pytest.raises(common.BenchError):
        common.result_document(outcome, trace=True)
    outcome = common.Outcome(attempted=1)
    outcome.put("serve.boot_ms", 5.0, "ms")
    document = common.result_document(outcome, trace=True)
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["metrics"]["serve.boot_ms"] == {"value": 5.0, "unit": "ms"}
    assert document["metrics"]["engine.ipc_ms"]["value"] == 0.0
    with pytest.raises(common.BenchError):
        common.result_document(common.Outcome(attempted=1), trace=False)


def table3_results(reference):
    labels = sorted(reference)
    results = {}
    for index, label in enumerate(labels):
        exact = reference[label]
        results[(index, "exact")] = (exact, {}, None, 0)
        results[(index, "complete")] = (exact, {}, None, 0)
        results[(index, "fast")] = (exact * 1.01, {}, 0.02, 0)
    return labels, results


def test_table3_check_fails_when_the_reference_is_perturbed():
    reference = table3.reference_objectives()
    outcome = common.Outcome(attempted=1)
    table3.check_pass(outcome, *table3_results(reference), reference)
    assert outcome.correct, outcome.mismatches
    labels, results = table3_results(reference)
    bad = dict(reference, **{labels[0]: reference[labels[0]] * 1.001})
    outcome = common.Outcome(attempted=1)
    table3.check_pass(outcome, labels, results, bad)
    assert not outcome.correct and labels[0] in outcome.mismatches[0]
    outcome = common.Outcome(attempted=1)
    labels, results = table3_results(reference)
    results[(2, "fast")] = (reference[labels[2]] * 1.2, {}, 0.04, 0)
    table3.check_pass(outcome, labels, results, reference)
    assert not outcome.correct


def test_sweep_check_fails_when_the_reference_is_perturbed():
    expected = sweep.expected_objectives()
    points = [SimpleNamespace(label=label, ok=True, objective=value, status="ok", error="")
              for label, value in expected.items()]
    outcome = common.Outcome()
    sweep.check_points(outcome, points, expected)
    assert outcome.correct and outcome.attempted == len(expected) == 96
    victim = next(iter(expected))
    outcome = common.Outcome()
    sweep.check_points(outcome, points, dict(expected, **{victim: expected[victim] + 1e-3}))
    assert not outcome.correct and victim in outcome.mismatches[0]


def test_sweep_specs_cover_the_expected_grid_for_any_seed():
    from repro.explore import ScenarioGrid

    expected = set(sweep.expected_objectives())
    for seed in (0, 1, 99):
        chains = ScenarioGrid.parse(sweep.specs(seed)).chains(seed=sweep.DESIGN_SEED)
        assert {point.label() for chain in chains for point in chain} == expected
    assert sweep.specs(1) != sweep.specs(2)


def test_self_time_and_coverage_of_nested_spans():
    tracer = Tracer()
    tracer.spans = [
        Span("op.x", 0.0, 10.0, None, 1),
        Span("a", 1.0, 5.0, 0, 1),
        Span("b", 2.0, 3.0, 1, 1),
        Span("c", 6.0, 8.0, 0, 1),
        Span("c", 7.0, 9.0, 0, 1),  # overlaps its sibling
        Span("loose", 20.0, 21.0, None, None),
    ]
    self_times = tracer.self_times()
    assert self_times == pytest.approx({"op.x": 3.0, "a": 3.0, "b": 1.0, "c": 4.0, "loose": 1.0})
    assert tracer.coverage() == pytest.approx(0.7)
    assert tracer.counts() == {"op.x": 1, "a": 1, "b": 1, "c": 2, "loose": 1}


class Base:
    def work(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return x * 2


class Child(Base):
    pass


def test_installed_wraps_and_restores_methods_and_module_names():
    module = SimpleNamespace(helper=lambda x: x - 1)
    tracer = Tracer()
    targets = [(Child, "work", "t.work"), (Child, "make", "t.make"), (module, "helper", "t.helper")]
    with tracer.installed(targets):
        with tracer.span("op.one"):
            assert Child().work(1) == 2 and Child.make(2) == 4 and module.helper(3) == 2
    assert [s.name for s in tracer.spans] == ["op.one", "t.work", "t.make", "t.helper"]
    assert all(s.op == 1 and s.parent == 0 for s in tracer.spans[1:])
    assert "work" not in vars(Child) and "make" not in vars(Child)
    assert Child.make(2) == 4 and module.helper(3) == 2


def test_quantile_is_harrell_davis():
    # On 1..n the weights average to q * n + 1/2.
    values = [float(v) for v in range(1, 42)]
    assert common.quantile(values, 0.5) == pytest.approx(21.0)
    assert common.quantile(list(reversed(values)), 0.25) == pytest.approx(0.25 * 41 + 0.5)
    assert common.quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    with pytest.raises(common.BenchError):
        common.quantile([], 0.5)


def test_calibration_scale_is_nominal_over_mean_kernel_time():
    calibration = common.Calibration()
    with pytest.raises(common.BenchError):
        calibration.scale()
    calibration.sample()
    assert calibration.samples[0] > 0.0
    calibration.samples[:] = [0.5 * common.KERNEL_NOMINAL_S, 1.5 * common.KERNEL_NOMINAL_S]
    assert calibration.scale() == pytest.approx(1.0)
