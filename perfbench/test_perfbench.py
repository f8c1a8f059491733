"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hotgate as hg  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 3.0, 6.0, parent=0),   # overlaps a: counted once
        spans.Span("leaf", 1.5, 2.0, parent=1),
        spans.Span("c", 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])


def test_tracer_records_nesting_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, count=lambda r: {"result": r})
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [s.name for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert [s.counts for s in tracer.spans] == [{}, {"result": 2}, {"result": 3}]
    assert all(s.end >= s.start for s in tracer.spans)


def _bindings():
    return {(m.__name__, attr): value
            for m in spans.hotgate_modules() for attr, value in vars(m).items()}


def test_traced_run_leaves_every_original_binding_in_place():
    before = _bindings()
    tracer = spans.Tracer()
    spec = workloads.trap_spec()
    with tracer.installed(layers.targets()):
        assert hg.gate_report is not before[("hotgate", "gate_report")]
        hg.gate_report(spec, 2.0, 0.0, anharmonic_order=None, dims=(12, 10))
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(layers.targets()):
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = [s.name for s in tracer.spans]
    # analysis imports build_mode_basis by name; its binding is wrapped too
    assert {"analysis.gate_report", "gate_protocol.gate_channel",
            "trap_model.build_mode_basis"} <= set(names)
    channel = tracer.spans[names.index("gate_protocol.gate_channel")]
    assert tracer.spans[channel.parent].name == "analysis.gate_report"
    assert channel.counts["columns"] == 1


def test_layer_metrics_cover_every_listed_metric():
    tracer = spans.Tracer()
    with tracer.installed(layers.targets()):
        hg.gate_report(workloads.trap_spec(), 2.0, 0.0, anharmonic_order=None, dims=(12, 10))
    metrics = layers.layer_metrics(tracer.spans, 0.5)
    assert metrics.keys() == layers.metric_units().keys()
    assert metrics["analysis.gate_report.calls"] == 1
    assert metrics["trace.overhead_s"] == 0.5
    assert metrics["gate_protocol.gate_channel.column_levels_per_s"] > 0


def test_a_function_no_longer_exported_records_zero_calls(monkeypatch):
    monkeypatch.setattr(hg, "__all__", [n for n in hg.__all__ if n != "gate_channel"])
    targets = layers.targets()
    assert "gate_protocol.gate_channel" not in targets
    tracer = spans.Tracer()
    with tracer.installed(targets):
        hg.gate_report(workloads.trap_spec(), 2.0, 0.0, anharmonic_order=None, dims=(12, 10))
    metrics = layers.layer_metrics(tracer.spans, 0.0)
    assert metrics["gate_protocol.gate_channel.calls"] == 0
    assert metrics["gate_protocol.gate_channel.column_levels_per_s"] == 0.0
    assert metrics["analysis.gate_report.calls"] == 1


def _reference_points():
    for workload, points in workloads.load_references().items():
        for key, figures in points.items():
            yield workload, key, figures


@pytest.mark.parametrize("workload,key,figures", list(_reference_points()))
def test_checker_passes_references_and_flags_a_1e_6_perturbation(workload, key, figures):
    assert workloads.check_figures(key, dict(figures), figures) == []
    for name in figures:
        perturbed = dict(figures, **{name: figures[name] - 1e-6})
        problems = workloads.check_figures(key, perturbed, figures)
        assert len(problems) >= 1 and problems[0].startswith(name), (workload, key, name)


def test_checker_flags_nan_and_a_missed_golden_point():
    refs = workloads.load_references()["gate_hot"][workloads.GOLDEN_KEY]
    assert workloads.check_figures(workloads.GOLDEN_KEY, {"purity": refs["purity"]}, refs)
    nan = dict(refs, fidelity=math.nan)
    assert workloads.check_figures(workloads.GOLDEN_KEY, nan, refs)


def test_a_failing_op_is_counted_and_named_and_the_pass_goes_on():
    refs = {"a": {"fidelity": 0.5}, "b": {"fidelity": 0.5}, "c": {"fidelity": 0.5}}
    ops = [workloads.Op(["a"], lambda: 1 / 0),
           workloads.Op(["b"], lambda: {"b": {"fidelity": 0.6}}),
           workloads.Op(["c"], lambda: {"c": {"fidelity": 0.5}})]
    lines = []
    assert workloads.run_pass(ops, refs, lines.append) == (3, 2)
    assert lines[0].startswith("FAIL a: ZeroDivisionError")
    assert lines[1].startswith("FAIL b: fidelity=0.6")
    assert lines[2].startswith("ok   c")


def test_seed_only_shuffles_the_points(tmp_path):
    for make in workloads.WORKLOADS.values():
        keys = [sorted(k for op in make(random.Random(s), tmp_path) for k in op.keys)
                for s in range(4)]
        assert all(k == keys[0] for k in keys)


def test_benchmark_manifest_matches_what_the_run_prints():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in manifest["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    assert per_layer == layers.metric_units()
    assert set(workloads.load_references()) == set(workloads.WORKLOADS)
