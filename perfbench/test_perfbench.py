"""Tests of the benchmark's own arithmetic: span self times, the recorder,
the tail rule and the metric lists.  Run with

    python3 -m pytest perfbench
"""

import json
import statistics
import types
from pathlib import Path

import pytest

import layers
import run
import spans


def _tree():
    # root [0, 10] with children a [1, 4], b [3, 6] (overlapping a) and
    # c [8, 12] (ending after root); a has one child a1 [2, 3]
    return [
        spans.Span("root", 0.0, 10.0, -1, "m"),
        spans.Span("a", 1.0, 4.0, 0, "m"),
        spans.Span("a1", 2.0, 3.0, 1, "m"),
        spans.Span("b", 3.0, 6.0, 0, "m"),
        spans.Span("c", 8.0, 12.0, 0, "m"),
    ]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 7
    assert spans.self_times(_tree()) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_self_times_of_nested_sequential_spans_sum_to_the_root_duration():
    tree = [spans.Span("root", 0.0, 5.0, -1, "m"),
            spans.Span("x", 0.5, 1.5, 0, "m"),
            spans.Span("y", 2.0, 4.5, 0, "m"),
            spans.Span("z", 2.5, 3.0, 2, "m")]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([1.5, 1.0, 2.0, 0.5])
    assert sum(selfs) == pytest.approx(5.0)


def test_aggregate_totals_per_name_and_parent():
    tree = _tree() + [spans.Span("a", 6.5, 7.0, 0, "n", error=True)]
    agg = spans.Aggregate.of(tree)
    assert agg.calls["a"] == 2
    assert agg.self_s["a"] == pytest.approx(2.5)
    assert agg.incl_s["a"] == pytest.approx(3.5)
    assert agg.by_parent["a", "root"] == 2
    assert agg.ok_by_parent["a", "root"] == 1
    assert agg.by_caller["a", "n"] == 1
    assert agg.total_self_s == pytest.approx(13.0)


def test_recorder_wraps_every_reference_and_restores_them():
    def leaf():
        return 1

    first = types.ModuleType("first")
    second = types.ModuleType("second")
    first.leaf = second.alias = leaf

    def outer():
        return second.alias() + 1

    first.outer = outer
    recorder = spans.Recorder()
    recorder.install({"first.leaf": leaf, "first.outer": outer}, [first, second])
    try:
        assert first.outer() == 2
        with pytest.raises(TypeError):
            first.leaf(1)
    finally:
        recorder.uninstall()
    assert first.leaf is leaf and second.alias is leaf and first.outer is outer
    recorded = recorder.take()
    assert [(s.name, s.parent, s.error) for s in recorded] == [
        ("first.outer", -1, False), ("first.leaf", 0, False), ("first.leaf", -1, True)]
    assert recorded[0].caller == __name__
    assert recorder.spans == []


def test_every_run_has_ten_samples_beyond_the_tail_percentile(tmp_path):
    lib = run.load_library()
    for cls in run.workloads.WORKLOADS.values():
        wl = cls(lib, 1, tmp_path)
        assert wl.min_passes * len(wl.calls) * (100.0 - wl.tail_percentile) / 100.0 >= 10.0


def test_percentile_is_nearest_rank():
    assert run.percentile(list(range(1, 46)), 75.0) == 34
    assert run.percentile(list(range(1, 1001)), 99.0) == 990
    assert run.percentile([3.0], 50.0) == 3.0


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS]
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads.WORKLOADS)

    records = [types.SimpleNamespace(calls=[0.1, 0.2], raw=[0.1, 0.2]) for _ in range(3)]
    wl = types.SimpleNamespace(points=10, tail_percentile=90.0)
    metrics, _ = run.end_to_end(wl, ([0.1], [0.1]), records)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert metrics["wall_s"]["value"] == pytest.approx(0.3)
    assert metrics["call_p50_ms"]["value"] == pytest.approx(1e3 * statistics.median([0.1, 0.2]))
