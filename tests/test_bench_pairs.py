"""scripts/bench_pairs.py: the medians, quartiles and pair wins that every
committed BENCH_*.json holds come from its summarize and spread."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_script()
BETTER = {m["name"]: m["better"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _run(wall_s, points_per_s, raw_s, failed=0):
    return {"correct": failed == 0, "failed": failed,
            "metrics": {"wall_s": wall_s, "points_per_s": points_per_s},
            "raw": {"pass_s": raw_s}}


def _pair(seed, parent, change):
    return {"seed": seed, "first": "parent", "parent": _run(*parent), "change": _run(*change)}


def test_summarize_counts_pair_wins_by_the_benchmark_direction():
    assert (BETTER["wall_s"], BETTER["points_per_s"]) == ("lower", "higher")
    pairs = [
        _pair(11, (1.0, 100.0, 0.5), (0.9, 110.0, 0.5)),    # change faster on both
        _pair(12, (1.0, 100.0, 0.5), (1.2, 90.0, 0.4)),     # change slower on both
        _pair(13, (1.0, 100.0, 0.5), (1.0, 100.0, 0.6, 1)),  # ties, one failure
    ]
    summary = bench_pairs.summarize({"figures": pairs}, BETTER)["figures"]
    wins = summary["pair_wins"]
    assert wins["metrics.wall_s"] == {"change_better": 1, "change_worse": 1, "tied": 1}
    assert wins["metrics.points_per_s"] == {"change_better": 1, "change_worse": 1, "tied": 1}
    # a metric BENCHMARK.json does not name counts as lower-is-better
    assert wins["raw.pass_s"] == {"change_better": 1, "change_worse": 1, "tied": 1}
    assert summary["parent"]["failed"] == 0 and summary["parent"]["all_correct"]
    assert summary["change"]["failed"] == 1 and not summary["change"]["all_correct"]
    assert summary["change"]["metrics"]["wall_s"]["median"] == 1.0
    assert summary["parent"]["raw"]["pass_s"]["n"] == 3


def test_spread_returns_inclusive_quartiles():
    # inclusive quartiles of 1..5 are the 2nd and 4th values; the exclusive
    # method would give 1.5 and 4.5
    assert bench_pairs.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench_pairs.spread([1.0, 2.0, 3.0, 10.0]) == pytest.approx(
        {"median": 2.5, "q1": 1.75, "q3": 4.75, "n": 4})
