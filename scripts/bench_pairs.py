#!/usr/bin/env python3
"""Alternating perfbench pairs of two checkouts, merged into one BENCH file.

For every seed and every workload the script runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

once in the parent checkout and once in the change checkout, and swaps
which side goes first from one seed to the next, so that slow drift of
the host lands on both sides alike.  It then runs the Tier-1 tests once in
each checkout and writes one JSON file with:

- per workload, side and metric: the median and quartiles over the
  seeds, of the rescaled metrics and of the raw times (the "raw" block of
  each run record);
- per workload and metric: how many pairs the change won, lost and tied,
  by the direction BENCHMARK.json gives the metric;
- every run's conditions (machine, Python, numpy, reference_nominal_s,
  passes) and its correct / attempted / failed counts;
- the Tier-1 wall time and summary line of each side.

A side is a directory holding a checkout, or a git revision of this
repository, which is exported with ``git archive`` into a temporary
directory first.

Usage:
    python3 scripts/bench_pairs.py --parent b25f053 --change PATH_OR_REV \\
        [--seeds 11 12 ... 20] [--seconds 15] [--out BENCH.json]
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figures", "validate", "critical", "cli_points")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
CONDITION_KEYS = ("machine", "nproc", "cpus_usable", "python", "numpy",
                  "reference_nominal_s", "git_commit", "passes", "call_samples")


def checkout(side: str, workdir: Path, name: str) -> Path:
    """The directory of a side: side itself if it is one, else the git
    revision side of this repository exported into workdir/name."""
    if Path(side).is_dir():
        return Path(side).resolve()
    dest = workdir / name
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", side], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(where: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=where, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {where}:\n{proc.stderr}")
    conditions_line, result_line = proc.stdout.strip().splitlines()[-2:]
    conditions = json.loads(conditions_line)["conditions"]
    result = json.loads(result_line)
    return {
        "seed": seed,
        "conditions": {k: conditions.get(k) for k in CONDITION_KEYS},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": conditions["raw"],
    }


def tier1(where: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=where, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: dict, better: dict) -> dict:
    """Medians, quartiles and pair wins per workload from the paired runs."""
    out = {}
    for workload, pairs in runs.items():
        sides = {}
        for side in ("parent", "change"):
            recs = [pair[side] for pair in pairs]
            sides[side] = {
                block: {k: spread([r[block][k] for r in recs]) for k in recs[0][block]}
                for block in ("metrics", "raw")
            }
            sides[side]["failed"] = sum(r["failed"] for r in recs)
            sides[side]["all_correct"] = all(r["correct"] for r in recs)
        wins = {}
        for block in ("metrics", "raw"):
            for k in pairs[0]["parent"][block]:
                sign = 1.0 if better.get(k, "lower") == "lower" else -1.0
                d = [sign * (p["parent"][block][k] - p["change"][block][k]) for p in pairs]
                wins[f"{block}.{k}"] = {"change_better": sum(x > 0 for x in d),
                                        "change_worse": sum(x < 0 for x in d),
                                        "tied": sum(x == 0 for x in d)}
        out[workload] = {**sides, "pair_wins": wins}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout directory or git revision")
    ap.add_argument("--change", required=True, help="checkout directory or git revision")
    ap.add_argument("--labels", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="names of the two sides in the output (default: --parent, --change)")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(11, 21)))
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        dirs = {"parent": checkout(args.parent, Path(tmp), "parent"),
                "change": checkout(args.change, Path(tmp), "change")}
        better = {m["name"]: m["better"]
                  for m in json.loads((dirs["parent"] / "BENCHMARK.json").read_text())["end_to_end"]}
        runs = {w: [] for w in WORKLOADS}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in WORKLOADS:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(dirs[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{pair[side]['metrics']['wall_s']:.4f}", file=sys.stderr)
                runs[workload].append(pair)
        tier1_wall = {side: tier1(dirs[side]) for side in ("parent", "change")}

    labels = args.labels or [args.parent, args.change]
    record = {
        "sides": {"parent": labels[0], "change": labels[1]},
        "command": "perfbench/run.py --trace 0",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "python": platform.python_version()},
        "order": "pairs alternate which side runs first, seed by seed",
        "summary": summarize(runs, better),
        "tier1": tier1_wall,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
