"""Benchmark of the qutritxxz library: one workload, one run.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the library from ``src``.
A run measures the import time of fresh interpreters (``setup_s``), warms
up, then repeats one pass of the workload's fixed work until ``--seconds``
have passed, checking each pass's outputs outside the timed region.
Times are rescaled to a nominal host speed (see calibrate.py); the raw
times are kept in the run record.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced passes and passes with a span
recorder around the library's public functions, and reports the
per-layer metrics of layers.py, which are raw span times and counts, plus
the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's conditions.  The run record, and the spans of the last traced pass,
are written to ``perfbench/out/``.
"""

import os

# one BLAS thread, set before numpy is imported by this process or its children
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
MIN_TRACED_PASSES = 3
EIG_ROUTINES = ("eig", "eigh", "eigvals", "eigvalsh")

clock = time.perf_counter


def load_library():
    """The library's modules, imported from this checkout's ``src``."""
    if not (SRC / "qutritxxz" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library source at {SRC / 'qutritxxz'}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"qutritxxz.{m}") for m in layers.LIBRARY_MODULES}
    package = sys.modules["qutritxxz"]
    if Path(package.__file__).resolve().parent != (SRC / "qutritxxz").resolve():
        raise SystemExit(f"benchmark: qutritxxz imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(package=package, **mods)


def measure_setup():
    """Raw and rescaled seconds for a fresh interpreter to import qutritxxz,
    SETUP_REPEATS times after one untimed import that fills the bytecode and
    file caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # time imports from bytecode, as installed
    raw, rescaled = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, str(HERE / "import_probe.py")], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        timing, where = proc.stdout.splitlines()[:2]
        if Path(where).resolve().parent != (SRC / "qutritxxz").resolve():
            raise SystemExit(f"benchmark: child imported qutritxxz from {where}")
        seconds, before, after = map(float, timing.split())
        if i:
            raw.append(seconds)
            rescaled.append(calibrate.rescale(seconds, before, after))
    return raw, rescaled


def timed_pass(calls):
    """Run every call once, with a host-speed sample before and after each;
    return the raw and the rescaled time of every call, and its result."""
    refs = [calibrate.sample()]
    raw, results = [], []
    for call in calls:
        t0 = clock()
        try:
            res = call()
        except Exception as exc:  # a failing call is a failed item, not a crash
            res = workloads.CallFailed(exc)
        raw.append(clock() - t0)
        results.append(res)
        refs.append(calibrate.sample())
    rescaled = [calibrate.rescale(t, a, b) for t, a, b in zip(raw, refs, refs[1:])]
    return raw, rescaled, results


def run_passes(lib, wl, seconds, outcome, pattern, min_passes):
    """Repeat passes for ``seconds`` (at least ``min_passes`` rounds of
    ``pattern``), checking each one afterwards.  ``pattern`` says which
    passes of a round are traced; alternating traced and untraced passes
    lets both see the same changes of host speed.  Returns one record per
    pass."""
    import numpy as np

    namespaces = [lib.package, *(getattr(lib, m) for m in layers.LIBRARY_MODULES)]
    eig_targets = {f"numpy.linalg.{n}": getattr(np.linalg, n) for n in EIG_ROUTINES}
    targets = {name: getattr(getattr(lib, name.split(".")[0]), name.split(".")[1])
               for name in layers.SPAN_TARGETS}
    guard, recorder = spans.Recorder(), spans.Recorder()
    records = []
    deadline = clock() + seconds
    while True:
        traced = pattern[len(records) % len(pattern)]
        guard.install(eig_targets, [np.linalg, *namespaces])
        recorder.install(targets if traced else {}, namespaces)
        try:
            raw, rescaled, results = timed_pass(wl.calls)
        finally:
            recorder.uninstall()
            guard.uninstall()
        eig_calls = len(guard.take())
        for _ in range(eig_calls):
            outcome.item(False, "numpy.linalg eigenroutine called in the library path")
        wl.check(outcome, results)
        trace = None
        if traced:
            taken = recorder.take()
            trace = layers.PassTrace(spans.Aggregate.of(taken), taken, wl.info(results),
                                     sum(raw), eig_calls)
        records.append(SimpleNamespace(raw=raw, calls=rescaled, trace=trace))
        rounds, rest = divmod(len(records), len(pattern))
        if not rest and rounds >= min_passes and clock() >= deadline:
            return records


def call_medians(records, key="calls"):
    """Each call's median over passes.  Every pass repeats the same calls, so
    a stall that hits one pass barely moves these."""
    return [statistics.median(c) for c in zip(*(getattr(r, key) for r in records))]


def percentile(samples, q):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(round(q * len(ordered) / 100.0, 9)), 1) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, setup, records):
    medians = call_medians(records)
    wall = sum(medians)
    calls = [c for r in records for c in r.calls]
    q = wl.tail_percentile
    metrics = {
        "setup_s": metric(statistics.median(setup[1]), "s"),
        "wall_s": metric(wall, "s"),
        "points_per_s": metric(wl.points / wall, "1/s"),
        "call_p50_ms": metric(1e3 * statistics.median(medians), "ms"),
        "call_tail_ms": metric(1e3 * percentile(calls, q), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB"),
    }
    raw_calls = [c for r in records for c in r.raw]
    counts = {"tail_percentile": q, "call_samples": len(calls), "passes": len(records),
              "raw": {"setup_s": statistics.median(setup[0]),
                      "wall_s": sum(call_medians(records, "raw")),
                      "call_p50_ms": 1e3 * statistics.median(call_medians(records, "raw")),
                      "call_tail_ms": 1e3 * percentile(raw_calls, q)}}
    return metrics, counts


def per_layer(untraced, traced):
    metrics = {m.name: metric(statistics.median(m.value(r.trace) for r in traced), m.unit)
               for m in layers.LAYER_METRICS if m.value is not None}
    overhead = sum(call_medians(traced)) - sum(call_medians(untraced))
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return metrics, {"untraced_passes": len(untraced), "traced_passes": len(traced),
                     "raw": {"untraced_pass_s": sum(call_medians(untraced, "raw")),
                             "traced_pass_s": sum(call_medians(traced, "raw"))}}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description="qutritxxz benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib = load_library()
    import numpy as np

    setup = None if args.trace else measure_setup()
    OUT.mkdir(exist_ok=True)
    outcome = workloads.Outcome()
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        wl = workloads.WORKLOADS[args.workload](lib, args.seed, Path(tmp))
        wl.warm_up()
        if args.trace:
            records = run_passes(lib, wl, args.seconds, outcome, (False, True),
                                 MIN_TRACED_PASSES)
            traced = [r for r in records if r.trace is not None]
            metrics, counts = per_layer([r for r in records if r.trace is None], traced)
        else:
            records = run_passes(lib, wl, args.seconds, outcome, (False,), wl.min_passes)
            metrics, counts = end_to_end(wl, setup, records)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans.write_spans(traced[-1].trace.spans, OUT / f"{stem}.spans.jsonl")
    conditions = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "git_commit": git_commit(), "blas_threads": BLAS_ENV,
        "warm_up": wl.warm_up_note, "points_per_pass": wl.points,
        "reference_nominal_s": calibrate.NOMINAL_S, **counts,
        "failure_reasons": outcome.reasons,
    }
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(
        json.dumps({"conditions": conditions, "result": result}, indent=2) + "\n")
    print(json.dumps({"conditions": conditions}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
