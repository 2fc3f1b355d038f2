"""The library names and results the benchmark in perfbench/ relies on.

perfbench/run.py resolves every span target before its first pass, so a
missing name ends a benchmark run; a workload whose check fails reports
failed items.  These tests catch both here.  Only layers.py and
workloads.py are loaded: run.py sets BLAS environment variables when it
is imported.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import qutritxxz

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
workloads = _load("workloads")


def _library():
    return SimpleNamespace(package=qutritxxz, **{
        m: importlib.import_module(f"qutritxxz.{m}") for m in layers.LIBRARY_MODULES})


def test_benchmark_span_targets_resolve():
    lib = _library()
    assert len(layers.SPAN_TARGETS) > 20
    for target in layers.SPAN_TARGETS:
        module, name = target.split(".")
        assert callable(getattr(getattr(lib, module), name)), target


def _call(call):
    try:
        return call()
    except Exception as exc:  # a failing call is a failed item, as in run.py
        return workloads.CallFailed(exc)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_workload_pass_has_no_failed_items(name, tmp_path, capsys):
    wl = workloads.WORKLOADS[name](_library(), 1, tmp_path)
    results = [_call(call) for call in wl.calls]
    outcome = workloads.Outcome()
    wl.check(outcome, results)
    capsys.readouterr()
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.reasons


def test_cli_points_repeated_passes_have_no_failed_items(tmp_path, capsys):
    # perfbench/run.py warms up, then repeats passes in one process: a value
    # that a command leaves in the shared CLI parser would show in a later pass
    wl = workloads.WORKLOADS["cli_points"](_library(), 1, tmp_path)
    wl.warm_up()
    for _ in range(2):
        for cmd in wl.commands:
            cmd[3].unlink(missing_ok=True)  # each pass writes its own output files
        outcome = workloads.Outcome()
        wl.check(outcome, [_call(call) for call in wl.calls])
        assert outcome.attempted == wl.n_commands
        assert outcome.failed == 0, outcome.reasons
    capsys.readouterr()
