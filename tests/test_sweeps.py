import ast
import importlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import random_params
from hypothesis import given, settings, strategies as st

from qutritxxz import cli, entanglement, matkernel, model, sweeps, thermal
from qutritxxz.model import DomainError, ModelParams
from qutritxxz.output import emit_csv, emit_svg
from qutritxxz.sweeps import (
    CSV_COLUMNS,
    NoOnset,
    SweepSpec,
    detect_critical_dz,
    detect_critical_field,
    figure_preset,
    run_sweep,
)
from qutritxxz.thermal import GROUND_DEGENERACY_TOL, levels
from qutritxxz.validate import _field_crossings


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(vary="X", start=0, stop=1, steps=10)
    with pytest.raises(ValueError):
        SweepSpec(vary="B", start=1, stop=0, steps=10)
    with pytest.raises(ValueError):
        SweepSpec(vary="B", start=0, stop=1, steps=1)
    with pytest.raises(ValueError):
        SweepSpec(vary="T", start=0.0, stop=1, steps=10)


def test_t_grid_checked_after_rounding():
    # 1e-11 rounds to T = 0.0, which would silently take the T = 0 route
    with pytest.raises(ValueError, match="after rounding"):
        SweepSpec(vary="T", start=1e-11, stop=1.0, steps=3)
    assert SweepSpec(vary="T", start=1e-10, stop=1.0, steps=3).grid()[0] == 1e-10


@pytest.mark.parametrize("vary, start, stop", [
    ("B", 0.0, 1e-11), ("Dz", -1e-11, 0.0), ("R", 1.0, 1.0 + 1e-11), ("T", 1.0, 1.0 + 1e-11),
])
def test_grid_collision_after_rounding_rejected(vary, start, stop):
    # three distinct linspace values round to fewer than three grid values
    with pytest.raises(ValueError, match="collide after rounding"):
        SweepSpec(vary=vary, start=start, stop=stop, steps=3)


def test_temperature_checks_reject_nan():
    # a subnormal T has 1/T = inf, which would make NaN Boltzmann weights
    for t in (float("nan"), -1.0, 1e-309, 5e-324):
        with pytest.raises(DomainError):
            SweepSpec(vary="B", start=0.0, stop=1.0, steps=3, T=t)
    assert SweepSpec(vary="B", start=0.0, stop=1.0, steps=3, T=0.0).T == 0.0
    for t in (float("nan"), 1e-320):
        with pytest.raises(DomainError):
            detect_critical_dz(ModelParams(R=0.5, B=0.5), T=t)


def test_run_sweep_t_monotone_decay():
    spec = SweepSpec(vary="T", start=0.04, stop=3.0, steps=100,
                     fixed=ModelParams(R=0.5, Dz=1.0, B=0.0))
    res = run_sweep(spec)
    assert len(res.rows) == 100
    n = [row["negativity"] for row in res.rows]
    assert n[0] == pytest.approx(0.96596, abs=1e-4)
    assert np.all(np.diff(n) <= 1e-12)
    assert n[-1] == 0.0  # sudden death well before T = 3


def test_run_sweep_dz_parity():
    spec = SweepSpec(vary="Dz", start=-4.0, stop=4.0, steps=81,
                     fixed=ModelParams(R=0.5, B=0.5), T=0.08)
    res = run_sweep(spec)
    n = np.array([row["negativity"] for row in res.rows])
    assert np.max(np.abs(n - n[::-1])) < 1e-10


def test_run_sweep_r_saturation():
    spec = SweepSpec(vary="R", start=0.05, stop=8.0, steps=160,
                     fixed=ModelParams(R=1.0, Dz=1.0, B=1.0), T=0.04)
    res = run_sweep(spec)
    by_r = {round(row["grid_value"], 3): row["negativity"] for row in res.rows}
    # J decays exponentially, so the tail flattens toward the J=0 limit
    assert abs(by_r[7.0] - by_r[8.0]) < 1e-3
    assert abs(by_r[7.0] - by_r[8.0]) < abs(by_r[5.0] - by_r[6.0])


def test_run_sweep_rows_ordered():
    spec = SweepSpec(vary="B", start=0.0, stop=1.0, steps=11,
                     fixed=ModelParams(R=1.0, Dz=1.0), T=0.5)
    res = run_sweep(spec)
    grid = [row["grid_value"] for row in res.rows]
    assert grid == sorted(grid)
    for row in res.rows:
        assert 0.0 <= row["negativity"] <= 1.0


def test_run_sweep_meta_echo():
    spec = SweepSpec(vary="T", start=0.1, stop=1.0, steps=5,
                     fixed=ModelParams(R=0.5, Dz=1.0, B=0.2))
    res = run_sweep(spec, label="demo")
    assert res.meta["fixed"]["B"] == 0.2
    assert res.meta["label"] == "demo"
    assert "sign_convention" in res.meta
    assert "gamma_default_note" in res.meta


def test_critical_field_r1():
    p = ModelParams(R=1.0, gamma=1.0, Dz=1.0)
    points = detect_critical_field(p, b_max=2.0)
    assert len(points) == 2
    gj, r = p.gamma * p.J, p.r
    expected = sorted([(gj + np.sqrt(gj * gj + 8 * r * r)) / 2 - r, gj + r])
    for cp, want in zip(points, expected):
        assert cp.parameter == "B"
        assert cp.kind == "LevelCrossing"
        assert cp.value == pytest.approx(want, abs=1e-6)
        lo, hi = cp.bracket
        assert hi - lo <= 1e-8


def test_critical_field_none_without_coupling():
    points = detect_critical_field(ModelParams(j_override=1e-12, Dz=0.0), b_max=2.0)
    # pure Zeeman ladder: at B=0 everything is quasi-degenerate, then the
    # product ground state never changes identity again
    for cp in points:
        assert cp.value < 1e-2


def _ground_set(p: ModelParams, b: float) -> frozenset:
    eps = levels(replace(p, B=b))[0]
    return frozenset(np.flatnonzero(eps - eps.min() < GROUND_DEGENERACY_TOL).tolist())


@given(st.integers(0, 10_000), st.sampled_from(["random", "r0", "tied_at_zero"]))
@settings(max_examples=100, deadline=None)
def test_critical_field_is_the_lower_envelope(seed, kind):
    p = random_params(np.random.default_rng(seed))
    if kind == "r0":
        p = replace(p, Dz=0.0, j_override=0.0)
    elif kind == "tied_at_zero":
        p = replace(p, gamma=-1.0, Dz=0.0)
    # every level is affine in B
    c = levels(replace(p, B=0.0))[0]
    s = np.rint(levels(replace(p, B=1.0))[0] - c)
    assert np.max(np.abs(levels(p)[0] - (c + s * p.B))) < 1e-12
    b_max = 5.0
    points = detect_critical_field(p, b_max=b_max)
    found = [cp.value for cp in points]
    assert all(cp.bracket == (cp.value, cp.value) for cp in points)
    assert found == sorted(set(found)) and all(0.0 <= b <= b_max for b in found)
    # the ground set is constant across each gap and changes at each crossing
    edges = sorted({0.0, *found, b_max})
    gaps = []
    for lo, hi in zip(edges, edges[1:]):
        inside = {_ground_set(p, lo + f * (hi - lo)) for f in (0.25, 0.5, 0.75)}
        assert len(inside) == 1
        gaps.append(inside.pop())
    assert all(a != b for a, b in zip(gaps, gaps[1:]))
    # a crossing at 0 exactly when the field lifts a B = 0 degeneracy
    assert (_ground_set(p, 0.0) != gaps[0]) == (found[:1] == [0.0])


def test_critical_field_exact_cases():
    # all nine levels vanish at r = B = 0; the field splits them at once
    (cp,) = detect_critical_field(ModelParams(j_override=0.0, Dz=0.0), b_max=1.0)
    assert (cp.value, cp.bracket) == (0.0, (0.0, 0.0))
    # gamma J = -r: eps2, eps3, eps4, eps7 and eps9 all equal -r at B = 0,
    # and eps4 (slope -2) is the ground level for every B > 0
    p = ModelParams(R=1.0, gamma=-1.0, Dz=0.0)
    eps = levels(p)[0]
    assert _ground_set(p, 0.0) == {1, 2, 3, 6, 8}
    assert np.max(np.abs(eps[[1, 2, 3, 6, 8]] + p.r)) < 1e-15
    assert [cp.value for cp in detect_critical_field(p, b_max=2.0)] == [0.0]
    # a scan limit below zero leaves nothing to scan
    assert detect_critical_field(p, b_max=-1.0) == []


@pytest.mark.parametrize("r", [0.3, 1.0, 1.25, 2.7])
def test_critical_field_matches_closed_form(r):
    p = ModelParams(R=r, gamma=1.0, Dz=1.0)
    found = [cp.value for cp in detect_critical_field(p, b_max=2.0)]
    expected = _field_crossings(p)
    assert len(found) == len(expected) == 2
    assert max(abs(a - b) for a, b in zip(found, expected)) < 1e-12


def test_critical_field_takes_two_spectra(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p.B)
        return levels(p)

    monkeypatch.setattr(sweeps, "levels", counted)
    assert len(detect_critical_field(ModelParams(R=1.0, Dz=1.0), b_max=2.0)) == 2
    assert calls == [0.0, 1.0]


@pytest.mark.parametrize("b_max", [float("nan"), float("inf")])
def test_critical_field_rejects_non_finite_limit(b_max):
    with pytest.raises(ValueError, match="b_max must be finite"):
        detect_critical_field(ModelParams(R=1.0, Dz=1.0), b_max=b_max)


@pytest.mark.parametrize("kwargs, match", [
    ({"dz_max": float("nan")}, "dz_max must be finite"),
    ({"threshold": float("nan")}, "threshold must be finite"),
])
def test_critical_dz_rejects_bad_scan_inputs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        detect_critical_dz(ModelParams(R=0.3, B=0.5), T=0.08, **kwargs)


def test_critical_dz_onset_exists():
    p = ModelParams(R=0.5, gamma=1.0, B=0.5)
    cp = detect_critical_dz(p, T=0.08)
    assert cp.kind == "NegativityOnset"
    assert 0.0 < cp.value < 1.0
    lo, hi = cp.bracket
    assert hi - lo <= 1e-8


def test_critical_dz_onset_monotone_in_r_and_b():
    def onset(r, b):
        try:
            return detect_critical_dz(ModelParams(R=r, gamma=1.0, B=b), T=0.08).value
        except NoOnset:
            return 0.0

    by_r = [onset(r, 0.5) for r in (0.3, 0.6, 0.9)]
    assert by_r[0] > by_r[1] > by_r[2]
    by_b = [onset(0.5, b) for b in (0.5, 0.8, 1.1)]
    assert by_b[0] < by_b[1] < by_b[2]


def test_critical_dz_no_onset_when_already_entangled():
    with pytest.raises(NoOnset):
        detect_critical_dz(ModelParams(R=0.9, gamma=1.0, B=0.2), T=0.08)


def test_figure_preset_fig1():
    (res,) = figure_preset("fig1")
    best = max(res.rows, key=lambda row: row["J"])
    assert best["grid_value"] == pytest.approx(1.25, abs=1e-9)
    assert best["J"] == pytest.approx(0.235460, abs=1e-4)


def test_figure_preset_fig2b_low_t_b0():
    curves = figure_preset("fig2b")
    b0 = next(c for c in curves if c.meta["label"] == "B=0.0")
    assert b0.rows[0]["negativity"] == pytest.approx(0.96596, abs=1e-3)


def test_figure_preset_fig4c_plateaus():
    (res,) = figure_preset("fig4c")
    values = sorted({round(row["negativity"], 6) for row in res.rows})
    # steps: 0, 0.5 and the zero-field plateau (crossing grid points may add
    # intermediate mixture values)
    assert 0.0 in values
    assert any(abs(v - 0.5) < 1e-6 for v in values)
    assert any(abs(v - 0.974154) < 1e-4 for v in values)


def test_figure_preset_unknown():
    with pytest.raises(ValueError):
        figure_preset("fig9")


def test_emit_csv_schema_and_determinism(tmp_path):
    curves = figure_preset("fig2a")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(curves, a)
    emit_csv(figure_preset("fig2a"), b)
    text = a.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert text == b.read_text()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert len(meta) == 3
    assert meta[0]["label"] == "R=0.3"


def test_emit_csv_roundtrip_values(tmp_path):
    spec = SweepSpec(vary="T", start=0.1, stop=1.0, steps=4,
                     fixed=ModelParams(R=0.5, Dz=1.0))
    res = run_sweep(spec)
    path = tmp_path / "out.csv"
    emit_csv(res, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    # shortest-repr floats round-trip exactly
    assert float(row["negativity"]) == res.rows[0]["negativity"]
    assert float(row["J"]) == res.rows[0]["J"]


def test_emit_svg(tmp_path):
    curves = figure_preset("fig4c")
    path = tmp_path / "fig.svg"
    emit_svg(curves, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text
    assert "negativity" in text


def test_point_path_runs_no_dense_solver(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("9x9 state, dense solver or tensor Hamiltonian on the point path")

    for module in (matkernel, model, thermal, entanglement, sweeps, cli):
        for name in ("hermitian_eig", "hamiltonian_tensor", "negativity", "partial_transpose",
                     "eigvalsh", "gibbs", "gibbs_analytic", "gibbs_numeric",
                     "ground_state_mixture"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert [len(res.rows) for res in figure_preset("fig3a")] == [161] * 4
    assert len(figure_preset("fig4c")[0].rows) == 161
    assert detect_critical_dz(ModelParams(R=0.3, B=0.5), T=0.08).kind == "NegativityOnset"
    assert cli.main(["negativity", "--R", "0.5", "--Dz", "1", "--B", "0.3", "--T", "0.5"]) == 0
    r0 = ModelParams(Dz=0.0, j_override=0.0)
    for t in (0.5, 0.0):
        rows = run_sweep(SweepSpec(vary="B", start=-1.0, stop=1.0, steps=5,
                                   fixed=r0, T=t)).rows
        assert [row["negativity"] for row in rows] == [0.0] * 5
    assert cli.main(["negativity", "--R", "1", "--Dz", "1", "--B", "0.9", "--T", "0"]) == 0
    assert cli.main(["critical", "--axis", "B", "--R", "1", "--Dz", "1", "--max", "2"]) == 0
    capsys.readouterr()


def test_benchmark_span_targets_resolve():
    # perfbench wraps these names at startup; read its table, do not import it
    layers = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    tree = ast.parse(layers.read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "SPAN_TARGETS" for t in node.targets))
    assert len(targets) > 20
    for target in targets:
        module, name = target.split(".")
        assert callable(getattr(importlib.import_module(f"qutritxxz.{module}"), name)), target
