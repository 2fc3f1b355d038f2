import ast
import importlib.util
import json
import math
import random
import sys
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
from qutritxxz.thermal import GROUND_DEGENERACY_TOL, level_values, thermal_point
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


@pytest.mark.parametrize("steps", [3.0, 2.5, "3", None], ids=["3.0", "2.5", "str", "None"])
def test_non_integer_steps_rejected_on_construction(steps):
    with pytest.raises(DomainError, match="steps must be an integer"):
        SweepSpec("B", 0, 1, steps)


@pytest.mark.parametrize("change, match", [
    ({"start": "0"}, "sweep range must be real"),
    ({"stop": None}, "sweep range must be real"),
    ({"T": "1"}, "temperature must be a real number"),
    ({"fixed": None}, "fixed must be a ModelParams"),
], ids=["start", "stop", "T", "fixed"])
def test_non_real_range_or_t_and_non_params_rejected_on_construction(change, match):
    with pytest.raises(DomainError, match=match):
        SweepSpec(**{"vary": "B", "start": 0, "stop": 1, "steps": 3, **change})


def test_real_range_and_t_of_any_type_accepted():
    # ints and numpy floats are kept as given, as the rows print them
    spec = SweepSpec("B", np.float64(0.0), 1, 3, T=2)
    assert (spec.start, spec.stop, spec.T) == (0.0, 1, 2) and type(spec.T) is int
    assert [row["T"] for row in run_sweep(spec).rows] == [2, 2, 2]


@pytest.mark.parametrize("steps", [3, np.int64(3), np.uint8(3)], ids=["int", "int64", "uint8"])
def test_integer_steps_of_any_type_accepted(steps):
    spec = SweepSpec("B", 0, 1, steps)
    assert spec.grid() == [0.0, 0.5, 1.0]
    assert type(spec.steps) is int and run_sweep(spec).meta["steps"] == 3


def test_spec_refuses_attribute_writes():
    spec = SweepSpec(vary="B", start=0.0, stop=1.0, steps=3)
    for name in ("vary", "start", "stop", "steps", "fixed", "T"):
        with pytest.raises(AttributeError):
            setattr(spec, name, getattr(spec, name))
        with pytest.raises(AttributeError):
            delattr(spec, name)
    # a refused write changes nothing, and no new attribute can be added
    with pytest.raises(AttributeError):
        spec.steps = 1
    with pytest.raises(AttributeError):
        spec.label = "x"
    assert spec.steps == 3 and spec.grid() == [0.0, 0.5, 1.0]


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


def _numpy_grid_outcome(vary, start, stop, steps):
    """What SweepSpec made of a grid with numpy: the grid, or the error."""
    with np.errstate(all="ignore"):
        grid = np.round(np.linspace(start, stop, steps), 10)
        if not np.all(np.isfinite(grid)):
            return "overflow when rounded"
        if not np.all(np.diff(grid) > 0):
            return "collide after rounding"
    if vary == "T" and not grid[0] > 0:
        return "must start at T > 0"
    return grid.tobytes()


def test_grid_is_numpy_round_linspace():
    rng = np.random.default_rng(2024)
    seen = set()
    for i in range(2000):
        vary = str(rng.choice(["T", "B", "Dz", "R"]))
        kind = i % 4
        if kind == 0:
            start = float(rng.uniform(-10.0, 10.0))
            stop = start + float(rng.uniform(1e-6, 20.0))
        elif kind == 1:
            # short decimals, as on the command line: grid points cross 0
            start = round(float(rng.uniform(-5.0, 5.0)), int(rng.integers(0, 4)))
            stop = start + round(float(rng.uniform(0.01, 8.0)), int(rng.integers(0, 3)))
        elif kind == 2:
            start = float(rng.uniform(-1.0, 1.0)) * 10.0 ** rng.uniform(-12, 12)
            stop = start + 10.0 ** rng.uniform(-12, 12)
        else:
            start = float(rng.choice([0.0, 1e-11, 1e-10, -1e300, 1e290]))
            stop = start + float(rng.choice([1e-11, 1.0, 1e299]))
        steps = int(rng.choice([2, 3, 11, 161, rng.integers(2, 300)]))
        if not start < stop:
            continue
        expected = _numpy_grid_outcome(vary, start, stop, steps)
        try:
            got = np.array(SweepSpec(vary=vary, start=start, stop=stop, steps=steps).grid())
        except ValueError as exc:
            assert isinstance(expected, str) and expected in str(exc)
            seen.add(expected)
            continue
        # bytes: the sign of a zero grid value counts too
        assert got.tobytes() == expected
        seen.add("grid")
    assert seen == {"grid", "overflow when rounded", "collide after rounding",
                    "must start at T > 0"}


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


def _levels(p: ModelParams) -> np.ndarray:
    return np.array(level_values(p))


def _ground_set(p: ModelParams, b: float) -> frozenset:
    eps = _levels(p.replace(B=b))
    return frozenset(np.flatnonzero(eps - eps.min() < GROUND_DEGENERACY_TOL).tolist())


@given(st.integers(0, 10_000), st.sampled_from(["random", "r0", "tied_at_zero"]))
@settings(max_examples=100, deadline=None)
def test_critical_field_is_the_lower_envelope(seed, kind):
    p = random_params(np.random.default_rng(seed))
    if kind == "r0":
        p = p.replace(Dz=0.0, j_override=0.0)
    elif kind == "tied_at_zero":
        p = p.replace(gamma=-1.0, Dz=0.0)
    # every level is affine in B
    c = _levels(p.replace(B=0.0))
    s = np.rint(_levels(p.replace(B=1.0)) - c)
    assert np.max(np.abs(_levels(p) - (c + s * p.B))) < 1e-12
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
    eps = _levels(p)
    assert _ground_set(p, 0.0) == {1, 2, 3, 6, 8}
    assert np.max(np.abs(eps[[1, 2, 3, 6, 8]] + p.r)) < 1e-15
    assert [cp.value for cp in detect_critical_field(p, b_max=2.0)] == [0.0]


@pytest.mark.parametrize("r", [0.3, 1.0, 1.25, 2.7])
def test_critical_field_matches_closed_form(r):
    p = ModelParams(R=r, gamma=1.0, Dz=1.0)
    found = [cp.value for cp in detect_critical_field(p, b_max=2.0)]
    expected = _field_crossings(p)
    assert len(found) == len(expected) == 2
    assert max(abs(a - b) for a, b in zip(found, expected)) < 1e-12


def test_critical_field_takes_one_spectrum(monkeypatch):
    # the levels at B = 0, with each level's M as its slope
    calls = []

    def counted(p):
        calls.append(p.B)
        return level_values(p)

    monkeypatch.setattr(sweeps, "level_values", counted)
    assert len(detect_critical_field(ModelParams(R=1.0, Dz=1.0, B=0.7), b_max=2.0)) == 2
    assert calls == [0.0]
    calls.clear()
    # r = 0: the nine basis levels meet at B = 0, where the field splits them
    assert [cp.value for cp in detect_critical_field(ModelParams(Dz=0.0, j_override=0.0))] == [0.0]
    assert calls == [0.0]


@pytest.mark.parametrize("scale", [1e16, 1e17, 1e200])
def test_critical_field_is_invariant_under_scaling(scale, rng):
    # the levels pass 1e16, where a probe field of 1 would be lost to rounding
    for _ in range(100):
        p = random_params(rng)
        found = [cp.value for cp in detect_critical_field(p, b_max=10.0)]
        q = ModelParams(gamma=p.gamma, Dz=scale * p.Dz, j_override=scale * p.J)
        scaled = [cp.value / scale for cp in detect_critical_field(q, b_max=10.0 * scale)]
        assert scaled == pytest.approx(found, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("make", [
    lambda: SweepSpec(vary="X", start=0, stop=1, steps=10),
    lambda: SweepSpec(vary="B", start=0, stop=math.inf, steps=10),
    lambda: SweepSpec(vary="B", start=1, stop=0, steps=10),
    lambda: SweepSpec(vary="B", start=0, stop=1, steps=1),
    lambda: SweepSpec(vary="B", start=0, stop=1e300, steps=3),
    lambda: SweepSpec(vary="B", start=0, stop=1e-11, steps=3),
    lambda: SweepSpec(vary="T", start=1e-12, stop=1, steps=10),
    lambda: SweepSpec(vary="B", start=0, stop=1, steps=10, T=-1.0),
    lambda: detect_critical_field(ModelParams(R=1.0, Dz=1.0), b_max=math.nan),
    lambda: detect_critical_dz(ModelParams(R=0.3, B=0.5), T=0.08, dz_max=-1.0),
    lambda: detect_critical_dz(ModelParams(R=0.3, B=0.5), T=0.08, threshold=math.inf),
], ids=["vary", "non-finite", "order", "steps", "grid-overflow", "grid-collide",
        "T-grid", "T", "b_max", "dz_max", "threshold"])
def test_bad_sweep_and_scan_input_raises_domain_error(make):
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize("b_max", [float("nan"), float("inf"), -1.0])
def test_critical_field_rejects_non_finite_limit(b_max):
    with pytest.raises(ValueError, match="b_max must be finite"):
        detect_critical_field(ModelParams(R=1.0, Dz=1.0), b_max=b_max)


@pytest.mark.parametrize("kwargs, match", [
    ({"dz_max": float("nan")}, "dz_max must be finite"),
    ({"threshold": float("nan")}, "threshold must be finite"),
    ({"dz_max": -1.0}, "dz_max must be finite and non-negative"),
    ({"threshold": -1.0}, "threshold must be finite and non-negative"),
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


def test_critical_dz_scan_ends_at_its_limit(monkeypatch):
    # the onset lies at Dz = 0.14788, between the scan points 0.14 and 0.15;
    # a limit of 0.149 must still be scanned, and nothing beyond it
    p = ModelParams(R=2.5, B=0.5)
    seen = []

    def recorded(q, T):
        seen.append(q.Dz)
        return thermal_point(q, T)

    monkeypatch.setattr(sweeps, "thermal_point", recorded)
    cp = detect_critical_dz(p, T=0.08, dz_max=0.149)
    assert 0.14 < cp.value < 0.149 and cp.bracket[1] - cp.bracket[0] <= 1e-8
    assert max(seen) == 0.149
    seen.clear()
    with pytest.raises(NoOnset, match="up to Dz = 0.147"):
        detect_critical_dz(p, T=0.08, dz_max=0.147)
    assert seen[-1] == max(seen) == 0.147


def test_critical_dz_no_onset_when_already_entangled():
    with pytest.raises(NoOnset):
        detect_critical_dz(ModelParams(R=0.9, gamma=1.0, B=0.2), T=0.08)


def _workload_r_values():
    """The separations of the perfbench critical workload, seeds 11-20."""
    values = []
    for seed in range(11, 21):
        rng = random.Random(seed)
        width = 2.8 / 24
        values += [0.2 + (i + rng.random()) * width for i in range(24)]
    return values


def _bisected_onset(p, T, threshold):
    """The onset by the step scan and plain bisection to BISECTION_TOL."""
    def n_at(dz):
        return thermal_point(p.replace(Dz=dz), T)[2]

    lo = 0.0
    if n_at(lo) > threshold:
        return None
    while True:
        hi = min(lo + sweeps.DZ_SCAN_STEP, 10.0)
        if n_at(hi) > threshold:
            break
        if hi == 10.0:
            return None
        lo = hi
    while hi - lo > sweeps.BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if n_at(mid) > threshold:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _recorded_onset(monkeypatch, p, T, threshold=sweeps.ONSET_THRESHOLD, **kwargs):
    """detect_critical_dz with every N it takes recorded as (Dz, N)."""
    seen = []

    def recorded(q, t):
        point = thermal_point(q, t)
        seen.append((q.Dz, point[2]))
        return point

    with monkeypatch.context() as m:
        m.setattr(sweeps, "thermal_point", recorded)
        try:
            return detect_critical_dz(p, T, threshold=threshold, **kwargs), seen
        except NoOnset:
            return None, seen


def test_onsets_match_bisection_on_the_workload_r_values(monkeypatch):
    tol = sweeps.BISECTION_TOL
    onsets = 0
    for r in _workload_r_values():
        p = ModelParams(R=r, B=0.5)
        cp, seen = _recorded_onset(monkeypatch, p, 0.08)
        reference = _bisected_onset(p, 0.08, sweeps.ONSET_THRESHOLD)
        if cp is None:
            assert reference is None
            continue
        onsets += 1
        lo, hi = cp.bracket
        assert hi - lo <= tol and abs(cp.value - reference) <= tol
        n = dict(seen)
        # the closed-form sign test, with no end an iterate sitting on the root
        assert n[lo] <= sweeps.ONSET_THRESHOLD - 1e-13
        assert n[hi] > sweeps.ONSET_THRESHOLD + 1e-13
        # the step scan stops at its first point above the threshold
        scan = next(i for i, (_, v) in enumerate(seen) if v > sweeps.ONSET_THRESHOLD) + 1
        assert len(seen) - scan <= 9, (r, seen[scan:])
    assert onsets == 108


def test_onsets_match_bisection_on_random_draws(monkeypatch):
    rng = np.random.default_rng(20240926)
    onsets = 0
    for i in range(45):
        p = ModelParams(R=float(rng.uniform(0.2, 3.0)), B=float(rng.uniform(0.0, 2.0)),
                        gamma=float(rng.uniform(-2.0, 2.0)))
        t = float(rng.uniform(0.01, 1.0))
        threshold = (1e-9, 1e-6, 1e-3, 0.05)[i % 4]
        cp, seen = _recorded_onset(monkeypatch, p, t, threshold)
        reference = _bisected_onset(p, t, threshold)
        if cp is None:
            assert reference is None
            continue
        onsets += 1
        lo, hi = cp.bracket
        n = dict(seen)
        assert n[lo] <= threshold < n[hi]
        assert hi - lo <= sweeps.BISECTION_TOL
        assert abs(cp.value - reference) <= sweeps.BISECTION_TOL
    assert onsets >= 25


def test_critical_dz_evaluates_nothing_beyond_its_limit(monkeypatch):
    # a limit tol/8 above the onset: the finish's upper point would pass it
    p = ModelParams(R=2.5, B=0.5)
    onset = detect_critical_dz(p, T=0.08).value
    for dz_max in (onset + sweeps.BISECTION_TOL / 8, onset + sweeps.BISECTION_TOL / 3):
        cp, seen = _recorded_onset(monkeypatch, p, 0.08, dz_max=dz_max)
        assert max(dz for dz, _ in seen) == dz_max
        lo, hi = cp.bracket
        assert hi <= dz_max and hi - lo <= sweeps.BISECTION_TOL
        assert dict(seen)[lo] <= sweeps.ONSET_THRESHOLD < dict(seen)[hi]


def _bracketed(f, lo, hi, tol=1e-8):
    """_root_bracket on [lo, hi], with every point it takes recorded."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return sweeps._root_bracket(g, lo, hi, f(lo), f(hi), tol), seen


def _assert_bracket(f, bracket, seen, lo, hi, tol=1e-8):
    l, h = bracket
    assert f(l) <= 0 < f(h) and 0 < h - l <= tol
    assert all(lo < x < hi for x in seen)


@pytest.mark.parametrize("root", [0.3, 0.5, 0.7071, 1e-9, 1 - 1e-9])
def test_root_bracket_on_a_step(root):
    # no slope at all: as many steps as bisection, and a bracket of the jump
    def f(x):
        return -1.0 if x < root else 1.0

    bracket, seen = _bracketed(f, 0.0, 1.0)
    _assert_bracket(f, bracket, seen, 0.0, 1.0)
    assert len(seen) <= 28


@pytest.mark.parametrize("c", [0.0, 1e-9, 1e-3])
@pytest.mark.parametrize("kink", [0.123456789, 0.9])
def test_root_bracket_on_a_plateau(c, kink):
    # f = -c up to the kink, then N rising as after a sudden birth (c = 0:
    # threshold 0, f = 0 all along the plateau); false position alone
    # would creep along the plateau for hundreds of steps
    def f(x):
        rise = x - kink
        return (0.0 if rise <= 0.0 else 0.05 * rise + 3.0 * rise * rise) - c

    bracket, seen = _bracketed(f, 0.0, 1.0)
    _assert_bracket(f, bracket, seen, 0.0, 1.0)
    assert len(seen) <= 32


@pytest.mark.parametrize("offset", [1e-8 / 4, 1e-8 / 8, 1e-8 / 64, 1e-12])
def test_root_bracket_near_either_end(offset):
    # the finish's points clamp into [lo, hi] and reuse the end values
    lo, hi = 0.25, 0.26
    for root in (lo + offset, hi - offset):
        def f(x):
            return math.expm1(40.0 * (x - root))

        bracket, seen = _bracketed(f, lo, hi)
        _assert_bracket(f, bracket, seen, lo, hi)


def test_root_bracket_converges_faster_than_bisection():
    # on a smooth but strongly curved f, false position alone keeps one end
    # fixed; the Illinois halving moves it, and the finish straddles the
    # root.  Bisection takes 27 steps here.
    for scale in (1.0, 3.0, 10.0, 30.0):
        for root in (0.1, 0.4142, 0.8):
            def f(x):
                return math.expm1(scale * x) - math.expm1(scale * root)

            bracket, seen = _bracketed(f, 0.0, 1.0)
            _assert_bracket(f, bracket, seen, 0.0, 1.0)
            l, h = bracket
            assert min(-f(l), f(h)) > 1e-12
            assert len(seen) <= 15, (scale, root, len(seen))


def test_check_critical_dz_catches_a_bracket_off_the_root(monkeypatch):
    validate = sys.modules["qutritxxz.validate"]
    (check,) = validate.check_critical_dz(n_draws=2)
    assert check.passed and check.worst_residual > 0.0

    def shifted(p, T, **kwargs):
        cp = detect_critical_dz(p, T, **kwargs)
        lo, hi = cp.bracket
        return cp._replace(bracket=(lo + 1e-6, hi + 1e-6))

    monkeypatch.setattr(validate, "detect_critical_dz", shifted)
    (check,) = validate.check_critical_dz(n_draws=2)
    assert not check.passed and check.worst_residual < 0.0


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


# each preset as the published figure defines it: grid, then per curve its
# label and the R, Dz, B and T echoed into meta (gamma 1, no direct J)
_PRESETS = {
    "fig1": ("R", 0.05, 8.0, 160, [("J(R)", 1.0, 0.0, 0.0, 1.0)]),
    "fig2a": ("T", 0.04, 3.0, 150, [(f"R={r}", r, 1.0, 1.0, 1.0) for r in (0.3, 0.6, 0.9)]),
    "fig2b": ("T", 0.04, 3.0, 150,
              [(f"B={b}", 0.5, 1.0, b, 1.0) for b in (0.0, 0.3, 0.6, 0.9, 1.2)]),
    "fig3a": ("Dz", -4.0, 4.0, 161,
              [(f"T={t}", 1.0, 0.0, 1.0, t) for t in (0.08, 0.3, 0.6, 1.0)]),
    "fig3b": ("Dz", -4.0, 4.0, 161, [(f"R={r}", r, 0.0, 0.5, 0.08) for r in (0.3, 0.6, 0.9)]),
    "fig3c": ("Dz", -4.0, 4.0, 161, [(f"B={b}", 0.5, 0.0, b, 0.08) for b in (0.5, 0.8, 1.1)]),
    "fig4a": ("R", 0.05, 8.0, 160,
              [(f"T={t}", 1.0, 1.0, 1.0, t) for t in (0.04, 0.08, 0.12, 0.5)]),
    "fig4b": ("B", 0.0, 2.0, 161,
              [(f"T={t}", 1.0, 1.0, 0.0, t) for t in (0.04, 0.08, 0.12, 0.5)]),
    "fig4c": ("B", 0.0, 2.0, 161, [("T=0", 1.0, 1.0, 0.0, 0.0)]),
}


@pytest.mark.parametrize("name", list(_PRESETS))
def test_figure_preset_meta_pins_the_published_sweeps(name):
    vary, start, stop, steps, curves = _PRESETS[name]
    results = figure_preset(name)
    assert len(results) == len(curves)
    for res, (label, r, dz, b, t) in zip(results, curves):
        meta = res.meta
        got = (meta["label"], meta["vary"], meta["start"], meta["stop"], meta["steps"],
               meta["fixed"])
        want = (label, vary, start, stop, steps,
                {"R": r, "gamma": 1.0, "Dz": dz, "B": b, "j_override": None, "T": t})
        # repr also tells 1 from 1.0, which the CSV and meta bytes would show
        assert got == want and repr(got) == repr(want)
        assert len(res.rows) == steps


def test_figure_names_are_the_table_in_order():
    assert sweeps.FIGURE_NAMES == tuple(sweeps.FIGURE_PRESETS) == tuple(_PRESETS)


def test_survey_script_prints_why_there_is_no_onset(capsys):
    # at B = 30 the pair is separable at Dz = 0 and stays so up to the scan limit
    script = Path(__file__).resolve().parent.parent / "scripts" / "critical_points_survey.py"
    spec = importlib.util.spec_from_file_location("critical_points_survey", script)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    assert survey.main(["--r-values", "1.0", "--b", "30"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.split()[0] == "1.00"
    assert row.endswith("negativity stays below 0.001 up to Dz = 10.0")


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
                     "ground_state_mixture", "analytic_spectrum", "_analytic_rho",
                     "hamiltonian_closed_form"):
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


@pytest.mark.parametrize("vary", ["R", "B", "Dz", "T"])
def test_sweep_point_derives_each_number_once(vary, monkeypatch, capsys):
    counts = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(model, "hf_coupling")
    for module in (model, thermal, sweeps, cli):
        if hasattr(module, "effective_coupling"):
            count(module, "effective_coupling")
    count(thermal, "level_values")
    count(thermal, "_weights")
    n = 7
    fixed = ModelParams(R=0.8, Dz=1.0, B=0.3)
    counts.clear()
    run_sweep(SweepSpec(vary=vary, start=0.2, stop=2.0, steps=n, fixed=fixed, T=0.5))
    # a B, Dz or R row constructs its parameters, J included, once; a T row
    # reuses the fixed ones
    assert counts.get("hf_coupling", 0) == (0 if vary == "T" else n)
    assert counts.get("effective_coupling", 0) == 0
    assert counts["level_values"] == counts["_weights"] == n
    counts.clear()
    # the JSON row takes Z, ln Z, the ground energy and N from one state
    assert cli.main(["negativity", "--R", "0.5", "--Dz", "1", "--format", "json"]) == 0
    assert counts.get("hf_coupling", 0) == 1
    assert counts.get("effective_coupling", 0) == 0
    assert counts["level_values"] == counts["_weights"] == 1
    capsys.readouterr()


def _runs_at_import(tree):
    """The nodes of a module that run when it is imported: all of them but
    the bodies of its functions."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_numpy_stays_off_the_point_modules():
    # no module imports numpy when it is itself imported, so neither does
    # `import qutritxxz`; the point path, the field scan, the sweep grid and
    # the writers run on Python floats and never import it; numpy's errstate
    # is needed nowhere
    src = Path(sweeps.__file__).parent
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        whole = path.name in ("sweeps.py", "cli.py", "output.py")
        for node in (ast.walk(tree) if whole else _runs_at_import(tree)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "numpy" for m in modules), path.name
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute) and node.attr == "errstate"), path.name
