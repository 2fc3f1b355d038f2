"""The verdict rule of validate: a route that returns NaN fails its check.

Each case replaces one name that a check reads from qutritxxz.validate by
a wrapper whose result carries NaN, runs the check with few draws and
expects that check to fail with a NaN worst residual.  The parameter draws
and the residuals reduced on stacked arrays are held to the scalar loops
they replace."""

import importlib
import math

import numpy as np
import pytest

from qutritxxz.matkernel import eigvalsh
from qutritxxz.model import (
    ModelParams,
    analytic_spectrum,
    hamiltonian_closed_form,
    hamiltonian_tensor,
)
from qutritxxz.thermal import gibbs_analytic, gibbs_numeric

V = importlib.import_module("qutritxxz.validate")
NAN = math.nan


def _nan_field(name):
    """A namedtuple result with the field `name` replaced by NaN, or by NaN
    times it where it is an array."""
    def spoil(x):
        value = getattr(x, name)
        return x._replace(**{name: value * NAN if isinstance(value, np.ndarray) else NAN})
    return spoil


def _nan_item(i):
    """A thermal_point tuple (Z, ground energy, N, ln Z) with item i NaN."""
    return lambda point: point[:i] + (NAN,) + point[i + 1:]


CASES = [
    # (check, its kwargs, check name, name patched, how its result is spoiled)
    (V.check_spectrum, {"n_draws": 3}, "spectrum_analytic_vs_numeric", "eigvalsh",
     lambda w: w * NAN),
    (V.check_spectrum, {"n_draws": 3}, "eigenvector_residuals", "analytic_spectrum",
     _nan_field("vecs")),
    (V.check_spectrum, {"n_draws": 3}, "chi1_chi2_equals_8", "analytic_spectrum",
     _nan_field("chi1")),
    (V.check_spectrum, {"n_draws": 3}, "traceless_eigenvalue_sum", "analytic_spectrum",
     _nan_field("eps")),
    (V.check_hamiltonian_routes, {"n_draws": 3}, "hamiltonian_tensor_vs_closed_form",
     "hamiltonian_closed_form", lambda h: h * NAN),
    (V.check_gibbs_routes, {"n_draws": 3}, "gibbs_analytic_vs_numeric", "gibbs_numeric",
     _nan_field("rho")),
    (V.check_ground_mixture, {"n_draws": 2}, "ground_mixture_closed_form_vs_jacobi",
     "_numeric_state", _nan_field("rho")),
    (V.check_symmetries, {"n_draws": 3}, "negativity_even_in_Dz", "negativity",
     lambda n: NAN),
    (V.check_symmetries, {"n_draws": 3}, "negativity_even_in_B", "negativity",
     lambda n: NAN),
    (V.check_invariants, {"n_draws": 3}, "negativity_invariant_in_gammaJ_r", "thermal_point",
     _nan_item(2)),
    (V.check_invariants, {"n_draws": 3}, "partition_function_invariant_in_gammaJ_r",
     "thermal_point", _nan_item(0)),
    (V.check_oracle, {}, "pure_state_oracle_vs_pt_pipeline", "pure_state_negativity_oracle",
     lambda n: NAN),
    (V.check_negativity_routes, {"n_draws": 2}, "negativity_closed_form_vs_dense",
     "thermal_point", _nan_item(2)),
    # its dense side
    (V.check_negativity_routes, {"n_draws": 2}, "negativity_closed_form_vs_dense",
     "negativity", lambda n: NAN),
    (V.check_critical_field, {}, "critical_field_vs_closed_form", "detect_critical_field",
     lambda cps: [cp._replace(value=NAN) for cp in cps]),
    (V.check_headline, {}, "headline_scalar_routes", "thermal_point",
     _nan_item(2)),
    # its own sign rule, not _verdict, but its worst margin keeps a NaN too
    (V.check_critical_dz, {"n_draws": 1}, "critical_dz_bracket_vs_dense", "negativity",
     lambda n: NAN),
]


# a later case of the same check is told apart by the name it patches
@pytest.mark.parametrize(
    "check, kwargs, name, patched, spoil", CASES,
    ids=[name if name not in [c[2] for c in CASES[:i]] else f"{name}-{patched}"
         for i, (_, _, name, patched, _) in enumerate(CASES)])
def test_a_nan_route_fails_its_check(monkeypatch, check, kwargs, name, patched, spoil):
    route = getattr(V, patched)
    monkeypatch.setattr(V, patched, lambda *a, **k: spoil(route(*a, **k)))
    (result,) = [c for c in check(**kwargs) if c.name == name]
    assert result.passed is False
    assert math.isnan(result.worst_residual)


@pytest.mark.parametrize("residuals, worst, passed", [
    ([], 0.0, True),
    ([1e-13, 2e-13], 2e-13, True),
    ([1e-12], 1e-12, False),
    ([1e-13, NAN], NAN, False),
    ([NAN, 1e-13], NAN, False),
    ([1e-13, math.inf], math.inf, False),
])
def test_verdict_takes_the_worst_and_fails_on_nan(residuals, worst, passed):
    check = V._verdict("x", residuals, 1e-12, "detail")
    assert check.passed is passed and check.detail == "detail" and check.tolerance == 1e-12
    assert np.array_equal(check.worst_residual, worst, equal_nan=True)


def _scalar_draws(rng, n, *extra):
    """n rows of R, gamma, Dz, B and the extras, one rng.uniform call each."""
    bounds = [(0.05, 6.0), (-2.0, 2.0), (-3.0, 3.0), (-3.0, 3.0), *extra]
    return [[float(rng.uniform(lo, hi)) for lo, hi in bounds] for _ in range(n)]


@pytest.mark.parametrize("extra", [(), ((0.05, 5.0),), ((0.01, 5.0), (3.0, 9.0))],
                         ids=["no-extra", "one-extra", "two-extras"])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_draws_match_scalar_uniform_calls(n, extra):
    rng, ref = np.random.default_rng(20240901), np.random.default_rng(20240901)
    got = V._draws(rng, n, *extra)
    assert [[d[0].R, d[0].gamma, d[0].Dz, d[0].B, *d[1:]] for d in got] == _scalar_draws(
        ref, n, *extra)
    assert all(type(x) is float for d in got for x in d[1:])
    # a check that draws on after _draws (check_oracle's rng.normal) sees the same stream
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.normal() == ref.normal()


def _spectrum_per_draw(rng, n_draws):
    """check_spectrum's four residual lists, one draw and one 9x9 at a time."""
    eig, vec, chi, total = [], [], [], []
    for r, gamma, dz, b in _scalar_draws(rng, n_draws):
        p = ModelParams(R=r, gamma=gamma, Dz=dz, B=b)
        spec = analytic_spectrum(p)
        h = hamiltonian_tensor(p)
        eig.append(float(np.max(np.abs(np.sort(spec.eps) - eigvalsh(h)))))
        res = h @ spec.vecs - spec.vecs * spec.eps
        vec.append(float(np.max(np.sqrt((res.conj() * res).real.sum(axis=0)))))
        chi.append(abs(spec.chi1 * spec.chi2 - 8.0))
        total.append(abs(float(spec.eps.sum())))
    return [eig, vec, chi, total]


def _hamiltonian_per_draw(rng, n_draws):
    gaps = []
    for r, gamma, dz, b in _scalar_draws(rng, n_draws):
        p = ModelParams(R=r, gamma=gamma, Dz=dz, B=b)
        gaps.append(float(np.max(np.abs(hamiltonian_tensor(p) - hamiltonian_closed_form(p)))))
    return [gaps]


def _gibbs_per_draw(rng, n_draws):
    gaps = []
    for r, gamma, dz, b, t in _scalar_draws(rng, n_draws, (0.05, 5.0)):
        p = ModelParams(R=r, gamma=gamma, Dz=dz, B=b)
        gaps.append(float(np.max(np.abs(gibbs_analytic(p, t).rho - gibbs_numeric(p, t).rho))))
    return [gaps]


@pytest.mark.parametrize("n_draws", [0, 1, 37])
@pytest.mark.parametrize("check, per_draw", [
    (V.check_spectrum, _spectrum_per_draw),
    (V.check_hamiltonian_routes, _hamiltonian_per_draw),
    (V.check_gibbs_routes, _gibbs_per_draw),
], ids=["spectrum", "hamiltonian_routes", "gibbs_routes"])
def test_stacked_residuals_match_the_per_draw_loop(monkeypatch, check, per_draw, n_draws):
    seen = []
    verdict = V._verdict
    monkeypatch.setattr(V, "_verdict", lambda name, res, *a: seen.append(res) or verdict(
        name, res, *a))
    checks = check(n_draws=n_draws, seed=20240901)
    assert seen == per_draw(np.random.default_rng(20240901), n_draws)
    assert all(type(x) is float for res in seen for x in res)
    assert all(c.passed for c in checks)
    if n_draws == 0:
        assert [c.worst_residual for c in checks] == [0.0] * len(checks)


@pytest.mark.parametrize("check, kwargs, name, patched, spoil", [
    (V.check_critical_field, {}, "critical_field_vs_closed_form", "detect_critical_field",
     lambda cps: cps[:-1]),
    (V.check_ground_mixture, {"n_draws": 2}, "ground_mixture_closed_form_vs_jacobi",
     "ground_state_mixture", lambda state: state._replace(Z=state.Z + 1.0)),
], ids=["critical_field-drops-a-crossing", "ground_mixture-wrong-degeneracy"])
def test_a_count_mismatch_fails_its_check_with_worst_inf(monkeypatch, check, kwargs, name,
                                                         patched, spoil):
    route = getattr(V, patched)
    monkeypatch.setattr(V, patched, lambda *a, **k: spoil(route(*a, **k)))
    (result,) = check(**kwargs)
    assert result.name == name and result.passed is False
    assert result.worst_residual == math.inf
