"""The verdict rule of validate: a route that returns NaN fails its check.

Each case replaces one name that a check reads from qutritxxz.validate by
a wrapper whose result carries NaN, runs the check with few draws and
expects that check to fail with a NaN worst residual."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from qutritxxz.matkernel import EigenDecomposition

V = importlib.import_module("qutritxxz.validate")
NAN = math.nan


def _nan_field(name):
    """A dataclass result with the field `name` replaced by NaN, or by NaN
    times it where it is an array."""
    def spoil(x):
        value = getattr(x, name)
        return replace(x, **{name: value * NAN if isinstance(value, np.ndarray) else NAN})
    return spoil


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
     "hermitian_eig", lambda d: EigenDecomposition(d.eigenvalues, d.eigenvectors * NAN)),
    (V.check_symmetries, {"n_draws": 3}, "negativity_even_in_Dz", "negativity",
     lambda n: NAN),
    (V.check_symmetries, {"n_draws": 3}, "negativity_even_in_B", "negativity",
     lambda n: NAN),
    (V.check_invariants, {"n_draws": 3}, "negativity_invariant_in_gammaJ_r", "thermal_point",
     lambda zen: (zen[0], zen[1], NAN)),
    (V.check_invariants, {"n_draws": 3}, "partition_function_invariant_in_gammaJ_r",
     "thermal_point", lambda zen: (NAN, zen[1], zen[2])),
    (V.check_oracle, {}, "pure_state_oracle_vs_pt_pipeline", "pure_state_negativity_oracle",
     lambda n: NAN),
    (V.check_negativity_routes, {"n_draws": 2}, "negativity_closed_form_vs_dense",
     "thermal_point", lambda zen: (zen[0], zen[1], NAN)),
    # its dense side
    (V.check_negativity_routes, {"n_draws": 2}, "negativity_closed_form_vs_dense",
     "negativity", lambda n: NAN),
    (V.check_critical_field, {}, "critical_field_vs_closed_form", "detect_critical_field",
     lambda cps: [replace(cp, value=NAN) for cp in cps]),
    (V.check_headline, {}, "headline_scalar_routes", "thermal_point",
     lambda zen: (zen[0], zen[1], NAN)),
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
