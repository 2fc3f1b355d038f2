import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutritxxz.matkernel import hermitian_eig
from qutritxxz.model import (
    IDENTITY3,
    SPIN_X,
    SPIN_Y,
    SPIN_Z,
    XX_PLUS_YY,
    XY_MINUS_YX,
    Z_TOTAL,
    ZZ,
    DegenerateCoupling,
    DomainError,
    ModelParams,
    analytic_spectrum,
    closed_form_levels,
    effective_coupling,
    hamiltonian_closed_form,
    hamiltonian_tensor,
    hf_coupling,
)

from conftest import random_params

params_strategy = st.builds(
    ModelParams,
    R=st.floats(0.05, 6.0),
    gamma=st.floats(-2.0, 2.0),
    Dz=st.floats(-3.0, 3.0),
    B=st.floats(-3.0, 3.0),
)


def test_spin_matrices_hermitian():
    for s in (SPIN_X, SPIN_Y, SPIN_Z):
        assert np.max(np.abs(s - s.conj().T)) == 0


def test_spin_commutator():
    # [sx, sy] = i sz for the spin-1 matrices
    comm = SPIN_X @ SPIN_Y - SPIN_Y @ SPIN_X
    assert np.max(np.abs(comm - 1j * SPIN_Z)) < 1e-14


def test_hf_coupling_values():
    # frozen from direct scalar evaluation of 1.642 exp(-2R) R^{5/2}
    assert hf_coupling(0.5) == pytest.approx(0.10678338450344795, abs=1e-12)
    assert hf_coupling(1.25) == pytest.approx(0.23545720290435596, abs=1e-12)
    assert hf_coupling(6.0) == pytest.approx(8.896e-4, abs=1e-6)


def test_hf_coupling_maximum_at_1_25():
    # stationary point of R^{5/2} e^{-2R} is R = (5/2)/2 = 1.25
    eps = 1e-4
    assert hf_coupling(1.25) > hf_coupling(1.25 - eps)
    assert hf_coupling(1.25) > hf_coupling(1.25 + eps)
    assert hf_coupling(1.25) == pytest.approx(0.235460, abs=1e-4)


def test_hf_coupling_is_zero_once_the_decay_underflows():
    # R^{5/2} overflows from R ~ 1.2e123, long after exp(-2R) is 0.0
    assert hf_coupling(1e200) == 0.0
    assert hf_coupling(1.7e308) == 0.0
    for r in (0.5, 1.25, 6.0, 100.0, 372.0, 400.0, 1e100):
        assert hf_coupling(r) == 1.642 * math.exp(-2.0 * r) * r**2.5


def test_closed_form_levels_overflow_raises():
    with pytest.raises(OverflowError):
        closed_form_levels(1e200, 0.0, 1e200)
    with pytest.raises(OverflowError):
        closed_form_levels(math.inf, 0.0, 1e200)
    eps, chi1, chi2 = closed_form_levels(1e150, 0.0, 1e150)
    assert all(math.isfinite(x) for x in (*eps, chi1, chi2))


def test_hf_coupling_domain():
    with pytest.raises(DomainError):
        hf_coupling(0.0)
    with pytest.raises(DomainError):
        hf_coupling(-1.0)


def test_model_params_requires_positive_r():
    with pytest.raises(DomainError):
        ModelParams(R=-1.0)
    # fine with a direct-J override
    p = ModelParams(R=-1.0, j_override=-0.5)
    assert p.J == -0.5


@pytest.mark.parametrize("field", ["R", "gamma", "Dz", "B", "j_override"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_model_params_rejects_non_finite(field, value):
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        ModelParams(**{field: value})


def test_effective_coupling_examples():
    r, theta, deg = effective_coupling(ModelParams(R=1.0, Dz=0.0, j_override=0.5))
    assert (r, theta, deg) == (0.5, 0.0, False)

    r, theta, _ = effective_coupling(ModelParams(Dz=1.0, j_override=1.0))
    assert r == pytest.approx(np.sqrt(2), abs=1e-15)
    assert theta == pytest.approx(np.pi / 4, abs=1e-15)

    r, theta, _ = effective_coupling(ModelParams(R=1.0, Dz=1.0))
    assert r == pytest.approx(1.0243934625956987, abs=1e-12)
    assert theta == pytest.approx(1.352128988674047, abs=1e-12)


def test_effective_coupling_j_zero():
    r, theta, _ = effective_coupling(ModelParams(Dz=1.0, j_override=0.0))
    assert theta == pytest.approx(np.pi / 2, abs=1e-15)
    assert r == 1.0


def test_effective_coupling_degenerate():
    r, theta, degenerate = effective_coupling(ModelParams(Dz=0.0, j_override=0.0))
    assert degenerate
    assert (r, theta) == (0.0, 0.0)


def test_zeeman_only_diagonal():
    p = ModelParams(j_override=0.0, Dz=0.0, gamma=1.0, B=1.0)
    h = hamiltonian_tensor(p)
    assert np.array_equal(h, np.diag([2, 1, 0, 1, 0, -1, 0, -1, -2]).astype(complex))


def test_tensor_matches_per_call_kron_assembly(rng):
    # the operators made once at import give the same bits as the products
    # assembled afresh in the same order
    for _ in range(50):
        p = random_params(rng)
        h = p.J * (np.kron(SPIN_X, SPIN_X) + np.kron(SPIN_Y, SPIN_Y)
                   + p.gamma * np.kron(SPIN_Z, SPIN_Z))
        h += p.Dz * (np.kron(SPIN_X, SPIN_Y) - np.kron(SPIN_Y, SPIN_X))
        h += p.B * (np.kron(SPIN_Z, IDENTITY3) + np.kron(IDENTITY3, SPIN_Z))
        assert np.array_equal(hamiltonian_tensor(p), h)


@pytest.mark.parametrize("op", [XX_PLUS_YY, ZZ, XY_MINUS_YX, Z_TOTAL])
def test_two_site_operators_are_read_only(op):
    assert op.shape == (9, 9) and not op.flags.writeable
    with pytest.raises(ValueError):
        op[0, 0] = 1.0


def test_top_left_entry():
    p = ModelParams(R=0.7, gamma=1.3, Dz=0.4, B=0.9)
    h = hamiltonian_tensor(p)
    assert h[0, 0] == pytest.approx(p.gamma * p.J + 2 * p.B, abs=1e-14)


def test_closed_form_off_diagonal_phase():
    p = ModelParams(R=0.7, gamma=1.3, Dz=0.4, B=0.9)
    r, theta, _ = effective_coupling(p)
    h = hamiltonian_closed_form(p)
    assert h[1, 3] == pytest.approx(r * np.exp(1j * theta), abs=1e-14)


def test_closed_form_real_at_dz_zero():
    h = hamiltonian_closed_form(ModelParams(R=0.8, Dz=0.0, B=0.3))
    assert np.max(np.abs(h.imag)) == 0


@settings(max_examples=100, deadline=None)
@given(params_strategy)
def test_tensor_vs_closed_form(p):
    diff = hamiltonian_tensor(p) - hamiltonian_closed_form(p)
    assert np.max(np.abs(diff)) < 1e-12


def test_spectrum_example_r1():
    # frozen from the numeric diagonalization oracle at R=1, g=1, Dz=1, B=1
    spec = analytic_spectrum(ModelParams(R=1.0, gamma=1.0, Dz=1.0, B=1.0))
    expected = [2.024393, -0.024393, 2.222221, -1.777779, -0.222221,
                0.024393, -2.024393, 1.341855, -1.564076]
    assert np.allclose(spec.eps, expected, atol=1e-5)
    numeric = hermitian_eig(hamiltonian_tensor(ModelParams(R=1.0, gamma=1.0, Dz=1.0, B=1.0)))
    assert np.max(np.abs(spec.sorted_eigenvalues() - numeric.eigenvalues)) < 1e-10


def test_spectrum_traceless():
    spec = analytic_spectrum(ModelParams(R=0.4, gamma=-1.2, Dz=2.0, B=0.7))
    assert abs(spec.eps.sum()) < 1e-12


def test_ground_state_at_b_zero():
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.0)
    spec = analytic_spectrum(p)
    gj, r = p.gamma * p.J, p.r
    expected = -(gj + np.sqrt(gj * gj + 8 * r * r)) / 2
    assert spec.eps[8] == pytest.approx(expected, abs=1e-14)
    assert spec.eps[8] == spec.eps.min()


def test_spectrum_degenerate_coupling():
    with pytest.raises(DegenerateCoupling):
        analytic_spectrum(ModelParams(Dz=0.0, j_override=0.0))


@settings(max_examples=200, deadline=None)
@given(params_strategy)
def test_analytic_vs_numeric_spectrum(p):
    spec = analytic_spectrum(p)
    h = hamiltonian_tensor(p)
    numeric = hermitian_eig(h).eigenvalues
    assert np.max(np.abs(spec.sorted_eigenvalues() - numeric)) < 1e-10
    # eigenvector residuals and the chi identity on the same draws
    res = h @ spec.vecs - spec.vecs * spec.eps
    assert np.max(np.linalg.norm(res, axis=0)) < 1e-12
    assert abs(spec.chi1 * spec.chi2 - 8.0) < 1e-12
    assert abs(spec.eps.sum()) < 1e-12


def test_eigenvectors_unit_norm():
    spec = analytic_spectrum(ModelParams(R=0.9, gamma=0.4, Dz=-1.1, B=0.2))
    norms = np.linalg.norm(spec.vecs, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-14


def test_dz_conjugation_symmetry(rng):
    for _ in range(20):
        p = random_params(rng)
        h_plus = hamiltonian_tensor(p)
        h_minus = hamiltonian_tensor(ModelParams(R=p.R, gamma=p.gamma, Dz=-p.Dz, B=p.B))
        assert np.array_equal(h_minus, h_plus.conj())


def test_b_flip_symmetry(rng):
    # the spin flip also reverses the DM term, so conjugation (which undoes
    # Dz -> -Dz) is needed on top: H(-B) = conj((F x F) H(B) (F x F))
    flip = np.eye(3)[::-1].astype(complex)
    ff = np.kron(flip, flip)
    for _ in range(20):
        p = random_params(rng)
        h_plus = hamiltonian_tensor(p)
        h_minus = hamiltonian_tensor(ModelParams(R=p.R, gamma=p.gamma, Dz=p.Dz, B=-p.B))
        assert np.array_equal(h_minus, (ff @ h_plus @ ff).conj())
