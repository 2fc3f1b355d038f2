import math

import numpy as np
import pytest

from qutritxxz.cli import main
from qutritxxz.entanglement import (
    InvalidState,
    UnsupportedStructure,
    element_negativity,
    negativity,
    partial_transpose,
    pure_state_negativity_oracle,
)
from qutritxxz.matkernel import hermitian_eig
from qutritxxz.model import ModelParams, analytic_spectrum
from qutritxxz.sweeps import figure_preset
from qutritxxz.thermal import gibbs_analytic, gibbs_numeric, ground_state_mixture
from qutritxxz.validate import validate

from conftest import haar_unitary, random_params


def _pure(c):
    c = np.asarray(c, dtype=complex)
    c = c / np.linalg.norm(c)
    return np.outer(c, c.conj())


def test_pt_fixes_diagonal():
    rho = np.diag(np.arange(1.0, 10.0)).astype(complex) / 45.0
    assert np.array_equal(partial_transpose(rho), rho)


def test_pt_involution(rng):
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    for sub in ("first", "second"):
        assert np.array_equal(partial_transpose(partial_transpose(a, sub), sub), a)


def test_pt_index_law(rng):
    rho = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    out = partial_transpose(rho, "first")
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for ell in range(3):
                    assert out[3 * i + j, 3 * k + ell] == rho[3 * k + j, 3 * i + ell]


def test_pt_preserves_hermiticity():
    p = ModelParams(R=0.7, gamma=0.9, Dz=1.4, B=0.6)
    rho = gibbs_analytic(p, 0.5).rho
    pt = partial_transpose(rho)
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-14


def test_pt_moves_thermal_elements():
    # the (|-1,0>,|0,-1>) coherence lands on the ((0,0),(1,1)) slot
    p = ModelParams(R=0.7, gamma=0.9, Dz=1.4, B=0.6)
    rho = gibbs_analytic(p, 0.5).rho
    pt = partial_transpose(rho)
    assert pt[0, 4] == rho[3, 1]
    assert pt[0, 8] == rho[6, 2]
    assert pt[4, 8] == rho[7, 5]
    assert pt[1, 5] == rho[4, 2]


def test_pt_bad_shape():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4))


def test_negativity_maximally_mixed():
    res = negativity(np.eye(9, dtype=complex) / 9)
    assert res.value == 0.0
    assert res.negative_eigenvalues.size == 0


def test_negativity_separable_is_positive_zero():
    # no negative PT eigenvalues: the value must not be the -0.0 of a negated empty sum
    res = negativity(np.eye(9, dtype=complex) / 9)
    assert math.copysign(1.0, res.value) == 1.0


def test_negativity_maximally_entangled():
    c = np.zeros(9)
    c[[0, 4, 8]] = 1.0  # (|00> + |11> + |22>) / sqrt(3)
    res = negativity(_pure(c))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.negative_eigenvalues, -1 / 3, atol=1e-12)


def test_negativity_phi2():
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.0)
    phi2 = analytic_spectrum(p).vecs[:, 1]
    res = negativity(np.outer(phi2, phi2.conj()))
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.negative_eigenvalues.size == 1


def test_negativity_product_states():
    for m1 in range(3):
        for m2 in range(3):
            c = np.zeros(9)
            c[3 * m1 + m2] = 1.0
            assert negativity(_pure(c)).value == 0.0


def test_negativity_headline_value():
    # frozen from the pure-state oracle on the closed-form ground state;
    # the published headline quotes 0.9616 for this regime
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.0)
    n = negativity(ground_state_mixture(p).rho).value
    assert n == pytest.approx(0.9659875012030359, abs=1e-9)
    assert abs(n - 0.9616) < 0.01


def test_negativity_both_subsystems_agree():
    p = ModelParams(R=0.5, gamma=0.8, Dz=1.3, B=0.4)
    rho = gibbs_analytic(p, 0.3).rho
    n1 = negativity(rho, "first").value
    n2 = negativity(rho, "second").value
    assert abs(n1 - n2) < 1e-10


def test_negativity_rejects_invalid_states():
    with pytest.raises(InvalidState):
        negativity(np.eye(9, dtype=complex))  # trace 9
    bad = np.zeros((9, 9), dtype=complex)
    bad[0, 0], bad[1, 1] = 1.5, -0.5
    bad[0, 1] = bad[1, 0] = 0.9
    with pytest.raises(InvalidState):
        negativity(bad)  # not PSD
    nh = np.eye(9, dtype=complex) / 9
    nh[0, 1] = 1e-3
    with pytest.raises(InvalidState):
        negativity(nh)  # not Hermitian


def test_oracle_product_state():
    c = np.zeros(9)
    c[0] = 1.0
    assert pure_state_negativity_oracle(c) == 0.0


def test_oracle_two_term():
    c = np.zeros(9)
    c[[1, 3]] = 1 / np.sqrt(2)  # |-1,0> and |0,-1>
    assert pure_state_negativity_oracle(c) == pytest.approx(0.5, abs=1e-12)


def test_oracle_phi8_closed_form():
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.0)
    spec = analytic_spectrum(p)
    a = 2 / np.sqrt(spec.chi1**2 + 8)
    b = spec.chi1 / np.sqrt(spec.chi1**2 + 8)
    expected = a * a + 2 * a * b
    assert pure_state_negativity_oracle(spec.vecs[:, 7]) == pytest.approx(expected, abs=1e-12)
    full = negativity(_pure(spec.vecs[:, 7])).value
    assert abs(full - expected) < 1e-10


def test_oracle_matches_pipeline_on_all_eigenvectors(rng):
    for _ in range(5):
        p = random_params(rng)
        vecs = analytic_spectrum(p).vecs
        for i in range(9):
            full = negativity(_pure(vecs[:, i])).value
            oracle = pure_state_negativity_oracle(vecs[:, i])
            assert abs(full - oracle) < 1e-10


def test_oracle_rejects_non_permutation_support():
    c = np.zeros(9)
    c[[0, 1]] = 1 / np.sqrt(2)  # |-1,-1> and |-1,0> share the first-site label
    with pytest.raises(UnsupportedStructure):
        pure_state_negativity_oracle(c)


def test_oracle_rejects_unnormalized():
    with pytest.raises(UnsupportedStructure):
        pure_state_negativity_oracle(np.ones(9))


def test_local_unitary_invariance(rng):
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.3)
    rho = gibbs_analytic(p, 0.2).rho
    n0 = negativity(rho).value
    for _ in range(20):
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        n1 = negativity(u @ rho @ u.conj().T).value
        assert abs(n0 - n1) < 1e-9


def test_parity_in_dz(rng):
    for _ in range(10):
        p = random_params(rng)
        t = float(rng.uniform(0.05, 2.0))
        n_plus = negativity(gibbs_analytic(p, t).rho).value
        p_m = ModelParams(R=p.R, gamma=p.gamma, Dz=-p.Dz, B=p.B)
        n_minus = negativity(gibbs_analytic(p_m, t).rho).value
        assert abs(n_plus - n_minus) < 1e-10


def test_parity_in_b(rng):
    for _ in range(10):
        p = random_params(rng)
        t = float(rng.uniform(0.05, 2.0))
        n_plus = negativity(gibbs_analytic(p, t).rho).value
        p_m = ModelParams(R=p.R, gamma=p.gamma, Dz=p.Dz, B=-p.B)
        n_minus = negativity(gibbs_analytic(p_m, t).rho).value
        assert abs(n_plus - n_minus) < 1e-10


def test_negativity_value_matches_stored_eigenvalues(rng):
    p = random_params(rng)
    res = negativity(gibbs_analytic(p, 0.1).rho)
    assert res.value == pytest.approx(float(np.abs(res.negative_eigenvalues).sum()),
                                      abs=1e-12)
    assert 0.0 <= res.value <= 1.0 + 1e-9


@pytest.mark.parametrize("subsystem", ["first", "second"])
def test_negativity_matches_dense_path_on_every_route(subsystem, rng):
    for _ in range(30):
        p = random_params(rng)
        t = float(rng.uniform(0.01, 5.0))
        r0 = ModelParams(j_override=0.0, Dz=0.0, gamma=p.gamma, B=p.B)
        for rho in (gibbs_analytic(p, t).rho, gibbs_numeric(r0, t).rho,
                    ground_state_mixture(p).rho):
            pt = partial_transpose(rho, subsystem)
            n = negativity(rho, subsystem).value
            # hermitian_eig shares _jacobi with negativity; numpy's LAPACK
            # eigvalsh (tests only) is the independent oracle
            for w in (hermitian_eig(pt).eigenvalues, np.linalg.eigvalsh(pt)):
                assert abs(n + float(w[w < -1e-12].sum())) < 1e-12


def test_library_path_calls_no_lapack_eigenroutine(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg eigenroutine called on the library path")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    assert len(figure_preset("fig2a")) == 3
    assert len(figure_preset("fig4c")) == 1
    assert main(["negativity", "--R", "0.5", "--Dz", "1", "--T", "0.04"]) == 0
    assert validate(fast=True)["passed"]


def _state_from_elements(el, theta):
    """The 9x9 state of element_negativity's form, with phase theta."""
    r11, r22, r24, r33, r35, r37, r55, r66, r68, r99 = el
    e1 = np.exp(1j * theta)
    rho = np.diag([r11, r22, r33, r22, r55, r66, r33, r66, r99]).astype(complex)
    for (i, k), v in {(1, 3): e1 * r24, (2, 4): e1 * r35, (2, 6): e1 * e1 * r37,
                      (4, 6): e1 * r35, (5, 7): e1 * r68}.items():
        rho[i, k], rho[k, i] = v, np.conj(v)
    return rho


def test_element_negativity_maximally_entangled():
    # (|-1,1> + |0,0> + |1,-1>)/sqrt(3): 2x2 blocks +-1/3 (each twice) and a
    # 3x3 block with eigenvalues 1/3, 1/3, -1/3 give N = 2/3 + 1/3
    third = 1.0 / 3.0
    el = (0.0, 0.0, 0.0, third, third, third, third, 0.0, 0.0, 0.0)
    assert element_negativity(el) == pytest.approx(1.0, abs=1e-15)
    for theta in (0.0, 0.7, -2.9):
        assert negativity(_state_from_elements(el, theta)).value == pytest.approx(1.0, abs=1e-15)


def test_element_negativity_matches_pipeline_on_thermal_states(rng):
    # the elements of a closed-form Gibbs state, read back from its matrix
    for _ in range(20):
        p = random_params(rng)
        rho = gibbs_analytic(p, float(rng.uniform(0.02, 3.0))).rho
        e1 = np.exp(1j * p.theta)
        el = [rho[0, 0].real, rho[1, 1].real, (rho[1, 3] / e1).real, rho[2, 2].real,
              (rho[2, 4] / e1).real, (rho[2, 6] / e1 ** 2).real, rho[4, 4].real,
              rho[5, 5].real, (rho[5, 7] / e1).real, rho[8, 8].real]
        assert np.max(np.abs(_state_from_elements(el, p.theta) - rho)) < 1e-15
        assert element_negativity(el) == pytest.approx(negativity(rho).value, abs=1e-14)


def test_element_negativity_checks_the_trace():
    third = 1.0 / 3.0
    with pytest.raises(InvalidState, match="trace"):
        element_negativity((0.0, 0.0, 0.0, third, third, third, 0.5, 0.0, 0.0, 0.0))
    with pytest.raises(InvalidState, match="trace"):
        element_negativity((math.nan, 0.0, 0.0, third, third, third, third, 0.0, 0.0, 0.0))
    # separable: +0.0, not -0.0
    n = element_negativity((1.0 / 9,) * 2 + (0.0,) + (1.0 / 9,) + (0.0, 0.0)
                           + (1.0 / 9,) * 2 + (0.0, 1.0 / 9))
    assert n == 0.0 and str(n) == "0.0"
