import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qutritxxz
from qutritxxz import matkernel
from qutritxxz.cli import main
from qutritxxz.entanglement import (
    NEGATIVE_EIG_TOL,
    InvalidState,
    UnsupportedStructure,
    _eig3,
    element_negativity,
    negativity,
    partial_transpose,
    pure_state_negativity_oracle,
)
from qutritxxz.matkernel import _jacobi, hermitian_eig
from qutritxxz.model import ModelParams, analytic_spectrum
from qutritxxz.sweeps import (
    FIGURE_NAMES,
    NoOnset,
    detect_critical_dz,
    detect_critical_field,
    figure_preset,
)
from qutritxxz.thermal import (
    gibbs,
    gibbs_analytic,
    gibbs_numeric,
    ground_state_mixture,
    thermal_point,
)
from qutritxxz.validate import check_headline, validate

from conftest import haar_unitary, random_params


def _pure(c):
    c = np.asarray(c, dtype=complex)
    c = c / np.linalg.norm(c)
    return np.outer(c, c.conj())


def _negative_pt_eigenvalues(rho):
    """The partial-transpose eigenvalues whose absolute sum negativity(rho) is."""
    w = matkernel.eigvalsh(partial_transpose(rho))
    return w[w < -NEGATIVE_EIG_TOL]


def test_pt_fixes_diagonal():
    rho = np.diag(np.arange(1.0, 10.0)).astype(complex) / 45.0
    assert np.array_equal(partial_transpose(rho), rho)


def test_pt_involution(rng):
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    assert np.array_equal(partial_transpose(partial_transpose(a)), a)


def test_pt_index_law(rng):
    rho = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    out = partial_transpose(rho)
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
    rho = np.eye(9, dtype=complex) / 9
    n = negativity(rho)
    assert n == 0.0
    assert _negative_pt_eigenvalues(rho).size == 0


def test_negativity_separable_is_positive_zero():
    # no negative PT eigenvalues: the value must not be the -0.0 of a negated empty sum
    n = negativity(np.eye(9, dtype=complex) / 9)
    assert math.copysign(1.0, n) == 1.0


def test_negativity_maximally_entangled():
    c = np.zeros(9)
    c[[0, 4, 8]] = 1.0  # (|00> + |11> + |22>) / sqrt(3)
    rho = _pure(c)
    n = negativity(rho)
    assert n == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(_negative_pt_eigenvalues(rho), -1 / 3, atol=1e-12)


def test_negativity_phi2():
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.0)
    phi2 = analytic_spectrum(p).vecs[:, 1]
    rho = np.outer(phi2, phi2.conj())
    n = negativity(rho)
    assert n == pytest.approx(0.5, abs=1e-12)
    assert _negative_pt_eigenvalues(rho).size == 1


def test_negativity_product_states():
    for m1 in range(3):
        for m2 in range(3):
            c = np.zeros(9)
            c[3 * m1 + m2] = 1.0
            assert negativity(_pure(c)) == 0.0


def test_negativity_headline_value():
    # frozen from the pure-state oracle on the closed-form ground state;
    # the published headline quotes 0.9616 for this regime
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.0)
    n = negativity(ground_state_mixture(p).rho)
    assert n == pytest.approx(0.9659875012030359, abs=1e-9)
    assert abs(n - 0.9616) < 0.01


def test_headline_scalar_routes_record():
    # the scalar routes of check_headline follow its two existing records
    checks = check_headline()
    assert [c.name for c in checks] == ["headline_route_agreement",
                                        "headline_vs_published_0.9616",
                                        "headline_scalar_routes"]
    scalar = checks[2]
    assert scalar.passed and scalar.tolerance == 1e-12
    assert "0.965987501203036" in scalar.detail


def test_negativity_both_subsystems_agree():
    # the second qutrit's partial transpose, built here by its index law,
    # has the spectrum of the first's, so negativity needs only the first
    p = ModelParams(R=0.5, gamma=0.8, Dz=1.3, B=0.4)
    rho = gibbs_analytic(p, 0.3).rho
    pt2 = rho.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
    w = np.linalg.eigvalsh(pt2)
    assert abs(negativity(rho) + float(w[w < -1e-12].sum())) < 1e-10


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
    with pytest.raises(InvalidState, match="expected a 9x9 density matrix"):
        negativity(np.eye(3, dtype=complex) / 3)  # a valid qutrit state, not a pair


def test_negativity_rejects_asymmetry_above_the_kernel_gate():
    # one Hermiticity gate, the kernel's 1e-12, named as a state error
    rho = np.eye(9, dtype=complex) / 9
    rho[0, 1] += 1e-10
    with pytest.raises(InvalidState, match="not Hermitian"):
        negativity(rho)
    rho[0, 1] = 1e-13
    assert negativity(rho) == 0.0


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
    full = negativity(_pure(spec.vecs[:, 7]))
    assert abs(full - expected) < 1e-10


def test_oracle_matches_pipeline_on_all_eigenvectors(rng):
    for _ in range(5):
        p = random_params(rng)
        vecs = analytic_spectrum(p).vecs
        for i in range(9):
            full = negativity(_pure(vecs[:, i]))
            oracle = pure_state_negativity_oracle(vecs[:, i])
            assert abs(full - oracle) < 1e-10


def test_oracle_rejects_non_permutation_support():
    c = np.zeros(9)
    c[[0, 1]] = 1 / np.sqrt(2)  # |-1,-1> and |-1,0> share the first-site label
    with pytest.raises(UnsupportedStructure):
        pure_state_negativity_oracle(c)


def test_oracle_rejects_a_wrong_number_of_coefficients():
    # normalized, so only the shape gate can fail
    with pytest.raises(UnsupportedStructure, match="expected 9 coefficients"):
        pure_state_negativity_oracle(np.ones(3) / np.sqrt(3))


def test_oracle_rejects_unnormalized():
    with pytest.raises(UnsupportedStructure):
        pure_state_negativity_oracle(np.ones(9))


def test_local_unitary_invariance(rng):
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.3)
    rho = gibbs_analytic(p, 0.2).rho
    n0 = negativity(rho)
    for _ in range(20):
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        n1 = negativity(u @ rho @ u.conj().T)
        assert abs(n0 - n1) < 1e-9


def test_parity_in_dz(rng):
    for _ in range(10):
        p = random_params(rng)
        t = float(rng.uniform(0.05, 2.0))
        n_plus = negativity(gibbs_analytic(p, t).rho)
        p_m = ModelParams(R=p.R, gamma=p.gamma, Dz=-p.Dz, B=p.B)
        n_minus = negativity(gibbs_analytic(p_m, t).rho)
        assert abs(n_plus - n_minus) < 1e-10


def test_parity_in_b(rng):
    for _ in range(10):
        p = random_params(rng)
        t = float(rng.uniform(0.05, 2.0))
        n_plus = negativity(gibbs_analytic(p, t).rho)
        p_m = ModelParams(R=p.R, gamma=p.gamma, Dz=p.Dz, B=-p.B)
        n_minus = negativity(gibbs_analytic(p_m, t).rho)
        assert abs(n_plus - n_minus) < 1e-10


def test_negativity_value_matches_stored_eigenvalues(rng):
    p = random_params(rng)
    rho = gibbs_analytic(p, 0.1).rho
    n = negativity(rho)
    assert n == pytest.approx(float(np.abs(_negative_pt_eigenvalues(rho)).sum()), abs=1e-12)
    assert 0.0 <= n <= 1.0 + 1e-9


def test_negativity_matches_dense_path_on_every_route(rng):
    for _ in range(30):
        p = random_params(rng)
        t = float(rng.uniform(0.01, 5.0))
        r0 = ModelParams(j_override=0.0, Dz=0.0, gamma=p.gamma, B=p.B)
        for rho in (gibbs_analytic(p, t).rho, gibbs_numeric(r0, t).rho,
                    ground_state_mixture(p).rho):
            pt = partial_transpose(rho)
            n = negativity(rho)
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


def test_library_source_names_no_linalg():
    # numpy.linalg appears only in the tests
    src = Path(qutritxxz.__file__).resolve().parent
    named = [f.name for f in sorted(src.rglob("*.py")) if "linalg" in f.read_text()]
    assert named == []


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
        assert negativity(_state_from_elements(el, theta)) == pytest.approx(1.0, abs=1e-15)


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
        assert element_negativity(el) == pytest.approx(negativity(rho), abs=1e-14)


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


@pytest.mark.parametrize("index", [2, 4, 5, 8], ids=["r24", "r35", "r37", "r68"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_element_negativity_rejects_non_finite_off_diagonals(index, x):
    # the trace holds no off-diagonal, so it cannot catch these
    el = [1.0 / 9, 1.0 / 9, 0.0, 1.0 / 9, 0.0, 0.0, 1.0 / 9, 1.0 / 9, 0.0, 1.0 / 9]
    el[index] = x
    with pytest.raises(InvalidState, match="not finite"):
        element_negativity(el)


def _replace_jacobi(monkeypatch, fn):
    """Put fn in place of _jacobi in matkernel and in every qutritxxz
    module that imported the name."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qutritxxz" and hasattr(module, "_jacobi"):
            monkeypatch.setattr(module, "_jacobi", fn)


@pytest.fixture
def jacobi_calls(monkeypatch):
    """The sizes of the matrices handed to _jacobi from outside matkernel,
    whose eigvalsh and hermitian_eig are the dense references."""
    calls = []

    def counting(off, cols=None):
        if sys._getframe(1).f_globals is not vars(matkernel):
            calls.append(len(off))
        return _jacobi(off, cols)

    _replace_jacobi(monkeypatch, counting)
    return calls


@pytest.mark.parametrize("c", [0.0, 1.0, 2.5, 1.0 / 9, 1.0 / 3, -3.0])
def test_eig3_multiple_of_identity(c, jacobi_calls):
    # p == 0: the diagonal, with no division by p
    assert _eig3(c, 0.0, 0.0, c, 0.0, c) == [c, c, c]
    assert jacobi_calls == []


def test_infinite_temperature_negativity_is_positive_zero():
    ninth = 1.0 / 9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ns = [element_negativity((ninth, ninth, 0.0, ninth, 0.0, 0.0, ninth, ninth, 0.0, ninth)),
              thermal_point(ModelParams(R=0.5, Dz=1.0, B=0.3), math.inf)[2]]
    for n in ns:
        assert n == 0.0 and str(n) == "0.0"


def test_eig3_repeated_eigenvalue_runs_no_jacobi(jacobi_calls):
    # the block of the maximally entangled state: 1/3 twice and -1/3
    third = 1.0 / 3.0
    w = sorted(_eig3(0.0, 0.0, third, third, 0.0, 0.0))
    assert w == pytest.approx([-third, third, third], abs=1e-15)
    assert jacobi_calls == []


@pytest.mark.parametrize("block, exact", [
    # det((A - qI)/p)/2 rounds to 1 + 4.4e-16 and to -1 - 4.4e-16 here
    ((0.1, 0.0, 0.0, 0.1, 0.0, 1.0 / 3), [0.1, 0.1, 1.0 / 3]),
    ((0.1, 0.0, 0.0, 0.1, 0.0, 0.05), [0.05, 0.1, 0.1]),
])
def test_eig3_clamps_r_outside_the_unit_interval(block, exact, jacobi_calls):
    # the clamp keeps acos in its domain
    assert sorted(_eig3(*block)) == pytest.approx(exact, abs=1e-16)
    assert jacobi_calls == []


def test_eig3_entries_near_1e_300(jacobi_calls):
    # p^2 and p^3 would underflow: p is a hypot and the determinant is of (A - qI)/p
    a = np.array([[1.0, 0.5, 0.2], [0.5, 2.0, 0.3], [0.2, 0.3, 3.5]])
    w = sorted(_eig3(*(1e-300 * a[i, k] for i, k in ((0, 0), (0, 1), (0, 2),
                                                     (1, 1), (1, 2), (2, 2)))))
    assert np.allclose(np.array(w) * 1e300, np.linalg.eigvalsh(a), rtol=1e-13, atol=0.0)
    assert jacobi_calls == []


def test_eig3_well_separated_block_runs_no_jacobi(jacobi_calls):
    p = ModelParams(R=0.5, Dz=1.0, B=0.3)
    for T in (0.5, 0.1, 2.0):
        rho = gibbs(p, T).rho
        assert thermal_point(p, T)[2] == pytest.approx(negativity(rho), abs=1e-14)
    assert jacobi_calls == []


def test_eig3_figure_rows_run_no_jacobi(jacobi_calls):
    rows = sum(len(res.rows) for name in FIGURE_NAMES for res in figure_preset(name))
    assert rows == 4415
    # 328 rows (7.4%) have a block with 1 - |r| < 1e-4, two eigenvalues nearly equal
    assert jacobi_calls == []


def test_eig3_matches_lapack_on_random_blocks():
    # scales 1e-3 to 1e3; every other block has a pair split by 1e-16 to 1e-2 relative
    rng = np.random.default_rng(23)
    errors = []
    for i in range(4000):
        w = rng.normal(size=3)
        if i % 2:
            w[1] = w[0] * (1.0 + 10.0 ** rng.uniform(-16.0, -2.0))
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        a = 10.0 ** rng.uniform(-3.0, 3.0) * (q * w) @ q.T
        a = (a + a.T) / 2
        exact = np.linalg.eigvalsh(a)
        got = np.sort(_eig3(a[0, 0], a[0, 1], a[0, 2], a[1, 1], a[1, 2], a[2, 2]))
        errors.append(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))
    assert np.max(errors) < 4e-15


@pytest.mark.parametrize("elements", [
    (1.5e308, 0.0, 0.0, 0.0, 0.0, 0.0, -1.5e308, 0.0, 0.0, 1.0),
    (1.0, 0.0, 1e308, 0.0, 0.0, -1e308, 0.0, 0.0, 1e308, 0.0),
], ids=["r11, r55", "r24, r37, r68"])
def test_element_negativity_rejects_elements_beyond_any_state(elements):
    # the trace is 1 and every element finite, but no |rho_ij| may exceed 1,
    # and the spread of the 3x3 block overflows
    with pytest.raises(InvalidState, match="spread"):
        element_negativity(elements)


@pytest.mark.parametrize("elements", [
    (1.0, 1e308, 0.0, 0.0, 0.0, 0.0, 0.0, -1e308, 0.0, 0.0),
    (1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.0),
], ids=["r22, r66 = +-1e308", "r22, r66 = +-0.5"])
def test_element_negativity_rejects_a_negative_diagonal(elements):
    # the trace is 1 and every element finite; unchecked, these read N = inf and 1.0
    with pytest.raises(InvalidState, match="diagonal"):
        element_negativity(elements)


def test_element_negativity_accepts_a_diagonal_within_state_tol():
    assert element_negativity((0.5 + 5e-13, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0,
                               -5e-13)) == 0.0


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_ground_state_singlet_at_isotropy(R):
    # gamma = 1, Dz = B = 0: the spin-1 singlet, N = 1
    assert thermal_point(ModelParams(R=R, gamma=1.0), 0.0)[2] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("R, gamma", [(0.5, 2.0), (1.0, 3.0), (1.25, 1.5)])
def test_ground_state_negativity_is_1_where_r_equals_gamma_j(R, gamma):
    # on ground level 9, N = 4(1 + chi2)/(chi2^2 + 8), which is 1 at chi2 = 2, r = gamma J
    J = ModelParams(R=R).J
    p = ModelParams(R=R, gamma=gamma, Dz=J * math.sqrt(gamma * gamma - 1.0))
    assert math.isclose(p.r, gamma * J, rel_tol=1e-14)
    assert thermal_point(p, 0.0)[2] == pytest.approx(1.0, abs=1e-12)


def test_ground_state_negativity_at_large_dz():
    # r -> |Dz| dominates gamma J: chi2 -> 2 sqrt(2), N -> (1 + 2 sqrt(2))/4
    n = thermal_point(ModelParams(R=0.5, Dz=1e6), 0.0)[2]
    assert abs(n - (1.0 + 2.0 * math.sqrt(2.0)) / 4.0) < 1e-7


def test_point_path_runs_with_jacobi_unavailable(monkeypatch):
    # presets, a 24-R critical survey and CLI negativity never reach _jacobi
    def refuse(off, cols=None):
        raise AssertionError(f"_jacobi called on a {len(off)}x{len(off)} matrix")

    _replace_jacobi(monkeypatch, refuse)
    for name in FIGURE_NAMES:
        figure_preset(name)
    for i in range(24):
        R = 0.2 + (i + 0.5) * 2.8 / 24
        detect_critical_field(ModelParams(R=R, Dz=1.0), b_max=2.0)
        try:
            detect_critical_dz(ModelParams(R=R, B=0.5), T=0.08)
        except NoOnset:
            pass
    for T in ("0", "0.08"):
        assert main(["negativity", "--R", "0.5", "--Dz", "1", "--B", "0.3", "--T", T]) == 0


near_degenerate = st.tuples(
    st.sampled_from(["random", "tiny r"]),
    st.sampled_from(["T in [0.01, 5]", "T up to 1e9", "T = inf", "T = 0", "crossing"]),
    st.floats(0.05, 6.0), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.floats(0.0, 3.0),
    st.floats(0.01, 5.0), st.floats(0.0, 9.0), st.floats(-9.0, 0.0), st.integers(0, 8),
)


@settings(max_examples=300, deadline=None)
@given(near_degenerate)
def test_element_negativity_matches_lapack_near_degenerate_blocks(draw):
    coupling, regime, R, gamma, Dz, B, T, log_t, log_r, k = draw
    p = ModelParams(R=R, gamma=gamma, Dz=Dz, B=B)
    if coupling == "tiny r":
        p = ModelParams(gamma=gamma, Dz=10.0 ** log_r * math.copysign(1.0, Dz), B=B,
                        j_override=10.0 ** (log_r - 0.5))
    if regime == "T up to 1e9":
        T = 10.0 ** log_t
    elif regime == "T = inf":
        T = math.inf
    elif regime in ("T = 0", "crossing"):
        T = 0.0
        crossings = detect_critical_field(p, b_max=5.0) if regime == "crossing" else []
        if crossings:
            p = p.replace(B=crossings[k % len(crossings)].value)
    rho = ground_state_mixture(p).rho if T == 0.0 else gibbs(p, T).rho
    w = np.linalg.eigvalsh(partial_transpose(rho))
    lapack = -float(w[w < -1e-12].sum())
    assert thermal_point(p, T)[2] == pytest.approx(lapack, abs=1e-12)
