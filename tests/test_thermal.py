import math
import warnings
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutritxxz.entanglement import NEGATIVE_EIG_TOL, negativity, partial_transpose
from qutritxxz.matkernel import hermitian_eig
from qutritxxz.model import (
    DegenerateCoupling,
    DomainError,
    ModelParams,
    analytic_spectrum,
    hamiltonian_tensor,
)
from qutritxxz.thermal import (
    GROUND_DEGENERACY_TOL,
    _state,
    _weights,
    _z_and_log_z,
    gibbs,
    gibbs_analytic,
    gibbs_numeric,
    ground_state_mixture,
    inverse_temperature,
    _numeric_state,
    level_values,
    partition_function,
    thermal_point,
)

from conftest import random_params

P_REF = ModelParams(R=1.0, gamma=1.0, Dz=1.0, B=1.0)

draw_strategy = st.tuples(
    st.floats(0.05, 6.0), st.floats(-2.0, 2.0),
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.floats(0.05, 5.0),
)


def test_partition_function_infinite_t():
    assert partition_function(P_REF, 1e6) == pytest.approx(9.0, abs=1e-4)


def test_partition_function_example():
    # frozen: sum exp(-eps_i) over the nine closed-form eigenvalues at T = 1
    assert partition_function(P_REF, 1.0) == pytest.approx(22.017722747035272, abs=1e-9)
    assert partition_function(P_REF, 1.0) == pytest.approx(22.018, abs=1e-3)


def test_partition_function_domain():
    with pytest.raises(DomainError):
        partition_function(P_REF, 0.0)
    with pytest.raises(DomainError):
        partition_function(P_REF, -1.0)


@pytest.mark.parametrize("route", [partition_function, gibbs, gibbs_analytic, gibbs_numeric])
def test_nan_temperature_rejected(route):
    with pytest.raises(DomainError):
        route(P_REF, float("nan"))


@pytest.mark.parametrize("T", ["1", None], ids=["str", "None"])
def test_non_real_temperature_rejected(T):
    # float("1") would read a string as a temperature
    for route in (thermal_point, partition_function, gibbs, gibbs_numeric):
        with pytest.raises(DomainError, match="temperature must be a real number"):
            route(P_REF, T)


@pytest.mark.parametrize("route", [gibbs, gibbs_analytic, gibbs_numeric])
def test_state_routes_reject_zero_temperature(route):
    # T = 0 is ground_state_mixture's, and the dense route's only through
    # _numeric_state at beta = inf
    with pytest.raises(DomainError, match="must be positive"):
        route(P_REF, 0.0)


def test_infinite_temperature_is_maximally_mixed():
    assert inverse_temperature(float("inf")) == 0.0
    for route in (gibbs_analytic, gibbs_numeric):
        state = route(P_REF, float("inf"))
        assert state.Z == 9.0
        assert np.max(np.abs(state.rho - np.eye(9) / 9)) < 1e-15


def test_partition_function_matches_trace(rng):
    for _ in range(10):
        p = random_params(rng)
        t = float(rng.uniform(0.1, 5.0))
        w = hermitian_eig(hamiltonian_tensor(p)).eigenvalues
        z_trace = float(np.exp(-w / t).sum())
        assert partition_function(p, t) == pytest.approx(z_trace, rel=1e-10)


def test_partition_function_low_t_no_overflow():
    z = partition_function(P_REF, 1e-6)
    assert z == np.inf  # true Z diverges, shifted arithmetic stayed finite


def test_gibbs_infinite_temperature():
    rho = gibbs_numeric(P_REF, 1e6).rho
    assert np.max(np.abs(rho - np.eye(9) / 9)) < 1e-4


def test_gibbs_state_invariants(rng):
    for _ in range(10):
        p = random_params(rng)
        t = float(rng.uniform(0.05, 5.0))
        rho = gibbs_numeric(p, t).rho
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert hermitian_eig(rho).eigenvalues[0] >= -1e-12
        h = hamiltonian_tensor(p)
        assert np.max(np.abs(h @ rho - rho @ h)) < 1e-10


@settings(max_examples=200, deadline=None)
@given(draw_strategy)
def test_gibbs_dual_route(draw):
    r_, g, dz, b, t = draw
    p = ModelParams(R=r_, gamma=g, Dz=dz, B=b)
    diff = gibbs_analytic(p, t).rho - gibbs_numeric(p, t).rho
    assert np.max(np.abs(diff)) < 1e-10


def test_gibbs_z_routes_agree(rng):
    for _ in range(10):
        p = random_params(rng)
        t = float(rng.uniform(0.05, 5.0))
        assert gibbs_analytic(p, t).Z == pytest.approx(partition_function(p, t), rel=1e-10)


def test_analytic_elements_match_printed_forms():
    # rho22 * Z = e^{-bB} cosh(b r), rho24 * Z = -e^{-bB} sinh(b r)
    p, t = P_REF, 0.8
    beta = 1.0 / t
    state = gibbs_analytic(p, t)
    z = state.Z
    r = p.r
    assert state.rho[1, 1] * z == pytest.approx(np.exp(-beta * p.B) * np.cosh(beta * r),
                                                rel=1e-10)
    theta = p.theta
    expected_24 = -np.exp(-beta * p.B) * np.sinh(beta * r) * np.exp(1j * theta)
    assert state.rho[1, 3] * z == pytest.approx(expected_24, rel=1e-10)


@pytest.mark.parametrize("gamma", [1e200, -1e200])
def test_state_is_finite_where_chi_is_huge(gamma):
    # gamma J / r = 1e200 makes chi1 (gamma > 0) or chi2 (gamma < 0) about
    # 2e200, so chi^2 + 8 overflows; the elements read only the levels
    # eps8 and eps9, and the ground pair is an equal mixture of two
    # product-like states, so N = 0
    p = ModelParams(j_override=1e-50, gamma=gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in (1.0, 0.0, math.inf):
            elements = _state(p, inverse_temperature(T, allow_zero=True))[3]
            r11, r22, _, r33, _, _, r55, r66, _, r99 = elements
            assert all(math.isfinite(x) for x in elements)
            assert math.fsum((r11, 2 * r22, 2 * r33, r55, 2 * r66, r99)) == pytest.approx(
                1.0, abs=1e-15)
            assert thermal_point(p, T)[2] == 0.0
        for state in (gibbs(p, 1.0), ground_state_mixture(p)):
            assert np.all(np.isfinite(state.rho))
            assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-15)
        assert partition_function(p, math.inf) == 9.0
        assert thermal_point(p, 0.0)[3] == math.log(2.0)


def _decimal_jacobi(a):
    """Eigenvalues and eigenvector columns of the real symmetric matrix a
    (lists of Decimal), by cyclic Jacobi at the current decimal precision."""
    n = len(a)
    a = [row[:] for row in a]
    v = [[Decimal(int(i == j)) for j in range(n)] for i in range(n)]
    scale = sum(x * x for row in a for x in row)
    for _ in range(30):
        off = sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
        if off <= scale * Decimal(10) ** (-2 * getcontext().prec + 4):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p][q] == 0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2 * a[p][q])
                t = (1 if theta >= 0 else -1) / (abs(theta) + (theta * theta + 1).sqrt())
                c = 1 / (t * t + 1).sqrt()
                s = t * c
                for m in (a, v):          # columns p and q
                    for k in range(n):
                        x, y = m[k][p], m[k][q]
                        m[k][p], m[k][q] = c * x - s * y, s * x + c * y
                for k in range(n):        # rows p and q
                    x, y = a[p][k], a[q][k]
                    a[p][k], a[q][k] = c * x - s * y, s * x + c * y
    return [a[i][i] for i in range(n)], v


def _decimal_negativity(p: ModelParams, T: float) -> Decimal:
    """N of exp(-H/T)/Z at 50 digits: the real tensor-product H (theta = 0)
    diagonalized, exponentiated and partially transposed in Decimal."""
    h = hamiltonian_tensor(p)
    assert not h.imag.any()
    with localcontext() as ctx:
        ctx.prec = 50
        w, v = _decimal_jacobi([[Decimal(float(x)) for x in row] for row in h.real])
        u = [(-(e - min(w)) / Decimal(T)).exp() for e in w]
        rho = [[sum(v[i][k] * u[k] * v[j][k] for k in range(9)) / sum(u) for j in range(9)]
               for i in range(9)]
        # swap the first qutrit's indices: |a,b><c,d| -> |c,b><a,d|
        pt = [[rho[3 * (j // 3) + i % 3][3 * (i // 3) + j % 3] for j in range(9)]
              for i in range(9)]
        return -sum(x for x in _decimal_jacobi(pt)[0] if x < 0)


def test_thermal_point_at_large_anisotropy_matches_decimal_reference():
    # at gamma J = 2e4 >> r = 0.2 the pair eps8, eps9 is far from symmetric;
    # the closed form must not lose the small level to cancellation
    p, T = ModelParams(j_override=0.2, gamma=1e5), 1000.0
    reference = _decimal_negativity(p, T)
    assert float(reference) == pytest.approx(9.998888790203519e-06, rel=1e-14)
    assert thermal_point(p, T)[2] == pytest.approx(float(reference), rel=1e-9)


def test_off_diagonals_vanish_at_high_t():
    rho = gibbs_analytic(P_REF, 1e6).rho
    off = rho - np.diag(np.diag(rho))
    assert np.max(np.abs(off)) < 1e-6


def test_gibbs_analytic_degenerate_raises():
    with pytest.raises(DegenerateCoupling):
        gibbs_analytic(ModelParams(Dz=0.0, j_override=0.0), 1.0)
    # gibbs takes r = 0, where the closed-form levels are the diagonal of H
    rho = gibbs(ModelParams(Dz=0.0, j_override=0.0, B=1.0), 1.0).rho
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_gibbs_eigenvalues_are_softmax(rng):
    for _ in range(5):
        p = random_params(rng)
        t = float(rng.uniform(0.1, 5.0))
        eps = analytic_spectrum(p).eps
        w = np.exp(-(eps - eps.min()) / t)
        expected = np.sort(w / w.sum())
        got = hermitian_eig(gibbs_analytic(p, t).rho).eigenvalues
        assert np.max(np.abs(np.sort(got) - expected)) < 1e-10


def test_purity_non_increasing_in_t():
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.0)
    grid = np.arange(0.05, 5.0001, 0.05)
    purity = [np.trace(gibbs_analytic(p, t).rho @ gibbs_analytic(p, t).rho).real
              for t in grid]
    assert np.all(np.diff(purity) <= 1e-12)


def test_ground_state_mixture_strong_field():
    # gamma J - 2B is the unique minimum; ground state is a product state
    p = ModelParams(R=1.0, gamma=1.0, Dz=1.0, B=3.0)
    state = ground_state_mixture(p)
    assert state.Z == 1.0
    w = hermitian_eig(state.rho).eigenvalues
    assert w[-1] == pytest.approx(1.0, abs=1e-12)  # rank 1
    # projector onto the |1,1>-labeled basis state
    assert state.rho[8, 8].real == pytest.approx(1.0, abs=1e-12)


def test_ground_state_mixture_phi9():
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.0)
    state = ground_state_mixture(p)
    assert state.Z == 1.0
    spec = analytic_spectrum(p)
    assert spec.eps[8] == pytest.approx(-1.4766471349651975, abs=1e-10)
    phi9 = spec.vecs[:, 8]
    assert np.max(np.abs(state.rho - np.outer(phi9, phi9.conj()))) < 1e-10


def test_ground_state_mixture_at_crossing():
    # eps7 and eps9 cross here; the mixture is honestly rank 2
    p = ModelParams(R=1.0, gamma=1.0, Dz=1.0)
    gj, r = p.gamma * p.J, p.r
    b_c = (gj + np.sqrt(gj * gj + 8 * r * r)) / 2 - r
    state = ground_state_mixture(ModelParams(R=1.0, gamma=1.0, Dz=1.0, B=b_c))
    assert state.Z == 2.0
    w = hermitian_eig(state.rho).eigenvalues
    assert np.sum(w > 1e-6) == 2


def test_low_t_matches_ground_state():
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.0)
    diff = gibbs_numeric(p, 1e-3).rho - ground_state_mixture(p).rho
    assert np.max(np.abs(diff)) < 1e-6


def test_r0_routes_match_jacobi(rng):
    # at r = 0 H is diagonal: gibbs and the T = 0 mixture read the closed-form
    # diagonal, which must match the Jacobi route on the tensor Hamiltonian
    for _ in range(10):
        p = ModelParams(j_override=0.0, Dz=0.0, gamma=float(rng.uniform(-2, 2)),
                        B=float(rng.uniform(-3, 3)))
        t = float(rng.uniform(0.05, 5.0))
        fast, ref = gibbs(p, t), gibbs_numeric(p, t)
        assert np.max(np.abs(fast.rho - ref.rho)) < 1e-15
        assert fast.Z == pytest.approx(ref.Z, rel=1e-15)
        eps = np.array(level_values(p))
        jacobi = hermitian_eig(hamiltonian_tensor(p)).eigenvalues
        assert thermal_point(p, t)[1] == jacobi[0]
        assert np.array_equal(np.sort(eps), jacobi)
        assert thermal_point(p, 0.0)[1] == eps.min()


def _product_basis_state(p, beta):
    """(Z, ln Z, ground energy, elements) at r = 0 from the weights of the
    product basis, in which H is diagonal: the levels in basis order, and
    rho11, rho22, rho33, rho55, rho66 and rho99 the weights of |-1,-1>,
    |-1,0>, |-1,1>, |0,0>, |0,1> and |1,1>, with no off-diagonal."""
    gj, b = p.gamma * p.J, p.B
    eps = (gj + 2 * b, b, -gj, b, 0.0, -b, -gj, -b, gj - 2 * b)
    u, zs, eps_min = _weights(eps, beta)
    u1, u2, u3, _, u5, u6, _, _, u9 = u
    elements = (u1, u2, 0.0, u3, 0.0, 0.0, u5, u6, 0.0, u9)
    return (*_z_and_log_z(zs, beta, eps_min), eps_min, tuple(x / zs for x in elements))


def test_r0_state_is_the_product_basis_state():
    # the closed form at r = 0 (gamma J = 0 too) gives the product-basis
    # state bit for bit, signed zeros included; the ground energy, a level
    # that may be 0.0 or -0.0, by value.  J = 0 exactly also past R = 373,
    # where exp(-2R) underflows.  At B = 0.7, T = 1.95e-3 the weight of the
    # level 0 is a subnormal u with 0.5 u + 0.5 u != u
    fields = (0.0, -0.0, 5e-324, 1e-300, 0.7, -1.3, 1e10, 5e307, -5e307)
    points = [ModelParams(gamma=g, j_override=j, Dz=dz, B=b)
              for g in (0.0, -0.0, 1.0, -2.5) for j in (0.0, -0.0) for dz in (0.0, -0.0)
              for b in fields]
    points += [ModelParams(R=R, gamma=g, Dz=dz, B=b)
               for R in (400.0, 1e3) for g in (1.0, -1.0) for dz in (0.0, -0.0) for b in fields]
    for p in points:
        assert p.r == 0.0
        for T in (0.0, 1e-300, 1e-3, 1.95e-3, 0.1, 1.0, 10.0, 1e3, 1e9, math.inf):
            beta = inverse_temperature(T, allow_zero=True)
            z, ln_z, ground_energy, elements = _state(p, beta)
            z_ref, ln_z_ref, ground_ref, elements_ref = _product_basis_state(p, beta)
            assert [x.hex() for x in (z, ln_z, *elements)] == \
                [x.hex() for x in (z_ref, ln_z_ref, *elements_ref)], (p, T)
            assert ground_energy == ground_ref
            assert thermal_point(p, T)[2].hex() == (0.0).hex()


def test_ground_energy_is_the_lowest_level(rng):
    for _ in range(5):
        p = random_params(rng)
        eps_min = float(analytic_spectrum(p).eps.min())
        for T in (0.3, 0.0):
            assert thermal_point(p, T)[1] == eps_min
        jacobi = hermitian_eig(hamiltonian_tensor(p)).eigenvalues
        assert jacobi[0] == pytest.approx(eps_min, abs=1e-12)


def _dense_point(p, T):
    """(Z, ground energy, negativity) by the dense route: the Jacobi
    eigendecomposition of the tensor Hamiltonian (_numeric_state, its
    ground-level mixture at T = 0) and dense Jacobi on the whole partial
    transpose."""
    state = _numeric_state(p, inverse_temperature(T, allow_zero=True))
    pt = hermitian_eig(partial_transpose(state.rho)).eigenvalues
    ground_energy = float(hermitian_eig(hamiltonian_tensor(p)).eigenvalues[0])
    return state.Z, ground_energy, float(-pt[pt < -NEGATIVE_EIG_TOL].sum())


def test_dense_state_at_beta_inf_is_the_jacobi_ground_projector(rng):
    # the projector on the Jacobi ground level over its degeneracy, built by
    # hand: at random draws, at r = 0, at r = B = 0 (all nine levels tied)
    # and at the two fig4c crossings, where two levels are tied
    p1 = ModelParams(R=1.0, gamma=1.0, Dz=1.0)
    gj, r = p1.gamma * p1.J, p1.r
    points = [ModelParams(Dz=0.0, j_override=0.0),
              p1.replace(B=(gj + math.sqrt(gj * gj + 8 * r * r)) / 2 - r),
              p1.replace(B=gj + r)]
    for _ in range(20):
        p = random_params(rng)
        points += [p, p.replace(Dz=0.0, j_override=0.0)]
    degeneracies = set()
    for p in points:
        dec = hermitian_eig(hamiltonian_tensor(p))
        w, v = dec.eigenvalues, dec.eigenvectors
        g = v[:, w - w[0] < GROUND_DEGENERACY_TOL]
        state = _numeric_state(p, math.inf)
        assert state.Z == g.shape[1]
        assert np.max(np.abs(state.rho - (g @ g.conj().T) / g.shape[1])) < 1e-14
        degeneracies.add(g.shape[1])
    assert {1, 2, 9} <= degeneracies


point_strategy = st.tuples(
    st.sampled_from(["random", "T=0", "r=0", "T=inf", "tiny r", "high T"]),
    st.floats(0.05, 6.0), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0), st.floats(0.01, 5.0), st.floats(-9.0, -5.0),
)


@settings(max_examples=300, deadline=None)
@given(point_strategy)
def test_thermal_point_matches_dense_route(draw):
    kind, R, gamma, Dz, B, T, e = draw
    p = ModelParams(R=R, gamma=gamma, Dz=Dz, B=B)
    if kind == "T=0":
        T = 0.0
    elif kind == "r=0":
        p = ModelParams(gamma=gamma, Dz=0.0, B=B, j_override=0.0)
    elif kind == "T=inf":
        T = float("inf")
    elif kind == "tiny r":
        # off-diagonals of the 3x3 block far below its diagonal: the Jacobi
        # guards must skip them without overflow or division warnings
        p = ModelParams(gamma=gamma, Dz=10.0 ** e * np.sign(Dz), B=B, j_override=10.0 ** e)
    elif kind == "high T":
        # rho close to 1/9: a nearly threefold-degenerate 3x3 block
        T = 10.0 ** -e
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, ground_energy, n, _ = thermal_point(p, T)
    z_ref, ground_ref, n_ref = _dense_point(p, T)
    assert n == pytest.approx(n_ref, abs=1e-12)
    assert z == pytest.approx(z_ref, rel=1e-12)
    assert ground_energy == pytest.approx(ground_ref, abs=1e-12)
    assert n >= 0.0 and str(n)[0] != "-"


def test_thermal_point_z_and_ground_energy_are_those_of_the_state_routes(rng):
    # bit for bit: the CSV columns Z and ground_energy must not change, and
    # every route reads the same state at every r (r = 0 included) and T
    for i in range(40):
        p = random_params(rng)
        if i % 4 == 0:
            p = ModelParams(gamma=p.gamma, Dz=0.0, B=p.B, j_override=0.0)
        t = float(rng.uniform(0.01, 5.0))
        for T, state in ((t, gibbs(p, t)), (math.inf, gibbs(p, math.inf)),
                         (0.0, ground_state_mixture(p))):
            z, ground_energy, n, _ = thermal_point(p, T)
            assert (z, ground_energy) == (state.Z, min(level_values(p)))
            assert n == pytest.approx(negativity(state.rho), abs=1e-14)
            if T > 0.0:
                assert partition_function(p, T) == z


def test_ln_z_is_the_log_of_z(rng):
    for i in range(200):
        p = random_params(rng)
        if i % 5 == 0:
            p = ModelParams(gamma=p.gamma, Dz=0.0, B=p.B, j_override=0.0)
        for T in (float(rng.uniform(0.01, 5.0)), 10.0 ** rng.uniform(-4.0, 9.0)):
            z, _, _, ln_z = thermal_point(p, T)
            assert math.isfinite(ln_z)
            if math.isfinite(z):
                # exp(ln_z) can hit Z no closer than the spacing of the
                # floats at ln_z: |ln_z| 2^-52, above 1e-14 for |ln_z| > 45
                tol = max(1e-14, abs(ln_z) * 2.0 ** -52)
                assert abs(math.exp(ln_z) - z) <= tol * z
        # T = 0: the log of the ground-level degeneracy that Z reports
        z, _, _, ln_z = thermal_point(p, 0.0)
        assert ln_z == math.log(z)
        assert thermal_point(p, math.inf)[3] == math.log(9.0)


def test_ln_z_where_z_overflows():
    p = ModelParams(R=0.5, Dz=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, ground_energy, _, ln_z = thermal_point(p, 1e-5)
    assert z == math.inf and math.isfinite(ln_z)
    assert ln_z == pytest.approx(-ground_energy / 1e-5, rel=1e-15)


@pytest.mark.parametrize("x", [700.5, 705.0, 709.7, 709.79, 750.0])
def test_z_is_finite_wherever_it_fits_in_a_float(x):
    # x = -beta eps_min; exp(x) passes the float maximum from x of about 709.78
    p = ModelParams(R=0.5, Dz=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, _, _, ln_z = thermal_point(p, -min(level_values(p)) / x)
    assert ln_z == pytest.approx(x, rel=1e-14)
    if x < 709.78:
        assert math.isfinite(z) and math.log(z) == pytest.approx(ln_z, rel=1e-15)
    else:
        assert z == math.inf


def _scaled(p: ModelParams, scale: float) -> ModelParams:
    return ModelParams(gamma=p.gamma, Dz=scale * p.Dz, B=scale * p.B, j_override=scale * p.J)


@pytest.mark.parametrize("scale", [1e17, 1e200, 1e300])
def test_thermal_point_is_invariant_under_scaling(scale, rng):
    # N and Z depend on gamma J, r, B and T only through their ratios.  The
    # scaled inputs are rounded, which moves beta times a level gap by about
    # 1e-16 of itself, so T stays at or above 0.2 here
    for _ in range(200):
        p, T = random_params(rng), 10.0 ** rng.uniform(math.log10(0.2), 0.7)
        _, _, n, ln_z = thermal_point(p, T)
        _, _, n_scaled, ln_z_scaled = thermal_point(_scaled(p, scale), scale * T)
        assert abs(n_scaled - n) <= 1e-15
        assert abs(ln_z_scaled - ln_z) <= 1e-15 * abs(ln_z)
        # T = 0: the same ground level, with the same degeneracy
        z, _, n, _ = thermal_point(p, 0.0)
        z_scaled, _, n_scaled, _ = thermal_point(_scaled(p, scale), 0.0)
        assert z_scaled == z and abs(n_scaled - n) <= 1e-15


def test_thermal_point_at_r0_is_separable_positive_zero():
    for T in (0.0, 0.3, float("inf")):
        n = thermal_point(ModelParams(Dz=0.0, B=0.4, j_override=0.0), T)[2]
        assert n == 0.0 and str(n) == "0.0"


@pytest.mark.parametrize("T", [float("nan"), -1.0, -0.0 - 1e-300, 1e-309, 5e-324])
def test_thermal_point_rejects_bad_temperatures(T):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            thermal_point(P_REF, T)


@pytest.mark.parametrize("route", [partition_function, gibbs, gibbs_analytic, gibbs_numeric])
@pytest.mark.parametrize("T", [1e-309, 1e-320, 5e-324])
def test_temperature_with_overflowing_reciprocal_rejected(route, T):
    # 1/T is inf there, and inf * 0 would turn a Boltzmann weight into NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="1/T overflows"):
            route(P_REF, T)
        with pytest.raises(DomainError, match="1/T overflows"):
            gibbs(ModelParams(Dz=0.0, j_override=0.0), T)
    # a tiny T whose reciprocal is finite still works: Z overflows to inf,
    # and the state is the ground-state limit
    z, *rest, _ = thermal_point(P_REF, 1e-300)
    assert z == float("inf") and rest == list(thermal_point(P_REF, 0.0)[1:3])


def test_tiny_temperature_weights_underflow_without_warnings():
    # 1/T is finite but beta times the level gaps at B = 30 overflows: every
    # excited weight is exactly 0 and the state is the ground state
    p, T = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=30.0), 1e-307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, ground_energy, n, _ = thermal_point(p, T)
        states = [gibbs(p, T), gibbs_numeric(p, T)]
    ground = ground_state_mixture(p)
    assert (z, ground_energy, n) == (float("inf"), min(level_values(p)), 0.0)
    for state in states:
        assert state.Z == float("inf")
        assert np.max(np.abs(state.rho - ground.rho)) < 1e-12


@pytest.mark.parametrize("p", [ModelParams(Dz=0.0, B=5e307, j_override=0.0),
                               ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=5e307)],
                         ids=["r0", "r>0"])
def test_infinite_temperature_with_overflowing_level_spread(p):
    # the levels are finite but their spread overflows; -0 * inf would make
    # the weights NaN, and at beta = 0 they are all exactly 1.0
    eps = level_values(p)
    assert all(math.isfinite(e) for e in eps) and max(eps) - min(eps) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, ground_energy, n, _ = thermal_point(p, math.inf)
        state = gibbs(p, math.inf)
    assert (z, ground_energy, n) == (9.0, min(eps), 0.0)
    assert state.Z == 9.0
    assert np.max(np.abs(state.rho - np.eye(9) / 9)) < 1e-15

