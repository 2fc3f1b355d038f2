import copy
import math
import pickle
import random
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutritxxz import model, sweeps
from qutritxxz.matkernel import hermitian_eig
from qutritxxz.model import (
    LEVEL_M,
    DegenerateCoupling,
    DomainError,
    ModelParams,
    analytic_spectrum,
    closed_form_levels,
    diagonal_levels,
    effective_coupling,
    hamiltonian_closed_form,
    hamiltonian_tensor,
    hf_coupling,
)
from qutritxxz.sweeps import SweepSpec, run_sweep

from conftest import random_params

OPS = model._operators()
SPIN_X, SPIN_Y, SPIN_Z, IDENTITY3 = (OPS[k] for k in ("SPIN_X", "SPIN_Y", "SPIN_Z", "IDENTITY3"))
TWO_SITE = ("XX_PLUS_YY", "ZZ", "XY_MINUS_YX", "Z_TOTAL")

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
    # J = Dz = 1e308: r = sqrt(2) 1e308, and the mixed pair overflows
    with pytest.raises(OverflowError):
        closed_form_levels(1e308, 0.0, math.hypot(1e308, 1e308))
    with pytest.raises(OverflowError):
        closed_form_levels(math.inf, 0.0, 1e200)
    for gj, r in ((1e150, 1e150), (1e200, 1e200), (-1e300, 1.0), (8.9e307, 1.0),
                  (-8.9e307, 1.0), (1.0, 6e307)):
        assert all(math.isfinite(x) for x in closed_form_levels(gj, 0.0, r))
    for gj, r in ((9e307, 1.0), (1.0, 6.5e307), (1e307, 6e307)):
        with pytest.raises(OverflowError):
            closed_form_levels(gj, 0.0, r)
    # the product-state levels gamma*J +- 2B, with and without coupling
    for b in (1e308, -1e308):
        with pytest.raises(OverflowError):
            closed_form_levels(0.1, b, 1.0)
        with pytest.raises(OverflowError):
            diagonal_levels(0.0, b)
    assert math.isfinite(closed_form_levels(0.1, 8.9e307, 1.0)[2])
    assert diagonal_levels(0.0, 8.9e307)[0] == 1.78e308


def test_closed_form_root_is_correctly_rounded(monkeypatch):
    # the root sqrt(gj^2 + 8 r^2) of the mixed pair is one math.hypot call;
    # it lies within 0.5 ulp of a 60-digit decimal root
    calls, math_hypot = [], math.hypot

    def hypot(*args):
        calls.append((args, math_hypot(*args)))
        return calls[-1][1]

    monkeypatch.setattr(model.math, "hypot", hypot)
    rng = random.Random(20221001)
    for _ in range(2000):
        gj = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.7)
        r = 10.0 ** rng.uniform(-3.0, 3.7)
        calls.clear()
        closed_form_levels(gj, 0.0, r)
        [(args, root)] = calls
        assert args == (gj, 2.0 * r, 2.0 * r)
        with localcontext() as ctx:
            ctx.prec = 60
            exact = (Decimal(gj) ** 2 + 8 * Decimal(r) ** 2).sqrt()
            assert abs(Decimal(root) - exact) <= Decimal(math.ulp(root)) / 2


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
    r, theta = effective_coupling(ModelParams(R=1.0, Dz=0.0, j_override=0.5))
    assert (r, theta) == (0.5, 0.0)

    r, theta = effective_coupling(ModelParams(Dz=1.0, j_override=1.0))
    assert r == pytest.approx(np.sqrt(2), abs=1e-15)
    assert theta == pytest.approx(np.pi / 4, abs=1e-15)

    r, theta = effective_coupling(ModelParams(R=1.0, Dz=1.0))
    assert r == pytest.approx(1.0243934625956987, abs=1e-12)
    assert theta == pytest.approx(1.352128988674047, abs=1e-12)


def test_effective_coupling_j_zero():
    r, theta = effective_coupling(ModelParams(Dz=1.0, j_override=0.0))
    assert theta == pytest.approx(np.pi / 2, abs=1e-15)
    assert r == 1.0


def test_effective_coupling_degenerate():
    # r = 0: the phase is undefined and reported as 0
    r, theta = effective_coupling(ModelParams(Dz=0.0, j_override=0.0))
    assert (r, theta) == (0.0, 0.0)


def test_model_params_holds_j_r_theta():
    p = ModelParams(R=1.0, Dz=1.0)
    j = hf_coupling(1.0)
    assert (p.J, p.r, p.theta) == (j, math.hypot(1.0, j), math.atan2(1.0, j))
    # not parameters: the constructor takes none of them, and repr, == and
    # hash see the five parameters only
    for name in ("J", "r", "theta"):
        with pytest.raises(TypeError):
            ModelParams(R=1.0, Dz=1.0, **{name: 0.5})
    assert repr(p) == "ModelParams(R=1.0, gamma=1.0, Dz=1.0, B=0.0, j_override=None)"
    assert p == ModelParams(R=1.0, Dz=1.0) and hash(p) == hash(ModelParams(R=1.0, Dz=1.0))
    with pytest.raises(AttributeError):
        p.J = 2.0
    # replace builds a new instance, which derives its own
    q = p.replace(Dz=0.0, j_override=-0.0)
    assert (q.J, q.r, q.theta) == (0.0, 0.0, 0.0)
    assert math.copysign(1.0, q.J) == -1.0
    assert effective_coupling(q) == (0.0, 0.0)


def test_model_params_refuse_attribute_writes():
    p = ModelParams(R=1.0, Dz=1.0, j_override=0.5)
    before = repr(p), p.J, p.r, p.theta
    for name in ("R", "gamma", "Dz", "B", "j_override", "J", "r", "theta"):
        with pytest.raises(AttributeError):
            setattr(p, name, 2.0)
        with pytest.raises(AttributeError):
            delattr(p, name)
    with pytest.raises(AttributeError):
        p.T = 1.0
    assert (repr(p), p.J, p.r, p.theta) == before


def test_replace_checks_as_construction_does():
    p = ModelParams(R=1.0, Dz=1.0)
    assert p.replace() == p and p.replace() is not p
    with pytest.raises(TypeError):
        p.replace(J=0.5)
    with pytest.raises(DomainError, match="Dz must be finite"):
        p.replace(Dz=math.inf)
    # copies and pickles keep the parameters and the derived values
    q = ModelParams(R=2.0, gamma=-0.5, Dz=-0.0, B=0.3, j_override=0.7)
    for twin in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        _assert_same_params(twin, q)


def _built(p, name, value):
    """ModelParams built afresh with p's parameters and name = value;
    setting R drops a direct-J override, as a sweep over R does."""
    kwargs = {k: getattr(p, k) for k in ("R", "gamma", "Dz", "B", "j_override")}
    kwargs[name] = value
    if name == "R":
        kwargs["j_override"] = None
    return ModelParams(**kwargs)


def _copies(p, name, value):
    """(v, q) for each copy q of p with name = v: p.replace(name=value),
    given j_override=None where R is set, and the ModelParams of the last
    row of a two-step run_sweep over name that stops at value (its grid
    rounds value to 10 decimals; an R row drops a direct-J override)."""
    drop = {"j_override": None} if name == "R" else {}
    spec = SweepSpec(vary=name, start=value / 2 if name == "R" else value - 1.0,
                     stop=value, steps=2, fixed=p)
    with mock.patch.object(sweeps, "_point", wraps=sweeps._point) as point:
        run_sweep(spec)
    return [(value, p.replace(**{name: value}, **drop)),
            (spec.grid()[-1], point.call_args.args[0])]


def _assert_same_params(q, built):
    assert q == built and repr(q) == repr(built) and hash(q) == hash(built)
    assert [repr(getattr(q, k)) for k in ("J", "r", "theta")] == \
        [repr(getattr(built, k)) for k in ("J", "r", "theta")]


_signed_zero = st.sampled_from([0.0, -0.0])
_axis_values = {
    "R": st.one_of(st.floats(1e-3, 8.0), st.floats(370.0, 1e6), st.just(400.0)),
    "Dz": st.one_of(_signed_zero, st.floats(-1e3, 1e3)),
    "B": st.one_of(_signed_zero, st.floats(-1e3, 1e3)),
}
_copy_bases = st.builds(
    ModelParams,
    R=st.one_of(st.floats(0.05, 8.0), st.just(400.0)),
    gamma=st.floats(-2.0, 2.0),
    Dz=st.one_of(_signed_zero, st.floats(-3.0, 3.0)),
    B=st.floats(-3.0, 3.0),
    j_override=st.one_of(st.none(), _signed_zero, st.floats(-2.0, 2.0)),
)


@settings(max_examples=500, deadline=None)
@given(_copy_bases,
       st.sampled_from(sorted(_axis_values)).flatmap(
           lambda name: st.tuples(st.just(name), _axis_values[name])))
def test_one_field_copy_equals_construction(p, axis):
    name, value = axis
    for v, q in _copies(p, name, value):
        _assert_same_params(q, _built(p, name, v))


@pytest.mark.parametrize("p, name, value", [
    (ModelParams(j_override=0.0, Dz=1.0), "Dz", -0.0),     # J = 0: r = 0, theta 0.0
    (ModelParams(j_override=0.0, Dz=1.0), "Dz", 0.0),
    (ModelParams(R=1.0, Dz=1.0), "Dz", -0.0),              # J > 0: theta stays -0.0
    (ModelParams(R=1.0, Dz=1.0), "Dz", 0.0),
    (ModelParams(R=1.0, j_override=0.7), "Dz", -2.0),      # the override is kept
    (ModelParams(R=1.0, j_override=-0.0), "B", 1.5),
    (ModelParams(R=1.0, Dz=0.5, j_override=0.7), "R", 2.0),  # and dropped on R
    (ModelParams(R=1.0, Dz=0.5), "R", 400.0),              # hf_coupling is 0.0
])
def test_one_field_copy_edge_cases(p, name, value):
    for v, q in _copies(p, name, value):
        assert repr(v) == repr(value)       # the grid keeps each value, -0.0 too
        _assert_same_params(q, _built(p, name, value))
        assert getattr(q, name) == value and (q.j_override is None) == (
            name == "R" or p.j_override is None)
        if name == "Dz" and value == 0.0 and p.J > 0:
            assert q.theta == 0.0 and math.copysign(1.0, q.theta) == math.copysign(1.0, value)
        if value == 400.0:
            assert (q.J, q.r, q.theta) == (0.0, 0.5, math.pi / 2)


@pytest.mark.parametrize("name, value", [
    *[(name, bad) for name in ("R", "Dz", "B") for bad in (math.nan, math.inf, -math.inf)],
    ("R", 0.0), ("R", -0.0), ("R", -1.0),
])
def test_one_field_copy_rejects_like_construction(name, value):
    p = ModelParams(R=1.0, Dz=0.5, B=0.2, j_override=0.7)
    with pytest.raises(DomainError) as built:
        _built(p, name, value)
    with pytest.raises(DomainError) as copied:
        p.replace(**{name: value}, **({"j_override": None} if name == "R" else {}))
    assert str(copied.value) == str(built.value)
    if math.isfinite(value):
        # a sweep row: the grid starts at value, where 0.0 + -0.0 is 0.0
        spec = SweepSpec(vary=name, start=value, stop=value + 1.0, steps=2, fixed=p)
        with pytest.raises(DomainError) as row:
            run_sweep(spec)
        with pytest.raises(DomainError) as built:
            _built(p, name, spec.grid()[0])
        assert str(row.value) == str(built.value)


def test_zeeman_only_diagonal():
    p = ModelParams(j_override=0.0, Dz=0.0, gamma=1.0, B=1.0)
    h = hamiltonian_tensor(p)
    assert np.array_equal(h, np.diag([2, 1, 0, 1, 0, -1, 0, -1, -2]).astype(complex))


def test_m_tables_are_the_slopes_of_the_levels(rng):
    # each level is the line c + M B: from B = 0 to B = 1 it rises by its M,
    # at r > 0 and at r = 0, where gamma J = 0 too
    draws = [(0.0, 0.0), (-0.0, 0.0)]
    for _ in range(2000):
        draws.append((float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 5.0)),
                      float(10.0 ** rng.uniform(-3.0, 5.0))))
    for gj, r in draws:
        at0, at1 = closed_form_levels(gj, 0.0, r), closed_form_levels(gj, 1.0, r)
        assert max(map(abs, at0 + at1)) < 1e6
        assert tuple(round(e1 - e0) for e0, e1 in zip(at0, at1)) == LEVEL_M


def test_level_m_is_the_m_of_each_eigenvector(rng):
    # Z_TOTAL v = M v for the labelled eigenvectors of analytic_spectrum
    for _ in range(50):
        vecs = analytic_spectrum(random_params(rng)).vecs
        assert np.max(np.abs(OPS["Z_TOTAL"] @ vecs - vecs * np.array(LEVEL_M))) < 1e-14


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


@pytest.mark.parametrize("op", [OPS[name] for name in TWO_SITE])
def test_two_site_operators_are_read_only(op):
    assert op.shape == (9, 9) and not op.flags.writeable
    with pytest.raises(ValueError):
        op[0, 0] = 1.0


def test_operators_are_built_once():
    # one cached build, every operator read-only, none of them a module attribute
    assert model._operators() is OPS
    for name in ("SPIN_X", "SPIN_Y", "SPIN_Z", "IDENTITY3") + TWO_SITE:
        assert not OPS[name].flags.writeable
        assert not hasattr(model, name)


def test_top_left_entry():
    p = ModelParams(R=0.7, gamma=1.3, Dz=0.4, B=0.9)
    h = hamiltonian_tensor(p)
    assert h[0, 0] == pytest.approx(p.gamma * p.J + 2 * p.B, abs=1e-14)


def test_closed_form_off_diagonal_phase():
    p = ModelParams(R=0.7, gamma=1.3, Dz=0.4, B=0.9)
    r, theta = effective_coupling(p)
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
    assert np.max(np.abs(np.sort(spec.eps) - numeric.eigenvalues)) < 1e-10


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
    assert np.max(np.abs(np.sort(spec.eps) - numeric)) < 1e-10
    # eigenvector residuals and the chi identity on the same draws
    res = h @ spec.vecs - spec.vecs * spec.eps
    assert np.max(np.linalg.norm(res, axis=0)) < 1e-12
    assert abs(spec.chi1 * spec.chi2 - 8.0) < 1e-12
    assert abs(spec.eps.sum()) < 1e-12


@pytest.mark.parametrize("gamma", [1e200, -1e200])
def test_analytic_spectrum_where_chi_is_huge(gamma):
    # |gamma J| / r = 1e200: chi1 (gamma > 0) or chi2 (gamma < 0) is about
    # 2e200, so chi^2 + 8 overflows, yet eigenvectors 8 and 9 stay unit vectors
    spec = analytic_spectrum(ModelParams(j_override=1e-50, gamma=gamma))
    assert np.max(np.abs(np.linalg.norm(spec.vecs, axis=0) - 1.0)) < 1e-12
    assert abs(spec.chi1 * spec.chi2 - 8.0) < 1e-12
    assert spec.eps[7] + spec.eps[8] == -gamma * 1e-50


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
