"""Gibbs state rho(T) = exp(-beta H)/Z and its T = 0 limit.

For every coupling r >= 0 and every T >= 0 the state is ten real numbers
and the phase theta, and _state is its one construction: it reads the
nine levels as floats (level_values, from the J and r that ModelParams
holds), weights them (_weights) and returns Z, ln Z, the ground energy
and the ten elements (r11, r22, r24, r33, r35, r37, r55, r66, r68, r99)
of rho, from the levels alone (_rho_elements), at r = 0 too.  Every route
reads it: thermal_point, the one point evaluator, returns Z, the ground
energy, the negativity of the elements (entanglement.element_negativity)
and ln Z (finite where Z overflows) with no matrix and no numpy; gibbs
and ground_state_mixture (beta = inf) expand them into the 9x9 matrix
(_analytic_rho) with the theta of ModelParams; partition_function takes Z.
_numeric_state, the dense twin of _thermal_state, diagonalizes the
tensor-product Hamiltonian with the Jacobi kernel at any beta, inf
included; through gibbs_numeric (T > 0) and at beta = inf it is the
independent reference that validate and the tests compare against,
entrywise to 1e-10, which checks the closed forms (and the eps9 sign).
Every route takes its weights from _weights, as Python floats shifted by
eps_min before exponentiating, so arbitrarily low temperatures never
overflow (math.exp of an exponent that overflows is exactly 0, with no
warning), and summed by math.fsum; at T = inf (beta = 0) every weight is
exactly 1.0, even where the spread of the levels overflows.  Z and ln Z
both come from _z_and_log_z.  beta comes from inverse_temperature, which
rejects a T whose 1/T overflows.  numpy is imported only by the routes
that build rho as a matrix, so thermal_point, partition_function and
importing this module do not load it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .entanglement import element_negativity
from .matkernel import hermitian_eig
from .model import (
    DegenerateCoupling,
    DomainError,
    ModelParams,
    _mixed_pair,
    closed_form_levels,
    hamiltonian_tensor,
)

#: levels within this energy of the minimum count as ground-degenerate at T=0
GROUND_DEGENERACY_TOL = 1e-9


class ThermalState(namedtuple("ThermalState", "Z rho")):
    """Normalized thermal density matrix.  Z is the partition function; at
    beta = inf it holds the ground-level degeneracy instead (the limit of
    the shifted sum)."""

    __slots__ = ()


def inverse_temperature(T: float, allow_zero: bool = False) -> float:
    """beta = 1/T; T = inf gives 0, and T = 0 gives inf where allowed.

    DomainError for a T that is no real number, NaN, negative T, T = 0 unless
    allowed, and a positive T so small that 1/T overflows (inf * 0: NaN weights).
    """
    try:
        math.isnan(T)    # float(T) would take "1"
    except TypeError:
        raise DomainError(f"temperature must be a real number, got {T!r}") from None
    T = float(T)
    if allow_zero and T == 0.0:
        return math.inf
    if not T > 0:
        raise DomainError(f"temperature must be {'>= 0' if allow_zero else 'positive'}, got {T}")
    beta = 1.0 / T
    if math.isinf(beta):
        raise DomainError(f"temperature {T} is too small: 1/T overflows")
    return beta


def level_values(p: ModelParams) -> tuple:
    """The levels eps1..eps9 of H as floats, with no matrix, at every r >= 0."""
    return closed_form_levels(p.gamma * p.J, p.B, p.r)


def _weights(eps, beta: float):
    """Weights of the float levels eps, their math.fsum and eps_min: the
    shifted Boltzmann weights exp(-beta (eps - eps_min)), or at beta = inf
    the ground-level indicators (1.0 within GROUND_DEGENERACY_TOL of eps_min).
    At beta = 0 every weight is 1.0, which exp(-0 * spread) also gives when
    the spread is finite; an overflowing spread would make -0 * inf = NaN."""
    eps_min = min(eps)
    if beta == math.inf:
        u = [1.0 if e - eps_min < GROUND_DEGENERACY_TOL else 0.0 for e in eps]
    elif beta == 0.0:
        u = [1.0] * len(eps)
    else:
        u = [math.exp(-beta * (e - eps_min)) for e in eps]
    return u, math.fsum(u), eps_min


def _z_and_log_z(zs: float, beta: float, eps_min: float) -> tuple:
    """Z = zs * exp(-beta eps_min) and ln Z = ln zs - beta eps_min.  Z is
    inf only past the float maximum (exp overflows from -beta eps_min of
    about 709.78); ln Z stays finite.  At beta = inf, zs itself and its
    log: the ground-level degeneracy."""
    if beta == math.inf:
        return zs, math.log(zs)
    x = -beta * eps_min
    try:
        z = zs * math.exp(x)
    except OverflowError:
        z = math.inf
    return z, math.log(zs) + x


def partition_function(p: ModelParams, T: float) -> float:
    """Z = sum_i exp(-beta eps_i), overflow-safe via the spectral shift."""
    return _state(p, inverse_temperature(T))[0]


def _numeric_state(p: ModelParams, beta: float) -> ThermalState:
    """exp(-beta H)/Z through the numeric eigensolver, or at beta = inf the
    equal-weight mixture over its ground level: the dense twin of
    _thermal_state, weighted by the same _weights."""
    import numpy as np

    dec = hermitian_eig(hamiltonian_tensor(p))
    vecs = dec.eigenvectors
    u, zs, eps_min = _weights(dec.eigenvalues.tolist(), beta)
    rho = (vecs * (np.array(u) / zs)) @ vecs.conj().T
    return ThermalState(Z=_z_and_log_z(zs, beta, eps_min)[0], rho=rho)


def gibbs_numeric(p: ModelParams, T: float) -> ThermalState:
    """exp(-beta H)/Z through the numeric eigensolver."""
    return _numeric_state(p, inverse_temperature(T))


def _rho_elements(eps, r: float, u) -> tuple:
    """The ten real elements (r11, r22, r24, r33, r35, r37, r55, r66, r68,
    r99) of zs * rho for the nine levels eps at r >= 0 and their weights u_i
    (sum zs): the shifted Boltzmann weights, or at T = 0 the ground-level
    indicators.  Every other entry of rho is one of these, times a phase of
    theta (see _analytic_rho), or zero.  The pair eps8, eps9 enters through
    its mixing weights a, b (_mixed_pair), and r35 through
    sqrt(a b / 2) = r / root.  The published hyperbolic forms are recovered
    exactly, e.g. rho22*Z = e^{-beta B} cosh(beta r) = (u1 + u2)/2 up to the shift.
    """
    a, b, coupling = _mixed_pair(eps, r)
    u1, u2, u3, u4, u5, u6, u7, u8, u9 = u
    mixed = a * u8 + b * u9
    return (
        u3,                         # r11
        0.5 * (u1 + u2),            # r22
        0.5 * (u1 - u2),            # r24
        0.5 * (u5 + mixed),         # r33
        coupling * (u8 - u9),       # r35
        0.5 * (mixed - u5),         # r37
        b * u8 + a * u9,            # r55
        0.5 * (u6 + u7),            # r66
        0.5 * (u6 - u7),            # r68
        u4,                         # r99
    )


def _state(p: ModelParams, beta: float) -> tuple:
    """(Z, ln Z, ground_energy, elements) of exp(-beta H)/Z, or at
    beta = inf of the ground-level mixture: the ten real elements of rho,
    in the order of _rho_elements, at every r >= 0."""
    eps = level_values(p)
    u, zs, eps_min = _weights(eps, beta)
    elements = _rho_elements(eps, p.r, u)
    return (*_z_and_log_z(zs, beta, eps_min), eps_min, tuple(x / zs for x in elements))


def _analytic_rho(elements, theta: float) -> np.ndarray:
    """The 9x9 rho from its ten real elements, with the phases e^{i theta}
    and e^{2i theta} on the off-diagonals."""
    import numpy as np

    r11, r22, r24, r33, r35, r37, r55, r66, r68, r99 = elements

    e1 = np.exp(1j * theta)
    e2 = np.exp(2j * theta)
    rho = np.zeros((9, 9), dtype=complex)
    rho[np.arange(9), np.arange(9)] = [r11, r22, r33, r22, r55, r66, r33, r66, r99]
    rho[1, 3] = e1 * r24
    rho[2, 4] = e1 * r35
    rho[2, 6] = e2 * r37
    rho[4, 6] = e1 * r35
    rho[5, 7] = e1 * r68
    for i, k in [(1, 3), (2, 4), (2, 6), (4, 6), (5, 7)]:
        rho[k, i] = np.conj(rho[i, k])
    return rho


def _thermal_state(p: ModelParams, beta: float) -> ThermalState:
    """_state at beta with rho expanded into its 9x9 matrix."""
    z, _, _, elements = _state(p, beta)
    return ThermalState(Z=z, rho=_analytic_rho(elements, p.theta))


def gibbs_analytic(p: ModelParams, T: float) -> ThermalState:
    """gibbs, for r > 0 only: DegenerateCoupling at r = 0."""
    beta = inverse_temperature(T)
    if p.r == 0.0:
        raise DegenerateCoupling("r = 0: gibbs_analytic takes r > 0 only, use gibbs")
    return _thermal_state(p, beta)


def gibbs(p: ModelParams, T: float) -> ThermalState:
    """exp(-beta H)/Z from the closed-form elements, at every r.

    T must be positive; NaN is rejected.  T = inf is beta = 0, the
    maximally mixed state 1/9 with Z = 9.
    """
    return _thermal_state(p, inverse_temperature(T))


def ground_state_mixture(p: ModelParams) -> ThermalState:
    """T = 0 limit: equal-weight mixture over the (possibly degenerate)
    ground level of the closed-form levels.  At a level crossing this is
    honestly rank-deficient."""
    return _thermal_state(p, math.inf)


def thermal_point(p: ModelParams, T: float) -> tuple:
    """(Z, ground_energy, negativity, ln Z) of gibbs(p, T), or at T = 0 of
    ground_state_mixture(p), with no 9x9 matrix: one _state, and the
    negativity of its ten elements (element_negativity).  At r = 0, rho is
    diagonal, so its partial transpose is rho itself and N = +0.0.  ln Z
    stays finite below T ~ 1e-3, where Z overflows, and exp(ln Z) is Z
    wherever Z is finite; at T = 0 it is the log of the ground-level
    degeneracy that Z holds there.
    """
    z, log_z, ground_energy, elements = _state(p, inverse_temperature(T, allow_zero=True))
    return z, ground_energy, element_negativity(elements), log_z
