"""Gibbs state rho(T) = exp(-beta H)/Z by two independent routes.

gibbs_numeric diagonalizes the tensor-product Hamiltonian with the Jacobi
kernel; gibbs_analytic assembles the closed-form matrix elements from the
labeled spectrum.  Both apply the spectral shift eps -> eps - eps_min
before exponentiating, so arbitrarily low temperatures never overflow.
The two routes must agree entrywise to 1e-10; that equality is the main
correctness check for the closed forms (and the eps9 sign).
"""

import math
from dataclasses import dataclass

import numpy as np

from .matkernel import hermitian_eig
from .model import (
    AnalyticSpectrum,
    DegenerateCoupling,
    DomainError,
    ModelParams,
    analytic_spectrum,
    effective_coupling,
    hamiltonian_tensor,
)

#: levels within this energy of the minimum count as ground-degenerate at T=0
GROUND_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class ThermalState:
    """Normalized thermal density matrix.  Z is the partition function; at
    beta = inf it holds the ground-level degeneracy instead (the limit of
    the shifted sum)."""

    beta: float
    Z: float
    rho: np.ndarray


def _shifted_weights(eps: np.ndarray, beta: float):
    """Boltzmann weights exp(-beta (eps - eps_min)) and their sum."""
    u = np.exp(-beta * (eps - eps.min()))
    return u, float(u.sum())


def _unshifted_z(zs: float, beta: float, eps_min: float) -> float:
    """Z = zs * exp(-beta eps_min); inf when the rescaling overflows
    (beta up to 1e6 must stay safe, the shifted weights already are)."""
    x = -beta * eps_min
    return zs * math.exp(x) if x < 700.0 else math.inf


def partition_function(p: ModelParams, T: float) -> float:
    """Z = sum_i exp(-beta eps_i), overflow-safe via the spectral shift."""
    if not T > 0:
        raise DomainError(f"temperature must be positive, got {T}")
    beta = 1.0 / T
    try:
        eps = analytic_spectrum(p).eps
    except DegenerateCoupling:
        eps = hermitian_eig(hamiltonian_tensor(p)).eigenvalues
    _, zs = _shifted_weights(eps, beta)
    return _unshifted_z(zs, beta, float(eps.min()))


def gibbs_numeric(p: ModelParams, T: float) -> ThermalState:
    """exp(-beta H)/Z through the numeric eigensolver."""
    if not T > 0:
        raise DomainError(f"temperature must be positive, got {T}")
    beta = 1.0 / T
    dec = hermitian_eig(hamiltonian_tensor(p))
    u, zs = _shifted_weights(dec.eigenvalues, beta)
    v = dec.eigenvectors
    rho = (v * (u / zs)) @ v.conj().T
    return ThermalState(beta=beta, Z=_unshifted_z(zs, beta, float(dec.eigenvalues.min())),
                        rho=rho)


def _analytic_rho(spec: AnalyticSpectrum, theta: float, beta: float) -> np.ndarray:
    """Closed-form Eq.-style matrix elements, written as combinations of the
    shifted Boltzmann weights u_i of the nine labeled levels.

    The hyperbolic forms of the published elements are recovered exactly,
    e.g. rho22*Z = e^{-bB} cosh(b r) = (u1 + u2)/2 up to the common shift,
    and rho35*Z = -4 e^{b g J/2} sinh(b r (chi1+chi2)/4) / (chi1+chi2)
    = 2 chi1 u8/(chi1^2+8) - 2 chi2 u9/(chi2^2+8) via chi1 chi2 = 8.
    """
    u, zs = _shifted_weights(spec.eps, beta)
    u1, u2, u3, u4, u5, u6, u7, u8, u9 = u
    c1, c2 = spec.chi1, spec.chi2
    d8 = c1 * c1 + 8.0
    d9 = c2 * c2 + 8.0

    r11 = u3
    r22 = 0.5 * (u1 + u2)
    r24 = 0.5 * (u1 - u2)
    r33 = 0.5 * u5 + 4.0 * u8 / d8 + 4.0 * u9 / d9
    r37 = 0.5 * (-u5 + 8.0 * u8 / d8 + 8.0 * u9 / d9)
    r35 = 2.0 * c1 * u8 / d8 - 2.0 * c2 * u9 / d9
    r55 = c1 * c1 * u8 / d8 + c2 * c2 * u9 / d9
    r66 = 0.5 * (u6 + u7)
    r68 = 0.5 * (u6 - u7)
    r99 = u4

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
    return rho / zs


def gibbs_analytic(p: ModelParams, T: float) -> ThermalState:
    """exp(-beta H)/Z from the closed-form matrix elements."""
    if not T > 0:
        raise DomainError(f"temperature must be positive, got {T}")
    r, theta, degenerate = effective_coupling(p)
    if degenerate:
        raise DegenerateCoupling("r = 0: closed forms unavailable, use gibbs_numeric")
    beta = 1.0 / T
    spec = analytic_spectrum(p)
    rho = _analytic_rho(spec, theta, beta)
    _, zs = _shifted_weights(spec.eps, beta)
    return ThermalState(beta=beta, Z=_unshifted_z(zs, beta, float(spec.eps.min())), rho=rho)


def gibbs(p: ModelParams, T: float) -> ThermalState:
    """Closed-form route when available, numeric fallback at r = 0.

    T must be positive; NaN is rejected.  T = inf is beta = 0, the
    maximally mixed state 1/9 with Z = 9.
    """
    try:
        return gibbs_analytic(p, T)
    except DegenerateCoupling:
        return gibbs_numeric(p, T)


def ground_state_mixture(p: ModelParams) -> ThermalState:
    """T = 0 limit: equal-weight mixture over the (possibly degenerate)
    ground level.  At a level crossing this is honestly rank-deficient."""
    dec = hermitian_eig(hamiltonian_tensor(p))
    w = dec.eigenvalues
    ground = w - w[0] < GROUND_DEGENERACY_TOL
    g = int(ground.sum())
    v = dec.eigenvectors[:, ground]
    rho = (v @ v.conj().T) / g
    return ThermalState(beta=math.inf, Z=float(g), rho=rho)
