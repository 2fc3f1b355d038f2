"""Gibbs state rho(T) = exp(-beta H)/Z and its T = 0 limit.

Every state on the point path comes from the nine closed-form levels and
their labelled eigenvectors (levels): gibbs_analytic assembles the
closed-form matrix elements, and at r = 0, where H is diagonal in the
product basis, gibbs and ground_state_mixture take the diagonal of the
closed-form Hamiltonian with the basis vectors.  gibbs_numeric
diagonalizes the tensor-product Hamiltonian with the Jacobi kernel; it is
the independent reference that validate and the tests compare against,
entrywise to 1e-10, which checks the closed forms (and the eps9 sign).
Every route applies the spectral shift eps -> eps - eps_min before
exponentiating, so arbitrarily low temperatures never overflow.
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
    hamiltonian_closed_form,
    hamiltonian_tensor,
)

#: levels within this energy of the minimum count as ground-degenerate at T=0
GROUND_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class ThermalState:
    """Normalized thermal density matrix.  Z is the partition function; at
    beta = inf it holds the ground-level degeneracy instead (the limit of
    the shifted sum).  ground_energy is the lowest level of H."""

    beta: float
    Z: float
    rho: np.ndarray
    ground_energy: float


def levels(p: ModelParams):
    """The nine levels of H and their unit eigenvectors (columns), with no
    dense solve: analytic_spectrum (labels 1..9) when r > 0; at r = 0, where
    H is diagonal, the diagonal of hamiltonian_closed_form with the basis
    vectors (labels are then basis indices + 1)."""
    try:
        spec = analytic_spectrum(p)
    except DegenerateCoupling:
        return hamiltonian_closed_form(p).diagonal().real, np.eye(9, dtype=complex)
    return spec.eps, spec.vecs


def _shifted_weights(eps: np.ndarray, beta: float):
    """Boltzmann weights exp(-beta (eps - eps_min)) and their sum."""
    u = np.exp(-beta * (eps - eps.min()))
    return u, float(u.sum())


def _unshifted_z(zs: float, beta: float, eps_min: float) -> float:
    """Z = zs * exp(-beta eps_min); inf when the rescaling overflows
    (beta up to 1e6 must stay safe, the shifted weights already are)."""
    x = -beta * eps_min
    return zs * math.exp(x) if x < 700.0 else math.inf


def _spectral_state(eps: np.ndarray, vecs: np.ndarray, beta: float) -> ThermalState:
    """exp(-beta H)/Z from the levels of H and their unit eigenvectors."""
    u, zs = _shifted_weights(eps, beta)
    eps_min = float(eps.min())
    rho = (vecs * (u / zs)) @ vecs.conj().T
    return ThermalState(beta=beta, Z=_unshifted_z(zs, beta, eps_min), rho=rho,
                        ground_energy=eps_min)


def partition_function(p: ModelParams, T: float) -> float:
    """Z = sum_i exp(-beta eps_i), overflow-safe via the spectral shift."""
    return gibbs(p, T).Z


def gibbs_numeric(p: ModelParams, T: float) -> ThermalState:
    """exp(-beta H)/Z through the numeric eigensolver."""
    if not T > 0:
        raise DomainError(f"temperature must be positive, got {T}")
    dec = hermitian_eig(hamiltonian_tensor(p))
    return _spectral_state(dec.eigenvalues, dec.eigenvectors, 1.0 / T)


def _analytic_rho(spec: AnalyticSpectrum, theta: float, u: np.ndarray,
                  zs: float) -> np.ndarray:
    """Closed-form Eq.-style matrix elements, written as combinations of the
    shifted Boltzmann weights u_i of the nine labeled levels (sum zs).

    The hyperbolic forms of the published elements are recovered exactly,
    e.g. rho22*Z = e^{-bB} cosh(b r) = (u1 + u2)/2 up to the common shift,
    and rho35*Z = -4 e^{b g J/2} sinh(b r (chi1+chi2)/4) / (chi1+chi2)
    = 2 chi1 u8/(chi1^2+8) - 2 chi2 u9/(chi2^2+8) via chi1 chi2 = 8.
    """
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
    u, zs = _shifted_weights(spec.eps, beta)
    rho = _analytic_rho(spec, theta, u, zs)
    eps_min = float(spec.eps.min())
    return ThermalState(beta=beta, Z=_unshifted_z(zs, beta, eps_min), rho=rho,
                        ground_energy=eps_min)


def gibbs(p: ModelParams, T: float) -> ThermalState:
    """Closed-form route; at r = 0 the diagonal Boltzmann weights of the
    closed-form levels.

    T must be positive; NaN is rejected.  T = inf is beta = 0, the
    maximally mixed state 1/9 with Z = 9.
    """
    try:
        return gibbs_analytic(p, T)
    except DegenerateCoupling:
        return _spectral_state(*levels(p), 1.0 / T)


def ground_state_mixture(p: ModelParams) -> ThermalState:
    """T = 0 limit: equal-weight mixture over the (possibly degenerate)
    ground level of the closed-form levels.  At a level crossing this is
    honestly rank-deficient."""
    eps, vecs = levels(p)
    eps_min = float(eps.min())
    ground = eps - eps_min < GROUND_DEGENERACY_TOL
    g = int(ground.sum())
    v = vecs[:, ground]
    rho = (v @ v.conj().T) / g
    return ThermalState(beta=math.inf, Z=float(g), rho=rho, ground_energy=eps_min)
