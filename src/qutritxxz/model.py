"""Two-qutrit XXZ pair with z-axis DM interaction and Herring-Flicker coupling.

H = J (sx@sx + sy@sy + g sz@sz) + Dz (sx@sy - sy@sx) + B (sz@1 + 1@sz)

with spin-1 matrices sx, sy, sz and exchange J either given directly or
taken from the Herring-Flicker distance law J(R) = 1.642 exp(-2R) R^{5/2}.
The two-site basis is ordered |-1,-1>, |-1,0>, ..., |1,1> (first spin slow);
with the sz = diag(1, 0, -1) convention the |-1,-1> diagonal entry is
g*J + 2B.

The 9x9 Hamiltonian couples through r = sqrt(Dz^2 + J^2) and the phase
theta = atan2(Dz, J); its spectrum is known in closed form and is exposed
by analytic_spectrum alongside the labeled eigenvectors.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .matkernel import kron

HF_PREFACTOR = 1.642
#: distance window where the HF coupling is non-negligible
HF_RANGE = (0.0, 6.0)

_S2 = 1.0 / math.sqrt(2.0)
SPIN_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * _S2
SPIN_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) * _S2
SPIN_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)
IDENTITY3 = np.eye(3, dtype=complex)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


#: the two-site operators of H, built once: J multiplies XX+YY and gamma*J
#: multiplies ZZ, Dz multiplies XY-YX and B multiplies Z(x)1+1(x)Z
XX_PLUS_YY = _read_only(kron(SPIN_X, SPIN_X) + kron(SPIN_Y, SPIN_Y))
ZZ = _read_only(kron(SPIN_Z, SPIN_Z))
XY_MINUS_YX = _read_only(kron(SPIN_X, SPIN_Y) - kron(SPIN_Y, SPIN_X))
Z_TOTAL = _read_only(kron(SPIN_Z, IDENTITY3) + kron(IDENTITY3, SPIN_Z))

#: basis labels in matrix order, index = 3*(m1+1) + (m2+1)
BASIS_LABELS = tuple(f"|{m1},{m2}>" for m1 in (-1, 0, 1) for m2 in (-1, 0, 1))

SIGN_CONVENTION_NOTE = (
    "basis |-1,-1>..|1,1> with sz = diag(1,0,-1); the |-1,-1> diagonal "
    "entry is gamma*J + 2B, so state labels may appear mirrored vs "
    "magnetization-ordered conventions"
)


class DomainError(ValueError):
    """Parameter outside the physically meaningful domain."""


class DegenerateCoupling(ValueError):
    """r = sqrt(Dz^2 + J^2) vanishes; the phase theta is undefined."""


def hf_coupling(R: float) -> float:
    """Herring-Flicker exchange 1.642 exp(-2R) R^{5/2} (leading term only).
    Exactly 0.0 once exp(-2R) underflows (R above about 373), where R^{5/2}
    may still overflow."""
    if R <= 0:
        raise DomainError(f"HF coupling needs R > 0, got {R}")
    decay = math.exp(-2.0 * R)
    if decay == 0.0:
        return 0.0
    return HF_PREFACTOR * decay * R**2.5


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration; J derives from R unless j_override is set."""

    R: float = 0.5
    gamma: float = 1.0
    Dz: float = 0.0
    B: float = 0.0
    j_override: Optional[float] = None

    def __post_init__(self):
        for name in ("R", "gamma", "Dz", "B", "j_override"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.j_override is None and self.R <= 0:
            raise DomainError(f"R must be positive without a direct-J override, got {self.R}")

    @property
    def J(self) -> float:
        if self.j_override is not None:
            return self.j_override
        return hf_coupling(self.R)

    @property
    def r(self) -> float:
        return math.hypot(self.Dz, self.J)

    @property
    def theta(self) -> float:
        return effective_coupling(self).theta

    def in_hf_window(self) -> bool:
        lo, hi = HF_RANGE
        return self.j_override is not None or lo < self.R < hi


class EffectiveCoupling(NamedTuple):
    r: float
    theta: float
    degenerate: bool


def effective_coupling(p: ModelParams) -> EffectiveCoupling:
    """r = sqrt(Dz^2 + J^2) and theta = atan2(Dz, J).

    When both J and Dz vanish the phase is undefined; theta is reported
    as 0 with the degenerate flag set (the Hamiltonian itself stays
    well-defined).
    """
    j = p.J
    r = math.hypot(p.Dz, j)
    if r == 0.0:
        return EffectiveCoupling(0.0, 0.0, True)
    return EffectiveCoupling(r, math.atan2(p.Dz, j), False)


def hamiltonian_tensor(p: ModelParams) -> np.ndarray:
    """Hamiltonian assembled from the Kronecker products of the spin-1
    matrices (the module-level two-site operators)."""
    h = p.J * (XX_PLUS_YY + p.gamma * ZZ)
    h += p.Dz * XY_MINUS_YX
    h += p.B * Z_TOTAL
    return h


def hamiltonian_closed_form(p: ModelParams) -> np.ndarray:
    """Hamiltonian written directly in its sparse 9x9 form with r e^{i theta}
    off-diagonals; must agree entrywise with hamiltonian_tensor."""
    gj, b = p.gamma * p.J, p.B
    r, theta, _ = effective_coupling(p)
    z = r * np.exp(1j * theta)
    h = np.zeros((9, 9), dtype=complex)
    diag = [gj + 2 * b, b, -gj, b, 0.0, -b, -gj, -b, gj - 2 * b]
    h[np.arange(9), np.arange(9)] = diag
    for i, k in [(1, 3), (2, 4), (4, 6), (5, 7)]:
        h[i, k] = z
        h[k, i] = np.conj(z)
    return h


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Closed-form eigenvalues eps[0..8] (labels 1..9) with matching unit
    eigenvectors in the columns of vecs, plus the chi invariants
    (chi1 * chi2 = 8 identically)."""

    eps: np.ndarray
    vecs: np.ndarray
    chi1: float
    chi2: float

    def sorted_eigenvalues(self) -> np.ndarray:
        return np.sort(self.eps)


def closed_form_levels(gj: float, b: float, r: float):
    """The nine levels eps1..eps9 as a tuple of floats, and chi1, chi2, for
    gamma*J = gj, field b and r > 0.  They depend on (gj, r, b) only.
    OverflowError when gj^2 + 8 r^2 overflows (r above about 4.7e153),
    which would make chi1, chi2 and eps8, eps9 infinite or NaN."""
    root = math.sqrt(gj * gj + 8.0 * r * r)
    chi1 = (root + gj) / r
    chi2 = (root - gj) / r
    if not math.isfinite(chi1 + chi2):
        raise OverflowError(f"closed-form levels overflow at gamma*J = {gj:.3e}, r = {r:.3e}")
    eps = (
        b + r,           # eps1
        b - r,           # eps2
        gj + 2 * b,      # eps3
        gj - 2 * b,      # eps4
        -gj,             # eps5
        -b + r,          # eps6
        -b - r,          # eps7
        0.5 * r * chi2,  # eps8
        -0.5 * r * chi1,  # eps9 (sign-corrected: eps8 + eps9 = -gj)
    )
    return eps, chi1, chi2


def analytic_spectrum(p: ModelParams) -> AnalyticSpectrum:
    r, theta, degenerate = effective_coupling(p)
    if degenerate:
        raise DegenerateCoupling("r = 0: closed-form spectrum unavailable, use the numeric route")
    eps, chi1, chi2 = closed_form_levels(p.gamma * p.J, p.B, r)
    eps = np.array(eps)

    e1 = np.exp(1j * theta)
    e2 = np.exp(2j * theta)
    vecs = np.zeros((9, 9), dtype=complex)
    s2 = _S2
    # |-1,0>=1, |0,-1>=3 block
    vecs[1, 0], vecs[3, 0] = e1 * s2, s2
    vecs[1, 1], vecs[3, 1] = -e1 * s2, s2
    # product states |-1,-1>=0 and |1,1>=8
    vecs[0, 2] = 1.0
    vecs[8, 3] = 1.0
    # |-1,1>=2, |0,0>=4, |1,-1>=6 block
    vecs[2, 4], vecs[6, 4] = -e2 * s2, s2
    n8 = math.sqrt(chi1 * chi1 + 8.0)
    vecs[2, 7], vecs[4, 7], vecs[6, 7] = 2 * e2 / n8, chi1 * e1 / n8, 2 / n8
    n9 = math.sqrt(chi2 * chi2 + 8.0)
    vecs[2, 8], vecs[4, 8], vecs[6, 8] = 2 * e2 / n9, -chi2 * e1 / n9, 2 / n9
    # |0,1>=5, |1,0>=7 block
    vecs[5, 5], vecs[7, 5] = e1 * s2, s2
    vecs[5, 6], vecs[7, 6] = -e1 * s2, s2

    return AnalyticSpectrum(eps=eps, vecs=vecs, chi1=chi1, chi2=chi2)
