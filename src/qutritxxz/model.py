"""Two-qutrit XXZ pair with z-axis DM interaction and Herring-Flicker coupling.

H = J (sx@sx + sy@sy + g sz@sz) + Dz (sx@sy - sy@sx) + B (sz@1 + 1@sz)

with spin-1 matrices sx, sy, sz and exchange J either given directly or
taken from the Herring-Flicker distance law J(R) = 1.642 exp(-2R) R^{5/2}.
The two-site basis is ordered |-1,-1>, |-1,0>, ..., |1,1> (first spin slow);
with the sz = diag(1, 0, -1) convention the |-1,-1> diagonal entry is
g*J + 2B.

H couples through r = sqrt(Dz^2 + J^2) and theta = atan2(Dz, J); its
spectrum is known in closed form, and the mixing of |-1,1>, |0,0>, |1,-1>
in levels 8 and 9 is fixed by those two levels (_mixed_pair), from which
analytic_spectrum builds the labeled eigenvectors.  ModelParams works out
J, r and theta once, on construction, and its one-field copy (_with)
works out again only those that the field changes; every other function
of the package reads them from it (effective_coupling is a view of them).

The levels themselves (diagonal_levels, closed_form_levels) are Python
floats.  B enters H only as B M, with M (Z_TOTAL) conserved, so each level
is a line c + M B; BASIS_M and LEVEL_M hold the M of each level.  numpy is
imported only by the functions that build a matrix, and the spin matrices
and the two-site operators of H are built by _operators on first use, so
importing this module does not load numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .matkernel import kron

HF_PREFACTOR = 1.642
#: distance window where the HF coupling is non-negligible
HF_RANGE = (0.0, 6.0)

_S2 = 1.0 / math.sqrt(2.0)


@functools.cache
def _operators() -> dict:
    """The spin-1 matrices and the two-site operators of H, read-only, by
    name: J multiplies XX_PLUS_YY and gamma*J multiplies ZZ, Dz multiplies
    XY_MINUS_YX and B multiplies Z_TOTAL = Z(x)1 + 1(x)Z.  Built once, on
    first use."""
    import numpy as np

    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * _S2
    sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) * _S2
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    eye = np.eye(3, dtype=complex)
    ops = {
        "SPIN_X": sx, "SPIN_Y": sy, "SPIN_Z": sz, "IDENTITY3": eye,
        "XX_PLUS_YY": kron(sx, sx) + kron(sy, sy),
        "ZZ": kron(sz, sz),
        "XY_MINUS_YX": kron(sx, sy) - kron(sy, sx),
        "Z_TOTAL": kron(sz, eye) + kron(eye, sz),
    }
    for a in ops.values():
        a.flags.writeable = False
    return ops


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
    """Physical configuration; J derives from R unless j_override is set.

    J, r = sqrt(Dz^2 + J^2) and theta = atan2(Dz, J) (0 where r = 0) are
    worked out once, on construction, and read as attributes.  They are not
    fields, so init, repr, == and hash see only the five parameters.  _with
    is the one-field copy that sweeps use per row."""

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
        j = hf_coupling(self.R) if self.j_override is None else self.j_override
        r = math.hypot(self.Dz, j)
        object.__setattr__(self, "J", j)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", math.atan2(self.Dz, j) if r else 0.0)

    def _with(self, name: str, value: float) -> "ModelParams":
        """A copy of self with one of R, Dz or B set to value: equal, in ==,
        repr, hash, J, r and theta, to replace(self, B=value),
        replace(self, Dz=value) or replace(self, R=value, j_override=None).
        It checks value as construction does, with the same DomainError,
        and derives only what the field changes: nothing for B, r and theta
        for Dz, and J, r and theta for R.  Sweeps build a row's parameters
        here, so a B or Dz row does not rerun hf_coupling."""
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
        q = object.__new__(ModelParams)
        d = q.__dict__
        d.update(self.__dict__)
        d[name] = value
        if name == "R":
            if value <= 0:
                raise DomainError(f"R must be positive without a direct-J override, got {value}")
            d["j_override"] = None
            d["J"] = hf_coupling(value)
        elif name == "B":
            return q
        r = math.hypot(d["Dz"], d["J"])
        d["r"] = r
        d["theta"] = math.atan2(d["Dz"], d["J"]) if r else 0.0
        return q

    def in_hf_window(self) -> bool:
        lo, hi = HF_RANGE
        return self.j_override is not None or lo < self.R < hi


class EffectiveCoupling(NamedTuple):
    r: float
    theta: float


def effective_coupling(p: ModelParams) -> EffectiveCoupling:
    """p.r and p.theta.  Where r = 0, both J and Dz vanish and the phase,
    reported as 0, is undefined (the Hamiltonian itself stays
    well-defined)."""
    return EffectiveCoupling(p.r, p.theta)


def hamiltonian_tensor(p: ModelParams) -> np.ndarray:
    """Hamiltonian assembled from the Kronecker products of the spin-1
    matrices (the two-site operators of _operators)."""
    ops = _operators()
    h = p.J * (ops["XX_PLUS_YY"] + p.gamma * ops["ZZ"])
    h += p.Dz * ops["XY_MINUS_YX"]
    h += p.B * ops["Z_TOTAL"]
    return h


def hamiltonian_closed_form(p: ModelParams) -> np.ndarray:
    """Hamiltonian written directly in its sparse 9x9 form with r e^{i theta}
    off-diagonals; must agree entrywise with hamiltonian_tensor."""
    import numpy as np

    z = p.r * np.exp(1j * p.theta)
    h = np.zeros((9, 9), dtype=complex)
    h[np.arange(9), np.arange(9)] = diagonal_levels(p.gamma * p.J, p.B)
    for i, k in [(1, 3), (2, 4), (4, 6), (5, 7)]:
        h[i, k] = z
        h[k, i] = np.conj(z)
    return h


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Closed-form eigenvalues eps[0..8] (labels 1..9) with matching unit
    eigenvectors in the columns of vecs, plus the published invariants
    chi1 = -2 eps9 / r and chi2 = 2 eps8 / r (chi1 * chi2 = 8 identically)."""

    eps: np.ndarray
    vecs: np.ndarray
    chi1: float
    chi2: float


#: M of each level, the slope of its line in B: in diagonal_levels order
#: (the diagonal of Z_TOTAL) and in closed_form_levels order (eps1..eps9)
BASIS_M = (2, 1, 0, 1, 0, -1, 0, -1, -2)
LEVEL_M = (1, 1, 2, -2, 0, -1, -1, 0, 0)


def diagonal_levels(gj: float, b: float) -> tuple:
    """The diagonal of H in the product basis as nine floats (gamma*J = gj,
    field b): the levels at r = 0, labelled by basis index + 1.
    OverflowError when gj +- 2b overflows (|B| above about 9e307)."""
    top, bottom = gj + 2 * b, gj - 2 * b
    if math.isinf(top) or math.isinf(bottom):
        raise OverflowError(f"levels overflow at gamma*J = {gj:.3e}, B = {b:.3e}")
    return (top, b, -gj, b, 0.0, -b, -gj, -b, bottom)


def closed_form_levels(gj: float, b: float, r: float) -> tuple:
    """The nine levels eps1..eps9 as floats for gamma*J = gj, field b and
    r > 0.  The mixed pair has eps8 - eps9 = root = sqrt(gj^2 + 8 r^2) and
    eps8 + eps9 = -gj; the one of them that cancels, (root - |gj|) / 2, is
    2r (2r / (root + |gj|)) (Higham, Accuracy and Stability, 1.8).  root is
    hypot(gj, 2r, 2r), which squares nothing.  OverflowError when root + |gj|
    (|gj| above about 9e307 or r above about 6e307) or gj +- 2b overflows."""
    root = math.hypot(gj, 2.0 * r, 2.0 * r)
    s = root + abs(gj)
    top, bottom = gj + 2 * b, gj - 2 * b
    if math.isinf(s) or math.isinf(top) or math.isinf(bottom):
        raise OverflowError(f"closed-form levels overflow at gamma*J = {gj:.3e}, "
                            f"r = {r:.3e}, B = {b:.3e}")
    far, near = 0.5 * s, 2.0 * r * (2.0 * r / s)
    eps8, eps9 = (near, -far) if gj >= 0 else (far, -near)
    return (b + r, b - r, top, bottom, -gj, -b + r, -b - r, eps8, eps9)


def _mixed_pair(eps) -> tuple:
    """(a, b, root) of the mixed levels: root = eps8 - eps9, a = eps8 / root
    and b = -eps9 / root, both in [0, 1] with a + b = 1.  Eigenvector 8
    puts weight a on |-1,1>, |1,-1> and b on |0,0>; eigenvector 9 the reverse."""
    eps8, eps9 = eps[7], eps[8]
    root = eps8 - eps9
    return eps8 / root, -eps9 / root, root


def analytic_spectrum(p: ModelParams) -> AnalyticSpectrum:
    """The AnalyticSpectrum of p; DegenerateCoupling at r = 0, OverflowError
    where a level or chi overflows (chi where |gamma J| / r is above 9e307)."""
    import numpy as np

    if p.r == 0.0:
        raise DegenerateCoupling("r = 0: closed-form spectrum unavailable, use the numeric route")
    levels = closed_form_levels(p.gamma * p.J, p.B, p.r)
    chi1, chi2 = -2.0 * levels[8] / p.r, 2.0 * levels[7] / p.r
    if math.isinf(chi1 + chi2):
        raise OverflowError(f"chi overflows at gamma*J = {p.gamma * p.J:.3e}, r = {p.r:.3e}")
    a, b, _ = _mixed_pair(levels)

    e1 = np.exp(1j * p.theta)
    e2 = np.exp(2j * p.theta)
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
    ha, hb = math.sqrt(0.5 * a), math.sqrt(0.5 * b)
    vecs[2, 7], vecs[4, 7], vecs[6, 7] = ha * e2, math.sqrt(b) * e1, ha
    vecs[2, 8], vecs[4, 8], vecs[6, 8] = hb * e2, -math.sqrt(a) * e1, hb
    # |0,1>=5, |1,0>=7 block
    vecs[5, 5], vecs[7, 5] = e1 * s2, s2
    vecs[5, 6], vecs[7, 6] = -e1 * s2, s2

    return AnalyticSpectrum(eps=np.array(levels), vecs=vecs, chi1=chi1, chi2=chi2)
