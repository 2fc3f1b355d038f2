"""Partial transposition and entanglement negativity for two qutrits.

Negativity N = sum of |lambda| over the negative eigenvalues of the
partial transpose; 0 for separable states, 1 for the maximally entangled
qutrit pair.  Eigenvalues above -1e-12 count as zero so that sudden death
of entanglement is reportable as an exact 0.

negativity is the entry point for an arbitrary 9x9 state: it takes the
spectra of rho and of its partial transpose whole, by matkernel.eigvalsh.

The thermal states of the dimer have more structure: ten real numbers and
the phase theta fix them, and theta drops out of the partial-transpose
spectrum.  element_negativity takes the negativity from those ten numbers
alone; it is what the sweeps, scans and the CLI run.  Its one 3x3 block is
solved in closed form (_eig3), and matkernel._jacobi serves it only as the
fallback for blocks with two nearly equal eigenvalues.  numpy is imported
only by the functions that take a matrix or a coefficient array, so
importing this module and element_negativity do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .matkernel import _jacobi, eigvalsh, is_hermitian

#: PT eigenvalues in [-NEGATIVE_EIG_TOL, 0) are eigensolver noise, not entanglement
NEGATIVE_EIG_TOL = 1e-12
STATE_TOL = 1e-9
#: _eig3 hands a block to _jacobi where 1 - |r| is below this
EIG3_FALLBACK_CUT = 1e-4

_SQRT6 = math.sqrt(6.0)
_THIRD_TURN = 2.0 * math.pi / 3.0

class InvalidState(ValueError):
    """Input is not a valid density matrix within tolerance."""


class UnsupportedStructure(ValueError):
    """Pure-state oracle applied outside its permutation-pattern domain."""


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the first qutrit's indices; an involution,
    Hermiticity-preserving.  The second qutrit's partial transpose is the
    full transpose of this one, so it has the same spectrum."""
    import numpy as np

    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (9, 9):
        raise ValueError(f"expected a 9x9 matrix, got {rho.shape}")
    return rho.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9).copy()


@dataclass(frozen=True)
class NegativityResult:
    value: float
    negative_eigenvalues: np.ndarray = field(repr=False)


def negativity(rho: np.ndarray) -> NegativityResult:
    """Sum of |negative eigenvalues| of the partial transpose of rho."""
    import numpy as np

    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (9, 9):
        raise InvalidState(f"expected a 9x9 density matrix, got {rho.shape}")
    if not is_hermitian(rho, atol=STATE_TOL):
        raise InvalidState("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > STATE_TOL:
        raise InvalidState(f"trace is {np.trace(rho).real}, expected 1")
    if eigvalsh(rho)[0] < -STATE_TOL:
        raise InvalidState("density matrix is not positive semidefinite")

    w = eigvalsh(partial_transpose(rho))
    neg = w[w < -NEGATIVE_EIG_TOL]
    # an empty sum negated is -0.0; a separable state reports +0.0
    value = float(-neg.sum()) if neg.size else 0.0
    return NegativityResult(value=value, negative_eigenvalues=neg)


def _eig3(a11, a12, a13, a22, a23, a33) -> list:
    """Eigenvalues, unsorted, of the real symmetric 3x3 matrix A =
    [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]], by the
    trigonometric form of Smith (CACM 4, 168 (1961)): with q = tr A / 3,
    p^2 = ||A - qI||_F^2 / 6 and r = det((A - qI)/p) / 2, they are
    q + 2p cos(acos(r)/3 + 2 pi k/3), k = 0, 1, 2.

    p comes from math.hypot, and each entry is divided by p before the
    determinant, so neither p^2 nor p^3 can underflow.  Where p == 0, A is
    exactly qI and its diagonal is returned.  The form loses accuracy as
    |r| -> 1, where two eigenvalues meet and acos has an infinite slope
    (Kopp, arXiv:physics/0610206), so where 1 - |r| < EIG3_FALLBACK_CUT,
    or p is not finite, the block goes to matkernel._jacobi.  The error the
    slope makes of rounding in r grows like p * 1e-15 / sqrt(1 - |r|).  On
    20,000 stress draws of thermal and ground-state blocks (T up to 1e9,
    T = inf, T = 0 at the field crossings) the worst negativity error
    against LAPACK was 5e-15 with the cut at 1e-4, 5e-13 at 1e-8 (too close
    to the 1e-12 of the dual-route checks) and 8e-9 with no cut; at 1e-4,
    7.4% of the figure rows fall back.  r is clamped to [-1, 1], so acos
    stays in its domain whatever the cut.
    """
    q = (a11 + a22 + a33) / 3.0
    b11, b22, b33 = a11 - q, a22 - q, a33 - q
    p = math.hypot(b11, b22, b33, a12, a12, a13, a13, a23, a23) / _SQRT6
    if p == 0.0:
        return [q, q, q]
    if math.isfinite(p):
        b11, b22, b33 = b11 / p, b22 / p, b33 / p
        b12, b13, b23 = a12 / p, a13 / p, a23 / p
        det = (b11 * (b22 * b33 - b23 * b23) - b12 * (b12 * b33 - b23 * b13)
               + b13 * (b12 * b23 - b22 * b13))
        r = max(-1.0, min(1.0, 0.5 * det))
        if 1.0 - abs(r) >= EIG3_FALLBACK_CUT:
            phi = math.acos(r) / 3.0
            p2 = 2.0 * p
            return [q + p2 * math.cos(phi), q + p2 * math.cos(phi + _THIRD_TURN),
                    q + p2 * math.cos(phi - _THIRD_TURN)]
    return _jacobi([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])


def element_negativity(elements) -> float:
    """Negativity of a dimer state given by its ten real elements
    (r11, r22, r24, r33, r35, r37, r55, r66, r68, r99).

    The state is the one gibbs and ground_state_mixture build: diagonal
    (r11, r22, r33, r22, r55, r66, r33, r66, r99) with rho[1,3] = e1 r24,
    rho[2,4] = rho[4,6] = e1 r35, rho[2,6] = e2 r37 and rho[5,7] = e1 r68,
    where e1 = e^{i theta}, e2 = e1^2.  Its partial transpose has the
    spectrum: r33 twice (m1 - m2 = +-2), the two eigenvalues of
    [[r22, r35], [r35, r66]] each twice (m1 - m2 = +-1), and the three of
    [[r11, r24, r37], [r24, r55, r68], [r37, r68, r99]] (m1 - m2 = 0), from
    _eig3.  The phases are a diagonal unitary gauge of each block, so theta
    drops out.  Eigenvalues are counted and summed as in negativity.
    InvalidState where the trace is not 1 or an off-diagonal is not finite.
    """
    r11, r22, r24, r33, r35, r37, r55, r66, r68, r99 = elements
    trace = r11 + r55 + r99 + 2.0 * (r22 + r33 + r66)
    if not abs(trace - 1.0) <= STATE_TOL:
        raise InvalidState(f"trace is {trace}, expected 1")
    if not math.isfinite(r24 + r35 + r37 + r68):
        raise InvalidState("an off-diagonal element is not finite")
    mid = 0.5 * (r22 + r66)
    rad = math.hypot(0.5 * (r22 - r66), r35)
    w = [r33, r33, mid - rad, mid - rad, mid + rad, mid + rad]
    w += _eig3(r11, r24, r37, r55, r68, r99)
    neg = sorted(x for x in w if x < -NEGATIVE_EIG_TOL)
    # an empty sum would be the int 0; a separable state reports +0.0
    return -sum(neg) if neg else 0.0


def pure_state_negativity_oracle(coefficients: np.ndarray) -> float:
    """Closed-form negativity for pure states supported on a permutation
    pattern, i.e. |psi> = sum_i c_i |i, pi(i)> with pi a permutation of the
    occupied first-site labels.  For such states N = sum_{i<j} |c_i||c_j|.

    Independent of the partial-transpose pipeline; used as a test oracle.
    """
    import numpy as np

    c = np.asarray(coefficients, dtype=complex).reshape(-1)
    if c.shape != (9,):
        raise UnsupportedStructure(f"expected 9 coefficients, got shape {c.shape}")
    if abs(np.vdot(c, c).real - 1.0) > 1e-10:
        raise UnsupportedStructure("coefficients are not unit-normalized")

    support = [divmod(n, 3) for n in range(9) if abs(c[n]) > 1e-12]
    rows = [i for i, _ in support]
    cols = [j for _, j in support]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise UnsupportedStructure("support is not a permutation pattern")

    mags = np.abs(c[np.abs(c) > 1e-12])
    total = float(mags.sum())
    return 0.5 * (total * total - float((mags * mags).sum()))
