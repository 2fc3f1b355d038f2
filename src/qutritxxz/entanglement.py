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
solved in closed form (_eig3) by one path for every block, two nearly
equal eigenvalues included, so no iterative eigensolver runs on it.  numpy
is imported only by the functions that take a matrix or a coefficient
array, so importing this module and element_negativity do not load it.
"""

from __future__ import annotations

import math

from .matkernel import NotHermitian, eigvalsh

#: PT eigenvalues in [-NEGATIVE_EIG_TOL, 0) are eigensolver noise, not entanglement
NEGATIVE_EIG_TOL = 1e-12
STATE_TOL = 1e-9

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


def negativity(rho: np.ndarray) -> float:
    """Sum of |negative eigenvalues| of the partial transpose of rho.

    InvalidState where rho is not 9x9, fails the kernel's own Hermiticity
    gate (matkernel.HERMITICITY_ATOL, run by the eigvalsh of rho), or has
    a trace off 1 or an eigenvalue below 0 by more than STATE_TOL."""
    import numpy as np

    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (9, 9):
        raise InvalidState(f"expected a 9x9 density matrix, got {rho.shape}")
    try:
        lowest = eigvalsh(rho)[0]
    except NotHermitian as exc:
        raise InvalidState("density matrix is not Hermitian") from exc
    if abs(np.trace(rho).real - 1.0) > STATE_TOL:
        raise InvalidState(f"trace is {np.trace(rho).real}, expected 1")
    if lowest < -STATE_TOL:
        raise InvalidState("density matrix is not positive semidefinite")

    w = eigvalsh(partial_transpose(rho))
    neg = w[w < -NEGATIVE_EIG_TOL]
    # an empty sum negated is -0.0; a separable state reports +0.0
    return float(-neg.sum()) if neg.size else 0.0


def _eig3(a11, a12, a13, a22, a23, a33) -> list:
    """Eigenvalues, unsorted, of the real symmetric 3x3 matrix A =
    [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]], in closed form.

    With q = tr A / 3, p^2 = ||A - qI||_F^2 / 6 and B = (A - qI)/p, B has
    trace 0, ||B||_F^2 = 6 and r = det(B) / 2 in [-1, 1]; its eigenvalues
    are 2 cos(acos(r)/3 + 2 pi k/3), k = 0, 1, 2 (Smith, CACM 4, 168
    (1961)).  Two of them meet as |r| -> 1, where acos has an infinite
    slope, so only the one that stands apart is taken from r (Kopp,
    arXiv:physics/0610206): lam = 2 cos(acos(r)/3), or 2 cos(acos(r)/3 +
    2 pi/3) where r < 0.  |lam| >= sqrt(3), its distance to the other two is
    at least sqrt(3), and d lam / d r <= 1/3 at every r, so rounding in r
    moves it by about 1e-16.  With lam2, lam3 the other two and v the unit
    eigenvector of lam, adj(B - lam I) is (lam2 - lam)(lam3 - lam) v v^T,
    with a trace of at least 3, so dividing it by its trace gives the
    projector P = v v^T with no square root.  The other two are -lam/2 +- d,
    where d = ||B + (lam/2) I - (3 lam/2) P||_F / sqrt(2) is formed entry by
    entry, so no cancelling invariant sets how close they may meet.  A's
    eigenvalues are q + p lam and q + p (-lam/2 +- d).

    p comes from math.hypot, and each entry is divided by p before the
    determinant, so neither p^2 nor p^3 can underflow.  Where p == 0, A is
    exactly qI and its diagonal is returned; where p is not finite the
    entries are far beyond any density matrix's and InvalidState is
    raised.  r is clamped to [-1, 1], so acos stays in its domain.  On
    48,002 thermal blocks (T in [0.01, 5], T up to 1e9, T = inf, T = 0 and
    T = 0 at the field crossings) the worst eigenvalue error against LAPACK
    is 8.9e-16, where the three-cosine form with a Jacobi fallback below
    1 - |r| = 1e-4 gave 1.2e-14.  On 20,000 random symmetric blocks, half
    with a pair split by 1e-16 to 1e-2, it is 1.4e-15 of the largest
    |eigenvalue|.
    """
    q = (a11 + a22 + a33) / 3.0
    b11, b22, b33 = a11 - q, a22 - q, a33 - q
    p = math.hypot(b11, b22, b33, a12, a12, a13, a13, a23, a23) / _SQRT6
    if p == 0.0:
        return [q, q, q]
    if not math.isfinite(p):
        raise InvalidState(f"the m1 - m2 = 0 block has spread p = {p}; "
                           "no density matrix has entries this large")
    b11, b22, b33 = b11 / p, b22 / p, b33 / p
    b12, b13, b23 = a12 / p, a13 / p, a23 / p
    r = 0.5 * (b11 * (b22 * b33 - b23 * b23) - b12 * (b12 * b33 - b23 * b13)
               + b13 * (b12 * b23 - b22 * b13))
    if r > 1.0:
        r = 1.0
    elif r < -1.0:
        r = -1.0
    phi = math.acos(r) / 3.0
    lam = 2.0 * math.cos(phi if r >= 0.0 else phi + _THIRD_TURN)
    # P = adj(B - lam I) / tr adj, and M = B + (lam/2) I - (3 lam/2) P entry by entry
    c11, c22, c33 = b11 - lam, b22 - lam, b33 - lam
    adj11 = c22 * c33 - b23 * b23
    adj22 = c11 * c33 - b13 * b13
    adj33 = c11 * c22 - b12 * b12
    s = -1.5 * lam / (adj11 + adj22 + adj33)
    h = 0.5 * lam
    m11, m22, m33 = b11 + h + s * adj11, b22 + h + s * adj22, b33 + h + s * adj33
    m12 = b12 + s * (b13 * b23 - b12 * c33)
    m13 = b13 + s * (b12 * b23 - b13 * c22)
    m23 = b23 + s * (b12 * b13 - b23 * c11)
    # |m_ij| <= ||M||_F <= sqrt(3/2): no square overflows, and none that
    # underflows matters next to the rounding of q
    pd = p * math.sqrt(0.5 * (m11 * m11 + m22 * m22 + m33 * m33)
                       + m12 * m12 + m13 * m13 + m23 * m23)
    mid = q - p * h
    return [q + p * lam, mid + pd, mid - pd]


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
    InvalidState where the trace is not 1, an off-diagonal is not finite,
    the 3x3 block's entries are too large for _eig3 to scale or a diagonal
    element (r11, r22, r33, r55, r66 or r99, a probability) is below
    -STATE_TOL.
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
    # after _eig3, so that a block too large to scale is named as such; six
    # comparisons and no min() call, since every figure row passes here
    floor = -STATE_TOL
    if r11 < floor or r22 < floor or r33 < floor or r55 < floor or r66 < floor or r99 < floor:
        raise InvalidState(f"a diagonal element is {min(r11, r22, r33, r55, r66, r99)}; "
                           "no probability is negative")
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
