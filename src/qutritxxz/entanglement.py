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
alone; it is what the sweeps, scans and the CLI run.
"""

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .matkernel import _jacobi, eigvalsh, is_hermitian

#: PT eigenvalues in [-NEGATIVE_EIG_TOL, 0) are eigensolver noise, not entanglement
NEGATIVE_EIG_TOL = 1e-12
STATE_TOL = 1e-9

Subsystem = Literal["first", "second"]


class InvalidState(ValueError):
    """Input is not a valid density matrix within tolerance."""


class UnsupportedStructure(ValueError):
    """Pure-state oracle applied outside its permutation-pattern domain."""


def partial_transpose(rho: np.ndarray, subsystem: Subsystem = "first") -> np.ndarray:
    """Transpose one qutrit's indices; an involution, Hermiticity-preserving."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (9, 9):
        raise ValueError(f"expected a 9x9 matrix, got {rho.shape}")
    t = rho.reshape(3, 3, 3, 3)
    if subsystem == "first":
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == "second":
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"subsystem must be 'first' or 'second', got {subsystem!r}")
    return t.reshape(9, 9).copy()


@dataclass(frozen=True)
class NegativityResult:
    value: float
    negative_eigenvalues: np.ndarray = field(repr=False)


def negativity(rho: np.ndarray, subsystem: Subsystem = "first") -> NegativityResult:
    """Sum of |negative eigenvalues| of the partial transpose of rho."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (9, 9):
        raise InvalidState(f"expected a 9x9 density matrix, got {rho.shape}")
    if not is_hermitian(rho, atol=STATE_TOL):
        raise InvalidState("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > STATE_TOL:
        raise InvalidState(f"trace is {np.trace(rho).real}, expected 1")
    if eigvalsh(rho)[0] < -STATE_TOL:
        raise InvalidState("density matrix is not positive semidefinite")

    w = eigvalsh(partial_transpose(rho, subsystem))
    neg = w[w < -NEGATIVE_EIG_TOL]
    # an empty sum negated is -0.0; a separable state reports +0.0
    value = float(-neg.sum()) if neg.size else 0.0
    return NegativityResult(value=value, negative_eigenvalues=neg)


def element_negativity(elements) -> float:
    """Negativity of a dimer state given by its ten real elements
    (r11, r22, r24, r33, r35, r37, r55, r66, r68, r99).

    The state is the one gibbs and ground_state_mixture build: diagonal
    (r11, r22, r33, r22, r55, r66, r33, r66, r99) with rho[1,3] = e1 r24,
    rho[2,4] = rho[4,6] = e1 r35, rho[2,6] = e2 r37 and rho[5,7] = e1 r68,
    where e1 = e^{i theta}, e2 = e1^2.  Its partial transpose has the
    spectrum: r33 twice (m1 - m2 = +-2), the two eigenvalues of
    [[r22, r35], [r35, r66]] each twice (m1 - m2 = +-1), and the three of
    [[r11, r24, r37], [r24, r55, r68], [r37, r68, r99]] (m1 - m2 = 0).  The
    phases are a diagonal unitary gauge of each block, so theta drops out.
    Eigenvalues are counted and summed as in negativity.
    """
    r11, r22, r24, r33, r35, r37, r55, r66, r68, r99 = elements
    trace = r11 + r55 + r99 + 2.0 * (r22 + r33 + r66)
    if not abs(trace - 1.0) <= STATE_TOL:
        raise InvalidState(f"trace is {trace}, expected 1")
    mid = 0.5 * (r22 + r66)
    rad = math.hypot(0.5 * (r22 - r66), r35)
    w = [r33, r33, mid - rad, mid - rad, mid + rad, mid + rad]
    w += _jacobi([[r11, r24, r37], [r24, r55, r68], [r37, r68, r99]])
    neg = sorted(x for x in w if x < -NEGATIVE_EIG_TOL)
    # an empty sum would be the int 0; a separable state reports +0.0
    return -sum(neg) if neg else 0.0


def pure_state_negativity_oracle(coefficients: np.ndarray) -> float:
    """Closed-form negativity for pure states supported on a permutation
    pattern, i.e. |psi> = sum_i c_i |i, pi(i)> with pi a permutation of the
    occupied first-site labels.  For such states N = sum_{i<j} |c_i||c_j|.

    Independent of the partial-transpose pipeline; used as a test oracle.
    """
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
