"""Dense complex linear algebra for small Hermitian problems.

Matrices are plain numpy complex128 arrays; numpy is imported inside the
functions that take or build one, so importing this module does not load
it (_jacobi itself runs on Python scalars).  There is one iterative
eigensolver, _jacobi: cyclic Jacobi with unitary 2x2 rotations on Python
scalars, which is robust and exact enough (off-diagonal norm driven below
1e-14 * ||A||) for the 9x9 problems this package cares about.
hermitian_eig runs it with the eigenvectors accumulated and eigvalsh for
eigenvalues alone; they are the dense reference of validate and the
tests.  The negativity of the thermal states solves its 3x3 block in
closed form (entanglement._eig3) and never runs _jacobi.  numpy is used
only as the array carrier; no lapack eigenroutine is called, and the tests
alone hold the kernel to numpy's LAPACK eigvalsh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HERMITICITY_ATOL = 1e-12
#: target: off-diagonal Frobenius norm below this fraction of ||A||_F
JACOBI_RELTOL = 1e-14
JACOBI_MAX_SWEEPS = 100


class NotHermitian(ValueError):
    """Input matrix fails the Hermitian symmetry check."""


class NoConvergence(RuntimeError):
    """Jacobi iteration exhausted its sweep budget."""


def asmatrix(a) -> np.ndarray:
    import numpy as np

    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    import numpy as np

    return np.kron(asmatrix(a), asmatrix(b))


def is_hermitian(a, atol=HERMITICITY_ATOL) -> bool:
    a = asmatrix(a)
    return a.shape[0] == a.shape[1] and abs(a - a.conj().T).max() <= atol


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted ascending; eigenvectors[:, k] belongs to eigenvalues[k]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _jacobi(off: list, cols: list = None) -> list:
    """Eigenvalues, unsorted, of a small Hermitian matrix given as nested
    lists of Python complex (or float, for a real symmetric matrix, which
    then stays real), by cyclic Jacobi on Python scalars (Golub & Van Loan,
    Matrix Computations, 8.5).

    Each rotation is the unitary 2x2 (c, s*phase) that annihilates the
    (p, q) entry; entries below a tenth of the mean off-diagonal size are
    skipped.  The sweeps stop once the off-diagonal Frobenius norm is below
    JACOBI_RELTOL * ||A||_F, at most JACOBI_MAX_SWEEPS of them.  The
    diagonal is tracked as real floats and `off` is overwritten.  `cols`,
    the columns of a matrix V as lists, gets the same rotations, so when it
    starts as the identity, cols[k] ends as the unit eigenvector of the k-th
    value returned; `off` and the diagonal evolve the same with or without
    it, so the eigenvalues do too.
    """
    n = len(off)
    diag = [off[i][i].real for i in range(n)]
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    off2 = 2.0 * sum(abs(off[p][q]) ** 2 for p, q in pairs)
    norm = math.sqrt(sum(d * d for d in diag) + off2)
    target = max(JACOBI_RELTOL * norm, 1e-300)
    for _ in range(JACOBI_MAX_SWEEPS):
        off_norm = math.sqrt(off2)
        if off_norm <= target:
            return diag
        # rotating entries much smaller than the target norm is wasted work
        thresh = 0.1 * max(off_norm, target) / n
        for p, q in pairs:
            apq = off[p][q]
            mag = abs(apq)
            if mag < thresh:
                continue
            phase = apq / mag
            tau = (diag[q] - diag[p]) / (2.0 * mag)
            if tau >= 0.0:
                t = 1.0 / (tau + math.hypot(1.0, tau))
            else:
                t = -1.0 / (-tau + math.hypot(1.0, tau))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            diag[p] -= t * mag
            diag[q] += t * mag
            off[p][q] = off[q][p] = 0.0
            # rows and columns p and q of R^H A R, kept Hermitian
            for k in range(n):
                if k == p or k == q:
                    continue
                akp, akq = off[k][p], off[k][q]
                off[k][p] = c * akp - s * phase.conjugate() * akq
                off[k][q] = s * phase * akp + c * akq
                off[p][k] = off[k][p].conjugate()
                off[q][k] = off[k][q].conjugate()
            if cols is not None:
                # columns p and q of V R
                sp, sc = s * phase, s * phase.conjugate()
                vp, vq = cols[p], cols[q]
                cols[p] = [c * x - sc * y for x, y in zip(vp, vq)]
                cols[q] = [sp * x + c * y for x, y in zip(vp, vq)]
        off2 = 2.0 * sum(abs(off[p][q]) ** 2 for p, q in pairs)
    raise NoConvergence(
        f"Jacobi failed to converge in {JACOBI_MAX_SWEEPS} sweeps on a "
        f"{n}x{n} matrix (off-diagonal norm {math.sqrt(off2):.3e}, target {target:.3e})"
    )


def _checked_hermitian(h) -> np.ndarray:
    a = asmatrix(h)
    if a.shape[0] != a.shape[1] or not is_hermitian(a):
        raise NotHermitian(f"matrix of shape {a.shape} is not Hermitian within {HERMITICITY_ATOL}")
    return a


def hermitian_eig(h) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi
    (_jacobi with the eigenvectors accumulated from the identity), in
    stable ascending order.  The input is not modified; the eigenvectors
    are complex and unitary, and the identity for a zero matrix."""
    import numpy as np

    a = _checked_hermitian(h)
    cols = np.eye(a.shape[0], dtype=complex).tolist()
    w = np.array(_jacobi(a.tolist(), cols))
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(eigenvalues=w[order], eigenvectors=np.array(cols).T[:, order])


def eigvalsh(h) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix by _jacobi, with no
    eigenvectors: the same numbers as hermitian_eig(h).eigenvalues.  The
    input is not modified."""
    import numpy as np

    return np.sort(_jacobi(_checked_hermitian(h).tolist()), kind="stable")
