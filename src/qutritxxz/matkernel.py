"""Dense complex linear algebra for small Hermitian problems.

Matrices are plain numpy complex128 arrays.  There is one eigensolver,
_jacobi: cyclic Jacobi with unitary 2x2 rotations on Python scalars, which
is robust and exact enough (off-diagonal norm driven below 1e-14 * ||A||)
for the 9x9 problems this package cares about.  hermitian_eig runs it with
the eigenvectors accumulated; sector_eigvalsh and the negativity of the
thermal states run it for eigenvalues alone.  numpy is used only as the
array carrier; no lapack eigenroutine is called, and the tests alone hold
the kernel to numpy's LAPACK eigvalsh.

sector_eigvalsh takes the eigenvalues of a matrix that is block-diagonal
over given index sectors block by block, which is what the conserved
magnetization of the qutrit dimer makes of every state it builds.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

HERMITICITY_ATOL = 1e-12
#: target: off-diagonal Frobenius norm below this fraction of ||A||_F
JACOBI_RELTOL = 1e-14
JACOBI_MAX_SWEEPS = 100


class NotHermitian(ValueError):
    """Input matrix fails the Hermitian symmetry check."""


class NoConvergence(RuntimeError):
    """Jacobi iteration exhausted its sweep budget."""


def asmatrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    return np.kron(asmatrix(a), asmatrix(b))


def is_hermitian(a, atol=HERMITICITY_ATOL) -> bool:
    a = asmatrix(a)
    return a.shape[0] == a.shape[1] and np.max(np.abs(a - a.conj().T)) <= atol


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted ascending; eigenvectors[:, k] belongs to eigenvalues[k]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@lru_cache(maxsize=None)
def _off_sector_mask(sectors) -> np.ndarray:
    """True at every entry outside the diagonal blocks of `sectors`, which
    must partition range(n)."""
    n = sum(len(block) for block in sectors)
    if sorted(i for block in sectors for i in block) != list(range(n)):
        raise ValueError(f"sectors {sectors} do not partition range({n})")
    mask = np.ones((n, n), dtype=bool)
    for block in sectors:
        mask[np.ix_(block, block)] = False
    mask.flags.writeable = False
    return mask


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
    value returned.
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


def hermitian_eig(h) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi
    (_jacobi with the eigenvectors accumulated from the identity), in
    stable ascending order.  The input is not modified; the eigenvectors
    are complex and unitary, and the identity for a zero matrix."""
    a = asmatrix(h)
    if a.shape[0] != a.shape[1] or not is_hermitian(a):
        raise NotHermitian(f"matrix of shape {a.shape} is not Hermitian within {HERMITICITY_ATOL}")
    cols = np.eye(a.shape[0], dtype=complex).tolist()
    w = np.array(_jacobi(a.tolist(), cols))
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(eigenvalues=w[order], eigenvectors=np.array(cols).T[:, order])


def sector_eigvalsh(a, sectors) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, taken block by block.

    `sectors` is a tuple of index tuples that partitions the rows.  When
    every entry outside those diagonal blocks is exactly 0.0, the spectrum
    is the union of the block spectra: a 1x1 block is its diagonal entry,
    a 2x2 block has the closed form m +- hypot((a - b)/2, |c|), and a
    larger block goes through _jacobi, with no eigenvectors.  Any other
    matrix is taken as one block.
    """
    a = asmatrix(a)
    if a.shape[0] != a.shape[1] or not is_hermitian(a):
        raise NotHermitian(f"matrix of shape {a.shape} is not Hermitian within {HERMITICITY_ATOL}")
    mask = _off_sector_mask(sectors)
    if mask.shape != a.shape:
        raise ValueError(f"sectors cover {mask.shape[0]} indices, matrix has shape {a.shape}")
    if a[mask].any():
        sectors = (tuple(range(a.shape[0])),)

    rows = a.tolist()
    w = []
    for block in sectors:
        if len(block) == 1:
            i, = block
            w.append(rows[i][i].real)
        elif len(block) == 2:
            i, j = block
            x, y = rows[i][i].real, rows[j][j].real
            mid = 0.5 * (x + y)
            rad = math.hypot(0.5 * (x - y), abs(rows[i][j]))
            w += [mid - rad, mid + rad]
        else:
            w += _jacobi([[rows[i][j] for j in block] for i in block])
    w.sort()
    return np.array(w)
