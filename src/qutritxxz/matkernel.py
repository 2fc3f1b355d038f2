"""Dense complex linear algebra for small Hermitian problems.

Matrices are plain numpy complex128 arrays; numpy is imported inside the
functions that take or build one, so importing this module does not load
it (_jacobi itself runs on Python scalars).  There is one iterative
eigensolver, _jacobi: cyclic Jacobi with unitary 2x2 rotations on Python
scalars, which is robust and exact enough (each block's off-diagonal
norm driven below 1e-14 of the block's norm) for the 9x9 problems this
package cares about.  It first splits the matrix into the blocks that its
exactly zero off-diagonal entries leave (_blocks) and rotates inside each
block alone: the Hamiltonian and the Gibbs states conserve M = m1 + m2 and
their partial transposes m1 - m2, so each 9x9 problem here is blocks of
sizes 1, 2, 3, 2 and 1, found from the matrix itself and not from those
quantum numbers.
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
    # isfinite of a complex entry is False where either part is inf or NaN
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    import numpy as np

    return np.kron(asmatrix(a), asmatrix(b))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted ascending; eigenvectors[:, k] belongs to eigenvalues[k]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _blocks(off: list) -> list:
    """The connected components of the graph on the indices of `off` whose
    edges are its exactly nonzero off-diagonal entries (either triangle),
    each as an ascending list of indices, in the order of their smallest."""
    n = len(off)
    label = list(range(n))
    for p in range(n - 1):
        row = off[p]
        for q in range(p + 1, n):
            if row[q] or off[q][p]:
                a, b = label[p], label[q]
                if a != b:
                    label = [a if x == b else x for x in label]
    blocks = {}
    for i, x in enumerate(label):
        blocks.setdefault(x, []).append(i)
    return list(blocks.values())


def _jacobi(off: list, cols: list = None) -> list:
    """Eigenvalues, unsorted, of a small Hermitian matrix given as nested
    lists of Python complex (or float, for a real symmetric matrix, which
    then stays real), by cyclic Jacobi on Python scalars (Golub & Van Loan,
    Matrix Computations, 8.5), one block at a time.

    The blocks are the connected components of the exactly nonzero
    off-diagonal entries (_blocks).  A rotation inside one block combines
    only rows and columns of that block, and the entries that couple it to
    another are exactly zero and stay so; the spectrum is the union of the
    blocks' spectra, each value at its block's own indices.  A block of one
    index is its diagonal entry.  For the Hamiltonian these are the
    M = m1 + m2 sectors (sizes 1, 2, 3, 2, 1) and for a partial transpose
    of a thermal state the m1 - m2 sectors, but the split reads only the
    matrix, so the dense route stays independent of the closed forms.

    In each block of two or more indices, each rotation is the unitary 2x2
    (c, s*phase) that annihilates the (p, q) entry; entries below a tenth
    of the block's mean off-diagonal size are skipped.  The sweeps stop
    once the block's off-diagonal Frobenius norm is below JACOBI_RELTOL
    times its own Frobenius norm, at most JACOBI_MAX_SWEEPS of them.  The
    diagonal is tracked as real floats and `off` is overwritten.  `cols`,
    if given, is the columns of the identity as lists.  Each block's
    rotations act on its columns, on the rows of the block, the only rows
    where those columns are nonzero; so cols[k] ends as the unit
    eigenvector of the k-th value returned, supported on k's block.  `off`
    and the diagonal evolve the same with or without it, so the
    eigenvalues do too.
    """
    diag = [off[i][i].real for i in range(len(off))]
    for block in _blocks(off):
        if len(block) > 1:
            _jacobi_block(off, diag, block, cols)
    return diag


def _jacobi_block(off: list, diag: list, block: list, cols) -> None:
    """Cyclic Jacobi on the rows and columns `block` of `off` (see _jacobi),
    which no nonzero entry couples to any other index."""
    n = len(block)
    # each pair with the other indices of the block, whose entries it rotates
    pairs = [(p, q, [k for k in block if k != p and k != q])
             for i, p in enumerate(block) for q in block[i + 1:]]
    # hypot squares nothing: each norm is finite wherever it fits in a float
    mags = [abs(off[p][q]) for p, q, _ in pairs]
    off_norm = math.hypot(*mags, *mags)      # both triangles
    norm = math.hypot(off_norm, *(diag[i] for i in block))
    if not math.isfinite(norm):
        # an inf norm would pass the stop test at once and return the diagonal
        raise OverflowError(f"the Frobenius norm of the {n}x{n} block {block} overflows")
    target = max(JACOBI_RELTOL * norm, 1e-300)
    for _ in range(JACOBI_MAX_SWEEPS):
        if off_norm <= target:
            return
        # rotating entries much smaller than the target norm is wasted work
        thresh = 0.1 * max(off_norm, target) / n
        for p, q, others in pairs:
            apq = off[p][q]
            mag = abs(apq)
            if mag < thresh:
                continue
            phase = apq / mag
            tau = (0.5 * diag[q] - 0.5 * diag[p]) / mag   # no gap or 2 mag to overflow
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
            for k in others:
                akp, akq = off[k][p], off[k][q]
                off[k][p] = c * akp - s * phase.conjugate() * akq
                off[k][q] = s * phase * akp + c * akq
                off[p][k] = off[k][p].conjugate()
                off[q][k] = off[k][q].conjugate()
            if cols is not None:
                # columns p and q of V R, on the rows of the block
                sp, sc = s * phase, s * phase.conjugate()
                vp, vq = cols[p], cols[q]
                for i in block:
                    x, y = vp[i], vq[i]
                    vp[i] = c * x - sc * y
                    vq[i] = sp * x + c * y
        mags = [abs(off[p][q]) for p, q, _ in pairs]
        off_norm = math.hypot(*mags, *mags)
    raise NoConvergence(
        f"Jacobi failed to converge in {JACOBI_MAX_SWEEPS} sweeps on the {n}x{n} block "
        f"{block} of a {len(off)}x{len(off)} matrix (off-diagonal norm "
        f"{off_norm:.3e}, target {target:.3e})"
    )


def _checked_hermitian(h) -> np.ndarray:
    a = asmatrix(h)
    if a.shape[0] != a.shape[1] or abs(a - a.conj().T).max() > HERMITICITY_ATOL:
        raise NotHermitian(f"matrix of shape {a.shape} is not Hermitian within {HERMITICITY_ATOL}")
    return a


def hermitian_eig(h) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi
    (_jacobi with the eigenvectors accumulated from the identity), in
    stable ascending order.  The input is not modified; the eigenvectors
    are complex and unitary, each supported on one block of _blocks, and
    the identity for a zero matrix."""
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
