import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutritxxz import matkernel as mk
from qutritxxz.model import SPIN_Z

from conftest import haar_unitary, random_hermitian


def test_kron_identity():
    assert np.array_equal(mk.kron(np.eye(3), np.eye(3)), np.eye(9))


def test_kron_spin_z():
    # hand multiplication of the diagonal spin-1 matrices
    expected = np.diag([1, 0, -1, 0, 0, 0, -1, 0, 1]).astype(complex)
    assert np.array_equal(mk.kron(SPIN_Z, SPIN_Z), expected)


def test_kron_dimensions():
    a = np.ones((3, 3))
    assert mk.kron(a, a).shape == (9, 9)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_kron_associative_on_integer_matrices(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
    assert np.array_equal(mk.kron(mk.kron(a, b), c), mk.kron(a, mk.kron(b, c)))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        mk.asmatrix(np.array([[np.nan, 0], [0, 1]]))


def test_eig_diagonal():
    d = mk.hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(d.eigenvalues, [1, 2, 3], atol=1e-14)


def test_eig_pauli_x():
    d = mk.hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(d.eigenvalues, [-1, 1], atol=1e-14)


def test_eig_rejects_non_hermitian():
    with pytest.raises(mk.NotHermitian):
        mk.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_zero_matrix():
    d = mk.hermitian_eig(np.zeros((4, 4), dtype=complex))
    assert np.array_equal(d.eigenvalues, np.zeros(4))
    assert np.array_equal(d.eigenvectors, np.eye(4))


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_eig_reconstruction_and_unitarity(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng)
    d = mk.hermitian_eig(h)
    assert np.all(np.diff(d.eigenvalues) >= 0)
    v = d.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(9))) < 1e-10
    assert np.max(np.abs(d.reconstruct() - h)) < 1e-10
    assert abs(d.eigenvalues.sum() - np.trace(h).real) < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_eig_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng)
    perm = rng.permutation(9)
    p = np.eye(9)[:, perm].astype(complex)
    w1 = mk.hermitian_eig(h).eigenvalues
    w2 = mk.hermitian_eig(p.conj().T @ h @ p).eigenvalues
    assert np.max(np.abs(w1 - w2)) < 1e-10


def test_eig_matches_lapack_oracle(rng):
    # independent oracle: numpy's LAPACK eigh, used only here in tests
    for _ in range(20):
        h = random_hermitian(rng)
        ours = mk.hermitian_eig(h).eigenvalues
        theirs = np.linalg.eigvalsh(h)
        assert np.max(np.abs(ours - theirs)) < 1e-10


def _spectrum_draw(rng, kind, n=9):
    """A dense Hermitian matrix, or one with a random unitary basis and an
    exactly threefold or nearly (gap 1e-9) twofold degenerate level."""
    if kind == "dense":
        return random_hermitian(rng, n)
    w = rng.normal(size=n)
    if kind == "degenerate":
        w[1] = w[2] = w[0]
    else:
        w[1] = w[0] + 1e-9
    q = haar_unitary(rng, n)
    h = (q * w) @ q.conj().T
    return (h + h.conj().T) / 2


@pytest.mark.parametrize("kind", ["dense", "degenerate", "near_degenerate"])
def test_eig_matches_lapack_oracle_relative_to_norm(kind):
    # independent oracle: numpy's LAPACK eigvalsh, used only here in tests
    rng = np.random.default_rng(2024)
    for _ in range(50):
        h = _spectrum_draw(rng, kind)
        ours = mk.hermitian_eig(h).eigenvalues
        theirs = np.linalg.eigvalsh(h)
        assert np.max(np.abs(ours - theirs)) <= 1e-12 * np.linalg.norm(h)


def test_eig_leaves_input_unchanged(rng):
    h = random_hermitian(rng)
    before = h.copy()
    mk.hermitian_eig(h)
    assert np.array_equal(h, before)


def test_eig_real_symmetric_gives_complex_unitary_vectors(rng):
    a = rng.normal(size=(9, 9))
    h = a + a.T
    d = mk.hermitian_eig(h)
    v = d.eigenvectors
    assert v.dtype == np.complex128 and d.eigenvalues.dtype == np.float64
    assert np.max(np.abs(v.conj().T @ v - np.eye(9))) < 1e-12
    assert np.max(np.abs(d.reconstruct() - h)) < 1e-12 * np.linalg.norm(h)


def test_hermitian_eig_sweep_cap(monkeypatch, rng):
    monkeypatch.setattr(mk, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(mk.NoConvergence):
        mk.hermitian_eig(random_hermitian(rng))


SECTORS = ((0,), (1, 3), (2, 4, 6), (5, 7), (8,))


def _sector_matrix(rng, kind):
    """A Hermitian 9x9 matrix that is block-diagonal over SECTORS, except
    for kind == "dense"."""
    if kind == "dense":
        return random_hermitian(rng)
    a = np.zeros((9, 9), dtype=complex)
    for block in SECTORS:
        n = len(block)
        if kind == "zero_blocks" and rng.random() < 0.5:
            continue
        if n == 3 and kind in ("degenerate", "near_degenerate"):
            lam, mu = rng.normal(size=2)
            gap = 0.0 if kind == "degenerate" else 1e-9
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            b = (q * [lam, lam + gap, mu]) @ q.conj().T
            b = (b + b.conj().T) / 2
        else:
            b = random_hermitian(rng, n)
        a[np.ix_(block, block)] = b
    return a


@given(st.integers(0, 10_000),
       st.sampled_from(["random", "degenerate", "near_degenerate", "zero_blocks", "dense"]))
@settings(max_examples=200, deadline=None)
def test_sector_eigvalsh_matches_hermitian_eig(seed, kind):
    a = _sector_matrix(np.random.default_rng(seed), kind)
    w = mk.sector_eigvalsh(a, SECTORS)
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - mk.hermitian_eig(a).eigenvalues)) < 1e-12


def test_sector_eigvalsh_degenerate_block_exact():
    # a multiple of the identity has no off-diagonal entry to rotate
    a = np.diag([2.0, 1.0, 0.5, 1.0, 0.5, 3.0, 0.5, 3.0, -1.0]).astype(complex)
    assert np.array_equal(mk.sector_eigvalsh(a, SECTORS),
                          [-1.0, 0.5, 0.5, 0.5, 1.0, 1.0, 2.0, 3.0, 3.0])


def test_sector_eigvalsh_input_checks():
    with pytest.raises(mk.NotHermitian):
        mk.sector_eigvalsh(np.triu(np.ones((9, 9), dtype=complex)), SECTORS)
    with pytest.raises(ValueError):
        mk.sector_eigvalsh(np.full((9, 9), np.nan), SECTORS)
    with pytest.raises(ValueError, match="do not partition"):
        mk.sector_eigvalsh(np.eye(9), ((0, 1), (1, 2, 3, 4, 5, 6, 7, 8)))
    with pytest.raises(ValueError, match="matrix has shape"):
        mk.sector_eigvalsh(np.eye(4), SECTORS)


def test_sector_eigvalsh_sweep_cap(monkeypatch, rng):
    monkeypatch.setattr(mk, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(mk.NoConvergence):
        mk.sector_eigvalsh(_sector_matrix(rng, "random"), SECTORS)
