import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutritxxz import matkernel as mk
from qutritxxz.entanglement import partial_transpose
from qutritxxz.model import _operators, hamiltonian_tensor
from qutritxxz.thermal import gibbs_numeric

from conftest import haar_unitary, random_hermitian, random_params


def test_kron_identity():
    assert np.array_equal(mk.kron(np.eye(3), np.eye(3)), np.eye(9))


def test_kron_spin_z():
    # hand multiplication of the diagonal spin-1 matrices
    expected = np.diag([1, 0, -1, 0, 0, 0, -1, 0, 1]).astype(complex)
    sz = _operators()["SPIN_Z"]
    assert np.array_equal(mk.kron(sz, sz), expected)


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


def test_asmatrix_rejects_a_non_2d_array():
    with pytest.raises(ValueError, match="expected a 2-d array"):
        mk.asmatrix(np.ones(9))


@pytest.mark.parametrize("z", [complex(1, np.inf), complex(np.nan, 0), complex(0, np.nan)],
                         ids=["imag-inf", "real-nan", "imag-nan"])
@pytest.mark.parametrize("route", [mk.asmatrix, mk.eigvalsh], ids=["asmatrix", "eigvalsh"])
def test_complex_nonfinite_rejected(route, z):
    # one non-finite part of one entry, mirrored so that only the finiteness gate can fail
    a = np.eye(3, dtype=complex)
    a[0, 1], a[1, 0] = z, z.conjugate()
    with pytest.raises(ValueError, match="non-finite"):
        route(a)


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
    assert np.max(np.abs((v * d.eigenvalues) @ v.conj().T - h)) < 1e-10
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
    assert np.max(np.abs((v * d.eigenvalues) @ v.conj().T - h)) < 1e-12 * np.linalg.norm(h)


def test_hermitian_eig_sweep_cap(monkeypatch, rng):
    monkeypatch.setattr(mk, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(mk.NoConvergence):
        mk.hermitian_eig(random_hermitian(rng))


#: the M = m1 + m2 blocks of a two-qutrit state
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
def test_eigvalsh_matches_lapack_and_hermitian_eig(seed, kind):
    # independent oracle: numpy's LAPACK eigvalsh, used only here in tests
    a = _sector_matrix(np.random.default_rng(seed), kind)
    w = mk.eigvalsh(a)
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-12 * np.linalg.norm(a)
    assert np.array_equal(w, mk.hermitian_eig(a).eigenvalues)


def test_eigvalsh_diagonal_exact():
    # a diagonal matrix has no off-diagonal entry to rotate
    a = np.diag([2.0, 1.0, 0.5, 1.0, 0.5, 3.0, 0.5, 3.0, -1.0]).astype(complex)
    assert np.array_equal(mk.eigvalsh(a), [-1.0, 0.5, 0.5, 0.5, 1.0, 1.0, 2.0, 3.0, 3.0])


def test_eigvalsh_input_checks():
    with pytest.raises(mk.NotHermitian):
        mk.eigvalsh(np.triu(np.ones((9, 9), dtype=complex)))
    with pytest.raises(ValueError):
        mk.eigvalsh(np.full((9, 9), np.nan))
    with pytest.raises(mk.NotHermitian, match="shape"):
        mk.eigvalsh(np.ones((3, 4)))


def test_eigvalsh_leaves_input_unchanged(rng):
    a = _sector_matrix(rng, "random")
    before = a.copy()
    mk.eigvalsh(a)
    assert np.array_equal(a, before)


def test_eigvalsh_sweep_cap(monkeypatch, rng):
    monkeypatch.setattr(mk, "JACOBI_MAX_SWEEPS", 0)
    a = _sector_matrix(rng, "random")
    with pytest.raises(mk.NoConvergence, match="block"):
        mk.eigvalsh(a)
    with pytest.raises(mk.NoConvergence, match="block"):
        mk.hermitian_eig(a)


@pytest.mark.parametrize("a", [
    [[0.0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.0]],
    [[0.0, 1.5e308], [1.5e308, 0.0]],
    [[1.2e308, 1e308], [1e308, 0.0]],
    [[1.5e308, 1e140], [1e140, 1.5e308]],
], ids=["entry-1.5e308", "off-diagonal-1.5e308", "both-1.2e308", "diagonal-1.5e308"])
def test_eigvalsh_overflow_raises(a):
    # the modulus of an entry, the norm of the off-diagonal entries, of all
    # of them or of the diagonal overflows: an error, not a norm of inf that
    # would pass the stop test at once and return the diagonal
    a = np.array(a)
    with pytest.raises(OverflowError):
        mk.eigvalsh(a)
    with pytest.raises(OverflowError):
        mk.hermitian_eig(a)


@pytest.mark.parametrize("a", [
    [[1e308, 1e307], [1e307, -1e308]],
    [[1e307, 1e308], [1e308, -1e307]],
], ids=["diagonal-gap", "twice-the-entry"])
def test_eigvalsh_near_the_float_maximum(a):
    # the norm is finite, but the diagonal gap or twice the entry is not
    a = np.array(a)
    expected = np.linalg.eigvalsh(a)
    assert np.allclose(mk.eigvalsh(a), expected, rtol=1e-15, atol=0.0)
    assert np.allclose(mk.hermitian_eig(a).eigenvalues, expected, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("kind", ["random", "dense"])
def test_eigen_routines_hold_at_large_scale(kind, rng):
    # the norms square nothing, so a power-of-two scale up to where the
    # entries near the float maximum scales every value and vector exactly
    for _ in range(20):
        a = _sector_matrix(rng, kind)
        w, dec = mk.eigvalsh(a), mk.hermitian_eig(a)
        for k in (520, 1000):
            scaled = mk.hermitian_eig(a * 2.0 ** k)
            assert np.array_equal(mk.eigvalsh(a * 2.0 ** k), w * 2.0 ** k)
            assert np.array_equal(scaled.eigenvalues, dec.eigenvalues * 2.0 ** k)
            assert np.array_equal(scaled.eigenvectors, dec.eigenvectors)


def _quantum_number_sectors(key):
    """The index sets of the two-qutrit basis |m1, m2> on which key(m1, m2)
    is constant, in the order of their smallest index."""
    sectors = {}
    for i in range(9):
        sectors.setdefault(key(i // 3 - 1, i % 3 - 1), []).append(i)
    return sorted(sectors.values())


def test_blocks_are_the_conserved_sectors(rng):
    # found from the exact zeros of the matrix alone: M = m1 + m2 for H and
    # m1 - m2 for the partial transpose of a Gibbs state
    m_sectors = _quantum_number_sectors(lambda m1, m2: m1 + m2)
    pt_sectors = _quantum_number_sectors(lambda m1, m2: m1 - m2)
    assert m_sectors == [list(b) for b in SECTORS]
    assert pt_sectors == [[0, 4, 8], [1, 5], [2], [3, 7], [6]]
    for _ in range(20):
        p = random_params(rng)
        assert mk._blocks(hamiltonian_tensor(p).tolist()) == m_sectors
        rho = gibbs_numeric(p, float(rng.uniform(0.05, 5.0))).rho
        assert mk._blocks(partial_transpose(rho).tolist()) == pt_sectors


def test_blocks_read_both_triangles():
    # an entry within the Hermiticity tolerance in one triangle only is an edge
    off = [[1.0, 0.0, 0.0], [1e-13, 2.0, 0.0], [0.0, 0.0, 3.0]]
    assert mk._blocks(off) == [[0, 1], [2]]
    assert mk._blocks([[5.0]]) == [[0]]


@pytest.mark.parametrize("kind", ["random", "degenerate", "near_degenerate"])
def test_eigvalsh_on_permuted_blocks_matches_lapack(kind):
    # a symmetric permutation scatters each block over non-contiguous indices
    # independent oracle: numpy's LAPACK eigvalsh, used only here in tests
    rng = np.random.default_rng(77)
    for _ in range(50):
        perm = rng.permutation(9)
        a = _sector_matrix(rng, kind)[np.ix_(perm, perm)]
        inverse = np.argsort(perm)
        assert mk._blocks(a.tolist()) == sorted(sorted(int(inverse[i]) for i in b)
                                                for b in SECTORS)
        w = mk.eigvalsh(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-12 * np.linalg.norm(a)
        assert np.array_equal(w, mk.hermitian_eig(a).eigenvalues)


def test_hermitian_eig_vectors_stay_in_their_block(rng):
    for _ in range(30):
        perm = rng.permutation(9)
        a = _sector_matrix(rng, "random")[np.ix_(perm, perm)]
        blocks = mk._blocks(a.tolist())
        d = mk.hermitian_eig(a)
        v = d.eigenvectors
        for k in range(9):
            support = set(np.flatnonzero(v[:, k]).tolist())
            assert any(support <= set(b) for b in blocks), (k, support, blocks)
        assert np.max(np.abs(v.conj().T @ v - np.eye(9))) < 1e-12
        assert np.max(np.abs((v * d.eigenvalues) @ v.conj().T - a)) < 1e-12 * np.linalg.norm(a)


def test_a_1e_300_bridge_joins_two_blocks(rng):
    # independent oracle: numpy's LAPACK eigvalsh, used only here in tests
    for _ in range(20):
        a = _sector_matrix(rng, "random")
        a[2, 5] = a[5, 2] = 1e-300
        assert mk._blocks(a.tolist()) == [[0], [1, 3], [2, 4, 5, 6, 7], [8]]
        w = mk.eigvalsh(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-12 * np.linalg.norm(a)
        assert np.array_equal(w, mk.hermitian_eig(a).eigenvalues)
