"""Tests for the dense complex eigensystem routines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import match_eigenvalue_multisets
from nhdeg.linalg import (CoalescenceReport, coalescence, discriminant,
                          eigensystem2, eigensystem_n)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ---------------------------------------------------------------------------
# discriminant

def test_discriminant_identity_matrix():
    # equal eigenvalues: tr^2 - 4 det = 4 - 4
    assert discriminant(np.eye(2)) == 0


def test_discriminant_jordan_block():
    assert discriminant([[0, 1], [0, 0]]) == 0


def test_discriminant_offdiagonal():
    # characteristic polynomial l^2 - 16 has roots +-4, (l+ - l-)^2 = 64
    assert discriminant([[0, -4], [-4, 0]]) == pytest.approx(64)


def test_discriminant_rejects_non_2x2():
    with pytest.raises(ValueError):
        discriminant(np.eye(3))
    with pytest.raises(ValueError):
        discriminant([[np.inf, 0], [0, 1]])


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_discriminant_equals_square_of_eigenvalue_gap(seed):
    rng = np.random.default_rng(seed)
    h = random_complex(rng, (2, 2))
    lam = np.linalg.eigvals(h)
    gap2 = (lam[0] - lam[1]) ** 2
    np.testing.assert_allclose(discriminant(h), gap2, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# eigensystem2

def test_eigensystem2_offdiagonal_known_vectors():
    # direct substitution oracle: h v = lam v for v ~ (1, -+1)
    es = eigensystem2([[0, -4], [-4, 0]])
    np.testing.assert_allclose(es.eigenvalues, [-4, 4])
    h = np.array([[0, -4], [-4, 0]], dtype=complex)
    for n in range(2):
        v = es.right[:, n]
        np.testing.assert_allclose(h @ v, es.eigenvalues[n] * v, atol=1e-12)
        ratio = v[1] / v[0]
        expected = -1.0 if es.eigenvalues[n] == 4 else 1.0
        assert ratio == pytest.approx(-expected * -1)


def test_eigensystem2_scalar_matrix_is_nondefective():
    lam0 = 0.3 - 0.7j
    es = eigensystem2(lam0 * np.eye(2))
    np.testing.assert_allclose(es.eigenvalues, [lam0, lam0])
    assert not es.defective
    gram = es.left.conj().T @ es.right
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)


def test_eigensystem2_zero_matrix():
    es = eigensystem2(np.zeros((2, 2)))
    np.testing.assert_allclose(es.eigenvalues, [0, 0])
    assert not es.defective


def test_eigensystem2_defective_flag():
    es = eigensystem2([[0, 1], [0, 0]])
    assert es.defective
    np.testing.assert_allclose(es.eigenvalues, [0, 0], atol=1e-15)


def test_eigensystem2_biorthogonality_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = random_complex(rng, (2, 2))
        es = eigensystem2(h)
        if es.defective:
            continue
        gram = es.left.conj().T @ es.right
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-9)
        # right vectors stay unit norm, only the left ones get rescaled
        np.testing.assert_allclose(np.linalg.norm(es.right, axis=0), 1.0,
                                   atol=1e-12)


def test_eigensystem2_agrees_with_dense_solver():
    rng = np.random.default_rng(11)
    for _ in range(40):
        h = random_complex(rng, (2, 2))
        lam_analytic = eigensystem2(h).eigenvalues
        lam_dense = eigensystem_n(h).eigenvalues
        assert match_eigenvalue_multisets(lam_analytic, lam_dense) < 1e-10


# ---------------------------------------------------------------------------
# eigensystem_n

def test_eigensystem_n_diagonal():
    es = eigensystem_n(np.diag([1 + 2j, 3 + 0j]))
    assert match_eigenvalue_multisets(es.eigenvalues, [1 + 2j, 3]) < 1e-14
    np.testing.assert_allclose(np.abs(es.right), np.eye(2), atol=1e-14)


def test_eigensystem_n_construction_oracle():
    # H = S Lam S^-1 with known Lam must reproduce Lam
    rng = np.random.default_rng(3)
    lam = np.array([0.5, -1.0 + 1j, 2.0, -0.3 - 0.4j, 1.5j, 3.0, -2.5, 0.9 + 2j])
    S = random_complex(rng, (8, 8))
    H = S @ np.diag(lam) @ np.linalg.inv(S)
    es = eigensystem_n(H)
    assert match_eigenvalue_multisets(es.eigenvalues, lam) < 1e-9


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 16))
def test_eigensystem_n_biorthogonality_and_completeness(seed, dim):
    rng = np.random.default_rng(seed)
    H = random_complex(rng, (dim, dim))
    es = eigensystem_n(H)
    gram = es.left.conj().T @ es.right
    np.testing.assert_allclose(gram, np.eye(dim), atol=1e-9)
    resolution = es.right @ es.left.conj().T
    assert np.linalg.norm(resolution - np.eye(dim)) < 1e-8 * dim


def test_eigensystem_n_invariants_large_sample():
    # 500 random non-defective matrices, dims 2-16: biorthogonality within
    # 1e-9 and completeness within 1e-8 * dim
    rng = np.random.default_rng(123)
    for trial in range(500):
        dim = 2 + trial % 15
        H = random_complex(rng, (dim, dim))
        es = eigensystem_n(H)
        if es.defective:  # essentially never for continuous random draws
            continue
        assert np.abs(es.left.conj().T @ es.right - np.eye(dim)).max() < 1e-9
        resolution = es.right @ es.left.conj().T
        assert np.linalg.norm(resolution - np.eye(dim)) < 1e-8 * dim


def test_eigensystem_n_sorted_deterministically():
    rng = np.random.default_rng(5)
    H = random_complex(rng, (6, 6))
    lam = eigensystem_n(H).eigenvalues
    order = np.lexsort((lam.imag, lam.real))
    assert list(order) == list(range(6))


def test_eigensystem_n_left_is_inverse_of_right_on_degenerate_clusters():
    # dims 2-8, random spectra and exactly degenerate non-defective clusters
    # (H = S diag(lam) S^-1 with lam repeated): L^H R = 1 and not defective
    rng = np.random.default_rng(29)
    for trial in range(140):
        dim = 2 + trial % 7
        lam = random_complex(rng, dim)
        repeats = trial // 7 % 4  # 0: simple spectrum, else a cluster
        lam[:min(dim, repeats + 1)] = lam[0]
        S = random_complex(rng, (dim, dim))
        H = S @ np.diag(lam) @ np.linalg.inv(S)
        es = eigensystem_n(H)
        assert not es.defective
        assert np.linalg.norm(es.left.conj().T @ es.right - np.eye(dim)) <= 1e-9
        assert es.residual <= 1e-9 * max(1.0, np.linalg.norm(H))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", range(2, 9))
def test_eigensystem_n_flags_jordan_blocks(dim):
    # a 2x2 Jordan pair and a full Jordan block, each in a random basis, then
    # bare (exactly triangular) Jordan blocks, whose R is singular or nearly
    # so (R^-1 near overflow, no warning allowed)
    rng = np.random.default_rng(dim)
    lam = random_complex(rng, dim)
    pair = np.diag(lam)
    pair[1, 1], pair[0, 1] = lam[0], 1.0
    full = lam[0] * np.eye(dim) + np.eye(dim, k=1)
    S = random_complex(rng, (dim, dim))
    for J in (pair, full):
        assert eigensystem_n(S @ J @ np.linalg.inv(S)).defective
    for J in (full, np.eye(dim, k=1)):
        assert eigensystem_n(J).defective


@pytest.mark.parametrize("tol", [1e-9, 1e-10])
def test_eigensystem_n_near_jordan_flags_before_raising(tol):
    # near-Jordan pairs in random bases, dims 2-8, with unit left/right
    # overlaps from about 1e-7 to 1e-3 (1e-5 among them): every solve
    # returns, and the flag is set exactly below the floor 1e-14 / tol
    rng = np.random.default_rng(17)
    flagged = 0
    for trial in range(210):
        dim = 2 + trial % 7
        target = 10.0 ** (-7 + 4 * (trial // 7) / 29)
        J = np.diag(random_complex(rng, dim))
        J[1, 1], J[0, 1], J[1, 0] = J[0, 0], 1.0, target**2
        S = random_complex(rng, (dim, dim))
        es = eigensystem_n(S @ J @ np.linalg.inv(S), tol=tol)
        overlap = (np.abs(np.sum(es.left.conj() * es.right, axis=0))
                   / np.linalg.norm(es.left, axis=0)
                   / np.linalg.norm(es.right, axis=0)).min()
        assert es.defective == (overlap < 1e-14 / tol)
        flagged += es.defective
    assert 0 < flagged < 210


def test_eigensystem_n_dimension_cap():
    with pytest.raises(ValueError):
        eigensystem_n(np.zeros((3000, 3000)))


# ---------------------------------------------------------------------------
# coalescence

def test_coalescence_jordan_block():
    rep = coalescence([[0, 1], [0, 0]])
    assert rep.overlap == pytest.approx(1.0)
    assert rep.biorth_norm == pytest.approx(0.0, abs=1e-12)


def test_coalescence_orthogonal_eigenvectors():
    rep = coalescence([[1, 0], [0, -1]])
    assert rep.overlap == pytest.approx(0.0, abs=1e-14)


def test_coalescence_explicit_pair_and_zero_vector():
    rep = coalescence((np.array([1.0, 0, 0]), np.array([0.6, 0.8, 0])))
    assert isinstance(rep, CoalescenceReport)
    assert rep.overlap == pytest.approx(0.6)
    with pytest.raises(ValueError):
        coalescence((np.zeros(3), np.ones(3)))


def test_coalescence_list_is_a_matrix():
    # only a tuple is a vector pair; a list of two 3-vectors is a 2x3 matrix
    with pytest.raises(ValueError):
        coalescence([[1.0, 0, 0], [0.6, 0.8, 0]])


def test_coalescence_rises_to_one_across_exceptional_curve():
    # scan oracle: nearest-neighbor model at zero Peierls phase has curves of
    # defective touchings; locate one crossing on a path by bisecting the
    # (real) discriminant, then watch the overlap approach 1 there
    from scipy.optimize import brentq

    from nhdeg.model import ModelParams, bloch_hamiltonian, discriminant_function

    p = ModelParams(gamma=0.0, gx=0.5, gy=0.3)
    kx = 1.2

    def eta_re(ky):
        return float(np.real(discriminant_function(p, kx, ky)))

    ky_cross = brentq(eta_re, 1.0, 1.95)
    on = coalescence(bloch_hamiltonian(p, kx, ky_cross)).overlap
    off = coalescence(bloch_hamiltonian(p, kx, ky_cross - 0.5)).overlap
    assert on > 0.999
    assert off < 0.9


# ---------------------------------------------------------------------------
# input validation

def _layouts(h):
    """The same matrix C-ordered, as a transposed view and Fortran-ordered."""
    return [np.ascontiguousarray(h), np.ascontiguousarray(h.T).T, np.asfortranarray(h)]


@pytest.mark.parametrize("seed", range(5))
def test_non_contiguous_input_matches_c_ordered_copy(seed):
    rng = np.random.default_rng(seed)
    h2 = random_complex(rng, (2, 2))
    c2, t2, f2 = _layouts(h2)
    assert not t2.flags.c_contiguous and not f2.flags.c_contiguous
    for other in (t2, f2):
        assert discriminant(other) == discriminant(c2)
        es, ref = eigensystem2(other), eigensystem2(c2)
        assert np.array_equal(es.eigenvalues, ref.eigenvalues)
        assert np.array_equal(es.right, ref.right) and np.array_equal(es.left, ref.left)
        assert coalescence(other) == coalescence(c2)
    h = random_complex(rng, (6, 6))
    c, t, f = _layouts(h)
    ref = eigensystem_n(c)
    for other in (t, f):
        es = eigensystem_n(other)
        assert np.allclose(es.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-12)
        assert np.allclose(np.abs(es.right), np.abs(ref.right), rtol=0, atol=1e-10)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("imag", [False, True])
def test_non_finite_entries_raise(bad, imag):
    h = np.eye(2, dtype=complex)
    h[0, 1] = complex(0.0, bad) if imag else complex(bad, 0.0)
    for layout in _layouts(h):
        for fn in (discriminant, eigensystem2, eigensystem_n, coalescence):
            with pytest.raises(ValueError, match="finite"):
                fn(layout)
