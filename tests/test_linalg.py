"""Tests for the dense complex eigensystem routines."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import match_eigenvalue_multisets
from nhdeg.linalg import eigensystem_n


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


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


def test_eigensystem_n_near_jordan_flags_before_raising():
    # near-Jordan pairs in random bases, dims 2-8, with unit left/right
    # overlaps from about 1e-7 to 1e-3 (1e-5 among them): every solve
    # returns, and the flag is set exactly below the fixed floor 1e-5
    rng = np.random.default_rng(17)
    flagged = 0
    for trial in range(210):
        dim = 2 + trial % 7
        target = 10.0 ** (-7 + 4 * (trial // 7) / 29)
        J = np.diag(random_complex(rng, dim))
        J[1, 1], J[0, 1], J[1, 0] = J[0, 0], 1.0, target**2
        S = random_complex(rng, (dim, dim))
        es = eigensystem_n(S @ J @ np.linalg.inv(S))
        overlap = (np.abs(np.sum(es.left.conj() * es.right, axis=0))
                   / np.linalg.norm(es.left, axis=0)
                   / np.linalg.norm(es.right, axis=0)).min()
        assert es.defective == (overlap < 1e-5)
        flagged += es.defective
    assert 0 < flagged < 210


def test_stacked_solve_matches_single_solves_bitwise():
    # a (2, 3) stack with an exact Jordan block (singular R, the pinv path)
    # and a degenerate cluster among random matrices: entry (i, j) equals
    # the solve of that matrix alone, bit for bit
    rng = np.random.default_rng(41)
    for dim in (2, 5, 8, 12):
        mats = random_complex(rng, (6, dim, dim))
        mats[2] = np.eye(dim, k=1)
        lam = random_complex(rng, dim)
        lam[1] = lam[0]
        S = random_complex(rng, (dim, dim))
        mats[4] = S @ np.diag(lam) @ np.linalg.inv(S)
        for want_left in (True, False):
            st = eigensystem_n(mats.reshape(2, 3, dim, dim), want_left=want_left)
            assert st.residual.shape == st.defective.shape == (2, 3)
            assert st.defective[0, 2] == want_left
            for i in range(6):
                one = eigensystem_n(mats[i], want_left=want_left)
                j = divmod(i, 3)
                assert st.eigenvalues[j].tobytes() == one.eigenvalues.tobytes()
                assert st.right[j].tobytes() == one.right.tobytes()
                if want_left:
                    assert st.left[j].tobytes() == one.left.tobytes()
                assert st.residual[j] == one.residual
                assert st.defective[j] == one.defective


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
def test_non_square_input_raises(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        eigensystem_n(np.zeros(shape))


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
@pytest.mark.parametrize("want_left", [True, False])
def test_empty_matrix_raises_the_shape_error(shape, want_left):
    # numpy's own error was a zero-size reduction deep inside the solve
    message = f"expected a square matrix of size >= 1, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        eigensystem_n(np.zeros(shape), want_left=want_left)


@pytest.mark.parametrize("want_left", [True, False])
def test_wrong_eigenpair_raises_the_residual_error(monkeypatch, want_left):
    # a solver that pairs the eigenvector of 1 with 1.5 leaves a residual of
    # 0.5 against the bound 1e-9 * |diag(1, 2)|; in a stack the entry is named
    eig = np.linalg.eig

    def wrong(H):
        lam, R = eig(H)
        lam.flat[-lam.shape[-1]] += 0.5  # the first eigenvalue of the last matrix
        return lam, R

    monkeypatch.setattr(np.linalg, "eig", wrong)
    H = np.diag([1.0, 2.0])
    message = "eigensolver residual 5.000e-01 exceeds 1.0e-09 * |H| = 2.236e-09"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        eigensystem_n(H, want_left=want_left)
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)} \\(stack entry 1\\)$"):
        eigensystem_n(np.stack([H, H]), want_left=want_left)


def test_eigensystem_n_dimension_cap():
    with pytest.raises(ValueError):
        eigensystem_n(np.zeros((3000, 3000)))


# ---------------------------------------------------------------------------
# coalescence

def test_coalescence_rises_to_one_across_exceptional_curve():
    # scan oracle: nearest-neighbor model at zero Peierls phase has curves of
    # defective touchings; locate one crossing on a path by bisecting the
    # (real) discriminant, then watch the overlap that classifies scan points
    # approach 1 there
    from scipy.optimize import brentq

    from nhdeg.model import ModelParams, discriminant_function
    from nhdeg.scanner import _classify

    p = ModelParams(gamma=0.0, gx=0.5, gy=0.3)
    kx = 1.2

    def eta_re(ky):
        return float(np.real(discriminant_function(p, kx, ky)))

    ky_cross = brentq(eta_re, 1.0, 1.95)
    on = _classify(p, (kx, ky_cross))[2]
    off = _classify(p, (kx, ky_cross - 0.5))[2]
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
    h = random_complex(rng, (6, 6))
    c, t, f = _layouts(h)
    assert not t.flags.c_contiguous and not f.flags.c_contiguous
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
        with pytest.raises(ValueError, match="finite"):
            eigensystem_n(layout)
