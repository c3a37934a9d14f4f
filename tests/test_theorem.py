"""Tests for the anti-unitary operator-pair construction and its relations."""

import json

import numpy as np
import pytest

import nhdeg.theorem
from _oracles import run_ensemble_loop, theorem_residuals_loop
from nhdeg.linalg import eigensystem_n
from nhdeg.model import ModelParams, bloch_hamiltonian, real_space_hamiltonian
from nhdeg.theorem import (DegenerateSubspace, extract_degenerate_subspace,
                           make_upsilon_left, make_upsilon_right,
                           random_degenerate_hamiltonian, run_ensemble,
                           theorem_report, verify_intertwining,
                           verify_orthogonality, verify_pair_product,
                           verify_swap_action, verify_eigenvalue_preservation)

CANONICAL = DegenerateSubspace(
    lambda0=0.0,
    psi_r1=np.array([1.0, 0.0], dtype=complex),
    psi_r2=np.array([0.0, 1.0], dtype=complex),
    psi_l1=np.array([1.0, 0.0], dtype=complex),
    psi_l2=np.array([0.0, 1.0], dtype=complex),
)


def test_canonical_basis_gives_i_sigma_y():
    ar = make_upsilon_right(CANONICAL).matrix_part
    np.testing.assert_allclose(ar, [[0, 1], [-1, 0]])
    al = make_upsilon_left(CANONICAL).matrix_part
    np.testing.assert_allclose(al, [[0, 1], [-1, 0]])


def test_canonical_basis_swap_and_orthogonality_exact():
    ur = make_upsilon_right(CANONICAL)
    ul = make_upsilon_left(CANONICAL)
    assert verify_swap_action(CANONICAL, ur, ul)["max_residual"] == 0.0
    assert verify_orthogonality(CANONICAL, ur, ul)["max_residual"] == 0.0
    prod = verify_pair_product(CANONICAL, ur, ul)
    assert prod["full_space_residual"] == 0.0


def test_rejects_non_biorthogonal_subspace():
    bad = DegenerateSubspace(0.0,
                             np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                             np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="biorthonormal"):
        make_upsilon_right(bad)


def test_regime1_x_point_subspace():
    # the Bloch matrix vanishes at X, so the canonical pair certifies it
    p = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    h = bloch_hamiltonian(p, np.pi / 2, np.pi / 2)
    assert np.linalg.norm(h) < 1e-12
    ur = make_upsilon_right(CANONICAL)
    ul = make_upsilon_left(CANONICAL)
    res = verify_intertwining(h, ur, ul)
    assert res["right_residual"] < 1e-12
    assert res["left_residual"] < 1e-12
    assert verify_orthogonality(CANONICAL, ur, ul)["max_residual"] < 1e-12


def test_regime3_m_point_subspace():
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)
    h = bloch_hamiltonian(p, np.pi, 0.0)
    assert np.linalg.norm(h - np.trace(h) / 2 * np.eye(2)) < 1e-12
    sub = extract_degenerate_subspace(h)
    ur, ul = make_upsilon_right(sub), make_upsilon_left(sub)
    assert verify_swap_action(sub, ur, ul)["max_residual"] < 1e-10
    assert verify_intertwining(h, ur, ul)["right_residual"] < 1e-12


@pytest.mark.parametrize("dim,seed", [(4, 1), (6, 2), (8, 3)])
def test_engineered_degeneracy_full_pipeline(dim, seed):
    lam0 = 0.7 - 0.4j
    H = random_degenerate_hamiltonian(dim, seed, lam0)
    rep = theorem_report(H, lambda0=lam0)
    assert rep["max_residual"] < 1e-9
    assert rep["intertwining"]["right_residual"] < 1e-9
    assert rep["intertwining"]["left_residual"] < 1e-9
    assert rep["swap"]["max_residual"] < 1e-9
    assert rep["orthogonality"]["max_residual"] < 1e-9


def test_generator_dim2_is_scalar():
    H = random_degenerate_hamiltonian(2, 99, 1.0 - 0.5j)
    np.testing.assert_allclose(H, (1.0 - 0.5j) * np.eye(2))


def test_generator_eigenvalues_dim5():
    lam0 = -0.2 + 0.9j
    H = random_degenerate_hamiltonian(5, 7, lam0)
    es = eigensystem_n(H)
    hits = np.sum(np.abs(es.eigenvalues - lam0) < 1e-7)
    assert hits == 2
    assert not es.defective
    others = es.eigenvalues[np.abs(es.eigenvalues - lam0) >= 1e-7]
    gaps = np.abs(others[:, None] - others[None, :]) + np.eye(len(others))
    assert gaps.min() > 0.05


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_theorem_report_rejects_an_empty_matrix_by_its_shape(shape):
    with pytest.raises(ValueError, match=r"^expected a square matrix of size >= 1, got shape"):
        theorem_report(np.zeros(shape))


def test_extract_rejects_an_eigensystem_flagged_defective():
    # the subspace of a valid pair is found, but not that of a Jordan block
    # on the same draw, whose eigensystem carries the defective flag
    lam0 = -0.2 + 0.9j
    extract_degenerate_subspace(random_degenerate_hamiltonian(5, 7, lam0), lambda0=lam0)
    H = random_degenerate_hamiltonian(5, 7, lam0, defective=True)
    assert eigensystem_n(H).defective
    with pytest.raises(ValueError, match="eigensystem is defective"):
        extract_degenerate_subspace(H, lambda0=lam0)


def test_extract_rejects_a_singular_gram_matrix(monkeypatch):
    # a solver that gives the pair of the last matrix one left vector twice:
    # the eigensystem is not flagged defective, but the Gram matrix of the
    # pair has rank one, and its inverse raises LinAlgError, a ValueError
    solve = nhdeg.theorem.eigensystem_n

    def one_left(H, **kw):
        es = solve(H, **kw)
        last = es.left[(-1,) * (es.left.ndim - 2)]  # a view of the last matrix
        last[:, 1] = last[:, 0]
        return es

    monkeypatch.setattr(nhdeg.theorem, "eigensystem_n", one_left)
    H = np.diag([1.0, 1.0, 2.0]).astype(complex)
    with pytest.raises(ValueError):
        extract_degenerate_subspace(H)
    with pytest.raises(ValueError):
        extract_degenerate_subspace(np.stack([H, H]))


def test_gram_of_a_pair_not_flagged_defective_is_far_from_singular():
    # the fact that lets the extraction skip a Gram check of its own: on
    # near-Jordan draws H + eps |H| N, every pair that eigensystem_n does not
    # flag defective has a Gram singular-value ratio far above the 1e-8 at
    # which such a check would fire (the least measured is about 5e-6)
    lam0, kept, least = 0.5 + 0.5j, 0, np.inf
    for dim in range(2, 9):
        H = random_degenerate_hamiltonian(dim, range(40), lam0, defective=True)
        for j, eps in enumerate(10.0 ** -np.arange(1, 15)):
            rng = np.random.default_rng([dim, j])
            noise = rng.normal(size=H.shape) + 1j * rng.normal(size=H.shape)
            Hn = H + eps * np.linalg.norm(H, axis=(-2, -1))[:, None, None] * noise
            es = eigensystem_n(Hn)
            ok = ~es.defective
            cols = np.argsort(np.abs(es.eigenvalues - lam0), axis=-1)[ok, :2]
            R = np.linalg.qr(np.take_along_axis(es.right[ok], cols[:, None, :], -1))[0]
            L = np.take_along_axis(es.left[ok], cols[:, None, :], -1)
            svals = np.linalg.svd(L.conj().swapaxes(-1, -2) @ R, compute_uv=False)
            kept += ok.sum()
            least = min(least, (svals[:, -1] / svals[:, 0]).min(initial=np.inf))
    assert kept > 1000
    assert least >= 1e-6


def test_a_pair_chained_to_a_third_eigenvalue_is_no_twofold_cluster():
    # 0 and 8.6e-8 are within the radius 1e-7 |H| = 8.6e-7, and 9.0e-7 lies
    # 8.2e-7 from the second: the three chain into one cluster of three
    s = np.sqrt(74.0)
    H = np.diag([0.0, 1e-8 * s, 1.05e-7 * s, 5.0, 7.0]).astype(complex)
    assert np.linalg.norm(H) == pytest.approx(s)
    with pytest.raises(ValueError, match="^expected exactly one twofold cluster, found 0 "):
        extract_degenerate_subspace(H)


def test_an_empty_stack_gives_empty_results():
    es = eigensystem_n(np.zeros((0, 2, 2)))
    assert es.eigenvalues.shape == (0, 2) and es.defective.shape == (0,)
    report = theorem_report(np.zeros((0, 3, 3)))
    assert report["lambda0"].shape == (0,)
    assert report["max_residual"].shape == (0,)


def test_sizes_must_be_integers_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    message = "^'float' object cannot be interpreted as an integer$"
    for call in (lambda: run_ensemble(dims=(3.0,)), lambda: run_ensemble(trials=2.5),
                 lambda: random_degenerate_hamiltonian(4.0, 1)):
        with pytest.raises(TypeError, match=message):
            call()
    monkeypatch.undo()
    rep = run_ensemble(dims=(np.int64(3),), trials=True)
    assert rep["trials"] == 1 and type(rep["trials"]) is int
    assert rep["dims"] == [3] and type(rep["dims"][0]) is int
    assert json.dumps(rep) == json.dumps(run_ensemble(dims=(3,), trials=1))


@pytest.mark.parametrize("dim", [1, 65, 2049])
def test_dims_outside_the_generator_bound_raise_before_any_draw(monkeypatch, dim):
    # the spread rule's acceptance falls off like exp(-c dim^2): dim 2049
    # would redraw without end, so the bound is checked before any draw
    def no_draw(*args):
        raise AssertionError("drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=rf"dim must be in \[2, 64\], got {dim}$"):
        random_degenerate_hamiltonian(dim, 0)
    # every requested dimension counts, also one that no trial reaches
    with pytest.raises(ValueError, match=r"each in \[2, 64\]"):
        run_ensemble(dims=(2, dim), trials=1)


def test_generator_deterministic():
    a = random_degenerate_hamiltonian(6, 42, 0.1j)
    b = random_degenerate_hamiltonian(6, 42, 0.1j)
    np.testing.assert_array_equal(a, b)


def test_product_is_minus_projector():
    H = random_degenerate_hamiltonian(7, 5, 0.3 + 0.3j)
    sub = extract_degenerate_subspace(H, lambda0=0.3 + 0.3j)
    ur, ul = make_upsilon_right(sub), make_upsilon_left(sub)
    prod = verify_pair_product(sub, ur, ul)
    assert prod["subspace_action_residual"] < 1e-9
    assert prod["projector_residual"] < 1e-9


def test_antiunitarity_on_subspace():
    # <Y u, Y v> = conj(<u, v>) in biorthogonal coordinates on the span
    H = random_degenerate_hamiltonian(6, 11, -0.4 + 0.2j)
    sub = extract_degenerate_subspace(H, lambda0=-0.4 + 0.2j)
    ur = make_upsilon_right(sub)

    def l_coords(u):
        # dual basis of the left span under the standard inner product
        return np.array([np.vdot(sub.psi_r1, u), np.vdot(sub.psi_r2, u)])

    def r_coords(w):
        return np.array([np.vdot(sub.psi_l1, w), np.vdot(sub.psi_l2, w)])

    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b, c, d = rng.normal(size=8).view(complex)
        u = a * sub.psi_l1 + b * sub.psi_l2
        v = c * sub.psi_l1 + d * sub.psi_l2
        lhs = np.vdot(r_coords(ur(u)), r_coords(ur(v)))
        rhs = np.conj(np.vdot(l_coords(u), l_coords(v)))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_eigenvalue_preservation():
    H = random_degenerate_hamiltonian(8, 21, 0.6 - 0.1j)
    sub = extract_degenerate_subspace(H, lambda0=0.6 - 0.1j)
    ur = make_upsilon_right(sub)
    assert verify_eigenvalue_preservation(H, sub, ur) < 1e-9


def test_hermitian_reduction():
    # Hermitian degenerate input: left equals right, one operator suffices
    rng = np.random.default_rng(17)
    U = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    H = U @ np.diag([1.0, 1.0, 2.0, 3.0, -1.0]) @ U.conj().T
    sub = extract_degenerate_subspace(H, lambda0=1.0)
    np.testing.assert_allclose(sub.psi_l1, sub.psi_r1, atol=1e-9)
    np.testing.assert_allclose(sub.psi_l2, sub.psi_r2, atol=1e-9)
    ur, ul = make_upsilon_right(sub), make_upsilon_left(sub)
    np.testing.assert_allclose(ur.matrix_part, ul.matrix_part, atol=1e-9)
    res = verify_intertwining(H, ur, ul)
    assert max(res.values()) < 1e-10


def test_intertwining_rejects_operators_of_another_dimension():
    sub = extract_degenerate_subspace(random_degenerate_hamiltonian(3, 1, 0.5), lambda0=0.5)
    ur, ul = make_upsilon_right(sub), make_upsilon_left(sub)
    with pytest.raises(ValueError, match="operator and matrix dimensions differ"):
        verify_intertwining(random_degenerate_hamiltonian(4, 1, 0.5), ur, ul)


def test_intertwining_residual_linear_in_perturbation():
    # finite-difference sweep: A fixed, H perturbed off the degeneracy
    H = random_degenerate_hamiltonian(4, 2, 0.5)
    sub = extract_degenerate_subspace(H, lambda0=0.5)
    ur, ul = make_upsilon_right(sub), make_upsilon_left(sub)
    rng = np.random.default_rng(1)
    E = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    eps = np.array([1e-6, 1e-5, 1e-4, 1e-3])
    res = np.array([verify_intertwining(H + e * E, ur, ul)["right_residual"]
                    for e in eps])
    slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_pbc_lattice_engineered_degeneracy():
    # the X degeneracy of the periodic lattice shows up as an exact pair in
    # the full real-space spectrum when the torus momenta include X
    p = ModelParams(gamma=0.4, gx=0.2, gy=-0.3)
    H = real_space_hamiltonian(p, 4, 4)
    es = eigensystem_n(H)
    zero_modes = np.sum(np.abs(es.eigenvalues) < 1e-9)
    # four X points on the 4x4 momentum grid, each contributing both bands
    assert zero_modes == 8


def test_ensemble_small_run_and_defective_injection():
    rep = run_ensemble(dims=(2, 3, 4), trials=30, seed=5)
    assert rep["passed"]
    assert max(rep["max_residuals"].values()) < 1e-9
    bad = run_ensemble(dims=(4,), trials=10, seed=5, inject_defective=True)
    assert bad["rejected_defective"] == 10


def test_ensemble_folds_the_per_trial_worst_residuals():
    # the ensemble maxima are the maxima of each trial's max_residuals
    dims, seed = (2, 3, 5), 3
    rep = run_ensemble(dims=dims, trials=9, seed=seed)
    want = dict.fromkeys(rep["max_residuals"], 0.0)
    for trial in range(9):
        trial_rng = np.random.default_rng(seed + 7919 * trial)
        lam0 = complex(trial_rng.uniform(-1, 1), trial_rng.uniform(-1, 1))
        H = random_degenerate_hamiltonian(dims[trial % 3], seed + trial, lam0)
        one = theorem_report(H, lambda0=lam0)
        assert list(one["max_residuals"]) == list(want)
        assert one["max_residual"] == max(one["max_residuals"].values())
        assert one["max_residuals"]["intertwining"] == max(
            one["intertwining"]["right_residual"], one["intertwining"]["left_residual"])
        for check, value in one["max_residuals"].items():
            want[check] = max(want[check], value)
    assert rep["max_residuals"] == want


def test_ensemble_zero_trials():
    # an empty ensemble verifies nothing, so it must not report a pass
    with pytest.raises(ValueError, match="trial"):
        run_ensemble(trials=0, seed=0)
    with pytest.raises(ValueError, match="trial"):
        run_ensemble(trials=-2, seed=0)


@pytest.mark.parametrize("dims", [(), range(5, 4), (1, 2), (2, 0), (2, 65)])
def test_ensemble_rejects_bad_dims(dims):
    with pytest.raises(ValueError, match="dimensions"):
        run_ensemble(dims=dims, trials=3)


@pytest.mark.parametrize("bound", [np.nan, np.inf, 0.0, -1.0])
def test_ensemble_rejects_a_bound_that_is_not_finite_and_positive(bound):
    with pytest.raises(ValueError, match="bound must be finite and positive"):
        run_ensemble(trials=3, bound=bound)


@pytest.mark.parametrize("inject", [False, True])
@pytest.mark.parametrize("seed", [0, 3, 5])
@pytest.mark.parametrize("dims", [(2,), (3, 8), range(2, 9), (3, 3, 5)])
def test_ensemble_matches_the_per_trial_oracle(dims, seed, inject):
    kw = dict(dims=dims, trials=60, seed=seed, inject_defective=inject)
    assert json.dumps(run_ensemble(**kw)) == json.dumps(run_ensemble_loop(**kw))


def _flat(report, prefix=""):
    out = {}
    for key, value in report.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


@pytest.mark.parametrize("dim", range(2, 9))
def test_stacked_pipeline_matches_single_matrix_calls(dim):
    # entry i of every stacked result is bitwise the single-matrix result;
    # at dims 6 and 7 some of these seeds redraw their spectrum
    seeds = [11 + 3 * i for i in range(9)]
    lam0 = [complex(0.3 * i - 1.0, 0.7 - 0.2 * i) for i in range(9)]
    H = random_degenerate_hamiltonian(dim, seeds, lam0)
    assert H.shape == (9, dim, dim)
    stacked_es = eigensystem_n(H)
    stacked = _flat(theorem_report(H, lambda0=np.array(lam0)))
    for i, (s, l0) in enumerate(zip(seeds, lam0)):
        one = random_degenerate_hamiltonian(dim, s, l0)
        assert one.tobytes() == H[i].tobytes()
        es = eigensystem_n(one)
        for field in ("eigenvalues", "right", "left"):
            assert getattr(stacked_es, field)[i].tobytes() == getattr(es, field).tobytes()
        assert stacked_es.residual[i] == es.residual
        assert type(es.residual) is float and type(es.defective) is bool
        single = _flat(theorem_report(one, lambda0=l0))
        assert list(stacked) == list(single)
        for key, value in single.items():
            assert type(value) in (float, complex), key
            assert np.asarray(stacked[key][i]).tobytes() == np.asarray(value).tobytes(), key


def test_single_matrix_residuals_keep_their_numpy_forms():
    # bitwise equal to np.linalg.norm, np.vdot and Python abs on one matrix,
    # C- or Fortran-ordered; np.abs of a complex number, for one, differs in
    # the last bit, and so does a norm summed out of memory order
    for trial in range(140):
        dim = 2 + trial % 7
        lam0 = complex(np.cos(trial), np.sin(2 * trial))
        H = random_degenerate_hamiltonian(dim, 1000 + trial, lam0)
        if trial % 2:
            H = np.asfortranarray(H)
        sub = extract_degenerate_subspace(H, lambda0=lam0)
        ur, ul = make_upsilon_right(sub), make_upsilon_left(sub)
        want = theorem_residuals_loop(H, sub, ur, ul)
        orth = verify_orthogonality(sub, ur, ul)
        got = dict(verify_intertwining(H, ur, ul),
                   swap=verify_swap_action(sub, ur, ul)["max_residual"],
                   left_overlap=orth["left_overlap"], right_overlap=orth["right_overlap"],
                   eigenvalue_preservation=verify_eigenvalue_preservation(H, sub, ur))
        got.update({k: v for k, v in verify_pair_product(sub, ur, ul).items()
                    if k != "full_space_residual"})
        assert got == want


def test_defective_matrix_in_a_stack_fails_only_its_trial(monkeypatch):
    # one Jordan matrix in the middle of the dim-5 stack: the stack raises,
    # its trials are re-run one at a time, and only that trial fails, with
    # the message the per-trial loop gives
    seed, bad_trial = 2, 19
    draw = nhdeg.theorem.random_degenerate_hamiltonian

    def one_defective(dim, seeds, lam0, defective=False):
        H = draw(dim, seeds, lam0, defective=defective)
        flat, lams = np.ravel(seeds), np.ravel(lam0)
        for i in np.flatnonzero(flat == seed + bad_trial):
            H.reshape(-1, dim, dim)[i] = draw(dim, seed + bad_trial, lams[i], defective=True)
        return H

    monkeypatch.setattr(nhdeg.theorem, "random_degenerate_hamiltonian", one_defective)
    rep = run_ensemble(dims=(2, 3, 4, 5), trials=40, seed=seed)
    oracle = run_ensemble_loop(dims=(2, 3, 4, 5), trials=40, seed=seed)
    assert [f["trial"] for f in rep["failures"]] == [bad_trial]
    assert rep["failures"] == oracle["failures"]
    assert "defective" in rep["failures"][0]["error"]
    assert json.dumps(rep) == json.dumps(oracle)


def test_negative_control_fails_every_defective_trial_that_is_not_rejected(monkeypatch):
    # the failure path of --inject-defective: a theorem_report that accepts
    # a Jordan block instead of raising must fail each trial, not pass
    monkeypatch.setattr(nhdeg.theorem, "theorem_report",
                        lambda H, lambda0=None: {"max_residuals": {}})
    dims = (2, 3, 4, 5, 6, 7, 8)
    rep = run_ensemble(dims=dims, trials=14, inject_defective=True)
    assert rep["failures"] == [{"trial": t, "dim": dims[t % 7], "seed": t,
                                "error": "defective input was not rejected"}
                               for t in range(14)]
    assert rep["rejected_defective"] == 0
    assert rep["passed"] is False


def test_ensemble_makes_one_eig_call_per_dimension(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counting(a):
        calls.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting)
    rep = run_ensemble(dims=range(2, 9), trials=500, seed=0)
    assert rep["passed"]
    assert len(calls) == 7
    assert calls == [(len(range(d - 2, 500, 7)), d, d) for d in range(2, 9)]


def test_stack_errors_name_the_first_failing_matrix():
    H = random_degenerate_hamiltonian(4, [1, 2, 3], 0.5)
    H[1] = np.diag([0.5, 1.0, 2.0, 3.0])  # no twofold cluster
    with pytest.raises(ValueError, match=r"found 0 .*\(stack entry 1\)$"):
        theorem_report(H, lambda0=0.5)
    with pytest.raises(ValueError, match=r"expected exactly one twofold cluster, found 0 "
                                         r"\(eigenvalues array\(\[0\.5\+0\.j"):
        theorem_report(H[1], lambda0=0.5)


def _protected_class(A):
    """Basis of {delta : delta A = A delta^T}, the null space of that linear map."""
    n = A.shape[0]
    eye = np.eye(n)
    # the map's image of the unit matrix E_ij, one column per (i, j)
    image = np.einsum("ai,jb->abij", eye, A) - np.einsum("aj,bi->abij", A, eye)
    _, s, vh = np.linalg.svd(image.reshape(n * n, n * n))
    return vh[s < 1e-10 * s[0]].conj().reshape(-1, n, n)


@pytest.mark.parametrize("dim", range(3, 9))
def test_perturbations_that_keep_the_right_pair_keep_the_degeneracy(dim):
    # with A = R J R^T, J = [[0, 1], [-1, 0]] and R^T conj(L) = 1, a delta of
    # the class maps R into itself: (H + eps delta) R = R M with
    # M = L^dag (H + eps delta) R and M = J M^T J^-1 = tr(M) 1 - M, so M is
    # a scalar and the pair stays degenerate and non-defective for every
    # eps; a bound of 1e-12 |H| is rounding.  A generic delta splits it
    for seed in range(3):
        H = random_degenerate_hamiltonian(dim, seed)
        sub = extract_degenerate_subspace(H)
        A = make_upsilon_right(sub).matrix_part
        basis = _protected_class(A)
        assert len(basis) == (dim - 1) ** 2
        rng = np.random.default_rng(seed)
        scale = np.linalg.norm(H)
        delta = np.tensordot(rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis)),
                             basis, 1)
        generic = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        R = np.stack([sub.psi_r1, sub.psi_r2], axis=1)
        L = np.stack([sub.psi_l1, sub.psi_l2], axis=1)
        for eps in (1e-3, 1e-2, 1e-1):
            for d, protected in ((delta, True), (generic, False)):
                d = d * (scale / np.linalg.norm(d))
                Hp = H + eps * d
                mu = sub.lambda0 + eps * np.trace(L.conj().T @ d @ R) / 2
                lam = eigensystem_n(Hp).eigenvalues
                pair = lam[np.argsort(np.abs(lam - mu))[:2]]
                if protected:
                    extract_degenerate_subspace(Hp, lambda0=mu)
                    assert np.abs(pair - mu).max() <= 1e-12 * scale, (seed, eps)
                else:
                    assert abs(pair[0] - pair[1]) >= 0.05 * eps * scale, (seed, eps)
