"""Tests for the anti-unitary operator-pair construction and its relations."""

import dataclasses

import numpy as np
import pytest

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


def test_extract_rejects_an_eigensystem_flagged_defective():
    # the subspace of a valid pair is found, but not once the eigensystem
    # it is built from carries the defective flag
    lam0 = -0.2 + 0.9j
    H = random_degenerate_hamiltonian(5, 7, lam0)
    es = eigensystem_n(H)
    extract_degenerate_subspace(H, eigsys=es, lambda0=lam0)
    with pytest.raises(ValueError, match="defective"):
        extract_degenerate_subspace(H, eigsys=dataclasses.replace(es, defective=True),
                                    lambda0=lam0)


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


def test_ensemble_zero_trials():
    rep = run_ensemble(trials=0, seed=0)
    assert rep["passed"]
    assert rep["failures"] == []
