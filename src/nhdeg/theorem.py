"""Anti-unitary operator pairs protecting non-defective twofold degeneracies.

Given a complex matrix H with a twofold degenerate eigenvalue lam0 whose
eigenspace is two dimensional (non-defective), the biorthogonal eigenvectors
define a right/left pair of anti-unitary operators

    Y_R : v -> A_R conj(v),   A_R = r1 r2^T - r2 r1^T,
    Y_L : v -> A_L conj(v),   A_L = l1 l2^T - l2 l1^T,

which intertwine H with its adjoint, swap the degenerate left and right
vectors into each other, and compose to minus the biorthogonal projector on
the degenerate subspace.  On that subspace the pair squares to -1, which
forces the orthogonality relations that pin the degeneracy.  This module
constructs the pair and verifies every one of those relations numerically,
both for engineered random matrices and for lattice Bloch matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Eigensystem, eigensystem_n

__all__ = [
    "DegenerateSubspace",
    "AntiunitaryOperator",
    "extract_degenerate_subspace",
    "make_upsilon_right",
    "make_upsilon_left",
    "verify_intertwining",
    "verify_swap_action",
    "verify_orthogonality",
    "verify_pair_product",
    "verify_eigenvalue_preservation",
    "random_degenerate_hamiltonian",
    "theorem_report",
    "run_ensemble",
]


@dataclass
class DegenerateSubspace:
    """Biorthogonal basis of a twofold degenerate eigenspace.

    ``psi_r1``/``psi_r2`` are right eigenvectors of H at ``lambda0``,
    ``psi_l1``/``psi_l2`` the matching left eigenvectors, normalized to
    <l_i|r_j> = delta_ij.
    """

    lambda0: complex
    psi_r1: np.ndarray
    psi_r2: np.ndarray
    psi_l1: np.ndarray
    psi_l2: np.ndarray

    def gram(self) -> np.ndarray:
        L = np.column_stack([self.psi_l1, self.psi_l2])
        R = np.column_stack([self.psi_r1, self.psi_r2])
        return L.conj().T @ R

    def validate(self, H=None, tol: float = 1e-8) -> None:
        """Check biorthonormality, and the eigenvector property if H is given."""
        G = self.gram()
        err = np.linalg.norm(G - np.eye(2))
        if err > tol:
            raise ValueError(
                f"subspace is not biorthonormal (|G - 1| = {err:.3e}); Gram = {G!r}")
        if H is not None:
            H = np.asarray(H, dtype=complex)
            scale = max(1.0, np.linalg.norm(H))
            for vec in (self.psi_r1, self.psi_r2):
                r = np.linalg.norm(H @ vec - self.lambda0 * vec)
                if r > tol * scale:
                    raise ValueError(f"right vector residual {r:.3e} exceeds tolerance")
            for vec in (self.psi_l1, self.psi_l2):
                r = np.linalg.norm(H.conj().T @ vec - np.conj(self.lambda0) * vec)
                if r > tol * scale:
                    raise ValueError(f"left vector residual {r:.3e} exceeds tolerance")


@dataclass(frozen=True)
class AntiunitaryOperator:
    """Anti-linear map v -> matrix_part @ conj(v)."""

    matrix_part: np.ndarray

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.matrix_part @ np.conj(np.asarray(v, dtype=complex))


def extract_degenerate_subspace(H, eigsys: Eigensystem | None = None,
                                lambda0: complex | None = None,
                                cluster_tol: float = 1e-7) -> DegenerateSubspace:
    """Locate a twofold degenerate eigenvalue of H and return its subspace.

    Eigenvalues within ``cluster_tol * norm(H)`` of each other form a
    cluster; the unique cluster of size two is used unless ``lambda0``
    selects one explicitly.  The pair is re-biorthogonalized through its
    2x2 Gram system, since a dense solver returns an arbitrary mixture for
    exactly equal eigenvalues.  Raises for defective input.
    """
    H = np.asarray(H, dtype=complex)
    es = eigensystem_n(H) if eigsys is None else eigsys
    if es.defective:
        raise ValueError("eigensystem is defective: no biorthogonal basis")
    lam = es.eigenvalues
    scale = max(1.0, float(np.linalg.norm(H)))
    radius = cluster_tol * scale

    clusters = []
    start = 0
    while start < len(lam):
        stop = start + 1
        while stop < len(lam) and abs(lam[stop] - lam[start]) < radius:
            stop += 1
        clusters.append((start, stop))
        start = stop
    pairs = [c for c in clusters if c[1] - c[0] == 2]
    if lambda0 is not None:
        pairs = [c for c in pairs if abs(lam[c[0]] - lambda0) < max(radius, 1e-6 * scale)]
    if len(pairs) != 1:
        raise ValueError(
            f"expected exactly one twofold cluster, found {len(pairs)} "
            f"(eigenvalues {lam!r})")
    a, b = pairs[0]
    # orthonormalize the right pair (a free gauge on an exact eigenspace);
    # Hermitian inputs then reduce to psi_L = psi_R identically
    R = np.linalg.qr(es.right[:, a:b])[0]
    L = es.left[:, a:b]
    G = L.conj().T @ R
    svals = np.linalg.svd(G, compute_uv=False)
    if svals[-1] < 1e-8 * max(1.0, svals[0]):
        raise ValueError(
            f"degenerate pair is defective: Gram matrix is singular "
            f"(singular values {svals!r})")
    L = L @ np.linalg.inv(G).conj().T
    lam0 = complex(lam[a:b].mean())
    sub = DegenerateSubspace(lam0, R[:, 0], R[:, 1], L[:, 0], L[:, 1])
    sub.validate(H)
    return sub


def _pair_matrix(v1, v2):
    return np.outer(v1, v2) - np.outer(v2, v1)


def make_upsilon_right(sub: DegenerateSubspace) -> AntiunitaryOperator:
    """Right anti-unitary operator built from the right eigenvectors."""
    sub.validate()
    return AntiunitaryOperator(_pair_matrix(sub.psi_r1, sub.psi_r2))


def make_upsilon_left(sub: DegenerateSubspace) -> AntiunitaryOperator:
    """Left anti-unitary operator built from the left eigenvectors."""
    sub.validate()
    return AntiunitaryOperator(_pair_matrix(sub.psi_l1, sub.psi_l2))


def verify_intertwining(H, ur: AntiunitaryOperator, ul: AntiunitaryOperator) -> dict:
    """Residuals of the right/left intertwining relations with the adjoint.

    With Y_R = A_R K and Y_L = A_L K (K complex conjugation), the relations
    H Y_R = Y_R H_dag and Y_L H = H_dag Y_L resolve to

        r_R = |H A_R - A_R H^T| / |H|,
        r_L = |A_L conj(H) - H_dag A_L| / |H|,

    in the Frobenius norm.  Both vanish for a conserved symmetry pair.
    """
    H = np.asarray(H, dtype=complex)
    ar, al = ur.matrix_part, ul.matrix_part
    if ar.shape != H.shape or al.shape != H.shape:
        raise ValueError("operator and matrix dimensions differ")
    scale = max(1.0, float(np.linalg.norm(H)))
    r_r = np.linalg.norm(H @ ar - ar @ H.T) / scale
    r_l = np.linalg.norm(al @ np.conj(H) - H.conj().T @ al) / scale
    return {"right_residual": float(r_r), "left_residual": float(r_l)}


def verify_swap_action(sub: DegenerateSubspace, ur: AntiunitaryOperator,
                       ul: AntiunitaryOperator) -> dict:
    """Residuals of the four swap identities on the degenerate pair.

    Y_R maps l2 -> r1 and l1 -> -r2; Y_L maps r2 -> l1 and r1 -> -l2.
    """
    checks = {
        "ur_l2_to_r1": np.linalg.norm(ur(sub.psi_l2) - sub.psi_r1),
        "ur_l1_to_minus_r2": np.linalg.norm(ur(sub.psi_l1) + sub.psi_r2),
        "ul_r2_to_l1": np.linalg.norm(ul(sub.psi_r2) - sub.psi_l1),
        "ul_r1_to_minus_l2": np.linalg.norm(ul(sub.psi_r1) + sub.psi_l2),
    }
    out = {k: float(v) for k, v in checks.items()}
    out["max_residual"] = max(out.values())
    return out


def verify_orthogonality(sub: DegenerateSubspace, ur: AntiunitaryOperator,
                         ul: AntiunitaryOperator) -> dict:
    """The overlaps <l1|Y_R l1> and <r1|Y_L r1>, forced to zero by the pair."""
    o1 = abs(np.vdot(sub.psi_l1, ur(sub.psi_l1)))
    o2 = abs(np.vdot(sub.psi_r1, ul(sub.psi_r1)))
    return {"left_overlap": float(o1), "right_overlap": float(o2),
            "max_residual": float(max(o1, o2))}


def verify_pair_product(sub: DegenerateSubspace, ur: AntiunitaryOperator,
                        ul: AntiunitaryOperator) -> dict:
    """Residuals of Y_R Y_L = Y_L Y_R = -1 on the degenerate subspace.

    The composition Y_R Y_L equals A_R conj(A_L), which is minus the
    biorthogonal projector onto the subspace; restricted to the subspace it
    is exactly -1, and for a two-dimensional total space it equals -1
    globally by completeness.  Both facts are checked.
    """
    M_rl = ur.matrix_part @ np.conj(ul.matrix_part)
    M_lr = ul.matrix_part @ np.conj(ur.matrix_part)
    action = max(
        np.linalg.norm(M_rl @ sub.psi_r1 + sub.psi_r1),
        np.linalg.norm(M_rl @ sub.psi_r2 + sub.psi_r2),
        np.linalg.norm(M_lr @ sub.psi_l1 + sub.psi_l1),
        np.linalg.norm(M_lr @ sub.psi_l2 + sub.psi_l2),
    )
    proj = (np.outer(sub.psi_r1, np.conj(sub.psi_l1))
            + np.outer(sub.psi_r2, np.conj(sub.psi_l2)))
    out = {
        "subspace_action_residual": float(action),
        "projector_residual": float(np.linalg.norm(M_rl + proj)),
    }
    if len(sub.psi_r1) == 2:
        out["full_space_residual"] = float(np.linalg.norm(M_rl + np.eye(2)))
    return out


def verify_eigenvalue_preservation(H, sub: DegenerateSubspace,
                                   ur: AntiunitaryOperator) -> float:
    """Residual of H (Y_R l1) = lam0 (Y_R l1): the image stays degenerate."""
    H = np.asarray(H, dtype=complex)
    w = ur(sub.psi_l1)
    return float(np.linalg.norm(H @ w - sub.lambda0 * w)
                 / max(1.0, np.linalg.norm(H)))


# ---------------------------------------------------------------------------
# engineered test matrices

def random_degenerate_hamiltonian(dim: int, seed: int,
                                  lambda0: complex = 0.5 + 0.5j,
                                  defective: bool = False) -> np.ndarray:
    """Random matrix with lambda0 exactly twice in its spectrum.

    H = S Lam S^{-1} with Lam holding lambda0 twice and dim-2 further
    eigenvalues that stay pairwise at least 0.1 apart and 0.1 away from
    lambda0; S is a random complex matrix resampled until cond(S) < 1e3.
    Deterministic for a fixed seed.  dim = 2 returns lambda0 * identity,
    the only non-defective twofold 2x2 degeneracy.  With ``defective`` the
    lambda0 block is a Jordan block instead (for negative testing).
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    if dim == 2 and not defective:
        return lambda0 * np.eye(2, dtype=complex)
    while True:
        others = rng.uniform(-2, 2, size=dim - 2) + 1j * rng.uniform(-2, 2, size=dim - 2)
        allv = np.concatenate([[lambda0, lambda0], others])
        gaps = np.abs(allv[:, None] - allv[None, :]) + np.eye(dim) * 10
        gaps[0, 1] = gaps[1, 0] = 10  # the engineered pair may coincide
        if gaps.min() >= 0.1:
            break
    lam_block = np.diag(allv)
    if defective:
        lam_block[0, 1] = 1.0
    while True:
        S = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if np.linalg.cond(S) < 1e3:
            break
    return S @ lam_block @ np.linalg.inv(S)


def theorem_report(H, eigsys: Eigensystem | None = None,
                   lambda0: complex | None = None) -> dict:
    """Run the full construction-and-verification pipeline on one matrix.

    Returns every residual of the intertwining, swap, orthogonality,
    product and eigenvalue-preservation checks, plus the worst of them.
    """
    sub = extract_degenerate_subspace(H, eigsys=eigsys, lambda0=lambda0)
    ur = make_upsilon_right(sub)
    ul = make_upsilon_left(sub)
    report = {
        "lambda0": sub.lambda0,
        "intertwining": verify_intertwining(H, ur, ul),
        "swap": verify_swap_action(sub, ur, ul),
        "orthogonality": verify_orthogonality(sub, ur, ul),
        "product": verify_pair_product(sub, ur, ul),
        "eigenvalue_preservation": verify_eigenvalue_preservation(H, sub, ur),
    }
    report["max_residual"] = max(
        report["intertwining"]["right_residual"],
        report["intertwining"]["left_residual"],
        report["swap"]["max_residual"],
        report["orthogonality"]["max_residual"],
        report["product"]["subspace_action_residual"],
        report["eigenvalue_preservation"],
    )
    return report


def run_ensemble(dims=(2, 3, 4, 5, 6, 7, 8), trials: int = 500, seed: int = 0,
                 bound: float = 1e-9, inject_defective: bool = False) -> dict:
    """Verify the operator-pair construction over an engineered ensemble.

    Cycles through ``dims``, drawing a fresh degenerate matrix per trial
    with a seed offset for determinism.  Returns per-check maxima and a
    pass flag against ``bound`` (residuals are relative to |H|).  With
    ``inject_defective`` every matrix carries a Jordan block instead, and
    the report counts how many trials were correctly rejected.
    """
    dims = tuple(dims)
    worst = {"intertwining": 0.0, "swap": 0.0, "orthogonality": 0.0,
             "product": 0.0, "eigenvalue_preservation": 0.0}
    failures = []
    rejected = 0
    for trial in range(trials):
        dim = dims[trial % len(dims)]
        trial_rng = np.random.default_rng(seed + 7919 * trial)
        lam0 = complex(trial_rng.uniform(-1, 1), trial_rng.uniform(-1, 1))
        H = random_degenerate_hamiltonian(dim, seed + trial, lam0,
                                          defective=inject_defective)
        try:
            rep = theorem_report(H, lambda0=lam0)
        except (ValueError, RuntimeError) as exc:
            if inject_defective:
                rejected += 1
                continue
            failures.append({"trial": trial, "dim": dim, "seed": seed + trial,
                             "error": str(exc)})
            continue
        if inject_defective:
            failures.append({"trial": trial, "dim": dim, "seed": seed + trial,
                             "error": "defective input was not rejected"})
            continue
        worst["intertwining"] = max(worst["intertwining"],
                                    rep["intertwining"]["right_residual"],
                                    rep["intertwining"]["left_residual"])
        worst["swap"] = max(worst["swap"], rep["swap"]["max_residual"])
        worst["orthogonality"] = max(worst["orthogonality"],
                                     rep["orthogonality"]["max_residual"])
        worst["product"] = max(worst["product"],
                               rep["product"]["subspace_action_residual"])
        worst["eigenvalue_preservation"] = max(worst["eigenvalue_preservation"],
                                               rep["eigenvalue_preservation"])
    passed = not failures and (inject_defective or max(worst.values(), default=0.0) <= bound)
    return {
        "trials": trials,
        "dims": list(dims),
        "seed": seed,
        "bound": bound,
        "max_residuals": worst,
        "failures": failures,
        "rejected_defective": rejected,
        "passed": bool(passed),
    }
