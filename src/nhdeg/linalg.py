"""Dense complex linear algebra for non-Hermitian N-band problems.

Provides a residual-checked dense eigensolver for general complex matrices
with biorthogonal left/right vectors and a flag for defective
(non-diagonalizable) spectra.

Conventions: right vectors satisfy H psi_R = lam psi_R, left vectors satisfy
H_dag psi_L = conj(lam) psi_L, and biorthogonal normalization scales the
left vectors only so that <psi_L_m | psi_R_n> = delta_mn while right vectors
stay unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Eigensystem", "eigensystem_n"]

MAX_DENSE_DIM = 2048


@dataclass
class Eigensystem:
    """Eigenvalues with biorthogonally normalized right and left vectors.

    ``right[:, n]`` and ``left[:, n]`` belong to ``eigenvalues[n]``;
    ``residual`` bounds max_n |H r_n - lam_n r_n| and, unless the system is
    ``defective``, the adjoint analogue; ``defective`` marks spectra whose
    eigenvectors coalesced, so that their left vectors are unreliable.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray | None
    residual: float
    defective: bool = False


def eigensystem_n(H, tol: float = 1e-9, want_left: bool = True) -> Eigensystem:
    """Dense eigensystem of a general complex matrix with left/right pairing.

    Right vectors come from one dense solve on H, sorted by (Re, Im).  The
    left vectors are the columns of R^{-dag}: they come paired and
    biorthonormal, <l_m|r_n> = delta_mn, degenerate clusters included.  The
    system is flagged ``defective`` when some unit pair overlaps by less
    than ``1e-14 / tol`` (the overlap is the inverse condition number of
    the eigenvalue; a Jordan pair drives it to about 1e-8) or R is
    singular; the left vectors of a defective system are unreliable, so
    only its right residual is checked.

    With ``want_left=False`` only the right problem is solved and ``left``
    is None; useful for strongly non-normal matrices (wide skin-effect
    ribbons) whose left vectors are ill-conditioned while the right pairs
    stay backward stable.

    Raises if the verified residual exceeds ``tol * norm(H)``.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.isfinite(H).all():  # both parts of every entry, any memory order
        raise ValueError("matrix entries must be finite")
    dim = H.shape[0]
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense solver limited to dim <= {MAX_DENSE_DIM}, got {dim}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam, R = np.linalg.eig(H)
    order = np.lexsort((lam.imag, lam.real))
    lam, R = lam[order], R[:, order]
    scale = max(1.0, float(np.linalg.norm(H)))
    # residuals per unit vector: biorthogonal scaling must not affect them
    norm_r = np.linalg.norm(R, axis=0)
    HR = H @ R
    HR -= R * lam  # in place: one (dim, dim) temporary fewer
    residual = (np.linalg.norm(HR, axis=0) / norm_r).max()
    L, defective = None, False
    if want_left:
        try:
            L = np.linalg.inv(R).conj().T
        except np.linalg.LinAlgError:  # exactly coalesced right vectors
            L, defective = np.linalg.pinv(R).conj().T, True
        norm_l = np.hypot.reduce(np.abs(L), axis=0)  # R^{-1} can near overflow
        overlap = np.abs(np.sum(L.conj() * R, axis=0)) / (norm_l * norm_r)
        # the unit left residual of R^{-dag} grows like 1e-15 |H| / overlap
        # (measured up to 0.6e-15 on near-Jordan matrices of dim 2-8), so
        # this floor flags a pair well before its left residual nears tol
        defective = defective or bool(overlap.min() < 1e-14 / tol)
        if not defective:
            residual = max(residual, (np.linalg.norm(
                H.conj().T @ L - L * np.conj(lam)[None, :], axis=0) / norm_l).max())
    if residual > tol * scale:
        raise RuntimeError(
            f"eigensolver residual {residual:.3e} exceeds {tol:.1e} * |H| = {tol * scale:.3e}")
    return Eigensystem(lam, R, L, residual=float(residual), defective=defective)

