"""Dense complex linear algebra for non-Hermitian N-band problems.

Provides a residual-checked dense eigensolver for general complex matrices
with biorthogonal left/right vectors and a flag for defective
(non-diagonalizable) spectra, both at fixed thresholds.

Conventions: right vectors satisfy H psi_R = lam psi_R, left vectors satisfy
H_dag psi_L = conj(lam) psi_L, and biorthogonal normalization scales the
left vectors only so that <psi_L_m | psi_R_n> = delta_mn while right vectors
stay unit norm.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Eigensystem", "eigensystem_n"]

MAX_DENSE_DIM = 2048
RESIDUAL_TOL = 1e-9


@dataclass
class Eigensystem:
    """Eigenvalues with biorthogonally normalized right and left vectors.

    ``right[..., :, n]`` and ``left[..., :, n]`` belong to
    ``eigenvalues[..., n]``; ``residual`` bounds max_n |H r_n - lam_n r_n|
    and, unless the system is ``defective``, the adjoint analogue;
    ``defective`` marks spectra whose eigenvectors coalesced, so that their
    left vectors are unreliable.  For a stack of matrices ``residual`` and
    ``defective`` are arrays over the stack; for one matrix they are a
    float and a bool.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray | None
    residual: float | np.ndarray
    defective: bool | np.ndarray = False


def _norm(x):
    """2-norm over the last axis, bitwise equal to np.linalg.norm of each vector.

    ``np.linalg.norm(x, axis=-1)`` sums in a different order and differs in
    the last bit for some vectors.
    """
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _fro(x):
    """Frobenius norm of each matrix in a stack, bitwise as np.linalg.norm.

    np.linalg.norm sums a matrix in memory order, so column-major matrices
    are read through their transpose.
    """
    if abs(x.strides[-2]) < abs(x.strides[-1]):
        x = x.swapaxes(-1, -2)
    return _norm(x.reshape(x.shape[:-2] + (-1,)))


def _item(x):
    """A 0-d result as a Python scalar; results over a stack stay arrays."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _check(bad, exc, message):
    """Raise ``exc(message(i))`` for the first stack index i where ``bad`` holds.

    For one matrix i is ``()``; for a stack the index is appended.
    """
    bad = np.asarray(bad)
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        suffix = f" (stack entry {', '.join(map(str, i))})" if i else ""
        raise exc(message(i) + suffix)


def _take_columns(M, cols):
    """Columns ``cols[..., j]`` of each matrix of M, laid out as ``M[:, cols]``."""
    return np.take_along_axis(M.swapaxes(-1, -2), cols[..., :, None], -2).swapaxes(-1, -2)


def eigensystem_n(H, want_left: bool = True) -> Eigensystem:
    """Dense eigensystem of a general complex matrix with left/right pairing.

    Right vectors come from one dense solve on H, sorted by (Re, Im).  The
    left vectors are the columns of R^{-dag}: they come paired and
    biorthonormal, <l_m|r_n> = delta_mn, degenerate clusters included.  The
    system is flagged ``defective`` when some unit pair overlaps by less
    than 1e-5 (the overlap is the inverse condition number of the
    eigenvalue; a Jordan pair drives it to about 1e-8) or R is
    singular; the left vectors of a defective system are unreliable, so
    only its right residual is checked.

    With ``want_left=False`` only the right problem is solved and ``left``
    is None; useful for strongly non-normal matrices (wide skin-effect
    ribbons) whose left vectors are ill-conditioned while the right pairs
    stay backward stable.

    H may be a stack ``(..., n, n)``: every matrix is solved in the same
    LAPACK call, and entry i of each result equals the solve of ``H[i]``
    alone bit for bit.  Raises if the verified residual exceeds
    ``RESIDUAL_TOL * max(1, norm(H))``; for a stack, the first is named.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2] or H.shape[-1] == 0:
        raise ValueError(f"expected a square matrix of size >= 1, got shape {H.shape}")
    if not np.isfinite(H).all():  # both parts of every entry, any memory order
        raise ValueError("matrix entries must be finite")
    dim = H.shape[-1]
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense solver limited to dim <= {MAX_DENSE_DIM}, got {dim}")
    lam, R = np.linalg.eig(H)
    order = np.lexsort((lam.imag, lam.real))
    lam, R = np.take_along_axis(lam, order, -1), _take_columns(R, order)
    scale = np.maximum(1.0, _fro(H))
    # residuals per unit vector: biorthogonal scaling must not affect them
    norm_r = np.linalg.norm(R, axis=-2)
    HR = H @ R
    HR -= R * lam[..., None, :]  # in place: one (dim, dim) temporary fewer
    residual = (np.linalg.norm(HR, axis=-2) / norm_r).max(axis=-1)
    L, defective = None, np.zeros(lam.shape[:-1], dtype=bool)
    if want_left:
        try:
            Rinv = np.linalg.inv(R)
        except np.linalg.LinAlgError:  # exactly coalesced right vectors
            Rinv = np.empty(R.shape, dtype=complex)
            for i in np.ndindex(R.shape[:-2]):
                try:
                    Rinv[i] = np.linalg.inv(R[i])
                except np.linalg.LinAlgError:
                    Rinv[i], defective[i] = np.linalg.pinv(R[i]), True
        L = Rinv.conj().swapaxes(-1, -2)
        norm_l = np.hypot.reduce(np.abs(L), axis=-2)  # R^{-1} can near overflow
        overlap = np.abs(np.sum(L.conj() * R, axis=-2)) / (norm_l * norm_r)
        # the unit left residual of R^{-dag} grows like 1e-15 |H| / overlap
        # (measured up to 0.6e-15 on near-Jordan matrices of dim 2-8), so
        # this floor flags a pair long before its left residual nears 1e-9
        defective |= overlap.min(axis=-1) < 1e-5
        with np.errstate(all="ignore"):  # only read where not defective
            left = (np.linalg.norm(H.conj().swapaxes(-1, -2) @ L
                                   - L * np.conj(lam)[..., None, :], axis=-2) / norm_l).max(axis=-1)
        residual = np.where(defective, residual, np.maximum(residual, left))
    _check(residual > RESIDUAL_TOL * scale, RuntimeError, lambda i: (
        f"eigensolver residual {residual[i]:.3e} exceeds {RESIDUAL_TOL:.1e} * |H| = "
        f"{RESIDUAL_TOL * scale[i]:.3e}"))
    return Eigensystem(lam, R, L, residual=_item(residual), defective=_item(defective))
