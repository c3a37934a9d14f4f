"""Dense complex linear algebra for non-Hermitian two-band and N-band problems.

Provides the analytic 2x2 eigensystem with biorthogonal left/right vectors,
a residual-checked dense eigensolver for general complex matrices, and
coalescence diagnostics that quantify how close a matrix is to a defective
(non-diagonalizable) degeneracy.

Conventions: right vectors satisfy H psi_R = lam psi_R, left vectors satisfy
H_dag psi_L = conj(lam) psi_L, and biorthogonal normalization scales the
left vectors only so that <psi_L_m | psi_R_n> = delta_mn while right vectors
stay unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Eigensystem",
    "CoalescenceReport",
    "discriminant",
    "eigensystem2",
    "eigensystem_n",
    "coalescence",
    "DEFECT_OVERLAP_TOL",
]

# a pair counts as defective when the unit right vectors overlap above this
DEFECT_OVERLAP_TOL = 1e-8

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


@dataclass(frozen=True)
class CoalescenceReport:
    """Eigenvector-coalescence diagnostics of a two-state problem.

    ``overlap`` is |<r1|r2>| of the unit-normalized right vectors (1 at a
    defective exceptional point, 0 for orthogonal vectors); ``biorth_norm``
    is min_n |<l_n|r_n>| of unit-normalized pairs before normalization,
    which tends to 0 when approaching a defective point.
    """

    overlap: float
    biorth_norm: float


def _as_square(h, dim=None):
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if dim is not None and h.shape[0] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {h.shape}")
    if not np.isfinite(h).all():  # both parts of every entry, any memory order
        raise ValueError("matrix entries must be finite")
    return h


def discriminant(h) -> complex:
    """tr(h)^2 - 4 det(h) of a 2x2 matrix; zero iff the eigenvalues collide."""
    h = _as_square(h, dim=2)
    tr = h[0, 0] + h[1, 1]
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    return complex(tr * tr - 4.0 * det)


def _right_vector_2x2(h, lam):
    # (h - lam) v = 0 has two candidate null vectors; take the better scaled
    v1 = np.array([h[0, 1], lam - h[0, 0]])
    v2 = np.array([lam - h[1, 1], h[1, 0]])
    v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
    n = np.linalg.norm(v)
    if n == 0.0:
        # diagonal matrix: pick the canonical basis vector of this eigenvalue
        v = np.array([1.0, 0.0]) if abs(lam - h[0, 0]) <= abs(lam - h[1, 1]) \
            else np.array([0.0, 1.0])
        n = 1.0
    return v / n


def eigensystem2(h, tol: float = 1e-9) -> Eigensystem:
    """Analytic eigensystem of a 2x2 complex matrix.

    Eigenvalues are (tr +- sqrt(eta))/2 with the principal branch of the
    square root, sorted lexicographically by (Re, Im).  Left vectors are the
    right vectors of the adjoint; pairs are biorthogonally normalized when
    |<l|r>| of the unit vectors exceeds ``tol``, otherwise the system is
    flagged defective and returned unnormalized.
    """
    h = _as_square(h, dim=2)
    if tol <= 0:
        raise ValueError("tol must be positive")
    tr = h[0, 0] + h[1, 1]
    eta = discriminant(h)
    root = np.sqrt(complex(eta))
    lams = np.array([(tr + root) / 2.0, (tr - root) / 2.0])
    order = np.lexsort((lams.imag, lams.real))
    lams = lams[order]

    scale = max(1.0, float(np.linalg.norm(h)))
    if np.linalg.norm(h - lams[0] * np.eye(2)) <= 1e-12 * scale:
        # proportional to the identity: the only non-defective 2x2 degeneracy
        eye = np.eye(2, dtype=complex)
        return Eigensystem(lams, eye.copy(), eye.copy(), residual=0.0)

    right = np.column_stack([_right_vector_2x2(h, lam) for lam in lams])
    hd = h.conj().T
    left = np.column_stack([_right_vector_2x2(hd, np.conj(lam)) for lam in lams])

    overlap = abs(np.vdot(right[:, 0], right[:, 1]))
    defective = overlap > 1.0 - DEFECT_OVERLAP_TOL
    if not defective:
        for n in range(2):
            c = np.vdot(left[:, n], right[:, n])
            if abs(c) <= tol:
                defective = True
                break
            left[:, n] = left[:, n] / np.conj(c)
    res = max(np.linalg.norm(h @ right[:, n] - lams[n] * right[:, n])
              for n in range(2))
    res = max(res, max(np.linalg.norm(hd @ left[:, n] - np.conj(lams[n]) * left[:, n])
                       for n in range(2)))
    return Eigensystem(lams, right, left, residual=float(res), defective=defective)


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
    H = _as_square(H)
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
    residual = (np.linalg.norm(H @ R - R * lam[None, :], axis=0) / norm_r).max()
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


def coalescence(h_or_pair) -> CoalescenceReport:
    """Coalescence diagnostics of a 2x2 matrix or an explicit vector pair.

    A tuple is a (v1, v2) vector pair; anything else is a 2x2 matrix, whose
    two right eigenvectors are compared.
    """
    if isinstance(h_or_pair, tuple):
        v1, v2 = (np.asarray(v, dtype=complex) for v in h_or_pair)
        n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
        if n1 == 0.0 or n2 == 0.0:
            raise ValueError("zero vector in coalescence pair")
        overlap = abs(np.vdot(v1 / n1, v2 / n2))
        return CoalescenceReport(overlap=float(min(overlap, 1.0)),
                                 biorth_norm=float(np.sqrt(max(0.0, 1.0 - overlap**2))))
    h = _as_square(h_or_pair, dim=2)
    es = eigensystem2(h)
    if es.residual == 0.0 and np.allclose(es.right, np.eye(2)):
        return CoalescenceReport(overlap=0.0, biorth_norm=1.0)
    r1, r2 = es.right[:, 0], es.right[:, 1]
    overlap = abs(np.vdot(r1 / np.linalg.norm(r1), r2 / np.linalg.norm(r2)))
    hd = h.conj().T
    bn = 1.0
    for n in range(2):
        r = _right_vector_2x2(h, es.eigenvalues[n])
        l = _right_vector_2x2(hd, np.conj(es.eigenvalues[n]))
        bn = min(bn, abs(np.vdot(l, r)))
    return CoalescenceReport(overlap=float(min(overlap, 1.0)), biorth_norm=float(bn))
