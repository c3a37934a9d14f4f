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

The pipeline (``eigensystem_n``, ``extract_degenerate_subspace``, the
``make_upsilon_*`` constructors, the ``verify_*`` checks and
``theorem_report``) also runs on stacks ``(..., n, n)``: each step is one
batched numpy/LAPACK call, and entry i of every result equals the result
for ``H[i]`` alone bit for bit.  A single matrix gives Python floats and
complex numbers, a stack gives arrays over the stack, and a stack raises
whatever its first failing matrix would, with the stack index appended.
``run_ensemble`` verifies the trials of each dimension as one stack.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import _check, _fro, _item, _norm, _take_columns, eigensystem_n

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
    "RESIDUAL_BOUND",
    "MAX_DIM",
]

# eigenvalues closer than this times norm(H) form one cluster
_CLUSTER_TOL = 1e-7
# default bound on the ensemble's relative residuals
RESIDUAL_BOUND = 1e-9
# largest generated dimension: the generator redraws dim - 2 eigenvalues in
# [-2, 2]^2 until all lie 0.1 apart, and a draw passes with a chance that
# falls off like exp(-c dim^2) (milliseconds a matrix at 64, a minute at 112)
MAX_DIM = 64
# bound of DegenerateSubspace.validate, residuals relative to max(1, |H|)
SUBSPACE_TOL = 1e-8


def _mv(A, v):
    """A @ v for stacks of matrices and vectors, one gemv per matrix."""
    return (A @ v[..., None])[..., 0]


def _abs(z):
    """|z| as the scalar abs(complex) rounds it; np.abs may differ in the last bit."""
    return np.hypot(z.real, z.imag)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _adjoint(A):
    return A.conj().swapaxes(-1, -2)


def _worst(values):
    """Elementwise maximum of residuals, one matrix or a stack."""
    return _item(np.maximum.reduce(list(values)))


@dataclass
class DegenerateSubspace:
    """Biorthogonal basis of a twofold degenerate eigenspace.

    ``psi_r1``/``psi_r2`` are right eigenvectors of H at ``lambda0``,
    ``psi_l1``/``psi_l2`` the matching left eigenvectors, normalized to
    <l_i|r_j> = delta_ij.  For a stack of matrices every field carries the
    stack axes in front (``lambda0`` is then an array).
    """

    lambda0: complex | np.ndarray
    psi_r1: np.ndarray
    psi_r2: np.ndarray
    psi_l1: np.ndarray
    psi_l2: np.ndarray

    def gram(self) -> np.ndarray:
        L = np.stack([self.psi_l1, self.psi_l2], axis=-1)
        R = np.stack([self.psi_r1, self.psi_r2], axis=-1)
        return _adjoint(L) @ R

    def validate(self, H=None) -> None:
        """Check biorthonormality, and the eigen pairs if H is given, to SUBSPACE_TOL."""
        G = self.gram()
        err = _fro(G - np.eye(2))
        _check(err > SUBSPACE_TOL, ValueError, lambda i: (
            f"subspace is not biorthonormal (|G - 1| = {err[i]:.3e}); Gram = {G[i]!r}"))
        if H is None:
            return
        H = np.asarray(H, dtype=complex)
        bound = SUBSPACE_TOL * np.maximum(1.0, _fro(H))
        lam0 = np.asarray(self.lambda0)[..., None]
        for side, A, lam, vecs in (("right", H, lam0, (self.psi_r1, self.psi_r2)),
                                   ("left", _adjoint(H), np.conj(lam0),
                                    (self.psi_l1, self.psi_l2))):
            for vec in vecs:
                r = _norm(_mv(A, vec) - lam * vec)
                _check(r > bound, ValueError,
                       lambda i: f"{side} vector residual {r[i]:.3e} exceeds tolerance")


@dataclass(frozen=True)
class AntiunitaryOperator:
    """Anti-linear map v -> matrix_part @ conj(v), over stacks as well."""

    matrix_part: np.ndarray

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return _mv(self.matrix_part, np.conj(np.asarray(v, dtype=complex)))


def extract_degenerate_subspace(H, lambda0=None) -> DegenerateSubspace:
    """Locate a twofold degenerate eigenvalue of H and return its subspace.

    In (Re, Im) order, neighbouring eigenvalues closer than
    ``_CLUSTER_TOL * norm(H)`` chain into one cluster; exactly one cluster
    of size two must exist (near ``lambda0``, if given), and it is used.
    The pair is re-biorthogonalized through its 2x2 Gram system, since a
    dense solver returns an arbitrary mixture for exactly equal
    eigenvalues.  Raises for input that ``eigensystem_n`` flags defective;
    no separate Gram check is made, as a pair whose Gram matrix nears
    singular is flagged there first.  H may be a stack ``(..., n, n)``,
    with ``lambda0`` one value or one per matrix; a stack raises if any of
    its matrices would.
    """
    H = np.asarray(H, dtype=complex)
    es = eigensystem_n(H)
    _check(es.defective, ValueError,
           lambda i: "eigensystem is defective: no biorthogonal basis")
    lam = es.eigenvalues
    scale = np.maximum(1.0, _fro(H))
    radius = _CLUSTER_TOL * scale

    # sorted neighbours closer than the radius chain into one cluster; a
    # twofold cluster is a close pair whose outer neighbours are not close
    close = _abs(np.diff(lam, axis=-1)) < radius[..., None]
    apart = ~np.pad(close, [(0, 0)] * (close.ndim - 1) + [(1, 1)])
    pair = close & apart[..., :-2] & apart[..., 2:]
    if lambda0 is not None:
        near = np.maximum(radius, 1e-6 * scale)
        pair &= _abs(lam[..., :-1] - np.asarray(lambda0)[..., None]) < near[..., None]
    n_pairs = pair.sum(axis=-1)
    _check(n_pairs != 1, ValueError, lambda i: (
        f"expected exactly one twofold cluster, found {n_pairs[i]} "
        f"(eigenvalues {lam[i]!r})"))
    if not n_pairs.size:
        # an empty stack has no pair to take, whatever the size of its matrices
        empty = np.zeros(H.shape[:-1], complex)
        return DegenerateSubspace(np.zeros(H.shape[:-2], complex), empty, empty, empty, empty)
    cols = np.argmax(pair, axis=-1)[..., None] + np.arange(2)
    # orthonormalize the right pair (a free gauge on an exact eigenspace);
    # Hermitian inputs then reduce to psi_L = psi_R identically
    R = np.linalg.qr(_take_columns(es.right, cols))[0]
    L = _take_columns(es.left, cols)
    L = L @ _adjoint(np.linalg.inv(_adjoint(L) @ R))
    lam0 = _item(np.take_along_axis(lam, cols, -1).mean(axis=-1))
    sub = DegenerateSubspace(lam0, R[..., 0], R[..., 1], L[..., 0], L[..., 1])
    sub.validate(H)
    return sub


def _pair_matrix(v1, v2):
    return _outer(v1, v2) - _outer(v2, v1)


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
    scale = np.maximum(1.0, _fro(H))
    r_r = _fro(H @ ar - ar @ H.swapaxes(-1, -2)) / scale
    r_l = _fro(al @ np.conj(H) - _adjoint(H) @ al) / scale
    return {"right_residual": _item(r_r), "left_residual": _item(r_l)}


def verify_swap_action(sub: DegenerateSubspace, ur: AntiunitaryOperator,
                       ul: AntiunitaryOperator) -> dict:
    """Residuals of the four swap identities on the degenerate pair.

    Y_R maps l2 -> r1 and l1 -> -r2; Y_L maps r2 -> l1 and r1 -> -l2.
    """
    checks = {
        "ur_l2_to_r1": _norm(ur(sub.psi_l2) - sub.psi_r1),
        "ur_l1_to_minus_r2": _norm(ur(sub.psi_l1) + sub.psi_r2),
        "ul_r2_to_l1": _norm(ul(sub.psi_r2) - sub.psi_l1),
        "ul_r1_to_minus_l2": _norm(ul(sub.psi_r1) + sub.psi_l2),
    }
    out = {k: _item(v) for k, v in checks.items()}
    out["max_residual"] = _worst(checks.values())
    return out


def verify_orthogonality(sub: DegenerateSubspace, ur: AntiunitaryOperator,
                         ul: AntiunitaryOperator) -> dict:
    """The overlaps <l1|Y_R l1> and <r1|Y_L r1>, forced to zero by the pair."""
    o1 = _abs(np.vecdot(sub.psi_l1, ur(sub.psi_l1)))
    o2 = _abs(np.vecdot(sub.psi_r1, ul(sub.psi_r1)))
    return {"left_overlap": _item(o1), "right_overlap": _item(o2),
            "max_residual": _worst((o1, o2))}


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
    action = _worst([
        _norm(_mv(M_rl, sub.psi_r1) + sub.psi_r1),
        _norm(_mv(M_rl, sub.psi_r2) + sub.psi_r2),
        _norm(_mv(M_lr, sub.psi_l1) + sub.psi_l1),
        _norm(_mv(M_lr, sub.psi_l2) + sub.psi_l2),
    ])
    proj = _outer(sub.psi_r1, np.conj(sub.psi_l1)) + _outer(sub.psi_r2, np.conj(sub.psi_l2))
    out = {
        "subspace_action_residual": action,
        "projector_residual": _item(_fro(M_rl + proj)),
    }
    if sub.psi_r1.shape[-1] == 2:
        out["full_space_residual"] = _item(_fro(M_rl + np.eye(2)))
    return out


def verify_eigenvalue_preservation(H, sub: DegenerateSubspace,
                                   ur: AntiunitaryOperator):
    """Residual of H (Y_R l1) = lam0 (Y_R l1): the image stays degenerate."""
    H = np.asarray(H, dtype=complex)
    w = ur(sub.psi_l1)
    return _item(_norm(_mv(H, w) - np.asarray(sub.lambda0)[..., None] * w)
                 / np.maximum(1.0, _fro(H)))


# ---------------------------------------------------------------------------
# engineered test matrices

def _draw_until(rngs, draw, accept):
    """One ``draw(rng)`` per generator, each redrawn from its own generator
    until ``accept`` (applied to a stack of draws) holds for it."""
    out = np.stack([draw(rng) for rng in rngs])
    redraw = np.arange(len(rngs))
    while redraw.size:
        redraw = redraw[~accept(out[redraw], redraw)]
        for i in redraw:
            out[i] = draw(rngs[i])
    return out


def random_degenerate_hamiltonian(dim: int, seed, lambda0=0.5 + 0.5j,
                                  defective: bool = False) -> np.ndarray:
    """Random matrix with lambda0 exactly twice in its spectrum.

    H = S Lam S^{-1} with Lam holding lambda0 twice and dim-2 further
    eigenvalues that stay pairwise at least 0.1 apart and 0.1 away from
    lambda0; S is a random complex matrix resampled until cond(S) < 1e3.
    Deterministic for a fixed seed.  dim = 2 returns lambda0 * identity,
    the only non-defective twofold 2x2 degeneracy.  With ``defective`` the
    lambda0 block is a Jordan block instead (for negative testing).

    ``seed`` may be a sequence of seeds, and ``lambda0`` one value or one
    per seed; the result is then the stack ``(len(seed), dim, dim)``, whose
    entry i equals the matrix drawn for ``seed[i]`` alone bit for bit (each
    seed keeps its own generator; the cond(S) test and the products run on
    the whole stack).
    """
    dim = operator.index(dim)
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in [2, {MAX_DIM}], got {dim}")
    seeds = np.asarray(seed)
    lam0 = np.broadcast_to(np.asarray(lambda0, dtype=complex), seeds.shape)
    if dim == 2 and not defective:
        return lam0[..., None, None] * np.eye(2, dtype=complex)
    rngs = [np.random.default_rng(s) for s in seeds.ravel().tolist()]
    lam0 = lam0.reshape(-1, 1)

    def spread(others, idx):
        # every gap among lambda0 (once) and the others must reach 0.1
        allv = np.concatenate([lam0[idx], others], axis=1)
        gaps = np.abs(allv[:, :, None] - allv[:, None, :]) + np.eye(dim - 1) * 10
        return gaps.min(axis=(1, 2)) >= 0.1

    others = _draw_until(rngs, lambda rng: (rng.uniform(-2, 2, size=dim - 2)
                                            + 1j * rng.uniform(-2, 2, size=dim - 2)), spread)
    lam_block = np.zeros((len(rngs), dim, dim), dtype=complex)
    lam_block[:, np.arange(dim), np.arange(dim)] = np.concatenate([lam0, lam0, others], axis=1)
    if defective:
        lam_block[:, 0, 1] = 1.0
    S = _draw_until(rngs, lambda rng: (rng.normal(size=(dim, dim))
                                       + 1j * rng.normal(size=(dim, dim))),
                    lambda S, idx: np.linalg.cond(S) < 1e3)
    H = S @ lam_block @ np.linalg.inv(S)
    return H.reshape(seeds.shape + (dim, dim))


def theorem_report(H, lambda0=None) -> dict:
    """Run the full construction-and-verification pipeline on one matrix.

    Returns every residual of the intertwining, swap, orthogonality,
    product and eigenvalue-preservation checks, the residual that counts
    for each check (``max_residuals``) and the worst of those.  For a stack
    ``(..., n, n)`` every value is an array over the stack, whose entry i
    equals the report on ``H[i]`` alone bit for bit; the stack raises if
    any of its matrices would.
    """
    sub = extract_degenerate_subspace(H, lambda0=lambda0)
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
    report["max_residuals"] = {
        "intertwining": _worst(report["intertwining"].values()),
        "swap": report["swap"]["max_residual"],
        "orthogonality": report["orthogonality"]["max_residual"],
        "product": report["product"]["subspace_action_residual"],
        "eigenvalue_preservation": report["eigenvalue_preservation"],
    }
    report["max_residual"] = _worst(report["max_residuals"].values())
    return report


def run_ensemble(dims=(2, 3, 4, 5, 6, 7, 8), trials: int = 500, seed: int = 0,
                 bound: float = RESIDUAL_BOUND, inject_defective: bool = False) -> dict:
    """Verify the operator-pair construction over an engineered ensemble.

    Trial t draws a degenerate matrix of dimension ``dims[t % len(dims)]``
    from seed ``seed + t``, with lambda0 drawn from ``seed + 7919 t``.  The
    trials are verified as one stack per distinct dimension (one ``eig``
    call each); the matrices and residuals equal those of one trial at a
    time bit for bit.  If a stack raises, its trials are re-run one at a
    time, so every failure keeps its own trial number and message.
    Returns per-check maxima and a pass flag against ``bound`` (residuals
    are relative to |H|).  With ``inject_defective`` every matrix carries a
    Jordan block instead, and the report counts how many trials were
    correctly rejected.  Raises ``TypeError`` for a trial count or dimension
    that is not an integer, ``ValueError`` for fewer than one trial, no
    dimensions or a dimension outside [2, MAX_DIM] (``MAX_DIM`` = 64 bounds
    the generator), and for a bound that is not finite and positive.
    """
    dims, trials = tuple(map(operator.index, dims)), operator.index(trials)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not dims or min(dims) < 2 or max(dims) > MAX_DIM:
        raise ValueError(f"need one or more dimensions, each in [2, {MAX_DIM}], got {dims}")
    if not 0 < bound < np.inf:
        raise ValueError(f"bound must be finite and positive, got {bound!r}")
    worst = {"intertwining": 0.0, "swap": 0.0, "orthogonality": 0.0,
             "product": 0.0, "eigenvalue_preservation": 0.0}
    failures = []
    rejected = 0
    for dim in dict.fromkeys(dims[:trials]):
        group = [t for t in range(trials) if dims[t % len(dims)] == dim]
        lam0 = [complex(*np.random.default_rng(seed + 7919 * t).uniform(-1, 1, 2))
                for t in group]
        H = random_degenerate_hamiltonian(dim, [seed + t for t in group], lam0,
                                          defective=inject_defective)
        try:
            reports = [(group, theorem_report(H, lambda0=np.array(lam0)))]
        except (ValueError, RuntimeError):
            reports = []
            for trial, Ht, lt in zip(group, H, lam0):
                try:
                    reports.append(([trial], theorem_report(Ht, lambda0=lt)))
                except (ValueError, RuntimeError) as exc:
                    if inject_defective:
                        rejected += 1
                    else:
                        failures.append({"trial": trial, "dim": dim, "seed": seed + trial,
                                         "error": str(exc)})
        for batch, rep in reports:
            if inject_defective:
                failures.extend({"trial": t, "dim": dim, "seed": seed + t,
                                 "error": "defective input was not rejected"} for t in batch)
            else:
                for check, value in rep["max_residuals"].items():
                    worst[check] = max(worst[check], float(np.max(value)))
    failures.sort(key=lambda f: f["trial"])
    passed = not failures and (inject_defective or max(worst.values()) <= bound)
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
