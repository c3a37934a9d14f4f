"""Independent oracles shared by the test modules (scipy is a test extra)."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from nhdeg import theorem
from nhdeg.model import _hop_list, _k_grid, bloch_hamiltonian, phase_boundaries
from nhdeg.serialize import FORMAT
from nhdeg.symmetry import (_TIE_RTOL, HOLD_TOL, SymmetryReport, _momentum_action,
                            apply_parameter_map)


def match_eigenvalue_multisets(a, b) -> float:
    """Max pairing distance between two equally sized eigenvalue multisets."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ValueError(f"multiset sizes differ: {a.shape} vs {b.shape}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def weyl_dispersion(p, kx, ky):
    """Nearest-neighbor-only dispersion in the cosh form.

    Requires t1 = ga = gb = v = mu = 0 (pure nearest-neighbor model); the
    two bands are +-t*sqrt(f e^phi + f e^-phi + 2(cos 2kx + cos 2ky + 2))
    with phi = 2i*gamma + gx - gy and f = 4 cos(kx) cos(ky).
    """
    for name in ("t1", "ga", "gb", "v", "mu_a", "mu_b"):
        if getattr(p, name) != 0.0:
            raise ValueError(
                f"weyl_dispersion requires {name} = 0, got {getattr(p, name)}")
    phi = 2j * p.gamma + p.gx - p.gy
    f = 4.0 * np.cos(kx) * np.cos(ky)
    radicand = (f * np.exp(phi) + f * np.exp(-phi)
                + 2.0 * (np.cos(2 * np.asarray(kx, dtype=float))
                         + np.cos(2 * np.asarray(ky, dtype=float)) + 2.0))
    root = p.t * np.sqrt(radicand.astype(complex))
    return root, -root


def real_space_hamiltonian_loops(p, nx, ny, bc=("periodic", "periodic"),
                                 transverse_k=None):
    """Per-cell loop form of ``model.real_space_hamiltonian`` (byte oracle).

    Ribbons (``transverse_k`` given) and tori/cylinders take separate
    loops; every matrix element is summed in hop order, as in the package.
    """
    for axis in bc:
        if axis not in ("periodic", "open"):
            raise ValueError(f"invalid boundary condition {axis!r}")
    hops = _hop_list(p)
    if transverse_k is not None:
        n_open = sum(1 for axis in bc if axis == "open")
        if n_open != 1:
            raise ValueError(
                "transverse_k requires exactly one open axis, got bc={}".format(bc))
        open_axis = "x" if bc[0] == "open" else "y"
        n = nx if open_axis == "x" else ny
        if n < 2:
            raise ValueError("ribbon needs at least 2 cells on the open axis")
        H = np.zeros((2 * n, 2 * n), dtype=complex)
        for r, c, dx, dy, amp in hops:
            d_open, d_bloch = (dx, dy) if open_axis == "x" else (dy, dx)
            phase = np.exp(-1j * transverse_k * d_bloch)
            for j in range(n):
                jc = j + d_open
                if 0 <= jc < n:
                    H[r * n + j, c * n + jc] += amp * phase
        return H

    if nx < 2 or ny < 2:
        raise ValueError("need nx, ny >= 2")
    ncell = nx * ny
    H = np.zeros((2 * ncell, 2 * ncell), dtype=complex)
    for r, c, dx, dy, amp in hops:
        for ix in range(nx):
            jx = ix + dx
            if bc[0] == "periodic":
                jx %= nx
            elif not (0 <= jx < nx):
                continue
            for iy in range(ny):
                jy = iy + dy
                if bc[1] == "periodic":
                    jy %= ny
                elif not (0 <= jy < ny):
                    continue
                H[r * ncell + iy * nx + ix, c * ncell + jy * nx + jx] += amp
    return H


def operator_matrix_loops(spec, p, nx, ny):
    """Per-cell loop form of ``symmetry._operator_matrix`` (byte oracle).

    Builds the one-cell x translation P, the y mirror R and the site-phase
    diagonal D as separate matrices and returns D (R P on each sublattice
    block, swapped).
    """
    ncell = nx * ny
    idx = lambda ix, iy: (iy % ny) * nx + (ix % nx)
    P = np.zeros((ncell, ncell))
    for ix in range(nx):
        for iy in range(ny):
            P[idx(ix + 1, iy), idx(ix, iy)] = 1.0
    if spec.reflect_y:
        R = np.zeros((ncell, ncell))
        for ix in range(nx):
            for iy in range(ny):
                R[idx(ix, -iy), idx(ix, iy)] = 1.0
        P = R @ P
    A = np.zeros((2 * ncell, 2 * ncell), dtype=complex)
    A[:ncell, ncell:] = P
    A[ncell:, :ncell] = P
    if spec.site_phase:
        phase = np.empty(ncell, dtype=complex)
        for ix in range(nx):
            for iy in range(ny):
                phase[idx(ix, iy)] = np.exp(2j * p.gamma * (iy - ix))
        D = np.concatenate([phase, phase * np.exp(-2j * p.gamma)])
        A = np.diag(D) @ A
    return A


def run_ensemble_loop(dims=(2, 3, 4, 5, 6, 7, 8), trials=500, seed=0, bound=1e-9,
                      inject_defective=False):
    """One-trial-at-a-time form of ``theorem.run_ensemble`` (byte oracle).

    Draws, verifies and folds each trial in turn through the single-matrix
    calls of ``random_degenerate_hamiltonian`` and ``theorem_report``, read
    from the module at call time so that a test can patch them.
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
        H = theorem.random_degenerate_hamiltonian(dim, seed + trial, lam0,
                                                  defective=inject_defective)
        try:
            rep = theorem.theorem_report(H, lambda0=lam0)
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
        for check, value in rep["max_residuals"].items():
            worst[check] = max(worst[check], value)
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


def theorem_residuals_loop(H, sub, ur, ul):
    """The verify_* residuals of one matrix in their single-matrix numpy form.

    Byte oracle for the stack-aware ``theorem.verify_*`` functions on one
    matrix: np.linalg.norm of 1-d and 2-d arrays, np.vdot and Python abs.
    """
    ar, al = ur.matrix_part, ul.matrix_part
    scale = max(1.0, float(np.linalg.norm(H)))
    swap = [np.linalg.norm(ar @ np.conj(sub.psi_l2) - sub.psi_r1),
            np.linalg.norm(ar @ np.conj(sub.psi_l1) + sub.psi_r2),
            np.linalg.norm(al @ np.conj(sub.psi_r2) - sub.psi_l1),
            np.linalg.norm(al @ np.conj(sub.psi_r1) + sub.psi_l2)]
    m_rl, m_lr = ar @ np.conj(al), al @ np.conj(ar)
    proj = (np.outer(sub.psi_r1, np.conj(sub.psi_l1))
            + np.outer(sub.psi_r2, np.conj(sub.psi_l2)))
    w = ar @ np.conj(sub.psi_l1)
    return {
        "right_residual": float(np.linalg.norm(H @ ar - ar @ H.T) / scale),
        "left_residual": float(np.linalg.norm(al @ np.conj(H) - H.conj().T @ al) / scale),
        "swap": float(max(swap)),
        "left_overlap": float(abs(np.vdot(sub.psi_l1, ar @ np.conj(sub.psi_l1)))),
        "right_overlap": float(abs(np.vdot(sub.psi_r1, al @ np.conj(sub.psi_r1)))),
        "subspace_action_residual": float(max(
            np.linalg.norm(m_rl @ sub.psi_r1 + sub.psi_r1),
            np.linalg.norm(m_rl @ sub.psi_r2 + sub.psi_r2),
            np.linalg.norm(m_lr @ sub.psi_l1 + sub.psi_l1),
            np.linalg.norm(m_lr @ sub.psi_l2 + sub.psi_l2))),
        "projector_residual": float(np.linalg.norm(m_rl + proj)),
        "eigenvalue_preservation": float(np.linalg.norm(H @ w - sub.lambda0 * w)
                                         / max(1.0, np.linalg.norm(H))),
    }


def spinor_part(spec, p):
    """The spinor part W of the spec's matrix part as a 2x2 matrix."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if spec.site_phase:
        return np.diag([1.0, np.exp(-2j * p.gamma)]) @ sx
    return sx


def check_bloch_matmul(p, spec, nx=32, ny=32):
    """``symmetry.check_bloch`` with W applied as stacked (nx, ny, 2, 2) @ (2, 2) products.

    Reference for the swap-and-scale form: the same grid, relations, tie
    rule and scale.  Where W is complex its products round differently
    from the package's, so residuals agree to rounding only.
    """
    W = spinor_part(spec, p)
    pp = apply_parameter_map(spec, p)
    kxs, kys = _k_grid(nx), _k_grid(ny)
    kx, ky = kxs[:, None], kys[None, :]
    h_a = bloch_hamiltonian(p, *_momentum_action(spec, p, kx, ky))
    h_t = bloch_hamiltonian(pp, -kx, -ky)
    r_r = np.linalg.norm(h_a @ W - W @ h_t.swapaxes(-1, -2), axis=(-2, -1))
    r_l = np.linalg.norm(W @ h_t.conj() - h_a.conj().swapaxes(-1, -2) @ W, axis=(-2, -1))
    r = np.maximum(r_r, r_l)
    worst = np.unravel_index(np.argmax(r >= r.max() * (1 - _TIE_RTOL)), r.shape)
    best = np.unravel_index(np.argmax(r <= r.min() * (1 + _TIE_RTOL)), r.shape)
    scale = max(float(np.linalg.norm(h_a, axis=(-2, -1)).max()), 1.0)
    return SymmetryReport(
        spec=spec.name,
        right_residual=float(r_r[worst] / scale),
        left_residual=float(r_l[worst] / scale),
        worst_k=(float(kxs[worst[0]]), float(kys[worst[1]])),
        min_residual=float(r[best] / scale),
        min_k=(float(kxs[best[0]]), float(kys[best[1]])),
        holds=bool(r[worst] / scale < HOLD_TOL),
    )


def phases_csv_loop(p, v_min, v_max, v_steps, g_min, g_max, g_steps, tol):
    """Point-by-point form of ``nhdeg phases`` (byte oracle): the text of phases.csv.

    Rebuilds the parameters at every (g, v) point, which checks them, and
    labels the point with the scalar regime guard and rule.
    """
    v_values = np.linspace(v_min, v_max, v_steps)
    g_values = np.linspace(g_min, g_max, g_steps)
    lines = [f"# format={FORMAT}\n", "g,v,v1,v2,phase\n"]
    for g in g_values:
        pg = p.replace(ga=float(g), gb=float(g))
        v1, v2 = phase_boundaries(pg)
        for v in v_values:
            q = pg.replace(v=float(v))
            if not (0.0 < q.gamma < np.pi / 2):
                raise ValueError(f"phase_classify requires 0 < gamma < pi/2, got {q.gamma}")
            if q.gx != 0.0 or q.gy != 0.0:
                raise ValueError("phase_classify requires gx = gy = 0")
            if min(abs(q.v - v1), abs(q.v - v2)) < tol:
                label = "boundary_gapless"
            elif min(v1, v2) < q.v < max(v1, v2):
                label = "topological_insulator"
            else:
                label = "band_insulator"
            lines.append(f"{float(g)!r},{float(v)!r},{float(v1)!r},{float(v2)!r},{label}\n")
    return "".join(lines)


def near_vertex_nodes_loops(kx, ky, vertices, radius):
    """One-window-offset-at-a-time form of ``scanner._near_vertex_nodes`` (byte oracle).

    Each window node is measured at its nearest image: on each axis, the
    least distance over its images shifted by -2 pi, 0 and 2 pi.
    """
    dkx, dky = kx[1] - kx[0], ky[1] - ky[0]
    wx, wy = int(np.ceil(radius / dkx)) + 1, int(np.ceil(radius / dky)) + 1
    vx, vy = vertices[:, 0], vertices[:, 1]
    cx = np.floor((vx - kx[0]) / dkx).astype(int)
    cy = np.floor((vy - ky[0]) / dky).astype(int)
    def nearest(v, k):
        below, above = np.abs(v - (k - 2 * np.pi)), np.abs(v - (k + 2 * np.pi))
        return np.minimum(np.abs(v - k), np.minimum(below, above))

    mask = np.zeros((len(ky), len(kx)), dtype=bool)
    for oy in range(-wy, wy + 1):
        for ox in range(-wx, wx + 1):
            jx, jy = (cx + ox) % len(kx), (cy + oy) % len(ky)
            dx, dy = nearest(vx, kx[jx]), nearest(vy, ky[jy])
            near = np.sqrt(dx * dx + dy * dy) < radius
            mask[jy[near], jx[near]] = True
    return mask


def local_minima_rolls(absval, threshold):
    """Sixteen-roll form of ``scanner._local_minima`` (byte oracle)."""
    m = np.ones_like(absval, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            m &= absval <= np.roll(np.roll(absval, dy, axis=0), dx, axis=1)
    return np.argwhere(m & (absval < threshold))


def sign_change_cells_stacked(values):
    """Stacked-corner form of ``scanner._sign_change_cells`` (byte oracle)."""
    corners = np.stack([values,
                        np.roll(values, -1, axis=1),
                        np.roll(values, -1, axis=0),
                        np.roll(np.roll(values, -1, axis=0), -1, axis=1)])

    def changes(comp):
        return (comp.min(axis=0) <= 0.0) & (comp.max(axis=0) >= 0.0)

    return np.argwhere(changes(corners.real) & changes(corners.imag))
