"""Independent oracles shared by the test modules (scipy is a test extra)."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from nhdeg.model import _hop_list


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
