"""Brillouin-zone scans: discriminant fields, degeneracy finding, zero curves.

The discriminant eta(k) of the two-band Bloch matrix vanishes exactly at
spectral degeneracies.  This module samples eta on a uniform grid over the
square torus [-pi, pi)^2, seeds candidates from sign changes and from local
minima of |eta| (needed because non-defective touchings are even-order zeros
where neither component changes sign), refines every candidate with a damped
two-dimensional Newton iteration on (Re eta, Im eta), and classifies each
refined point as defective or non-defective.  Marching squares provides the
zero curves of Re eta, Im eta and of the band real/imaginary parts (the
r-Fermi and i-Fermi loci).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import coalescence
from .model import (ModelParams, _d_components, bloch_hamiltonian,
                    discriminant_function, dispersion)

__all__ = [
    "ScalarField",
    "DegeneracyPoint",
    "ScanResult",
    "ZeroCurve",
    "scan_discriminant",
    "find_degeneracies",
    "zero_curves",
    "fermi_curves",
    "fold_points",
    "NONDEFECTIVE_MATRIX_TOL",
    "DEFECTIVE_OVERLAP_FLOOR",
]

# classification thresholds (see DegeneracyPoint)
NONDEFECTIVE_MATRIX_TOL = 1e-8
DEFECTIVE_OVERLAP_FLOOR = 1.0 - 1e-6

_TWO_PI = 2.0 * np.pi


@dataclass
class ScalarField:
    """Samples of a scalar function on the uniform torus grid.

    ``values[iy, ix]`` corresponds to (kx[ix], ky[iy]); the grid covers
    [-pi, pi) half-open on both axes, row-major with ky as the outer index.
    """

    kx: np.ndarray
    ky: np.ndarray
    values: np.ndarray
    label: str = "eta"

    @property
    def nx(self) -> int:
        return len(self.kx)

    @property
    def ny(self) -> int:
        return len(self.ky)


@dataclass(frozen=True)
class DegeneracyPoint:
    """A refined momentum-space degeneracy with classification diagnostics.

    ``kind`` is 'nondefective' when the Bloch matrix is within
    ``NONDEFECTIVE_MATRIX_TOL * max(1, |h|)`` of lambda0 times the identity
    (the only diagonalizable 2x2 double degeneracy), 'defective' when the
    eigenvector overlap reaches ``DEFECTIVE_OVERLAP_FLOOR``, and
    'unresolved' otherwise (never expected; treated as an error by tests).
    """

    kx: float
    ky: float
    lambda0: complex
    kind: str
    eta_residual: float
    coalescence_overlap: float
    newton_iters: int


@dataclass
class ScanResult:
    """Outcome of a degeneracy scan; ``field`` is the sampled eta grid."""

    points: list
    n_candidates: int = 0
    n_dropped: int = 0
    field: ScalarField | None = None

    @property
    def nondefective(self):
        return [p for p in self.points if p.kind == "nondefective"]

    @property
    def defective(self):
        return [p for p in self.points if p.kind == "defective"]

    @property
    def unresolved(self):
        return [p for p in self.points if p.kind == "unresolved"]


@dataclass
class ZeroCurve:
    """Zero-level contours of a sampled real field.

    ``polylines`` is a list of (m, 2) arrays of (kx, ky) vertices; segments
    join exactly when they end on the same grid edge, so curves that touch
    at a grid point stay apart, and a closed loop repeats its first vertex.
    When the field vanishes identically on the grid, ``everywhere_zero`` is
    set and no polylines are extracted.  ``point_zeros`` lists isolated grid
    minima below the detection threshold that no contour passes through
    (even-order zeros such as non-defective touchings).
    """

    which: str
    polylines: list
    everywhere_zero: bool = False
    point_zeros: list = field(default_factory=list)


def _grid(nx: int, ny: int):
    kx = -np.pi + _TWO_PI * np.arange(nx) / nx
    ky = -np.pi + _TWO_PI * np.arange(ny) / ny
    return kx, ky


def scan_discriminant(p: ModelParams, nx: int = 501, ny: int = 501) -> ScalarField:
    """Sample the discriminant eta on an nx-by-ny grid over [-pi, pi)^2."""
    if nx < 16 or ny < 16:
        raise ValueError("need nx, ny >= 16")
    kx, ky = _grid(nx, ny)
    values = discriminant_function(p, kx[None, :], ky[:, None])
    return ScalarField(kx=kx, ky=ky, values=np.asarray(values, dtype=complex))


def _sign_change_cells(values: np.ndarray) -> np.ndarray:
    """Cells (iy, ix) whose corners change sign in Re and in Im (torus wrap)."""
    corners = np.stack([values,
                        np.roll(values, -1, axis=1),
                        np.roll(values, -1, axis=0),
                        np.roll(np.roll(values, -1, axis=0), -1, axis=1)])

    def changes(comp):
        return (comp.min(axis=0) <= 0.0) & (comp.max(axis=0) >= 0.0)

    mask = changes(corners.real) & changes(corners.imag)
    return np.argwhere(mask)


def _local_minima(absval: np.ndarray, threshold: float) -> np.ndarray:
    """Torus-wrapped 8-neighbor local minima of |eta| below the threshold."""
    m = np.ones_like(absval, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            m &= absval <= np.roll(np.roll(absval, dy, axis=0), dx, axis=1)
    return np.argwhere(m & (absval < threshold))


def _newton_refine(p: ModelParams, seeds: np.ndarray, tol: float,
                   max_iter: int = 80, fd_step: float = 1e-6):
    """Batched damped Newton on (Re eta, Im eta)(kx, ky).

    Central differences are exact for the locally quadratic zeros at
    non-defective touchings, so the iteration reaches machine-level |eta|
    even though the Jacobian degenerates at those roots.  Candidates keep
    polishing well below ``tol`` (classification compares the Bloch matrix
    against lambda0 times the identity, which needs the root itself, not
    just a small residual) and stop once no damped step improves |eta|.
    """
    k = seeds.astype(float).copy()
    iters = np.zeros(len(k), dtype=int)
    active = np.ones(len(k), dtype=bool)

    def eta_at(kk):
        return np.asarray(discriminant_function(p, kk[:, 0], kk[:, 1]), dtype=complex)

    f = eta_at(k)
    for _ in range(max_iter):
        active &= np.abs(f) > 1e-30
        if not active.any():
            break
        idx = np.where(active)[0]
        ka = k[idx]
        h = fd_step
        fx = (eta_at(ka + [[h, 0]]) - eta_at(ka - [[h, 0]])) / (2 * h)
        fy = (eta_at(ka + [[0, h]]) - eta_at(ka - [[0, h]])) / (2 * h)
        # solve the 2x2 real systems J d = -F in closed form
        a, b = fx.real, fy.real
        c, d = fx.imag, fy.imag
        det = a * d - b * c
        fr, fi = f[idx].real, f[idx].imag
        ok = np.abs(det) > 1e-300
        dx = np.where(ok, (-fr * d + fi * b) / np.where(ok, det, 1.0), 0.0)
        dy = np.where(ok, (-fi * a + fr * c) / np.where(ok, det, 1.0), 0.0)
        # gradient fallback for a singular Jacobian
        g2 = a * a + b * b + c * c + d * d
        gx = -(fr * a + fi * c) / np.where(g2 > 0, g2, 1.0)
        gy = -(fr * b + fi * d) / np.where(g2 > 0, g2, 1.0)
        dx = np.where(ok, dx, gx)
        dy = np.where(ok, dy, gy)
        step = np.clip(np.stack([dx, dy], axis=1), -0.5, 0.5)
        # damping: halve the step until |eta| does not increase
        knew = ka + step
        fnew = eta_at(knew)
        stuck = np.zeros(len(idx), dtype=bool)
        for _damp in range(12):
            worse = np.abs(fnew) > np.abs(f[idx])
            if not worse.any():
                break
            step[worse] *= 0.5
            knew = ka + step
            fnew = eta_at(knew)
        else:
            stuck = np.abs(fnew) > np.abs(f[idx])
        improve = ~stuck
        rows = idx[improve]
        k[rows] = knew[improve]
        f[rows] = fnew[improve]
        iters[rows] += 1
        # a candidate that cannot improve any further has converged or failed
        active[idx[stuck]] = False
    converged = np.abs(f) <= tol
    # stalled candidates may sit at a tangential intersection of the Re/Im
    # zero curves, where the 2D Newton degenerates; non-defective touchings
    # have all Pauli components vanishing linearly there, so a Gauss-Newton
    # polish on (dx, dy, dz) recovers quadratic convergence
    for i in np.where(~converged)[0]:
        kk, ff, extra = _polish_dvec(p, k[i], tol)
        if ff <= tol:
            k[i], iters[i], converged[i] = kk, iters[i] + extra, True
            f[i] = ff
    return k, np.abs(f), iters, converged


def _polish_dvec(p: ModelParams, k0, tol, max_iter: int = 25, fd_step: float = 1e-7):
    """Gauss-Newton on the three Pauli components (six real equations)."""
    k = np.asarray(k0, dtype=float).copy()

    def dvec(kk):
        _, dx, dy, dz = _d_components(p, kk[0], kk[1])
        return np.array([dx.real, dx.imag, dy.real, dy.imag, dz.real, dz.imag])

    def eta_abs(kk):
        return abs(complex(discriminant_function(p, kk[0], kk[1])))

    best_k, best_eta = k.copy(), eta_abs(k)
    for it in range(max_iter):
        F = dvec(k)
        h = fd_step
        Jx = (dvec(k + [h, 0]) - dvec(k - [h, 0])) / (2 * h)
        Jy = (dvec(k + [0, h]) - dvec(k - [0, h])) / (2 * h)
        J = np.column_stack([Jx, Jy])
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        k = k + np.clip(step, -0.2, 0.2)
        eta = eta_abs(k)
        if eta < best_eta:
            best_k, best_eta = k.copy(), eta
        if best_eta <= tol * 1e-4 or np.linalg.norm(step) < 1e-15:
            break
    return best_k, best_eta, it + 1


def _wrap(k):
    return (k + np.pi) % _TWO_PI - np.pi


def _torus_dist(a, b):
    d = np.abs(_wrap(a - b))
    return np.hypot(d[..., 0], d[..., 1])


def _dedup(points: np.ndarray, radius: float):
    keep = []
    for i in range(len(points)):
        if all(_torus_dist(points[i], points[j]) > radius for j in keep):
            keep.append(i)
    return keep


def find_degeneracies(p: ModelParams, nx: int = 501, ny: int = 501,
                      tol: float = 1e-13, seed_threshold: float = 1e-2,
                      dedup_radius: float = 1e-4, fold: bool = False) -> ScanResult:
    """Locate and classify all degeneracies of the Bloch matrix.

    Grid candidates come from simultaneous Re/Im sign-change cells and from
    local minima of |eta| below ``seed_threshold``; each candidate is
    Newton-refined until |eta| <= tol (non-converged candidates are dropped
    and counted).  Refined points are deduplicated on the torus within
    ``dedup_radius``, classified, and sorted by (kx, ky).  With ``fold``,
    points equivalent under the reduced-zone shift (pi, pi) are merged.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    fld = scan_discriminant(p, nx, ny)
    cells = _sign_change_cells(fld.values)
    minima = _local_minima(np.abs(fld.values), seed_threshold)
    dkx, dky = _TWO_PI / nx, _TWO_PI / ny

    seeds = []
    for iy, ix in cells:
        seeds.append((fld.kx[ix] + 0.5 * dkx, fld.ky[iy] + 0.5 * dky))
    for iy, ix in minima:
        seeds.append((fld.kx[ix], fld.ky[iy]))
    if not seeds:
        return ScanResult(points=[], n_candidates=0, n_dropped=0, field=fld)
    seeds = np.asarray(seeds)

    refined, absf, iters, converged = _newton_refine(p, seeds, tol)
    n_dropped = int((~converged).sum())
    refined = _wrap(refined[converged])
    absf = absf[converged]
    iters = iters[converged]

    keep = _dedup(refined, dedup_radius)
    points = []
    for i in keep:
        kx, ky = float(refined[i, 0]), float(refined[i, 1])
        h = bloch_hamiltonian(p, kx, ky)
        lam0 = complex(np.trace(h) / 2.0)
        scale = max(1.0, float(np.linalg.norm(h)))
        if np.linalg.norm(h - lam0 * np.eye(2)) <= NONDEFECTIVE_MATRIX_TOL * scale:
            kind, overlap = "nondefective", 0.0
        else:
            overlap = coalescence(h).overlap
            kind = "defective" if overlap >= DEFECTIVE_OVERLAP_FLOOR else "unresolved"
        points.append(DegeneracyPoint(kx=kx, ky=ky, lambda0=lam0, kind=kind,
                                      eta_residual=float(absf[i]),
                                      coalescence_overlap=float(overlap),
                                      newton_iters=int(iters[i])))
    if fold:
        points = fold_points(points, dedup_radius)
    points.sort(key=lambda q: (q.kx, q.ky))
    return ScanResult(points=points, n_candidates=len(seeds), n_dropped=n_dropped,
                      field=fld)


def fold_points(points, radius: float = 1e-4):
    """Merge degeneracy points equivalent under the (pi, pi) zone folding."""
    kept = []
    for q in points:
        partner = np.array([_wrap(np.array([q.kx + np.pi, q.ky + np.pi]))])
        dup = any(_torus_dist(partner[0], np.array([r.kx, r.ky])) < radius
                  or _torus_dist(np.array([q.kx, q.ky]), np.array([r.kx, r.ky])) < radius
                  for r in kept)
        if not dup:
            kept.append(q)
    return kept


# ---------------------------------------------------------------------------
# marching squares

_SEGMENT_TABLE = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
    5: [(3, 0), (1, 2)], 10: [(0, 1), (2, 3)],
}
# the table as a (16, 2, 2) array; only the saddles 5 and 10 use the second row
_SEGMENTS = np.array([(_SEGMENT_TABLE.get(c, [(0, 0)]) * 2)[:2] for c in range(16)])
# corner b of a cell sits at (ix + _CORNER_DX[b], iy + _CORNER_DY[b]); edge e
# joins corners e and (e + 1) % 4 and runs right or up from corner _EDGE_BASE[e]
_CORNER_DX, _CORNER_DY = np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])
_EDGE_BASE = np.array([0, 1, 3, 0])


def _marching_squares(kx, ky, values, zero_tol):
    """Zero-level segments with linear edge interpolation (non-wrapping).

    Returns the (m, 2, 2) segment endpoints in row-major cell order and the
    (m, 2) ids of the grid edges they lie on; only the cells whose corners
    straddle ``zero_tol`` are interpolated.
    """
    ny, nx = values.shape
    above = (values > zero_tol).astype(np.uint8)
    code = (above[:-1, :-1] | above[:-1, 1:] << 1
            | above[1:, 1:] << 2 | above[1:, :-1] << 3)
    iy, ix = np.nonzero((code != 0) & (code != 15))
    code = code[iy, ix]
    c = values[iy[:, None] + _CORNER_DY, ix[:, None] + _CORNER_DX]
    # saddle: disambiguate with the cell-center average
    center = (c[:, 0] + c[:, 1] + c[:, 2] + c[:, 3]) / 4.0
    saddle = (code == 5) | (code == 10)
    code = np.where(saddle, np.where(center > zero_tol, 5, 10), code)
    cell = np.repeat(np.arange(len(code)), 1 + saddle)
    second = (np.diff(cell, prepend=-1) == 0).astype(int)  # a saddle's second segment
    e = _SEGMENTS[code[cell], second]
    a, b = e, (e + 1) % 4
    va, vb = c[cell[:, None], a], c[cell[:, None], b]
    same = va == vb
    frac = np.where(same, 0.5, va / np.where(same, 1.0, va - vb))
    frac = np.minimum(np.maximum(frac, 0.0), 1.0)
    jy, jx = iy[cell][:, None], ix[cell][:, None]
    xa, xb = kx[jx + _CORNER_DX[a]], kx[jx + _CORNER_DX[b]]
    ya, yb = ky[jy + _CORNER_DY[a]], ky[jy + _CORNER_DY[b]]
    points = np.stack([xa + frac * (xb - xa), ya + frac * (yb - ya)], axis=-1)
    base = _EDGE_BASE[e]
    edges = 2 * ((jy + _CORNER_DY[base]) * nx + jx + _CORNER_DX[base]) + e % 2
    return points, edges


def _stitch(points, edges):
    """Chain segments that end on the same grid edge into polylines.

    A grid edge carries at most two segment ends, one from each cell beside
    it, so one sort of the edge ids pairs every end with its mate.  Open
    chains are walked from a free end, closed loops from their first segment.
    """
    ends = edges.ravel()  # end j of segment s is 2 * s + j
    order = np.argsort(ends, kind="stable")
    pair = ends[order[1:]] == ends[order[:-1]]
    mate = np.full(len(ends), -1)
    mate[order[1:][pair]] = order[:-1][pair]
    mate[order[:-1][pair]] = order[1:][pair]
    starts = np.flatnonzero(mate < 0).tolist() + list(range(0, len(ends), 2))
    mate = mate.tolist()
    seen = [False] * len(points)
    vertices = points.reshape(-1, 2)
    polylines = []
    for start in starts:
        if seen[start // 2]:
            continue
        chain, end = [start], start
        while end >= 0 and not seen[end // 2]:
            seen[end // 2] = True
            chain.append(end ^ 1)
            end = mate[end ^ 1]
        if end >= 0:  # closed loop: its last end shares the first's edge
            chain[-1] = start
        polylines.append(vertices[chain])
    return polylines


def zero_curves(fld: ScalarField, which: str, zero_tol: float = 0.0) -> ZeroCurve:
    """Extract the zero-level contours of one real component of a field.

    ``which`` selects 'Re_eta' or 'Im_eta' for a complex discriminant field
    (or 'field' for an already real field).  Identically vanishing fields
    are reported through ``everywhere_zero`` instead of polylines.
    """
    if which in ("Re_eta", "field"):
        comp = fld.values.real
    elif which == "Im_eta":
        comp = fld.values.imag
    else:
        raise ValueError(f"unknown component {which!r}")
    scale = float(np.abs(comp).max())
    if scale < 1e-12:
        return ZeroCurve(which=which, polylines=[], everywhere_zero=True)
    # append the wrapped first column and row so the cells that straddle the
    # seam are traced too; a curve that crosses the seam stays split there
    kx, ky = np.append(fld.kx, np.pi), np.append(fld.ky, np.pi)
    comp_ext = np.pad(comp, ((0, 1), (0, 1)), mode="wrap")
    polylines = _stitch(*_marching_squares(kx, ky, comp_ext, zero_tol))
    dk = max(fld.kx[1] - fld.kx[0], fld.ky[1] - fld.ky[0])
    # isolated even-order zeros leave no sign change; report the grid minima
    # at least two cells away from every traced vertex
    iy, ix = _local_minima(np.abs(comp), threshold=1e-6 * max(1.0, scale)).T
    if polylines:
        keep = ~_near_vertex_nodes(fld.kx, fld.ky, np.vstack(polylines), 2 * dk)[iy, ix]
        iy, ix = iy[keep], ix[keep]
    pts = np.column_stack([fld.kx[ix], fld.ky[iy]])
    return ZeroCurve(which=which, polylines=polylines,
                     point_zeros=[tuple(q) for q in pts.tolist()])


def _near_vertex_nodes(kx, ky, vertices, radius):
    """Mask of the grid nodes closer than ``radius`` (planar) to a vertex.

    Each vertex is binned to its grid cell and only the nodes within
    ceil(radius / dk) + 1 cells of it are measured, one window offset at a
    time, so time and memory are linear in the number of vertices.
    """
    dkx, dky = kx[1] - kx[0], ky[1] - ky[0]
    wx, wy = int(np.ceil(radius / dkx)) + 1, int(np.ceil(radius / dky)) + 1
    vx, vy = vertices[:, 0], vertices[:, 1]
    cx = np.floor((vx - kx[0]) / dkx).astype(int)
    cy = np.floor((vy - ky[0]) / dky).astype(int)
    mask = np.zeros((len(ky), len(kx)), dtype=bool)
    for oy in range(-wy, wy + 1):
        for ox in range(-wx, wx + 1):
            jx, jy = cx + ox, cy + oy
            inside = (jx >= 0) & (jx < len(kx)) & (jy >= 0) & (jy < len(ky))
            jx, jy = jx[inside], jy[inside]
            dx, dy = vx[inside] - kx[jx], vy[inside] - ky[jy]
            near = np.sqrt(dx * dx + dy * dy) < radius
            mask[jy[near], jx[near]] = True
    return mask


def fermi_curves(p: ModelParams, nx: int = 301, ny: int = 301,
                 which: str = "re", band: str = "+") -> ZeroCurve:
    """Zero curves of the real or imaginary part of one band.

    ``which`` in {'re', 'im'}; ``band`` in {'+', '-'} selects the branch of
    (tr +- sqrt(eta))/2.  An identically vanishing component (for example
    Im eps of a Hermitian model) is flagged, not traced.
    """
    if which not in ("re", "im"):
        raise ValueError(f"which must be 're' or 'im', got {which!r}")
    if band not in ("+", "-"):
        raise ValueError(f"band must be '+' or '-', got {band!r}")
    kx, ky = _grid(nx, ny)
    plus, minus = dispersion(p, kx[None, :], ky[:, None])
    eps = plus if band == "+" else minus
    comp = eps.real if which == "re" else eps.imag
    fld = ScalarField(kx=kx, ky=ky, values=comp.astype(complex),
                      label=f"{which}_eps_{band}")
    curve = zero_curves(fld, "field")
    curve.which = f"{'Re' if which == 're' else 'Im'}_energy"
    return curve
