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
    """Outcome of a degeneracy scan."""

    points: list
    n_candidates: int = 0
    n_dropped: int = 0

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

    ``polylines`` is a list of (m, 2) arrays of (kx, ky) vertices.  When the
    field vanishes identically on the grid, ``everywhere_zero`` is set and
    no polylines are extracted.  ``point_zeros`` lists isolated grid minima
    below the detection threshold that no contour passes through (even-order
    zeros such as non-defective touchings).
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
        return ScanResult(points=[], n_candidates=0, n_dropped=0)
    seeds = np.asarray(seeds)

    refined, absf, iters, converged = _newton_refine(p, seeds, tol)
    n_dropped = int((~converged).sum())
    refined = _wrap(refined[converged])
    absf = absf[converged]
    iters = iters[converged]
    if len(refined) == 0:
        return ScanResult(points=[], n_candidates=len(seeds), n_dropped=n_dropped)

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
    return ScanResult(points=points, n_candidates=len(seeds), n_dropped=n_dropped)


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


def _marching_squares(kx, ky, values, zero_tol):
    """Zero-level segments with linear edge interpolation (non-wrapping)."""
    ny, nx = values.shape
    segments = []
    v = values
    for iy in range(ny - 1):
        for ix in range(nx - 1):
            corners = (v[iy, ix], v[iy, ix + 1], v[iy + 1, ix + 1], v[iy + 1, ix])
            xs = (kx[ix], kx[ix + 1], kx[ix + 1], kx[ix])
            ys = (ky[iy], ky[iy], ky[iy + 1], ky[iy + 1])
            code = 0
            for b, c in enumerate(corners):
                if c > zero_tol:
                    code |= 1 << b
            if code in (0, 15):
                continue
            if code in (5, 10):
                # saddle: disambiguate with the cell-center average
                center = sum(corners) / 4.0
                if (code == 5) == (center > zero_tol):
                    code = {5: 5, 10: 10}[code]
                else:
                    code = {5: 10, 10: 5}[code]

            def edge_point(e):
                a, b_ = e, (e + 1) % 4
                va, vb = corners[a], corners[b_]
                if va == vb:
                    frac = 0.5
                else:
                    frac = va / (va - vb)
                frac = min(max(frac, 0.0), 1.0)
                return (xs[a] + frac * (xs[b_] - xs[a]),
                        ys[a] + frac * (ys[b_] - ys[a]))

            for e1, e2 in _SEGMENT_TABLE[code]:
                segments.append((edge_point(e1), edge_point(e2)))
    return segments


def _stitch(segments, tol):
    """Chain segments that share endpoints into polylines."""
    segs = [list(s) for s in segments]
    polylines = []
    while segs:
        chain = segs.pop()
        grown = True
        while grown:
            grown = False
            for i, s in enumerate(segs):
                for end, attach in ((chain[-1], "tail"), (chain[0], "head")):
                    hit = None
                    if np.hypot(s[0][0] - end[0], s[0][1] - end[1]) < tol:
                        hit = s[1]
                    elif np.hypot(s[1][0] - end[0], s[1][1] - end[1]) < tol:
                        hit = s[0]
                    if hit is not None:
                        if attach == "tail":
                            chain.append(hit)
                        else:
                            chain.insert(0, hit)
                        segs.pop(i)
                        grown = True
                        break
                if grown:
                    break
        polylines.append(np.asarray(chain))
    return polylines


def zero_curves(fld: ScalarField, which: str, zero_tol: float = 0.0) -> ZeroCurve:
    """Extract the zero-level contours of one real component of a field.

    ``which`` selects 'Re_eta' or 'Im_eta' for a complex discriminant field
    (or 'field' for an already real field).  Identically vanishing fields
    are reported through ``everywhere_zero`` instead of polylines.
    """
    if which == "Re_eta":
        comp = fld.values.real
    elif which == "Im_eta":
        comp = fld.values.imag
    elif which == "field":
        comp = fld.values.real
    else:
        raise ValueError(f"unknown component {which!r}")
    scale = float(np.abs(comp).max())
    if scale < 1e-12:
        return ZeroCurve(which=which, polylines=[], everywhere_zero=True)
    # append the wrapped first column and row so seam-crossing contours close
    kx_ext = np.append(fld.kx, np.pi)
    ky_ext = np.append(fld.ky, np.pi)
    comp_ext = np.pad(comp, ((0, 1), (0, 1)), mode="wrap")
    segments = _marching_squares(kx_ext, ky_ext, comp_ext, zero_tol)
    dk = max(fld.kx[1] - fld.kx[0], fld.ky[1] - fld.ky[0])
    polylines = _stitch(segments, tol=1e-9)
    # isolated even-order zeros leave no sign change; report grid minima
    absval = np.abs(comp)
    minima = _local_minima(absval, threshold=1e-6 * max(1.0, scale))
    pts = []
    for iy, ix in minima:
        pt = (float(fld.kx[ix]), float(fld.ky[iy]))
        near_curve = any(np.hypot(line[:, 0] - pt[0], line[:, 1] - pt[1]).min() < 2 * dk
                         for line in polylines if len(line))
        if not near_curve:
            pts.append(pt)
    return ZeroCurve(which=which, polylines=polylines, point_zeros=pts)


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
