"""Brillouin-zone scans: discriminant fields, degeneracy finding, zero curves.

The discriminant eta(k) of the two-band Bloch matrix vanishes exactly at
spectral degeneracies.  This module samples eta on a uniform grid over the
square torus [-pi, pi)^2, seeds candidates from sign changes and from every
local minimum of |eta| (needed because non-defective touchings are even-order
zeros where neither component changes sign, and a coarse grid may sample
|eta| far above zero next to one), refines every candidate with one root
solver on the exact derivatives of the Pauli vector d (eta = 4 d.d), and
classifies each refined point as defective or non-defective.  Marching
squares provides the zero curves of Re eta, Im eta and of the band
real/imaginary parts (the r-Fermi and i-Fermi loci).
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import eigensystem_n
from .model import (ModelParams, _d_components, _k_grid, bloch_hamiltonian,
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
    "NONDEFECTIVE_MATRIX_TOL",
    "DEFECTIVE_OVERLAP_FLOOR",
    "NEWTON_TOL",
]

# classification thresholds (see DegeneracyPoint)
NONDEFECTIVE_MATRIX_TOL = 1e-8
DEFECTIVE_OVERLAP_FLOOR = 1.0 - 1e-6
# default |eta| a refined candidate must reach
NEWTON_TOL = 1e-13
# refined points closer than this on the torus are one point
_DEDUP_RADIUS = 1e-4
# root-solver steps per seed; a seed beside the quadratic Gamma touching at
# gamma = pi/2 takes about 20, because Gauss-Newton on d converges only
# linearly along a quadratic direction
_MAX_STEPS = 50
# points sort by momenta snapped to 2**20 steps around the torus: far finer
# than the dedup radius, yet solver noise cannot move a point on a shared
# line (kx = 0, or the seam kx = -pi ~ pi) across a step boundary
_SORT_STEPS = 2 ** 20
# eta is sampled in blocks of whole ky rows of about this many points, so the
# (4, rows, nx) Pauli sums stay below the mirror-row text that field.csv's
# writer holds, and far below the grid itself
_BLOCK_POINTS = 2 ** 13

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


@dataclass(frozen=True)
class DegeneracyPoint:
    """A refined momentum-space degeneracy with classification diagnostics.

    ``kind`` is 'nondefective' when the Bloch matrix is within
    ``NONDEFECTIVE_MATRIX_TOL * max(1, |h|)`` of lambda0 times the identity
    (the only diagonalizable 2x2 double degeneracy), 'defective' when the
    eigenvector overlap reaches ``DEFECTIVE_OVERLAP_FLOOR``, and
    'unresolved' when neither holds.  No refined point is expected to be
    unresolved: tests treat one as an error and ``nhdeg scan`` exits 1.
    ``newton_iters`` counts the root-solver steps from the grid seed.
    ``kx`` and ``ky`` lie in [-pi - pi/2**20, pi - pi/2**20): a coordinate
    that rounds to the seam pi on the sort lattice (``_SORT_STEPS`` steps
    around the torus) is reported at its k - 2 pi image, the same torus
    point, so seam points all read near -pi.
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

    ``polylines`` is a list of (m, 2) arrays of (kx, ky) vertices in [-pi,
    pi]; segments join exactly when they end on the same torus grid edge, so
    curves that touch at a grid point stay apart, a curve that crosses the
    seam stays whole, and a closed loop repeats its first vertex.  When the
    field vanishes identically on the grid, ``everywhere_zero`` is set and no
    polylines are extracted.  ``point_zeros`` lists isolated grid minima
    below the detection threshold that no contour passes near on the torus
    (even-order zeros such as non-defective touchings).
    """

    which: str
    polylines: list
    everywhere_zero: bool = False
    point_zeros: list = field(default_factory=list)


def scan_discriminant(p: ModelParams, nx: int = 501, ny: int = 501) -> ScalarField:
    """Sample the discriminant eta on an nx-by-ny grid over [-pi, pi)^2.

    The grid is filled in blocks of max(1, ``_BLOCK_POINTS`` // nx) ky rows,
    so the working arrays scale with one block, not with the grid.  Each
    element takes the same operations as in one call over the whole grid,
    so the values are bit-identical to it.
    """
    if nx < 16 or ny < 16:
        raise ValueError("need nx, ny >= 16")
    kx, ky = _k_grid(nx), _k_grid(ny)
    values = np.empty((ny, nx), dtype=complex)
    rows = max(1, _BLOCK_POINTS // nx)
    for i in range(0, ny, rows):
        values[i:i + rows] = discriminant_function(p, kx[None, :], ky[i:i + rows, None])
    return ScalarField(kx=kx, ky=ky, values=values)


def _sign_change_cells(values: np.ndarray) -> np.ndarray:
    """Cells (iy, ix) whose corners change sign in Re and in Im (torus wrap).

    A component changes sign on a cell when some corner is <= 0, some corner
    is >= 0 and no corner is NaN; each test is a one-byte mask, its four
    corners read from one wrap-padded copy.
    """
    def any_corner(mask):
        m = np.pad(mask, ((0, 1), (0, 1)), mode="wrap")
        return m[:-1, :-1] | m[:-1, 1:] | m[1:, :-1] | m[1:, 1:]

    def changes(comp):
        return any_corner(comp <= 0.0) & any_corner(comp >= 0.0) & ~any_corner(np.isnan(comp))

    return np.argwhere(changes(values.real) & changes(values.imag))


def _local_minima(absval: np.ndarray, threshold: float) -> np.ndarray:
    """Torus-wrapped 8-neighbor local minima of |eta| below the threshold."""
    ny, nx = absval.shape
    ring = np.pad(absval, 1, mode="wrap")
    m = absval < threshold
    for oy in range(3):
        for ox in range(3):
            if oy != 1 or ox != 1:
                m &= absval <= ring[oy:oy + ny, ox:ox + nx]
    return np.argwhere(m)


def _refine(p: ModelParams, seeds: np.ndarray, tol: float):
    """Batched root solver for eta = 4 d.d on the exact derivatives of d.

    Each step proposes two moves and keeps the one with the lower |eta|: a
    Newton step on (Re eta, Im eta), whose gradient is 8 d.(dd/dk), for the
    simple zeros of eta at exceptional points; and a Gauss-Newton step on
    the six real components of d, for the touchings where d itself vanishes
    and eta has a double zero with a singular Jacobian.  A seed stops when
    neither move lowers |eta| or after ``_MAX_STEPS`` steps; it has
    converged when |eta| <= tol.
    """
    k = seeds.T.astype(float)  # (2, n)
    d = np.array(_d_components(p, k[0], k[1])[1:])  # (3, n)
    eta = 4.0 * (d * d).sum(axis=0)
    iters = np.zeros(len(eta), dtype=int)
    idx = np.arange(len(eta))
    for _ in range(_MAX_STEPS):
        if not len(idx):
            break
        ka, da, fa = k[:, idx], d[:, idx], eta[idx]
        jx = np.array(_d_components(p, ka[0], ka[1], 1, 0)[1:])
        jy = np.array(_d_components(p, ka[0], ka[1], 0, 1)[1:])
        # Newton: gx sx + gy sy = -eta for real (sx, sy)
        gx, gy = 8.0 * (da * jx).sum(axis=0), 8.0 * (da * jy).sum(axis=0)
        det = (gx.conj() * gy).imag
        newton = np.stack([(fa * gy.conj()).imag, (fa.conj() * gx).imag])
        # Gauss-Newton: normal equations of min |d + jx sx + jy sy|^2
        axx, ayy = (np.abs(jx) ** 2).sum(axis=0), (np.abs(jy) ** 2).sum(axis=0)
        axy = (jx.conj() * jy).sum(axis=0).real
        bx, by = -(jx.conj() * da).sum(axis=0).real, -(jy.conj() * da).sum(axis=0).real
        gauss = np.stack([ayy * bx - axy * by, axx * by - axy * bx])
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.stack([newton / det, gauss / (axx * ayy - axy * axy)])
        moves = ka + np.clip(steps, -0.5, 0.5)  # (2 moves, 2, m)
        dm = np.array(_d_components(p, moves[:, 0], moves[:, 1])[1:])  # (3, 2, m)
        em = 4.0 * (dm * dm).sum(axis=0)
        am = np.nan_to_num(np.abs(em), nan=np.inf)
        pick = am[1] < am[0]
        better = np.minimum(am[0], am[1]) < np.abs(fa)
        idx = idx[better]
        k[:, idx] = np.where(pick, moves[1], moves[0])[:, better]
        d[:, idx] = np.where(pick, dm[:, 1], dm[:, 0])[:, better]
        eta[idx] = np.where(pick, em[1], em[0])[better]
        iters[idx] += 1
    return k.T, np.abs(eta), iters, np.abs(eta) <= tol


def _wrap(k):
    return (k + np.pi) % _TWO_PI - np.pi


def _torus_dist(a, b):
    d = np.abs(_wrap(a - b))
    return np.hypot(d[..., 0], d[..., 1])


def _dedup(points: np.ndarray, fold: bool = False):
    """Indices of the points that survive a torus dedup within ``_DEDUP_RADIUS``.

    A point is kept when it lies farther than the radius from every point
    kept before it; with ``fold`` its (pi, pi) image must as well, so one
    greedy pass both merges duplicates and folds the reduced zone.
    """
    keep = []
    for i, q in enumerate(points):
        images = (q, _wrap(q + np.pi)) if fold else (q,)
        if all((_torus_dist(a, points[keep]) > _DEDUP_RADIUS).all() for a in images):
            keep.append(i)
    return keep


def _classify(p: ModelParams, k):
    """(lambda0, kind, overlap) of the Bloch matrix at k (see DegeneracyPoint)."""
    h = bloch_hamiltonian(p, float(k[0]), float(k[1]))
    lam0 = complex(np.trace(h) / 2.0)
    scale = max(1.0, float(np.linalg.norm(h)))
    if np.linalg.norm(h - lam0 * np.eye(2)) <= NONDEFECTIVE_MATRIX_TOL * scale:
        return lam0, "nondefective", 0.0
    r = eigensystem_n(h, want_left=False).right  # unit columns
    overlap = min(abs(np.vdot(r[:, 0], r[:, 1])), 1.0)
    return lam0, "defective" if overlap >= DEFECTIVE_OVERLAP_FLOOR else "unresolved", overlap


def find_degeneracies(p: ModelParams, nx: int = 501, ny: int = 501,
                      tol: float = NEWTON_TOL, fold: bool = False) -> ScanResult:
    """Locate and classify all degeneracies of the Bloch matrix.

    Candidates are the centres of the cells where Re and Im eta both change
    sign, then every local minimum of |eta|; each is refined until |eta| <=
    tol (non-converged candidates are dropped and counted).  One greedy
    torus dedup within ``_DEDUP_RADIUS`` picks the refined points to
    classify; with ``fold`` it also merges points equivalent under the
    reduced-zone shift (pi, pi).  Points are sorted by (kx, ky) snapped to
    a fine torus lattice, so their order does not hinge on sub-grid solver
    noise.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    fld = scan_discriminant(p, nx, ny)
    cy, cx = _sign_change_cells(fld.values).T
    my, mx = _local_minima(np.abs(fld.values), np.inf).T
    seeds = np.column_stack([np.concatenate([fld.kx[cx] + np.pi / nx, fld.kx[mx]]),
                             np.concatenate([fld.ky[cy] + np.pi / ny, fld.ky[my]])])

    refined, absf, iters, converged = _refine(p, seeds, tol)
    refined = _wrap(refined[converged])
    absf, iters = absf[converged], iters[converged]

    points = []
    for i in _dedup(refined, fold):
        k = refined[i]
        lam0, kind, overlap = _classify(p, k)
        # a coordinate just below the seam pi reads at its image near -pi
        kx, ky = (c - _TWO_PI if _sort_step(c) == _SORT_STEPS else c for c in map(float, k))
        points.append(DegeneracyPoint(kx=kx, ky=ky, lambda0=lam0,
                                      kind=kind, eta_residual=float(absf[i]),
                                      coalescence_overlap=float(overlap),
                                      newton_iters=int(iters[i])))
    points.sort(key=_sort_key)
    return ScanResult(points=points, n_candidates=len(seeds),
                      n_dropped=int((~converged).sum()), field=fld)


def _sort_step(k):
    """k in sort-lattice steps from -pi; ``_SORT_STEPS`` is the seam pi."""
    return round((k + np.pi) / _TWO_PI * _SORT_STEPS)


def _sort_key(q):
    """(kx, ky) of a point in lattice steps from -pi; seam points read near -pi."""
    return _sort_step(q.kx), _sort_step(q.ky)


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


def _marching_squares(kx, ky, values):
    """Zero-level segments of a periodic field, traced on the torus.

    The field is padded with its wrapped first column and row (at k[0] + 2 pi)
    so the seam cells are traced too.  Returns the (m, 2, 2) segment endpoints
    in row-major cell order and the (m, 2) ids of their edges of the torus
    grid; only the cells whose corners straddle zero are interpolated.
    """
    ny, nx = values.shape
    kx, ky = np.append(kx, kx[0] + _TWO_PI), np.append(ky, ky[0] + _TWO_PI)
    values = np.pad(values, ((0, 1), (0, 1)), mode="wrap")
    above = (values > 0.0).astype(np.uint8)
    code = (above[:-1, :-1] | above[:-1, 1:] << 1
            | above[1:, 1:] << 2 | above[1:, :-1] << 3)
    iy, ix = np.nonzero((code != 0) & (code != 15))
    code = code[iy, ix]
    c = values[iy[:, None] + _CORNER_DY, ix[:, None] + _CORNER_DX]
    # saddle: a cell-center average above zero joins the two above corners
    # through the cell (15 - code cuts off the other pair)
    center = (c[:, 0] + c[:, 1] + c[:, 2] + c[:, 3]) / 4.0
    saddle = (code == 5) | (code == 10)
    code = np.where(saddle & (center > 0.0), 15 - code, code)
    cell = np.repeat(np.arange(len(code)), 1 + saddle)
    second = (np.diff(cell, prepend=-1) == 0).astype(int)  # a saddle's second segment
    e = _SEGMENTS[code[cell], second]
    a, b = e, (e + 1) % 4
    va, vb = c[cell[:, None], a], c[cell[:, None], b]
    # one corner is > 0 and the other <= 0, so va != vb and, as rounding is
    # monotone, the rounded va / (va - vb) already lies in [0, 1]
    frac = va / (va - vb)
    jy, jx = iy[cell][:, None], ix[cell][:, None]
    xa, xb = kx[jx + _CORNER_DX[a]], kx[jx + _CORNER_DX[b]]
    ya, yb = ky[jy + _CORNER_DY[a]], ky[jy + _CORNER_DY[b]]
    points = np.stack([xa + frac * (xb - xa), ya + frac * (yb - ya)], axis=-1)
    base = _EDGE_BASE[e]
    row, col = (jy + _CORNER_DY[base]) % ny, (jx + _CORNER_DX[base]) % nx
    return points, 2 * (row * nx + col) + e % 2


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


def zero_curves(fld: ScalarField, which: str) -> ZeroCurve:
    """Zero-level contours, on the torus, of one real component of a field.

    ``which`` selects 'Re_eta' or 'Im_eta' of a discriminant field, or
    'field' for a real one; for a level c, pass the field minus c.  An
    identically vanishing component sets ``everywhere_zero`` instead of
    being traced.  Each axis needs at least 2 samples.
    """
    if which in ("Re_eta", "field"):
        comp = fld.values.real
    elif which == "Im_eta":
        comp = fld.values.imag
    else:
        raise ValueError(f"unknown component {which!r}")
    for axis, k in (("kx", fld.kx), ("ky", fld.ky)):
        if len(k) < 2:
            raise ValueError(f"zero_curves needs at least 2 samples on the {axis} "
                             f"axis, got {len(k)}")
    scale = float(np.abs(comp).max())
    if scale < 1e-12:
        return ZeroCurve(which=which, polylines=[], everywhere_zero=True)
    polylines = _stitch(*_marching_squares(fld.kx, fld.ky, comp))
    dk = max(fld.kx[1] - fld.kx[0], fld.ky[1] - fld.ky[0])
    # isolated even-order zeros leave no sign change; report the grid minima
    # at least two cells (torus distance) from every traced vertex
    iy, ix = _local_minima(np.abs(comp), threshold=1e-6 * max(1.0, scale)).T
    if polylines:
        keep = ~_near_vertex_nodes(fld.kx, fld.ky, np.vstack(polylines), 2 * dk)[iy, ix]
        iy, ix = iy[keep], ix[keep]
    pts = np.column_stack([fld.kx[ix], fld.ky[iy]])
    return ZeroCurve(which=which, polylines=polylines,
                     point_zeros=[tuple(q) for q in pts.tolist()])


def _near_vertex_nodes(kx, ky, vertices, radius):
    """Mask of the grid nodes closer than ``radius`` (on the torus) to a vertex.

    Each vertex in [-pi, pi] is binned to its grid cell and only the nodes
    within w = ceil(radius / dk) + 1 cells of it are measured, all window
    offsets of all vertices in one pass, on each axis unrolled by w: node j
    in [-w, n + w] sits at k[j % n] + 2 pi (j // n).  Time and memory are
    linear in the number of vertices (about 2 kB per vertex at 2 dk).
    """
    def unrolled(k, w):
        j = np.arange(-w, len(k) + w + 1)
        return k[j % len(k)] + _TWO_PI * (j // len(k))

    dkx, dky = kx[1] - kx[0], ky[1] - ky[0]
    wx, wy = int(np.ceil(radius / dkx)) + 1, int(np.ceil(radius / dky)) + 1
    vx, vy = vertices[:, :1], vertices[:, 1:]
    oy, ox = np.mgrid[-wy:wy + 1, -wx:wx + 1].reshape(2, 1, -1)
    jx = np.floor((vx - kx[0]) / dkx).astype(int) + (ox + wx)  # (vertex, offset)
    jy = np.floor((vy - ky[0]) / dky).astype(int) + (oy + wy)
    dx, dy = vx - unrolled(kx, wx)[jx], vy - unrolled(ky, wy)[jy]
    near = np.sqrt(dx * dx + dy * dy) < radius
    mask = np.zeros((len(ky), len(kx)), dtype=bool)
    mask[(jy[near] - wy) % len(ky), (jx[near] - wx) % len(kx)] = True
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
    kx, ky = _k_grid(nx), _k_grid(ny)
    plus, minus = dispersion(p, kx[None, :], ky[:, None])
    eps = plus if band == "+" else minus
    comp = eps.real if which == "re" else eps.imag
    curve = zero_curves(ScalarField(kx=kx, ky=ky, values=comp), "field")
    curve.which = f"{'Re' if which == 're' else 'Im'}_energy"
    return curve
