"""Two-dimensional bipartite square-lattice model with nonreciprocal hoppings.

The model lives on a square lattice with two orbitals (sublattices A and B)
per cell.  Nearest-neighbor A-B hops carry a Peierls phase ``gamma`` and
nonreciprocity factors ``exp(+-gx)``, ``exp(+-gy)``; next-nearest (diagonal)
same-sublattice hops of strength ``t1`` carry alternating signs and
nonreciprocity ``exp(+-ga)``, ``exp(+-gb)``; ``v`` is a staggered onsite
potential.  Energies are quoted in units of ``t``.

The hop table ``_hop_list`` is the model's one definition.  This module
derives from it the Bloch matrix, its Pauli decomposition, the dispersions,
asymptotic expansions at the band-touching momenta, and real-space
Hamiltonians on tori, cylinders and ribbons; it also gives the phase
boundaries of the insulating regimes.
"""

import cmath
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "ModelParams",
    "Expansion",
    "X1_POINTS",
    "X2_POINTS",
    "bloch_hamiltonian",
    "dispersion",
    "discriminant_function",
    "real_space_hamiltonian",
    "phase_boundaries",
    "phase_classify",
    "linear_expansion",
    "quadratic_expansion",
    "load_params",
    "save_params",
]

# High-symmetry momenta on the square torus [-pi, pi)^2.
X1_POINTS = ((np.pi / 2, np.pi / 2), (-np.pi / 2, -np.pi / 2))
X2_POINTS = ((np.pi / 2, -np.pi / 2), (-np.pi / 2, np.pi / 2))


def _k_grid(n: int) -> np.ndarray:
    """The n uniform momenta -pi + 2 pi j / n of one torus axis, in [-pi, pi).

    The grid is mirror-exact: k[n - j] is -k[j] bit for bit for 0 < j < n
    and j != n / 2, and k[n / 2] is 0 for even n, so on it the rows ky and
    -ky of a field even in ky hold the same bits.  The momenta in (0, pi)
    keep the bits of the formula, those in (-pi, 0) are their negatives, and
    each lies within one ulp of 2 pi of -pi + 2 pi j / n.
    """
    k = -np.pi + 2 * np.pi * np.arange(n) / n
    k[1:(n + 1) // 2] = -k[:n // 2:-1]
    if n > 0 and n % 2 == 0:
        k[n // 2] = 0.0
    return k


@dataclass(frozen=True)
class ModelParams:
    """Full parameter tuple of the tight-binding model.

    ``t`` is the nearest-neighbor hopping (the energy unit, must be > 0),
    ``t1`` the diagonal hopping, ``v`` the staggered potential, ``gamma``
    the Peierls phase in radians, ``gx``/``gy`` the nearest-neighbor
    nonreciprocity exponents and ``ga``/``gb`` the diagonal ones.
    ``mu_a``/``mu_b`` are optional imaginary onsite terms, zero by default.
    Every value, every hop amplitude and both phase boundaries must be finite.
    """

    t: float = 1.0
    t1: float = 0.0
    v: float = 0.0
    gamma: float = 0.0
    gx: float = 0.0
    gy: float = 0.0
    ga: float = 0.0
    gb: float = 0.0
    mu_a: float = 0.0
    mu_b: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not math.isfinite(val):
                raise ValueError(f"parameter {f.name} is not finite: {val!r}")
            # a numpy scalar would be written back as np.float64(...)
            object.__setattr__(self, f.name, float(val))
        if self.t <= 0:
            raise ValueError(f"t must be positive (energy unit), got {self.t}")
        with np.errstate(over="ignore", invalid="ignore"):
            values = [amp for *_, amp in _hop_list(self)] + [_boundary(self)]
        if not all(map(cmath.isfinite, values)):
            raise ValueError("a hop amplitude or phase boundary is not finite "
                             "(an exp(+-g) factor or its product with t or t1 overflows)")

    def replace(self, **kw) -> "ModelParams":
        return replace(self, **kw)


# the keys of a parameter file, in the order save_params writes them
_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))


# ---------------------------------------------------------------------------
# the hop table: the one definition of the model

def _hop_list(p: ModelParams):
    """All hops as (sublattice_row, sublattice_col, dx, dy, amplitude).

    The matrix element H[row, col] is the coefficient of row_dag * col in
    the second-quantized Hamiltonian; (dx, dy) is the cell displacement of
    the column site relative to the row site.  Every Bloch, Taylor and
    real-space quantity in the package is derived from this list.
    """
    t, t1 = p.t, p.t1
    ax = -t * np.exp(-1j * p.gamma) * np.exp(-p.gx)   # A <- B along +-x
    bx = -t * np.exp(1j * p.gamma) * np.exp(p.gx)     # B <- A along +-x
    ay = -t * np.exp(1j * p.gamma) * np.exp(-p.gy)    # A <- B along +-y
    by = -t * np.exp(-1j * p.gamma) * np.exp(p.gy)    # B <- A along +-y
    hops = [
        (0, 1, 1, 0, ax), (0, 1, -1, 0, ax),
        (0, 1, 0, 1, ay), (0, 1, 0, -1, ay),
        (1, 0, 1, 0, bx), (1, 0, -1, 0, bx),
        (1, 0, 0, 1, by), (1, 0, 0, -1, by),
    ]
    if t1 != 0:
        # diagonal hops, alternating signs as printed; at t1 = 0 there are
        # none, and no 0 * exp(g) can overflow into nan
        hops += [
            (0, 0, 1, 1, -t1 * np.exp(-p.ga)), (0, 0, 1, -1, t1 * np.exp(-p.ga)),
            (0, 0, -1, -1, -t1 * np.exp(p.ga)), (0, 0, -1, 1, t1 * np.exp(p.ga)),
            (1, 1, 1, 1, t1 * np.exp(-p.gb)), (1, 1, 1, -1, -t1 * np.exp(-p.gb)),
            (1, 1, -1, -1, t1 * np.exp(p.gb)), (1, 1, -1, 1, -t1 * np.exp(p.gb)),
        ]
    hops += [
        # staggered potential and optional imaginary onsite terms
        (0, 0, 0, 0, p.v + 1j * p.mu_a),
        (1, 1, 0, 0, -p.v - 1j * p.mu_b),
    ]
    return [(r, c, dx, dy, amp) for r, c, dx, dy, amp in hops if amp != 0.0]


# -i times the cell displacement along one axis; a hop moves at most one cell
_MINUS_I_STEPS = -1j * np.array([-1.0, 0.0, 1.0])


@lru_cache(maxsize=64)
def _hop_tables(p: ModelParams):
    """The hop list as dense read-only arrays amp[entry, dx + 1, dy + 1].

    Returns two tables: the matrix elements (h11, h12, h21, h22) and, hop
    by hop, their Pauli projection (d0, dx, dy, dz) = ((h11 + h22)/2,
    (h12 + h21)/2, i (h12 - h21)/2, (h11 - h22)/2).
    """
    h = np.zeros((4, 3, 3), dtype=complex)
    for r, c, dx, dy, amp in _hop_list(p):
        h[2 * r + c, dx + 1, dy + 1] += amp
    d = np.stack([h[0] + h[3], h[1] + h[2], 1j * (h[1] - h[2]), h[0] - h[3]]) / 2
    h.flags.writeable = d.flags.writeable = False
    return h, d


def _step_weights(k: np.ndarray, nd: int, n: int) -> np.ndarray:
    """(-i d)^n exp(-i k d) / n! per step d: the n-th k-derivative over n!.

    Shape (3,) + k.shape, with ``k`` padded on the left to ``nd`` dims.
    """
    k = k.reshape((1,) * (nd - k.ndim) + k.shape)
    steps = _MINUS_I_STEPS.reshape((3,) + (1,) * nd)
    w = np.exp(steps * k)
    return w * (steps ** n / math.factorial(n)) if n else w


def _hop_sum(table: np.ndarray, kx, ky, nx: int = 0, ny: int = 0) -> np.ndarray:
    """Sum of table[:, dx, dy] * d^(nx, ny) exp(-i k.delta) / (nx! ny!).

    Returns shape (4,) + broadcast(kx, ky).shape.  The dy sum runs inside
    each dx, so each +-dy pair of equal or opposite amplitudes cancels to
    an exact 2 cos ky or -2i sin ky factor and the diagonal hops vanish
    exactly at ky = 0.  A flat sum over the hops leaves rounding residue
    there that moves the non-defective touchings at M and Gamma by ~1e-6.
    """
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    nd = max(kx.ndim, ky.ndim)
    wx = _step_weights(kx, nd, nx)
    inner = (table.reshape(table.shape + (1,) * nd) * _step_weights(ky, nd, ny)).sum(axis=2)
    total = inner[:, 0] * wx[0]
    total += inner[:, 1] * wx[1]
    total += inner[:, 2] * wx[2]
    return total


def bloch_hamiltonian(p: ModelParams, kx, ky) -> np.ndarray:
    """Evaluate the 2x2 Bloch matrix sum_hops amp * exp(-i k.delta).

    Broadcasts over ``kx`` and ``ky``: scalars give a (2, 2) complex array,
    arrays give ``np.broadcast(kx, ky).shape + (2, 2)``.  The A/B ordering
    of rows follows the sublattice-major convention used throughout the
    package.
    """
    entries = _hop_sum(_hop_tables(p)[0], kx, ky)
    return np.moveaxis(entries.reshape((2, 2) + entries.shape[1:]), (0, 1), (-2, -1))


def _d_components(p: ModelParams, kx, ky, nx: int = 0, ny: int = 0):
    """Pauli components (d0, dx, dy, dz) of the Bloch matrix; broadcasts.

    Summed from the Pauli projection of each hop, which by linearity is
    the projection of the Bloch matrix.  Includes the optional imaginary
    onsite terms, so the reconstruction d0 + d.sigma = h holds for every
    parameter set.  With derivative orders (nx, ny) it returns the
    kx^nx ky^ny Taylor coefficient instead: the partial derivative over
    nx! ny!, so (1, 0) and (0, 1) give the exact Jacobian of d.
    """
    return tuple(_hop_sum(_hop_tables(p)[1], kx, ky, nx, ny))


def discriminant_function(p: ModelParams, kx, ky):
    """Discriminant eta(k) = tr(h)^2 - 4 det(h) from the Pauli components.

    Broadcasts over arrays; eta = 4 (dx^2 + dy^2 + dz^2) is independent of
    the identity component.  Zeros of eta are the spectral degeneracies.
    """
    _, dx, dy, dz = _d_components(p, kx, ky)
    return 4.0 * (dx * dx + dy * dy + dz * dz)


def _bands(d0, dx, dy, dz):
    """The eigenvalues d0 +- sqrt(d.d) of d0 + d.sigma, with the principal root."""
    root = np.sqrt(np.asarray(dx * dx + dy * dy + dz * dz, dtype=complex))
    return d0 + root, d0 - root


def dispersion(p: ModelParams, kx, ky):
    """Two bands (tr(h) +- sqrt(eta))/2 with the principal square root."""
    return _bands(*_d_components(p, kx, ky))


# ---------------------------------------------------------------------------
# real space

def _axis_steps(bc: str, n: int) -> list:
    """(source, target) cell indices along one axis for the steps -1, 0, 1.

    A periodic axis wraps the target; an open axis drops the sources whose
    target falls past an edge.
    """
    cells = np.arange(n)
    steps = []
    for d in (-1, 0, 1):
        target = cells + d
        if bc == "periodic":
            steps.append((cells, target % n))
        else:
            keep = (target >= 0) & (target < n)
            steps.append((cells[keep], target[keep]))
    return steps


def real_space_hamiltonian(p: ModelParams, nx: int, ny: int,
                           bc=("periodic", "periodic"),
                           transverse_k: float | None = None) -> np.ndarray:
    """Real-space Hamiltonian on an nx-by-ny cell grid.

    Parameters
    ----------
    bc : pair of {'periodic', 'open'}
        Boundary condition for the x and y axis respectively.
    transverse_k : float, optional
        Build a mixed (ribbon) Hamiltonian: real space on the single open
        axis, Bloch momentum ``transverse_k`` on the periodic one.  The
        result has dimension 2*N_open.  Requires exactly one open axis.

    Without ``transverse_k`` the full 2*nx*ny matrix is returned, with
    periodic wrap or open truncation per axis.  Basis ordering is
    sublattice-major, then x, then y: index = s*nx*ny + iy*nx + ix.
    A hop whose column cell is displaced by ``delta`` along a Bloch axis
    carries the phase exp(-1j * k * delta), the convention under which
    :func:`bloch_hamiltonian` sums the same hops (checked against each
    other by the Fourier-consistency tests).  A Bloch axis is a periodic
    axis of one cell, so every hop along it lands in the same cell.
    """
    for axis in bc:
        if axis not in ("periodic", "open"):
            raise ValueError(f"invalid boundary condition {axis!r}")
    if transverse_k is not None:
        n_open = sum(1 for axis in bc if axis == "open")
        if n_open != 1:
            raise ValueError(
                "transverse_k requires exactly one open axis, got bc={}".format(bc))
        bloch = 1 if bc[0] == "open" else 0
        if (nx, ny)[1 - bloch] < 2:
            raise ValueError("ribbon needs at least 2 cells on the open axis")
        nx, ny = (nx, 1) if bloch else (1, ny)
    elif nx < 2 or ny < 2:
        raise ValueError("need nx, ny >= 2")
    ncell = nx * ny
    xsteps, ysteps = _axis_steps(bc[0], nx), _axis_steps(bc[1], ny)
    H = np.zeros((2 * ncell, 2 * ncell), dtype=complex)
    # each hop touches every matrix element at most once, so one fancy-indexed
    # += per hop sums every element in hop order
    for r, c, dx, dy, amp in _hop_list(p):
        (sx, tx), (sy, ty) = xsteps[dx + 1], ysteps[dy + 1]
        if transverse_k is not None:
            amp = amp * np.exp(-1j * transverse_k * (dx, dy)[bloch])
        H[r * ncell + sy[:, None] * nx + sx, c * ncell + ty[:, None] * nx + tx] += amp
    return H


# ---------------------------------------------------------------------------
# phases

def phase_boundaries(p: ModelParams) -> tuple[float, float]:
    """Gap-closing potentials (v1, v2) of the two X-point sectors.

    v1 = -2 t1 (cosh ga + cosh gb) closes the gap on the X1 pair and
    v2 = +2 t1 (cosh ga + cosh gb) on the X2 pair.
    """
    w = _boundary(p)
    return -w, w


def _boundary(p: ModelParams):
    """v2 = 2 t1 (cosh ga + cosh gb); ``ModelParams`` checks that it is finite.

    At t1 = 0 it is the signed zero 2 t1, and no cosh is formed that could
    overflow into 0 * inf = nan.
    """
    return 2.0 * p.t1 * (np.cosh(p.ga) + np.cosh(p.gb)) if p.t1 != 0 else 2.0 * p.t1


def phase_classify(p: ModelParams, tol: float = 1e-9) -> str:
    """Classify the insulating regime by the staggered potential.

    Valid for gapped-gamma parameters (0 < gamma < pi/2, gx = gy = 0).
    Returns 'boundary_gapless' within ``tol`` of a boundary,
    'topological_insulator' strictly between v1 and v2, and
    'band_insulator' outside.  Raises ``ValueError`` unless 0 <= tol < inf.
    """
    return str(_phase_labels(p, p.v, tol))


def _phase_labels(p: ModelParams, v, tol: float) -> np.ndarray:
    """The regime check and labels of ``phase_classify`` at potentials ``v``, not ``p.v``."""
    if not (0.0 < p.gamma < np.pi / 2):
        raise ValueError(f"phase_classify requires 0 < gamma < pi/2, got {p.gamma}")
    if p.gx != 0.0 or p.gy != 0.0:
        raise ValueError("phase_classify requires gx = gy = 0")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"phase_classify requires a finite tol >= 0, got {tol!r}")
    v1, v2 = phase_boundaries(p)
    lo, hi = min(v1, v2), max(v1, v2)
    labels = np.where((lo < v) & (v < hi), "topological_insulator", "band_insulator")
    return np.where(np.minimum(abs(v - v1), abs(v - v2)) < tol, "boundary_gapless", labels)


# ---------------------------------------------------------------------------
# asymptotic expansions

@dataclass(frozen=True)
class Expansion:
    """Truncated Taylor model of the Bloch matrix around a momentum.

    ``coeffs`` maps monomials (i, j) meaning px^i py^j to 4-tuples
    (d0, dx, dy, dz); ``order`` is the truncation order.
    """

    center: tuple[float, float]
    order: int
    coeffs: dict

    def d_components(self, px, py):
        out = [0.0j, 0.0j, 0.0j, 0.0j]
        for (i, j), comp in self.coeffs.items():
            mono = (np.asarray(px) ** i) * (np.asarray(py) ** j)
            for n in range(4):
                out[n] = out[n] + comp[n] * mono
        return tuple(out)

    def matrix(self, px: float, py: float) -> np.ndarray:
        d0, dx, dy, dz = self.d_components(px, py)
        return np.array([[d0 + dz, dx - 1j * dy], [dx + 1j * dy, d0 - dz]])

    def bands(self, px, py):
        return _bands(*self.d_components(px, py))


def _taylor_d(p: ModelParams, center, order):
    """Exact Taylor coefficients of the d-components about ``center``.

    The px^i py^j coefficient of a hop is amp (-i dx)^i (-i dy)^j
    exp(-i k.delta) / (i! j!) at k = center, for any order.  Monomials
    whose four components are all exactly zero are left out.
    """
    cx, cy = center
    coeffs = {}
    for i in range(order + 1):
        for j in range(order + 1 - i):
            comps = tuple(complex(c) for c in _d_components(p, cx, cy, i, j))
            if any(comps):
                coeffs[(i, j)] = comps
    return coeffs


def linear_expansion(p: ModelParams, which_x: str) -> Expansion:
    """First-order expansion of the Bloch matrix at an X point.

    Requires the nearest-neighbor-only regime (t1 = ga = gb = v = mu = 0),
    where the touching at X is linear (a two-dimensional Weyl cone with
    complex velocity matrix).  ``which_x`` selects 'X1' or 'X2'; the
    representative centers are (pi/2, pi/2) and (pi/2, -pi/2).

    The remainder is O(|p|^3), not O(|p|^2): in this regime every entry is
    a combination of cos(kx) and cos(ky), so H(X + p) = -H(X - p) and the
    second-order Taylor term vanishes identically.
    """
    for name in ("t1", "ga", "gb", "v", "mu_a", "mu_b"):
        if getattr(p, name) != 0.0:
            raise ValueError(
                f"linear_expansion requires {name} = 0, got {getattr(p, name)}")
    if which_x not in ("X1", "X2"):
        raise ValueError(f"which_x must be 'X1' or 'X2', got {which_x!r}")
    center = X1_POINTS[0] if which_x == "X1" else X2_POINTS[0]
    coeffs = _taylor_d(p, center, 1)
    return Expansion(center=center, order=1, coeffs=coeffs)


def quadratic_expansion(p: ModelParams, center: str) -> Expansion:
    """Second-order expansion at M (gamma = 0) or Gamma (gamma = pi/2).

    Requires v = gx = gy = mu = 0.  The touching there is quadratic in
    momentum (a double-Weyl-type node), so the second-order model is exact
    up to cubic corrections.
    """
    for name in ("v", "gx", "gy", "mu_a", "mu_b"):
        if getattr(p, name) != 0.0:
            raise ValueError(
                f"quadratic_expansion requires {name} = 0, got {getattr(p, name)}")
    if center == "M":
        if not np.isclose(p.gamma, 0.0):
            raise ValueError("center 'M' requires gamma = 0")
        c = (np.pi, 0.0)
    elif center == "Gamma":
        if not np.isclose(p.gamma, np.pi / 2):
            raise ValueError("center 'Gamma' requires gamma = pi/2")
        c = (0.0, 0.0)
    else:
        raise ValueError(f"center must be 'M' or 'Gamma', got {center!r}")
    coeffs = _taylor_d(p, c, 2)
    return Expansion(center=c, order=2, coeffs=coeffs)


# ---------------------------------------------------------------------------
# parameter files

def save_params(p: ModelParams, path) -> None:
    """Write a flat key-value parameter file (lossless round trip)."""
    lines = [f"{key} = {getattr(p, key)!r}\n" for key in _PARAM_KEYS]
    with open(path, "w") as fh:
        fh.writelines(lines)


def load_params(path) -> ModelParams:
    """Read a flat key-value parameter file written by :func:`save_params`.

    A bad line raises, naming the file and line; missing keys take their
    defaults.  Lines starting with '#' and blank lines are ignored.
    """
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            try:
                if not eq:
                    raise ValueError("expected 'key = value'")
                if key not in _PARAM_KEYS:
                    raise ValueError(f"unknown parameter {key!r}")
                if key in values:
                    raise ValueError(f"repeated parameter {key!r}")
                values[key] = float(val)
                ModelParams(**values)  # the values read so far, with this one
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return ModelParams(**values)
