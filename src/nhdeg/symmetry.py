"""Composite anti-unitary lattice symmetries and their verification.

Three built-in composite operations protect the model's non-defective
touchings in the different parameter regimes:

* ``upsilon``: sublattice swap, complex conjugation and a one-cell
  translation along x.  Holds whenever t1 = v = 0 (nearest-neighbor model),
  for every Peierls phase and nearest-neighbor nonreciprocity.
* ``upsilon_prime``: additionally reflects the y axis and exchanges the two
  diagonal nonreciprocity parameters with a sign flip, (ga, gb) ->
  (-gb, -ga).  Holds whenever v = 0.
* ``upsilon_doubleprime``: dresses upsilon_prime with the site-dependent
  phases exp(2i*gamma*(iy - ix)) (the B orbital carries one extra unit of
  the x phase).  Holds at v = 0 for commensurate gamma, in particular at
  gamma = pi/2 where the dressing shifts momenta by (pi, pi).

Verification is double-tracked: ``check_bloch`` evaluates the sector-resolved
intertwining relations on a momentum grid, and ``check_realspace`` builds the
explicit operator matrix on a periodic torus and forms the relation in full
real space.  The real-space oracle is the convention anchor; the Bloch form
below was fixed by requiring agreement with it.

In this cell-local basis the sublattice swap itself flips the signs of the
nonreciprocity exponents of the nearest-neighbor sector, so ``upsilon``
carries the identity parameter map; the sign-flip content of the Wick
rotation is absorbed rather than applied twice.
"""

from dataclasses import dataclass

import numpy as np

from .model import (X1_POINTS, X2_POINTS, ModelParams, _k_grid, bloch_hamiltonian,
                    discriminant_function, real_space_hamiltonian)

__all__ = [
    "CompositeSymmetrySpec",
    "SymmetryReport",
    "builtin_spec",
    "apply_parameter_map",
    "check_bloch",
    "check_realspace",
    "pair_product_phase",
    "symmetry_survey",
    "HOLD_TOL",
]

# relations are exact; only rounding contributes
HOLD_TOL = 1e-10
# grid residuals this close (relative) to an extremum tie with it
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class CompositeSymmetrySpec:
    """Declarative description of one composite anti-unitary operation.

    Every operation is the sublattice swap sigma_x, complex conjugation and
    a one-cell translation along x.  ``reflect_y`` adds the y-axis mirror
    and with it the diagonal parameter involution (ga, gb) -> (-gb, -ga);
    ``site_phase`` says whether the operator carries the position-dependent
    phases exp(2i*gamma*iy) * exp(-2i*gamma*ix) per unit step (with the B
    orbital offset by one x step).
    """

    name: str
    reflect_y: bool = False
    site_phase: bool = False


@dataclass
class SymmetryReport:
    """Residuals of one spec's intertwining relations, named as in ``symmetry.json``."""

    spec: str
    right_residual: float
    left_residual: float
    worst_k: tuple
    min_residual: float
    min_k: tuple
    holds: bool


BUILTIN_SPECS = {
    "upsilon": CompositeSymmetrySpec("upsilon"),
    "upsilon_prime": CompositeSymmetrySpec("upsilon_prime", reflect_y=True),
    "upsilon_doubleprime": CompositeSymmetrySpec("upsilon_doubleprime", reflect_y=True,
                                                 site_phase=True),
}
BUILTIN_NAMES = tuple(BUILTIN_SPECS)


def builtin_spec(name: str) -> CompositeSymmetrySpec:
    """Return one of the three built-in composite symmetry specs."""
    if name not in BUILTIN_SPECS:
        raise ValueError(f"unknown symmetry {name!r}; choose from {BUILTIN_NAMES}")
    return BUILTIN_SPECS[name]


def apply_parameter_map(spec: CompositeSymmetrySpec, p: ModelParams) -> ModelParams:
    """The parameter involution carried by the spec (its own inverse)."""
    return p.replace(ga=-p.gb, gb=-p.ga) if spec.reflect_y else p


def _momentum_action(spec: CompositeSymmetrySpec, p: ModelParams, kx, ky):
    """Momentum map of the matrix part (reflection plus site-phase shift)."""
    mx, my = kx, -ky if spec.reflect_y else ky
    if spec.site_phase:
        mx = mx + 2.0 * p.gamma
        my = my - 2.0 * p.gamma
    return mx, my


def check_bloch(p: ModelParams, spec: CompositeSymmetrySpec,
                nx: int = 32, ny: int = 32) -> SymmetryReport:
    """Grid evaluation of the sector-resolved intertwining relations.

    With W the spinor part, a(k) the momentum action of the matrix part and
    pi the parameter involution, the right and left relations read

        h_p(a(k)) W = W h_pi(p)(-k)^T,
        W conj(h_pi(p)(-k)) = h_p(a(k))^dag W,

    for every k.  The report carries the worst and best grid residuals
    relative to the largest norm of h_p(a(k)) on the grid, or to 1 when
    that norm is smaller.  Extrema tend to come in pairs tied up to
    rounding; the momentum reported is the first, in a kx-outer scan of
    the grid, whose residual lies within a relative 1e-12 of the extremum.
    Every hop spans at most one cell, so each residual entry is a
    trigonometric polynomial of degree <= 1 in kx and in ky: 3 momenta per
    axis decide whether it vanishes, and fewer raise ValueError.
    """
    if min(nx, ny) < 3:
        raise ValueError(f"check_bloch needs at least 3 momenta per axis, got {nx}x{ny}")
    # W = [[0, a], [b, 0]] with (b, a) = (exp(-2i gamma), 1) under the site
    # phases and (1, 1) without, so h W swaps the columns of h and scales
    # them by (b, a), and W h swaps its rows and scales them by (a, b)
    col = np.array([np.exp(-2j * p.gamma) if spec.site_phase else 1.0, 1.0], dtype=complex)
    row = col[::-1, None]
    pp = apply_parameter_map(spec, p)
    kxs, kys = _k_grid(nx), _k_grid(ny)
    # kx on the first axis, so the flat order is the kx-outer scan order
    kx, ky = kxs[:, None], kys[None, :]
    h_a = bloch_hamiltonian(p, *_momentum_action(spec, p, kx, ky))
    h_t = bloch_hamiltonian(pp, -kx, -ky)
    r_r = np.linalg.norm(h_a[..., ::-1] * col - h_t.swapaxes(-1, -2)[..., ::-1, :] * row,
                         axis=(-2, -1))
    r_l = np.linalg.norm(h_t.conj()[..., ::-1, :] * row
                         - h_a.conj().swapaxes(-1, -2)[..., ::-1] * col, axis=(-2, -1))
    r = np.maximum(r_r, r_l)
    # argmax of a mask is its first True
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


def _operator_matrix(spec: CompositeSymmetrySpec, p: ModelParams,
                     nx: int, ny: int) -> np.ndarray:
    """Explicit matrix part of the composite operator on an nx-by-ny torus."""
    ncell = nx * ny
    cell = np.arange(ncell)
    iy, ix = np.divmod(cell, nx)
    # cell (ix, iy) goes to (ix + 1, +-iy)
    target = (-iy if spec.reflect_y else iy) % ny * nx + (ix + 1) % nx
    phase_a = phase_b = 1.0
    if spec.site_phase:
        phase_a = np.exp(2j * p.gamma * (iy - ix))[target]
        phase_b = phase_a * np.exp(-2j * p.gamma)
    A = np.zeros((2 * ncell, 2 * ncell), dtype=complex)
    A[target, ncell + cell] = phase_a   # sublattice swap a <- b
    A[ncell + target, cell] = phase_b
    return A


def check_realspace(p: ModelParams, spec: CompositeSymmetrySpec,
                    nx: int = 4, ny: int = 4) -> SymmetryReport:
    """Brute-force verification on a periodic torus.

    Builds the full operator matrix A and the Hamiltonians at the original
    and mapped parameters, then evaluates |H(p) A - A H(pi(p))^T| and
    |A conj(H(pi(p))) - H(p)^dag A| (Frobenius, relative to |H|).  This is
    the ground-truth form the Bloch check is calibrated against.  As there,
    3 momenta per axis decide the verdict; nx must also be even (the
    translated operator must wrap), so the torus needs nx >= 4 and ny >= 3.
    """
    if nx % 2 or nx < 4 or ny < 3:
        raise ValueError(f"check_realspace needs an even nx >= 4 and ny >= 3, got {nx}x{ny}")
    if spec.site_phase:
        for n, label in ((nx, "nx"), (ny, "ny")):
            wind = 2.0 * p.gamma * n / (2 * np.pi)
            if abs(wind - round(wind)) > 1e-12:
                raise ValueError(
                    f"site phases are incommensurate with {label}={n} at gamma={p.gamma}")
    A = _operator_matrix(spec, p, nx, ny)
    pp = apply_parameter_map(spec, p)
    H = real_space_hamiltonian(p, nx, ny)
    Hp = H if pp is p else real_space_hamiltonian(pp, nx, ny)
    scale = max(1.0, float(np.linalg.norm(H)))
    r_r = float(np.linalg.norm(H @ A - A @ Hp.T) / scale)
    r_l = float(np.linalg.norm(A @ np.conj(Hp) - H.conj().T @ A) / scale)
    worst = max(r_r, r_l)
    return SymmetryReport(
        spec=spec.name, right_residual=r_r, left_residual=r_l,
        worst_k=(float("nan"), float("nan")),
        min_residual=worst, min_k=(float("nan"), float("nan")),
        holds=bool(worst < HOLD_TOL),
    )


def pair_product_phase(spec: CompositeSymmetrySpec, k) -> complex:
    """Bloch phase of the spec's composed right/left pair at momentum k.

    The pair composes to a pure two-step translation, times -1 when the
    sublattice swap has to pass the reflection (they anticommute on the
    lattice), with the site-phase dressing dropping out in its commensurate
    regime.  The returned value is that phase, exp(-2i kx) times the sign;
    it equals -1 at the protected momenta: X for upsilon, M for
    upsilon_prime and Gamma for upsilon_doubleprime.
    """
    kx, _ = k
    sign = -1.0 if spec.reflect_y else 1.0
    # each operator of the pair translates one cell along x
    angle = -kx * 2
    # exact values at the quarter turns, where the protected momenta sit
    quarter = angle / (np.pi / 2)
    if abs(quarter - round(quarter)) < 1e-12:
        return complex(sign * (1j) ** (round(quarter) % 4))
    return complex(sign * np.exp(1j * angle))


def symmetry_survey(p: ModelParams, nx: int = 32, ny: int = 32) -> dict:
    """Bloch-grid reports for all built-in symmetries at one parameter set.

    Reports include per-spec residual extrema over the grid; the
    discriminant values at the X1/X2 points are attached as gap-closure
    diagnostics for staggered-potential sweeps.
    """
    reports = {name: check_bloch(p, builtin_spec(name), nx, ny)
               for name in BUILTIN_NAMES}
    eta_x1 = complex(discriminant_function(p, *X1_POINTS[0]))
    eta_x2 = complex(discriminant_function(p, *X2_POINTS[0]))
    return {
        "reports": reports,
        "eta_X1": eta_x1,
        "eta_X2": eta_x2,
        "holding": [name for name, rep in reports.items() if rep.holds],
    }
