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

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, bloch_hamiltonian, real_space_hamiltonian

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

BUILTIN_NAMES = ("upsilon", "upsilon_prime", "upsilon_doubleprime")

# relations are exact; only rounding contributes
HOLD_TOL = 1e-10


@dataclass(frozen=True)
class CompositeSymmetrySpec:
    """Declarative description of one composite anti-unitary operation.

    ``unitary_part`` is the sublattice action ('sigma_x' here for all
    built-ins), ``conjugates`` marks the complex conjugation, ``reflect_y``
    the y-axis mirror, ``translation_x`` the number of x translation steps,
    ``parameter_map`` one of 'identity' or 'swap_negate_diag', and
    ``site_phase`` whether the operator carries the position-dependent
    phases exp(2i*gamma*iy) * exp(-2i*gamma*ix) per unit step (with the B
    orbital offset by one x step).
    """

    name: str
    side: str
    unitary_part: str = "sigma_x"
    conjugates: bool = True
    reflect_y: bool = False
    translation_x: int = 1
    parameter_map: str = "identity"
    site_phase: bool = False

    def __post_init__(self):
        if self.side not in ("R", "L"):
            raise ValueError(f"side must be 'R' or 'L', got {self.side!r}")
        if self.parameter_map not in ("identity", "swap_negate_diag"):
            raise ValueError(f"unknown parameter map {self.parameter_map!r}")
        if self.unitary_part != "sigma_x":
            raise ValueError(f"unsupported unitary part {self.unitary_part!r}")


@dataclass
class SymmetryReport:
    """Grid-wide residuals of the intertwining relations for one spec."""

    name: str
    right_residual: float
    left_residual: float
    grid_max_k: tuple
    grid_min_residual: float
    grid_min_k: tuple
    holds: bool
    tolerance: float = HOLD_TOL


def builtin_spec(name: str, side: str = "R") -> CompositeSymmetrySpec:
    """Return one of the three built-in composite symmetry specs."""
    if name == "upsilon":
        return CompositeSymmetrySpec(name=name, side=side)
    if name == "upsilon_prime":
        return CompositeSymmetrySpec(name=name, side=side, reflect_y=True,
                                     parameter_map="swap_negate_diag")
    if name == "upsilon_doubleprime":
        return CompositeSymmetrySpec(name=name, side=side, reflect_y=True,
                                     parameter_map="swap_negate_diag",
                                     site_phase=True)
    raise ValueError(f"unknown symmetry {name!r}; choose from {BUILTIN_NAMES}")


def apply_parameter_map(spec: CompositeSymmetrySpec, p: ModelParams) -> ModelParams:
    """The parameter involution carried by the spec (its own inverse)."""
    if spec.parameter_map == "identity":
        return p
    return p.replace(ga=-p.gb, gb=-p.ga)


def _spinor_part(spec: CompositeSymmetrySpec, p: ModelParams) -> np.ndarray:
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if spec.site_phase:
        return np.diag([1.0, np.exp(-2j * p.gamma)]) @ sx
    return sx


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
    that norm is smaller.
    """
    W = _spinor_part(spec, p)
    pp = apply_parameter_map(spec, p)
    kxs = -np.pi + 2 * np.pi * np.arange(nx) / nx
    kys = -np.pi + 2 * np.pi * np.arange(ny) / ny
    # kx on the first axis, so first-occurrence argmax/argmin break ties
    # the way a kx-outer scan over the grid does
    kx, ky = kxs[:, None], kys[None, :]
    h_a = bloch_hamiltonian(p, *_momentum_action(spec, p, kx, ky))
    h_t = bloch_hamiltonian(pp, -kx, -ky)
    r_r = np.linalg.norm(h_a @ W - W @ h_t.swapaxes(-1, -2), axis=(-2, -1))
    r_l = np.linalg.norm(W @ h_t.conj() - h_a.conj().swapaxes(-1, -2) @ W, axis=(-2, -1))
    r = np.maximum(r_r, r_l)
    worst = np.unravel_index(np.argmax(r), r.shape)
    best = np.unravel_index(np.argmin(r), r.shape)
    scale = max(float(np.linalg.norm(h_a, axis=(-2, -1)).max()), 1.0)
    return SymmetryReport(
        name=spec.name,
        right_residual=float(r_r[worst] / scale),
        left_residual=float(r_l[worst] / scale),
        grid_max_k=(float(kxs[worst[0]]), float(kys[worst[1]])),
        grid_min_residual=float(r[best] / scale),
        grid_min_k=(float(kxs[best[0]]), float(kys[best[1]])),
        holds=bool(r[worst] / scale < HOLD_TOL),
    )


def _operator_matrix(spec: CompositeSymmetrySpec, p: ModelParams,
                     nx: int, ny: int) -> np.ndarray:
    """Explicit matrix part of the composite operator on an nx-by-ny torus."""
    ncell = nx * ny
    idx = lambda ix, iy: (iy % ny) * nx + (ix % nx)
    P = np.zeros((ncell, ncell))
    for ix in range(nx):
        for iy in range(ny):
            P[idx(ix + spec.translation_x, iy), idx(ix, iy)] = 1.0
    if spec.reflect_y:
        R = np.zeros((ncell, ncell))
        for ix in range(nx):
            for iy in range(ny):
                R[idx(ix, -iy), idx(ix, iy)] = 1.0
        P = R @ P
    A = np.zeros((2 * ncell, 2 * ncell), dtype=complex)
    A[:ncell, ncell:] = P   # sublattice swap a <- b
    A[ncell:, :ncell] = P
    if spec.site_phase:
        phase = np.empty(ncell, dtype=complex)
        for ix in range(nx):
            for iy in range(ny):
                phase[idx(ix, iy)] = np.exp(2j * p.gamma * (iy - ix))
        D = np.concatenate([phase, phase * np.exp(-2j * p.gamma)])
        A = np.diag(D) @ A
    return A


def check_realspace(p: ModelParams, spec: CompositeSymmetrySpec,
                    nx: int = 4, ny: int = 4) -> SymmetryReport:
    """Brute-force verification on a periodic torus.

    Builds the full operator matrix A and the Hamiltonians at the original
    and mapped parameters, then evaluates |H(p) A - A H(pi(p))^T| and
    |A conj(H(pi(p))) - H(p)^dag A| (Frobenius, relative to |H|).  This is
    the ground-truth form the Bloch check is calibrated against.
    """
    if nx % 2:
        raise ValueError("nx must be even (the translated operator must wrap)")
    if spec.site_phase:
        for n, label in ((nx, "nx"), (ny, "ny")):
            wind = 2.0 * p.gamma * n / (2 * np.pi)
            if abs(wind - round(wind)) > 1e-12:
                raise ValueError(
                    f"site phases are incommensurate with {label}={n} at gamma={p.gamma}")
    A = _operator_matrix(spec, p, nx, ny)
    H = real_space_hamiltonian(p, nx, ny)
    Hp = real_space_hamiltonian(apply_parameter_map(spec, p), nx, ny)
    scale = max(1.0, float(np.linalg.norm(H)))
    r_r = float(np.linalg.norm(H @ A - A @ Hp.T) / scale)
    r_l = float(np.linalg.norm(A @ np.conj(Hp) - H.conj().T @ A) / scale)
    worst = max(r_r, r_l)
    return SymmetryReport(
        name=spec.name, right_residual=r_r, left_residual=r_l,
        grid_max_k=(float("nan"), float("nan")),
        grid_min_residual=worst, grid_min_k=(float("nan"), float("nan")),
        holds=bool(worst < HOLD_TOL),
    )


def pair_product_phase(spec_r: CompositeSymmetrySpec,
                       spec_l: CompositeSymmetrySpec, k) -> complex:
    """Bloch phase of the composed right/left pair at momentum k.

    The pair composes to a pure two-step translation, times -1 when the
    sublattice swap has to pass the reflection (they anticommute on the
    lattice), with the site-phase dressing dropping out in its commensurate
    regime.  The returned value is that phase, exp(-2i kx) times the sign;
    it equals -1 at the protected momenta: X for upsilon, M for
    upsilon_prime and Gamma for upsilon_doubleprime.
    """
    if spec_r.name != spec_l.name:
        raise ValueError(
            f"not an R/L pair: {spec_r.name!r} vs {spec_l.name!r}; "
            "composition is not a pure translation")
    if {spec_r.side, spec_l.side} != {"R", "L"}:
        raise ValueError("need one R spec and one L spec")
    kx, _ = k
    sign = -1.0 if spec_r.reflect_y else 1.0
    steps = spec_r.translation_x + spec_l.translation_x
    angle = -kx * steps
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
    from .model import X1_POINTS, X2_POINTS, discriminant_function

    reports = {name: check_bloch(p, builtin_spec(name, "R"), nx, ny)
               for name in BUILTIN_NAMES}
    eta_x1 = complex(discriminant_function(p, *X1_POINTS[0]))
    eta_x2 = complex(discriminant_function(p, *X2_POINTS[0]))
    return {
        "reports": reports,
        "eta_X1": eta_x1,
        "eta_X2": eta_x2,
        "holding": [name for name, rep in reports.items() if rep.holds],
    }
