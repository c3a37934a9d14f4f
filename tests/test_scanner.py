"""Tests for the Brillouin-zone degeneracy scanner and contour extraction."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

import nhdeg.scanner
from _oracles import local_minima_rolls, near_vertex_nodes_loops, sign_change_cells_stacked
from nhdeg.model import (ModelParams, _k_grid, discriminant_function, dispersion,
                         phase_boundaries)
from nhdeg.scanner import (ScalarField, _local_minima, _marching_squares,
                           _near_vertex_nodes, _sign_change_cells, fermi_curves,
                           find_degeneracies, scan_discriminant, zero_curves)
from nhdeg.symmetry import _momentum_action, builtin_spec, pair_product_phase, symmetry_survey

X_TARGETS = [(np.pi / 2, np.pi / 2), (np.pi / 2, -np.pi / 2),
             (-np.pi / 2, np.pi / 2), (-np.pi / 2, -np.pi / 2)]


def wrapped(d):
    """Coordinate differences reduced to their nearest image, in [-pi, pi)."""
    return (np.asarray(d) + np.pi) % (2 * np.pi) - np.pi


def torus_dist(a, b):
    d = np.abs(wrapped(np.asarray(a) - np.asarray(b)))
    return float(np.hypot(*d))


def nearest_target(point, targets):
    return min(torus_dist((point.kx, point.ky), t) for t in targets)


# ---------------------------------------------------------------------------
# field sampling

def test_scan_grid_layout():
    fld = scan_discriminant(ModelParams(), 32, 16)
    assert fld.values.shape == (16, 32)
    assert fld.kx[0] == pytest.approx(-np.pi)
    assert fld.kx[-1] < np.pi
    # sample ordering: values[iy, ix] = eta(kx[ix], ky[iy])
    val = discriminant_function(ModelParams(), fld.kx[5], fld.ky[3])
    assert fld.values[3, 5] == pytest.approx(val)


def test_scan_minimum_size():
    with pytest.raises(ValueError):
        scan_discriminant(ModelParams(), 8, 8)


@pytest.mark.parametrize("budget,nx,ny", [
    (None, 64, 64),     # the default budget: one block
    (None, 121, 121),   # the default budget: two blocks
    (None, 16, 2000),   # the default budget over many rows
    (48, 16, 37),       # 3-row blocks; 37 rows leave a 1-row tail
    (10, 17, 20),       # a budget below nx: one row per block
    (16 * 23, 16, 23),  # exactly one full block
])
def test_scan_blocks_match_one_call(monkeypatch, budget, nx, ny):
    if budget is not None:
        monkeypatch.setattr(nhdeg.scanner, "_BLOCK_POINTS", budget)
    for p in (ModelParams(t1=0.75, ga=0.5, gb=0.3), ModelParams(gamma=0.5, gx=0.5, gy=0.3),
              ModelParams(t1=0.3, v=0.4, gamma=0.7, mu_a=0.2)):
        fld = scan_discriminant(p, nx, ny)
        kx, ky = _k_grid(nx), _k_grid(ny)
        want = np.asarray(discriminant_function(p, kx[None, :], ky[:, None]), dtype=complex)
        assert fld.values.shape == want.shape == (ny, nx)
        assert fld.values.tobytes() == want.tobytes()


def test_hermitian_field_is_real():
    fld = scan_discriminant(ModelParams(t1=0.3, v=0.4, gamma=0.7), 32, 32)
    assert np.abs(fld.values.imag).max() < 1e-12


def test_regime1_field_vanishes_only_at_x():
    p = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    fld = scan_discriminant(p, 201, 201)
    absval = np.abs(fld.values)
    iy, ix = np.unravel_index(np.argmin(absval), absval.shape)
    k_min = (fld.kx[ix], fld.ky[iy])
    assert min(torus_dist(k_min, t) for t in X_TARGETS) < 0.05
    # away from the four X points the field stays bounded from below
    KX, KY = np.meshgrid(fld.kx, fld.ky)
    far = np.ones_like(absval, dtype=bool)
    for tx, ty in X_TARGETS:
        dx = np.abs((KX - tx + np.pi) % (2 * np.pi) - np.pi)
        dy = np.abs((KY - ty + np.pi) % (2 * np.pi) - np.pi)
        far &= np.hypot(dx, dy) > 0.3
    assert absval[far].min() > 1e-2


# ---------------------------------------------------------------------------
# degeneracy finding

def test_regime1_four_nondefective_points():
    p = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    res = find_degeneracies(p, 301, 301)
    assert len(res.points) == 4
    assert len(res.unresolved) == 0
    for q in res.points:
        assert q.kind == "nondefective"
        assert nearest_target(q, X_TARGETS) < 1e-6
        assert q.eta_residual < 1e-10
        assert abs(q.lambda0) < 1e-10
    # the scan keeps the field it sampled
    assert np.array_equal(res.field.values, scan_discriminant(p, 301, 301).values)


def test_regime1_robustness_random_draws():
    rng = np.random.default_rng(101)
    for _ in range(10):
        p = ModelParams(gamma=rng.uniform(0.05, np.pi / 2 - 0.05),
                        gx=rng.uniform(-1, 1), gy=rng.uniform(-1, 1))
        res = find_degeneracies(p, 201, 201)
        assert len(res.nondefective) == 4
        assert len(res.defective) == 0


def test_regime3_robustness_random_draws():
    # the non-defective touchings sit exactly at M (gamma = 0) or Gamma
    # (gamma = pi/2) for every t1, ga, gb; 1e-6 is the criterion-4 bound
    rng = np.random.default_rng(103)
    for _ in range(10):
        gamma = float(rng.choice([0.0, np.pi / 2]))
        p = ModelParams(t1=rng.uniform(0.2, 1.0), ga=rng.uniform(-1, 1),
                        gb=rng.uniform(-1, 1), gamma=gamma)
        targets = ([(np.pi, 0.0), (0.0, np.pi)] if gamma == 0.0
                   else [(0.0, 0.0), (np.pi, np.pi)])
        res = find_degeneracies(p, 201, 201)
        assert len(res.unresolved) == 0
        assert len(res.nondefective) == 2
        for q in res.nondefective:
            assert nearest_target(q, targets) < 1e-6


def test_regime3_gamma0_m_points_and_defective():
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)
    res = find_degeneracies(p, 301, 301)
    assert len(res.unresolved) == 0
    m_targets = [(np.pi, 0.0), (0.0, np.pi)]
    nondef = res.nondefective
    assert len(nondef) == 2
    for q in nondef:
        assert nearest_target(q, m_targets) < 1e-6
    assert len(res.defective) >= 2
    for q in res.defective:
        assert q.coalescence_overlap > 1 - 1e-6
        assert q.eta_residual < 1e-10


def test_regime3_gamma_half_pi_gamma_points():
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=np.pi / 2)
    res = find_degeneracies(p, 301, 301)
    g_targets = [(0.0, 0.0), (np.pi, np.pi)]
    assert len(res.nondefective) == 2
    for q in res.nondefective:
        assert nearest_target(q, g_targets) < 1e-6
    folded = find_degeneracies(p, 301, 301, fold=True).nondefective
    assert len(folded) == 1


def test_a_field_without_candidates_gives_an_empty_scan(monkeypatch):
    # a nan field has no sign change and no local minimum, so no seed
    p = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    fld = scan_discriminant(p, 16, 16)
    fld.values[:] = np.nan
    monkeypatch.setattr(nhdeg.scanner, "scan_discriminant", lambda *args: fld)
    for fold in (False, True):
        res = find_degeneracies(p, 16, 16, fold=fold)
        assert (res.points, res.n_candidates, res.n_dropped) == ([], 0, 0)
        assert res.field is fld


@pytest.mark.parametrize("fold", [False, True])
def test_point_order_is_stable_against_solver_noise(monkeypatch, fold):
    # the gamma = pi/2 Gamma pair lands within about 1e-8 of (0, 0) and
    # (pi, pi): nudging it across kx = 0 and across the seam kx = -pi ~ pi
    # must not move it past the defective points on those lines
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=np.pi / 2)
    refine = nhdeg.scanner._refine

    def nudged(delta):
        def solver(p, seeds, tol):
            k, absf, iters, converged = refine(p, seeds, tol)
            w = nhdeg.scanner._wrap(k)
            k = k.copy()
            k[np.abs(w).max(axis=1) < 1e-6] = (delta, 0.0)
            k[np.abs(np.abs(w) - np.pi).max(axis=1) < 1e-6] = (np.pi + delta, np.pi)
            return k, absf, iters, converged
        return solver

    orders = []
    for delta in (-1e-10, 1e-10):
        monkeypatch.setattr(nhdeg.scanner, "_refine", nudged(delta))
        points = find_degeneracies(p, 101, 101, fold=fold).points
        orders.append([(q.kind, round(q.ky, 6)) for q in points])
    assert orders[0] == orders[1]
    assert [kind for kind, _ in orders[0]].count("nondefective") == 1 + (not fold)


@pytest.mark.parametrize("fold", [False, True])
def test_seam_points_read_near_minus_pi(fold):
    # the gamma = pi/2 (pi, -pi) touching lands about 3.5e-9 below kx = pi;
    # it is reported at its k - 2 pi image, like the exact seam points
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=np.pi / 2)
    points = find_degeneracies(p, 301, 301, fold=fold).points
    half_step = np.pi / 2**20
    coords = [k for q in points for k in (q.kx, q.ky)]
    assert all(-np.pi - half_step <= k < np.pi - half_step for k in coords)
    seam = [q for q in points if abs(abs(q.kx) - np.pi) < 1e-6]
    assert seam and all(q.kx <= -np.pi + 1e-6 for q in seam)
    assert any(q.kx != -np.pi for q in seam)  # the image, not the constant -pi
    assert points == sorted(points, key=nhdeg.scanner._sort_key)


def test_gapped_regime_has_no_degeneracies():
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
    res = find_degeneracies(p, 201, 201)
    assert res.points == []
    assert res.field.values.shape == (201, 201)


def test_regime2_boundary_recovers_x2_points():
    # gap-closure oracle via the boundary potential
    from nhdeg.model import phase_boundaries
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
    _, v2 = phase_boundaries(p)
    res = find_degeneracies(p.replace(v=v2), 301, 301)
    x2 = [(np.pi / 2, -np.pi / 2), (-np.pi / 2, np.pi / 2)]
    assert len(res.nondefective) == 2
    for q in res.nondefective:
        assert nearest_target(q, x2) < 1e-6
    assert not res.defective


_TOPO = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
CLOSURE_REGIMES = {
    "pinned": ModelParams(gamma=0.5, gx=0.5, gy=0.3),
    "gap_closure": _TOPO.replace(v=phase_boundaries(_TOPO)[1]),
    "coexist_gamma0": _TOPO.replace(gamma=0.0),
    "coexist_gamma_half_pi": _TOPO.replace(gamma=np.pi / 2),
    "topological": _TOPO,
    "coexist_v002": _TOPO.replace(gamma=0.0, v=0.02),
}


@pytest.mark.parametrize("name", CLOSURE_REGIMES)
def test_scan_points_are_closed_under_their_symmetries(name):
    # a self-consistency check: k -> -k and the momentum action of every
    # holding composite symmetry (on k and on -k) map each found point onto
    # a found point
    p = CLOSURE_REGIMES[name]
    found = np.array([(q.kx, q.ky) for q in find_degeneracies(p, 301, 301).points])
    maps = [lambda kx, ky: (-kx, -ky)]
    for spec_name in symmetry_survey(p)["holding"]:
        spec = builtin_spec(spec_name)
        maps += [lambda kx, ky, spec=spec: _momentum_action(spec, p, kx, ky),
                 lambda kx, ky, spec=spec: _momentum_action(spec, p, -kx, -ky)]
    for kx, ky in found:
        for action in maps:
            image = action(kx, ky)
            assert min(torus_dist(image, q) for q in found) < 1e-6, (name, (kx, ky), image)


COARSE = (41, 51, 61, 81, 101)


@pytest.mark.parametrize("n", COARSE)
def test_coarse_grids_find_every_pinned_point(n):
    # the grid |eta| next to these points stays far above zero on coarse
    # grids (0.07 near X at 41^2), so every local minimum must be seeded
    pinned = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    res = find_degeneracies(pinned, n, n)
    assert len(res.nondefective) == 4 and not res.defective
    assert all(nearest_target(q, X_TARGETS) < 1e-6 for q in res.points)
    for gamma, targets in ((0.0, [(np.pi, 0.0), (0.0, np.pi)]),
                           (np.pi / 2, [(0.0, 0.0), (np.pi, np.pi)])):
        res = find_degeneracies(ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=gamma), n, n)
        assert len(res.nondefective) == 2 and len(res.defective) == 4
        assert not res.unresolved
        assert all(nearest_target(q, targets) < 1e-6 for q in res.nondefective)
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
    res = find_degeneracies(p.replace(v=phase_boundaries(p)[1]), n, n)
    x2 = [(np.pi / 2, -np.pi / 2), (-np.pi / 2, np.pi / 2)]
    assert len(res.nondefective) == 2 and not res.defective and not res.unresolved
    assert all(nearest_target(q, x2) < 1e-6 for q in res.nondefective)


def test_gap_closure_point_left_on_a_zero_of_eta_is_polished():
    # eta = 4 d.d vanishes about 1e-7 beside each X2 point where d does not,
    # and a solver that only drives eta down can stop there: the first draw
    # then read neither kind, the second read 'defective'.  The Gauss-Newton
    # move on d lands on X2 itself
    x2 = [(np.pi / 2, -np.pi / 2), (-np.pi / 2, np.pi / 2)]
    for p in (ModelParams(t1=0.78, ga=0.55, gb=0.13, gamma=0.31),
              ModelParams(t1=0.75111, ga=0.47715, gb=0.31991, gamma=0.31926)):
        res = find_degeneracies(p.replace(v=phase_boundaries(p)[1]), 301, 301)
        assert not res.unresolved and not res.defective
        assert len(res.nondefective) == 2
        for q in res.nondefective:
            assert nearest_target(q, x2) < 1e-12
            assert q.eta_residual < 1e-25


def test_readme_recipes_converge_in_few_steps():
    # every README point within 30 steps; the quadratic Gamma pair takes the
    # most, and lands close enough that its pair phase reads -1 to 1e-7
    diag = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
    recipes = [ModelParams(gamma=0.5, gx=0.5, gy=0.3), diag,
               diag.replace(v=phase_boundaries(diag)[1]),
               diag.replace(gamma=0.0), diag.replace(gamma=np.pi / 2)]
    results = [find_degeneracies(p, 301, 301) for p in recipes]
    assert all(q.newton_iters <= 30 for res in results for q in res.points)
    spec = builtin_spec("upsilon_prime")
    assert len(results[-1].nondefective) == 2
    for q in results[-1].nondefective:
        assert abs(pair_product_phase(spec, (q.kx, q.ky)) + 1) < 1e-7


def test_refinement_grid_independent():
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)
    res_a = find_degeneracies(p, 201, 201)
    res_b = find_degeneracies(p, 402, 402)
    assert len(res_a.points) == len(res_b.points)
    for qa in res_a.points:
        moved = min(torus_dist((qa.kx, qa.ky), (qb.kx, qb.ky))
                    for qb in res_b.points)
        assert moved < 1e-6


def test_eigenvalue_gap_bound():
    # every reported point satisfies |eps+ - eps-| <= 10 sqrt(tol)
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)
    tol = 1e-13
    res = find_degeneracies(p, 201, 201, tol=tol)
    for q in res.points:
        plus, minus = dispersion(p, q.kx, q.ky)
        assert abs(plus - minus) <= 10 * np.sqrt(tol)


# ---------------------------------------------------------------------------
# zero curves

def test_zero_curves_constant_positive_field():
    kx = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    fld = ScalarField(kx=kx, ky=kx, values=np.ones((32, 32), dtype=complex))
    curve = zero_curves(fld, "Re_eta")
    assert curve.polylines == []
    assert not curve.everywhere_zero


def test_zero_curves_rejects_an_unknown_component():
    kx = np.linspace(-np.pi, np.pi, 8, endpoint=False)
    fld = ScalarField(kx=kx, ky=kx, values=np.ones((8, 8), dtype=complex))
    with pytest.raises(ValueError, match="unknown component 'abs'"):
        zero_curves(fld, "abs")


def test_zero_curves_synthetic_cosine():
    # f = cos(kx): vertical contour lines at kx = +-pi/2
    n = 201
    kx = np.linspace(-np.pi, np.pi, n, endpoint=False)
    KX, _ = np.meshgrid(kx, kx)
    fld = ScalarField(kx=kx, ky=kx, values=np.cos(KX).astype(complex))
    curve = zero_curves(fld, "Re_eta")
    assert curve.polylines
    for line in curve.polylines:
        # linear edge interpolation of a smooth field: O(h^2) placement
        assert np.all(np.abs(np.abs(line[:, 0]) - np.pi / 2) < 1e-3)
        assert len(line) > 100


def test_zero_curve_intersections_mark_defective_points():
    # the crossings of the Re and Im zero curves locate the defective points
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)
    fld = scan_discriminant(p, 301, 301)
    re_curve = zero_curves(fld, "Re_eta")
    im_curve = zero_curves(fld, "Im_eta")
    res = find_degeneracies(p, 301, 301)
    cell = 2 * np.pi / 300
    re_pts = np.vstack([li for li in re_curve.polylines if len(li)])
    im_pts = np.vstack([li for li in im_curve.polylines if len(li)])

    def torus_min_dist(pts, q):
        dx = np.abs((pts[:, 0] - q.kx + np.pi) % (2 * np.pi) - np.pi)
        dy = np.abs((pts[:, 1] - q.ky + np.pi) % (2 * np.pi) - np.pi)
        return np.hypot(dx, dy).min()

    for q in res.defective:
        assert torus_min_dist(re_pts, q) < 2 * cell
        assert torus_min_dist(im_pts, q) < 2 * cell


def test_everywhere_zero_flag():
    kx = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    fld = ScalarField(kx=kx, ky=kx, values=np.zeros((32, 32), dtype=complex))
    assert zero_curves(fld, "Im_eta").everywhere_zero


# ---------------------------------------------------------------------------
# fermi curves

def test_fermi_curves_regime1_intermediate_gamma():
    p = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    im_curves = fermi_curves(p, 201, 201, "im", "+")
    assert im_curves.polylines  # i-Fermi states exist
    re_curves = fermi_curves(p, 201, 201, "re", "+")
    assert re_curves.polylines == []  # Re eps+ >= 0 vanishes only at X points
    # the global minimum of Re eps+ sits at the X points
    kx = np.linspace(-np.pi, np.pi, 201, endpoint=False)
    KX, KY = np.meshgrid(kx, kx)
    plus, _ = dispersion(p, KX, KY)
    iy, ix = np.unravel_index(np.argmin(plus.real), plus.real.shape)
    assert min(torus_dist((kx[ix], kx[iy]), t) for t in X_TARGETS) < 0.05


def test_fermi_curves_hermitian_imaginary_flagged():
    curve = fermi_curves(ModelParams(gamma=0.3), 64, 64, "im", "+")
    assert curve.everywhere_zero


def test_fermi_curves_gamma_zero_r_and_i_coincide():
    # with a vanishing Peierls phase the spectrum is zero along the
    # exceptional curves, so the r- and i-Fermi sets share their boundary;
    # both extracted curve families must track each other at grid scale
    p = ModelParams(gamma=0.0, gx=0.5, gy=0.3)
    re_curve = fermi_curves(p, 201, 201, "re", "+")
    im_curve = fermi_curves(p, 201, 201, "im", "+")
    assert re_curve.polylines and im_curve.polylines
    re_pts = np.vstack(re_curve.polylines)
    im_pts = np.vstack(im_curve.polylines)
    cell = 2 * np.pi / 200
    dists = [np.hypot(im_pts[:, 0] - x, im_pts[:, 1] - y).min()
             for x, y in re_pts[::7]]
    assert np.median(dists) < 2 * cell


def test_fermi_curves_validation():
    with pytest.raises(ValueError):
        fermi_curves(ModelParams(), 64, 64, "abs", "+")
    with pytest.raises(ValueError):
        fermi_curves(ModelParams(), 64, 64, "re", "0")


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-13])
def test_find_degeneracies_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # a nan tol dropped every candidate and an infinite one kept every seed
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        find_degeneracies(ModelParams(t1=0.75, ga=0.5, gb=0.3), 31, 31, tol=tol)


@pytest.mark.parametrize("nx,ny,axis", [(1, 51, "kx"), (51, 1, "ky"), (0, 0, "kx")])
def test_zero_curves_need_two_samples_per_axis(nx, ny, axis):
    message = f"at least 2 samples on the {axis} axis, got {min(nx, ny)}$"
    with pytest.raises(ValueError, match=message):
        fermi_curves(ModelParams(), nx, ny)
    fld = ScalarField(kx=_k_grid(nx), ky=_k_grid(ny), values=np.ones((ny, nx), complex))
    for which in ("Re_eta", "Im_eta", "field"):
        with pytest.raises(ValueError, match=message):
            zero_curves(fld, which)


# ---------------------------------------------------------------------------
# contour layer against the per-cell reference
#
# ref_marching_squares and ref_stitch are the earlier per-cell loop on the
# seam-padded grid and the distance-based stitch, the latter measuring the
# distance on the torus: segments must match them bit for bit, and on fields
# without exact zeros so must the polylines, up to the 2 pi image of a seam
# vertex.

_REF_SEGMENT_TABLE = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
    5: [(3, 0), (1, 2)], 10: [(0, 1), (2, 3)],
}


def ref_marching_squares(kx, ky, values, zero_tol):
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
            if code in (5, 10) and sum(corners) / 4.0 > zero_tol:
                # the center joins the above corners: cut off the other pair
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

            for e1, e2 in _REF_SEGMENT_TABLE[code]:
                segments.append((edge_point(e1), edge_point(e2)))
    return segments


def torus_gap(p, q):
    """Torus distance of two (kx, ky) points, in Python floats: ref_stitch
    measures every pair of chain and segment ends."""
    dx = (p[0] - q[0] + math.pi) % (2 * math.pi) - math.pi
    dy = (p[1] - q[1] + math.pi) % (2 * math.pi) - math.pi
    return math.hypot(dx, dy)


def ref_stitch(segments, tol):
    segs = [[tuple(map(float, end)) for end in s] for s in segments]
    polylines = []
    while segs:
        chain = segs.pop()
        grown = True
        while grown:
            grown = False
            for i, s in enumerate(segs):
                for end, attach in ((chain[-1], "tail"), (chain[0], "head")):
                    hit = None
                    if torus_gap(s[0], end) < tol:
                        hit = s[1]
                    elif torus_gap(s[1], end) < tol:
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


def ref_point_zeros(fld, comp, vertices):
    """The point-zero rule: grid minima >= 2 cells (torus) from every vertex."""
    scale = float(np.abs(comp).max())
    dk = max(fld.kx[1] - fld.kx[0], fld.ky[1] - fld.ky[0])
    pts = []
    for iy, ix in _local_minima(np.abs(comp), threshold=1e-6 * max(1.0, scale)):
        pt = (float(fld.kx[ix]), float(fld.ky[iy]))
        if not (len(vertices) and np.hypot(*wrapped(vertices - pt).T).min() < 2 * dk):
            pts.append(pt)
    return pts


def padded(fld, comp):
    """The seam-padded grid that zero_curves traces."""
    return (np.append(fld.kx, np.pi), np.append(fld.ky, np.pi),
            np.pad(comp, ((0, 1), (0, 1)), mode="wrap"))


def random_fields():
    rng = np.random.default_rng(7)
    k = {n: np.linspace(-np.pi, np.pi, n, endpoint=False) for n in (17, 40, 61)}
    for n in (17, 40, 61):
        for rounded in (False, True):
            values = 3 * rng.standard_normal((n, n))
            if rounded:  # exact zeros, ties and saddles
                values = np.round(values)
            yield ScalarField(kx=k[n], ky=k[n], values=values.astype(complex))


def zero_free_fields():
    n = 121
    q = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
    regimes = [ModelParams(gamma=0.5, gx=0.5, gy=0.3),
               q.replace(v=phase_boundaries(q)[1]),
               ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)]
    for p in regimes:
        fld = scan_discriminant(p, n, n)
        yield ScalarField(fld.kx, fld.ky, fld.values.real.astype(complex))
        yield ScalarField(fld.kx, fld.ky, fld.values.imag.astype(complex))
    k = np.linspace(-np.pi, np.pi, n, endpoint=False)
    values = np.cos(k)[None, :] + np.cos(k)[:, None] + 0.3
    yield ScalarField(kx=k, ky=k, values=values.astype(complex))


def stacked(lines):
    return np.vstack(lines) if lines else np.zeros((0, 2))


def torus_tree(points):
    """A cKDTree that measures the distance on the torus [-pi, pi)^2."""
    return cKDTree((points + np.pi) % (2 * np.pi), boxsize=2 * np.pi)


def same_polyline(a, b, tol=1e-12):
    """Equal vertex by vertex on the torus up to reversal and, for closed
    loops, rotation."""
    if a.shape != b.shape:
        return False
    gap = lambda x, y: np.abs(wrapped(x - y))
    closed = gap(a[0], a[-1]).max() <= tol
    for c in (b, b[::-1]):
        if not closed:
            if gap(a, c).max() <= tol:
                return True
            continue
        core = c[:-1]
        for i in np.flatnonzero(gap(core, a[0]).max(axis=1) <= tol):
            turned = np.roll(core, -i, axis=0)
            if gap(a, np.vstack([turned, turned[:1]])).max() <= tol:
                return True
    return False


def test_marching_squares_matches_per_cell_reference():
    # the rounded fields (exact zeros and ties) also at extreme magnitudes:
    # the reference guards va == vb and clips the edge fraction to [0, 1]
    fields = list(random_fields())
    scaled = [ScalarField(f.kx, f.ky, f.values * scale)
              for f in fields[1::2] for scale in (1e300, 1e-300)]
    for fld in fields + scaled:
        kx, ky, comp = padded(fld, fld.values.real)
        for level in (0.0, 1.0):
            ref = np.array(ref_marching_squares(kx, ky, comp - level, 0.0),
                           dtype=float).reshape(-1, 2, 2)
            points, edges = _marching_squares(fld.kx, fld.ky, fld.values.real - level)
            assert points.shape == ref.shape
            assert points.tobytes() == ref.tobytes()
            # a torus edge holds at most two ends, and they coincide modulo 2 pi
            order = np.argsort(edges.ravel(), kind="stable")
            ids, ends = edges.ravel()[order], points.reshape(-1, 2)[order]
            assert np.all(ids[2:] != ids[:-2])
            shared = np.flatnonzero(ids[1:] == ids[:-1])
            assert np.abs(wrapped(ends[shared] - ends[shared + 1])).max(initial=0) < 1e-12


def test_marching_squares_saddle_joins_corners_through_center():
    # corners 0 and 2 above, center (2 - 1 + 2 - 1) / 4 = 0.5 above as well:
    # the segments cut off the below corners 1 and 3.  The 2x2 input is a
    # torus of four such saddle cells; the first cell is the one asserted
    points, _ = _marching_squares(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                                  np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert points.shape == (8, 2, 2)
    np.testing.assert_allclose(points[:2], [[[2 / 3, 0], [1, 1 / 3]],
                                            [[1 / 3, 1], [0, 2 / 3]]], atol=1e-15)


def test_zero_curves_match_reference_on_zero_free_fields():
    for fld in zero_free_fields():
        comp = fld.values.real
        assert np.all(comp != 0)
        ref = ref_stitch(ref_marching_squares(*padded(fld, comp), 0.0), 1e-9)
        curve = zero_curves(fld, "field")
        assert len(curve.polylines) == len(ref)
        unmatched = list(curve.polylines)
        for line in ref:
            hit = next(i for i, b in enumerate(unmatched) if same_polyline(line, b))
            unmatched.pop(hit)
        assert curve.point_zeros == ref_point_zeros(fld, comp, stacked(ref))


def test_zero_curves_vertices_and_point_zeros_match_reference():
    # the reference polylines hold exactly the reference segment ends, so the
    # vertex sets are compared against those ends on every field
    for fld in [*random_fields(), *zero_free_fields()]:
        comp = fld.values.real
        ends = np.array(ref_marching_squares(*padded(fld, comp), 0.0),
                        dtype=float).reshape(-1, 2)
        curve = zero_curves(fld, "field")
        vertices = stacked(curve.polylines)
        assert len(vertices) > 0 or len(ends) == 0
        if len(ends):
            assert torus_tree(ends).query((vertices + np.pi) % (2 * np.pi))[0].max() <= 1e-12
            assert torus_tree(vertices).query((ends + np.pi) % (2 * np.pi))[0].max() <= 1e-12
        assert curve.point_zeros == ref_point_zeros(fld, comp, ends)


def test_zero_curves_plateau_partition():
    # at gamma = 0 both bands vanish on whole regions, so many grid samples
    # are exactly zero; polylines join only through shared grid edges
    p = ModelParams(gamma=0.0, gx=0.5, gy=0.3)
    n = 51
    cell = 2 * np.pi / n
    for which in ("re", "im"):
        curve = fermi_curves(p, n, n, which, "+")
        assert curve.polylines
        for line in curve.polylines:
            steps = np.hypot(*wrapped(np.diff(line, axis=0)).T)
            assert steps.sum() > 0
            assert steps.max() <= np.sqrt(2) * cell * (1 + 1e-9)
    # one contour that stays clear of the seam closes into a single loop
    n = 121
    k = np.linspace(-np.pi, np.pi, n, endpoint=False)
    values = np.cos(k)[None, :] + np.cos(k)[:, None] - 0.3
    assert np.all(values != 0)
    curve = zero_curves(ScalarField(kx=k, ky=k, values=values.astype(complex)), "field")
    assert len(curve.polylines) == 1
    loop = curve.polylines[0]
    assert len(loop) > 100
    assert np.array_equal(loop[0], loop[-1])


# ---------------------------------------------------------------------------
# contours on the torus: curves join across the seam kx, ky = -pi ~ pi

def torus_field(values):
    ny, nx = values.shape
    return ScalarField(kx=_k_grid(nx), ky=_k_grid(ny), values=values.astype(complex))


def test_seam_zero_line_is_a_closed_loop_and_no_point_zero():
    # sin kx vanishes on kx = 0 and on the seam kx = -pi ~ pi: each line is
    # one loop around the ky circle, and the seam line is not also reported
    # as a column of point zeros at kx = -pi
    k = _k_grid(64)
    curve = zero_curves(torus_field(np.broadcast_to(np.sin(k), (64, 64))), "field")
    assert len(curve.polylines) == 2
    for line in curve.polylines:
        assert len(line) == 65
        assert np.array_equal(line[0], line[-1])
    assert curve.point_zeros == []


@pytest.mark.parametrize("which", ["Re_eta", "Im_eta"])
def test_eta_zero_curves_close_and_keep_clear_of_point_zeros(which):
    # the gamma = 0 coexistence recipe: one of its Re eta loops crosses the
    # seam, and its Im eta curves run along it
    fld = scan_discriminant(ModelParams(t1=0.75, ga=0.5, gb=0.3), 121, 121)
    curve = zero_curves(fld, which)
    assert curve.polylines
    assert all(np.array_equal(line[0], line[-1]) for line in curve.polylines)
    vertices = np.vstack(curve.polylines)
    for q in curve.point_zeros:
        assert np.hypot(*wrapped(vertices - q).T).min() >= 2 * (2 * np.pi / 121)


def test_loop_around_the_corner_crosses_both_seams_as_one_polyline():
    # cos kx + cos ky + 0.3 < 0 on a disc around (pi, pi), the four corners
    # of the square [-pi, pi)^2 on the torus
    k = _k_grid(121)
    curve = zero_curves(torus_field(np.cos(k)[None, :] + np.cos(k)[:, None] + 0.3), "field")
    assert len(curve.polylines) == 1
    loop = curve.polylines[0]
    assert np.array_equal(loop[0], loop[-1])
    # consecutive vertices straddle the seam on both axes, and every step is
    # a grid-scale move on the torus
    steps = np.diff(loop, axis=0)
    assert (np.abs(steps) > np.pi).any(axis=0).all()
    assert np.hypot(*wrapped(steps).T).max() <= np.sqrt(2) * 2 * np.pi / 121 * (1 + 1e-9)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_smallest_torus_pairs_every_edge_end(shape):
    # every cell is traced, so each crossed edge of the torus grid holds the
    # ends of the two cells beside it and every curve closes
    ny, nx = shape
    noise = np.random.default_rng(2).standard_normal(shape)
    checker = np.where(np.indices(shape).sum(axis=0) % 2, 1.0, -1.0)
    for values in (noise, np.round(noise), checker):  # rounding leaves exact zeros
        _, edges = _marching_squares(_k_grid(nx), _k_grid(ny), values)
        ids, counts = np.unique(edges, return_counts=True)
        assert len(ids) and np.all(counts == 2)
        assert 0 <= ids.min() and ids.max() < 2 * nx * ny
        curve = zero_curves(torus_field(values), "field")
        assert curve.polylines
        assert all(np.array_equal(line[0], line[-1]) for line in curve.polylines)


def ckdtree_point_zeros(fld, comp, polylines):
    """The cKDTree point-zero filter: nearest-vertex distance on the torus.

    Returns the point zeros and the number of grid minima it filtered.
    """
    dk = max(fld.kx[1] - fld.kx[0], fld.ky[1] - fld.ky[0])
    scale = float(np.abs(comp).max())
    iy, ix = _local_minima(np.abs(comp), threshold=1e-6 * max(1.0, scale)).T
    pts = np.column_stack([fld.kx[ix], fld.ky[iy]])
    if polylines:
        dist, _ = torus_tree(np.vstack(polylines)).query((pts + np.pi) % (2 * np.pi))
        pts = pts[dist >= 2 * dk]
    return [tuple(q) for q in pts.tolist()], len(iy)


def point_zero_fields():
    rng = np.random.default_rng(41)
    for ny, nx in ((17, 17), (40, 61), (61, 40), (64, 64)):
        kx, ky = _k_grid(nx), _k_grid(ny)
        smooth = (np.cos(kx)[None, :] + 0.7 * np.cos(2 * ky)[:, None]
                  + 0.2 * rng.standard_normal((ny, nx)))
        noise = 3 * rng.standard_normal((ny, nx))
        # exact zeros, ties, plateaus next to contours, isolated even zeros
        for values in (noise, np.round(noise), np.round(2 * smooth),
                       np.maximum(smooth - 0.3, 0.0), np.round(smooth) ** 2):
            yield ScalarField(kx=kx, ky=ky, values=values.astype(complex))
    # the gamma = 0 band plateaus: tens of thousands of point-zero candidates
    kx = ky = _k_grid(201)
    plus, _ = dispersion(ModelParams(gamma=0.0, gx=0.5, gy=0.3), kx[None, :], ky[:, None])
    yield ScalarField(kx=kx, ky=ky, values=plus.imag.astype(complex))


def test_point_zero_grid_filter_matches_ckdtree():
    kept_and_dropped = 0
    for fld in point_zero_fields():
        curve = zero_curves(fld, "field")
        ref, n_minima = ckdtree_point_zeros(fld, fld.values.real, curve.polylines)
        assert curve.point_zeros == ref
        kept_and_dropped += 0 < len(ref) < n_minima
    # the filter both keeps and drops minima on most fields with zeros,
    # including the 201^2 plateau field (32 855 point zeros)
    assert kept_and_dropped >= 8
    assert len(curve.point_zeros) > 10000


def vertex_sets(kx, ky, rng):
    """Seeded contour-like vertex sets on the grid of (kx, ky)."""
    nx, ny = len(kx), len(ky)
    yield np.array([[0.1, -0.2]])
    yield np.array([[np.pi, ky[ny // 2]]])
    for n in (5, 40, 300):
        free = rng.uniform(-np.pi, np.pi, size=(n, 2))
        nodes = np.column_stack([kx[rng.integers(0, nx, n)], ky[rng.integers(0, ny, n)]])
        lines = free.copy()
        lines[: n // 2, 0] = kx[rng.integers(0, nx, n // 2)]
        lines[n // 2:, 1] = ky[rng.integers(0, ny, n - n // 2)]
        seam = np.column_stack([np.full(n, np.pi), free[:, 1]])
        yield from (free, nodes, lines, seam, np.vstack([free, nodes, lines, seam]))


def test_near_vertex_nodes_matches_loop_oracle():
    rng = np.random.default_rng(15)
    for nx, ny in ((17, 29), (40, 61), (61, 40), (121, 64)):
        kx, ky = _k_grid(nx), _k_grid(ny)
        dk = max(kx[1] - kx[0], ky[1] - ky[0])
        for vertices in vertex_sets(kx, ky, rng):
            for radius in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
                mask = _near_vertex_nodes(kx, ky, vertices, radius * dk)
                want = near_vertex_nodes_loops(kx, ky, vertices, radius * dk)
                assert mask.shape == (ny, nx)
                assert np.array_equal(mask, want), (nx, ny, len(vertices), radius)
                if len(vertices) == 1 and vertices[0, 0] == np.pi:
                    # a vertex on the seam pi marks the node at its image -pi
                    assert mask[ny // 2, 0]


def minima_fields(rng):
    for shape in ((1, 1), (1, 9), (9, 1), (2, 2), (2, 7), (16, 16), (33, 20)):
        noise = rng.standard_normal(shape)
        ties = np.round(2 * noise)                        # ties and exact zeros
        plateau = np.maximum(np.abs(noise) - 0.8, 0.0)    # zero regions
        holes = noise.copy()
        holes.flat[rng.integers(0, holes.size, max(1, holes.size // 10))] = np.nan
        holes.flat[rng.integers(0, holes.size, max(1, holes.size // 10))] = np.inf
        at_threshold = np.where(ties == 0, 1e-6, ties)
        for values in (noise, ties, plateau, holes, at_threshold, np.zeros(shape)):
            yield np.abs(values)


def test_local_minima_matches_roll_oracle():
    rng = np.random.default_rng(16)
    for absval in minima_fields(rng):
        for threshold in (1e-6, np.inf):
            got = _local_minima(absval, threshold)
            want = local_minima_rolls(absval, threshold)
            assert got.shape == want.shape and np.array_equal(got, want), (
                absval.shape, threshold)


def sign_change_fields(rng):
    for shape in ((1, 1), (1, 9), (9, 1), (2, 2), (2, 7), (16, 16), (33, 20)):
        noise = rng.standard_normal(shape)
        ties = np.round(noise)                                # ties and exact zeros
        signed_zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        zeros = np.where(np.abs(noise) < 0.7, signed_zeros, noise)  # +-0 regions
        holes = noise.copy()
        holes.flat[rng.integers(0, holes.size, max(1, holes.size // 10))] = np.nan
        holes.flat[rng.integers(0, holes.size, max(1, holes.size // 10))] = -np.inf
        holes.flat[rng.integers(0, holes.size, max(1, holes.size // 10))] = np.inf
        parts = (noise, ties, zeros, holes, signed_zeros, np.zeros(shape))
        for re in parts:
            for im in parts:
                values = np.empty(shape, dtype=complex)
                values.real, values.imag = re, im  # no arithmetic: keeps -0.0
                yield values


def test_sign_change_cells_match_stacked_oracle():
    rng = np.random.default_rng(17)
    for values in sign_change_fields(rng):
        got = _sign_change_cells(values)
        want = sign_change_cells_stacked(values)
        assert got.shape == want.shape and np.array_equal(got, want), values.shape
