"""Tests for the Brillouin-zone degeneracy scanner and contour extraction."""

import numpy as np
import pytest

from nhdeg.model import ModelParams, discriminant_function, dispersion
from nhdeg.scanner import (ScalarField, fermi_curves, find_degeneracies,
                           fold_points, scan_discriminant, zero_curves)

X_TARGETS = [(np.pi / 2, np.pi / 2), (np.pi / 2, -np.pi / 2),
             (-np.pi / 2, np.pi / 2), (-np.pi / 2, -np.pi / 2)]


def torus_dist(a, b):
    d = np.abs((np.asarray(a) - np.asarray(b) + np.pi) % (2 * np.pi) - np.pi)
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
    folded = fold_points(res.nondefective)
    assert len(folded) == 1


def test_gapped_regime_has_no_degeneracies():
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
    res = find_degeneracies(p, 201, 201)
    assert res.points == []


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
