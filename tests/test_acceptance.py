"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 7 asserts a remainder exponent of 3 for the linear model at the X
points, not the generic 2: in the nearest-neighbour regime every entry of the
Bloch matrix is a combination of cos(kx) and cos(ky), and cos(pi/2 + p) =
-p + p^3/6, so H(X + p) = -H(X - p).  The quadratic Taylor term vanishes
identically and the remainder of the exact first-order model is O(|p|^3).
A wrong velocity leaves an O(|p|) error and a spurious quadratic term an
O(|p|^2) one, so the slope-3 band rejects both.
"""

import time

import numpy as np
from _oracles import match_eigenvalue_multisets
from nhdeg.model import (ModelParams, X1_POINTS, X2_POINTS, bloch_hamiltonian,
                         dispersion, linear_expansion, phase_boundaries,
                         quadratic_expansion, real_space_hamiltonian,
                         save_params)
from nhdeg.ribbon import (bulk_gap_interval, in_gap_indices, obc_defective_check,
                          ribbon_spectrum, skin_metric)
from nhdeg.scanner import find_degeneracies, scan_discriminant, zero_curves
from nhdeg.symmetry import (BUILTIN_NAMES, builtin_spec, check_bloch,
                            check_realspace, pair_product_phase)
from nhdeg.theorem import run_ensemble

X_ALL = X1_POINTS + X2_POINTS


def announce(num, ok, text):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def torus_dist(a, b):
    d = np.abs((np.asarray(a, float) - np.asarray(b, float) + np.pi)
               % (2 * np.pi) - np.pi)
    return float(np.hypot(*d))


def test_criterion_01_theorem_suite():
    """500 engineered twofold degeneracies, dims 2-8: every relation of the
    operator-pair construction within 1e-9 relative, in under 10 s."""
    t0 = time.time()
    rep = run_ensemble(dims=range(2, 9), trials=500, seed=0, bound=1e-9)
    elapsed = time.time() - t0
    worst = max(rep["max_residuals"].values())
    announce(1, rep["passed"] and elapsed < 10.0,
             f"worst residual {worst:.2e} over 500 trials in {elapsed:.1f}s")


def test_criterion_02_phase_boundary_number():
    """Closed-form boundary potential at t1=0.75, ga=0.5, gb=0.3."""
    _, v2 = phase_boundaries(ModelParams(t1=0.75, ga=0.5, gb=0.3))
    ok = abs(v2 - 3.2594) <= 1e-4 and abs(v2 - 3.26) <= 5e-3
    announce(2, ok, f"v2 = {v2:.6f} (target 3.2594 +- 1e-4, quoted 3.26 +- 5e-3)")


def test_criterion_03_regime1_robustness():
    """100 random draws: exactly 4 non-defective points pinned at the X
    momenta within 1e-6, |eta| < 1e-10, no defective points, under 60 s."""
    rng = np.random.default_rng(2024)
    t0 = time.time()
    for _ in range(100):
        p = ModelParams(gamma=rng.uniform(1e-3, np.pi / 2 - 1e-3),
                        gx=rng.uniform(-1, 1), gy=rng.uniform(-1, 1))
        res = find_degeneracies(p, 301, 301)
        assert len(res.points) == 4, (p, res.points)
        assert not res.defective and not res.unresolved, p
        for q in res.points:
            assert min(torus_dist((q.kx, q.ky), x) for x in X_ALL) < 1e-6, (p, q)
            assert q.eta_residual < 1e-10, (p, q)
    elapsed = time.time() - t0
    announce(3, elapsed < 60.0, f"100 draws x 301x301 grid in {elapsed:.1f}s")


def test_criterion_04_regime3_coexistence():
    """gamma = 0: non-defective at the M pair plus defective points on the
    Re/Im zero-curve crossings; gamma = pi/2: non-defective at Gamma."""
    p0 = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)
    res0 = find_degeneracies(p0, 301, 301)
    m_targets = [(np.pi, 0.0), (0.0, np.pi)]
    assert len(res0.nondefective) == 2 and not res0.unresolved
    for q in res0.nondefective:
        assert min(torus_dist((q.kx, q.ky), t) for t in m_targets) < 1e-6
        assert q.eta_residual < 1e-10
    assert len(res0.defective) >= 2
    fld = scan_discriminant(p0, 301, 301)
    re_pts = np.vstack(zero_curves(fld, "Re_eta").polylines)
    im_pts = np.vstack(zero_curves(fld, "Im_eta").polylines)
    cell = 2 * np.pi / 300
    for q in res0.defective:
        for pts in (re_pts, im_pts):
            dx = np.abs((pts[:, 0] - q.kx + np.pi) % (2 * np.pi) - np.pi)
            dy = np.abs((pts[:, 1] - q.ky + np.pi) % (2 * np.pi) - np.pi)
            assert np.hypot(dx, dy).min() < 2 * cell, q

    pg = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=np.pi / 2)
    resg = find_degeneracies(pg, 301, 301)
    g_targets = [(0.0, 0.0), (np.pi, np.pi)]
    assert len(resg.nondefective) == 2 and not resg.unresolved
    for q in resg.nondefective:
        assert min(torus_dist((q.kx, q.ky), t) for t in g_targets) < 1e-6
        assert q.eta_residual < 1e-10
    announce(4, True,
             f"gamma=0: M pair + {len(res0.defective)} defective on curve "
             f"crossings; gamma=pi/2: Gamma pair")


def draw_for_regime(rng, regime):
    if regime == "regime1":
        return ModelParams(gamma=rng.uniform(0.05, np.pi / 2 - 0.05),
                           gx=rng.uniform(-1, 1), gy=rng.uniform(-1, 1))
    if regime == "regime3":
        return ModelParams(t1=rng.uniform(0.2, 1.0), ga=rng.uniform(-1, 1),
                           gb=rng.uniform(-1, 1),
                           gamma=float(rng.choice([0.0, np.pi / 2])))
    return ModelParams(t1=rng.uniform(0.2, 1.0), v=rng.uniform(0.2, 1.0),
                       gamma=rng.uniform(0.05, np.pi / 2 - 0.05),
                       gx=rng.uniform(-1, 1), gy=rng.uniform(-1, 1),
                       ga=rng.uniform(-1, 1), gb=rng.uniform(-1, 1))


def test_criterion_05_symmetry_verification():
    """Bloch and real-space verdicts agree for every built-in over 20 draws
    per regime; holding residuals < 1e-10; pair products exactly -1 at the
    protected momenta."""
    rng = np.random.default_rng(7)
    n_holding = 0
    for regime in ("regime1", "regime3", "generic"):
        for _ in range(20):
            p = draw_for_regime(rng, regime)
            for name in BUILTIN_NAMES:
                spec = builtin_spec(name)
                rep_b = check_bloch(p, spec)
                try:
                    rep_r = check_realspace(p, spec, 4, 4)
                    holds_r = rep_r.holds
                except ValueError:
                    holds_r = False  # operator not realizable on the torus
                assert rep_b.holds == holds_r, (regime, name, p)
                if rep_b.holds:
                    n_holding += 1
                    assert max(rep_b.right_residual, rep_b.left_residual) < 1e-10
    assert n_holding > 0
    prods = {
        "upsilon@X": pair_product_phase(builtin_spec("upsilon"),
                                        (np.pi / 2, np.pi / 2)),
        "prime@M": pair_product_phase(builtin_spec("upsilon_prime"), (np.pi, 0.0)),
        "dprime@Gamma": pair_product_phase(builtin_spec("upsilon_doubleprime"),
                                           (0.0, 0.0)),
    }
    assert all(v == -1.0 for v in prods.values()), prods
    announce(5, True, f"verdicts agree on 60 draws x 3 operators; "
                      f"{n_holding} holding cases < 1e-10; products {prods}")


def test_criterion_06_symmetry_breaking_lifts_degeneracy():
    """The X-point band splitting grows strictly monotonically along the
    diagonal-hopping ramp t1: 0 -> 0.5 (20 samples)."""
    p0 = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    ramp = np.linspace(0.0, 0.5, 20)
    splits = []
    for t1 in ramp:
        p = p0.replace(t1=float(t1))
        splits.append(min(abs(np.subtract(*dispersion(p, kx, ky)))
                          for kx, ky in X_ALL))
    monotone = all(b > a for a, b in zip(splits, splits[1:]))
    announce(6, monotone and splits[0] < 1e-12,
             f"min X splitting grows {splits[1]:.3f} -> {splits[-1]:.3f} "
             f"strictly monotonically")


def expansion_slope(p, expansion):
    scales = np.logspace(-3, -1, 9)
    errs = []
    for s in scales:
        px, py = 0.6 * s, 0.8 * s
        h = bloch_hamiltonian(p, expansion.center[0] + px,
                              expansion.center[1] + py)
        errs.append(np.linalg.norm(h - expansion.matrix(px, py)))
    return float(np.polyfit(np.log(scales), np.log(errs), 1)[0])


def test_criterion_07_expansion_orders():
    """Remainder exponents of the asymptotic models over |p| in [1e-3, 1e-1].

    The quadratic models at M (gamma = 0) and Gamma (gamma = pi/2) must fit
    slope 3.0 +- 0.1.  The linear model at X1 must fit slope 3.0 +- 0.1 as
    well: the Bloch matrix is odd about X in the nearest-neighbour regime,
    so the second-order term of its expansion is zero (see the module
    docstring and ``linear_expansion``).
    """
    p3 = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)
    slope_m = expansion_slope(p3, quadratic_expansion(p3, "M"))
    pg = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=np.pi / 2)
    slope_g = expansion_slope(pg, quadratic_expansion(pg, "Gamma"))
    assert abs(slope_m - 3.0) <= 0.1, slope_m
    assert abs(slope_g - 3.0) <= 0.1, slope_g

    p1 = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    slope_lin = expansion_slope(p1, linear_expansion(p1, "X1"))
    ok = abs(slope_lin - 3.0) <= 0.1
    announce(7, ok,
             f"quad slopes M {slope_m:.2f}, Gamma {slope_g:.2f} (3.0 +- 0.1); "
             f"linear slope {slope_lin:.2f} (3.0 +- 0.1, odd touching)")


def test_criterion_08_fourier_consistency():
    """Periodic real-space spectra equal the Bloch multisets within 1e-8 for
    torus sizes up to 6x6 over 10 random parameter draws."""
    rng = np.random.default_rng(11)
    worst = 0.0
    sizes = [(2, 2), (3, 4), (4, 4), (5, 3), (5, 6), (6, 6)]
    for trial in range(10):
        p = ModelParams(t1=rng.uniform(-1, 1), v=rng.uniform(-1, 1),
                        gamma=rng.uniform(0, np.pi / 2),
                        gx=rng.uniform(-1, 1), gy=rng.uniform(-1, 1),
                        ga=rng.uniform(-1, 1), gb=rng.uniform(-1, 1),
                        mu_a=rng.uniform(-0.5, 0.5), mu_b=rng.uniform(-0.5, 0.5))
        nx, ny = sizes[trial % len(sizes)]
        ev = np.linalg.eigvals(real_space_hamiltonian(p, nx, ny))
        bloch_ev = []
        for ix in range(nx):
            for iy in range(ny):
                bloch_ev.extend(np.linalg.eigvals(bloch_hamiltonian(
                    p, 2 * np.pi * ix / nx, 2 * np.pi * iy / ny)))
        worst = max(worst, match_eigenvalue_multisets(ev, bloch_ev))
    announce(8, worst < 1e-8, f"worst multiset mismatch {worst:.2e}")


def test_criterion_09_obc_phenomenology():
    """Ribbon phenomenology at the gapped-TI parameters with N = 30.

    (a) the in-gap mode count is two wherever modes exist, with the pair at
    small energy near the crossing localized on opposite edges; (b) the mean
    bulk inverse participation ratio under diagonal nonreciprocity exceeds
    the Hermitian baseline by more than 3x at transverse momentum 0; (c) the
    zero-mode pair of the nonreciprocity-open (x) ribbon at transverse
    momentum pi/2 has eigenvector overlap > 1 - 1e-4 at gamma = 0.  The
    overlap is large on the ribbon open along x because that is the axis
    the diagonal nonreciprocity acts along: the skin effect drags both zero
    modes to one edge; the y-open ribbon keeps them on opposite edges as an
    independent pair.  An overlap near 1 does not by itself show that the
    pair coalesces: the skin effect crowds most of this ribbon's states onto
    that edge, and in a balanced basis its zero eigenvalue has geometric
    multiplicity 2 (see ``obc_defective_check``).
    """
    t0 = time.time()
    p_ti = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
    # (a) counts over a transverse grid, opposite sides near the crossing
    counts = []
    for k in np.linspace(-np.pi, np.pi, 21, endpoint=False):
        band = ribbon_spectrum(p_ti, "y", 30, k_values=[k])[0]
        gap = bulk_gap_interval(p_ti, "y", k)
        counts.append(len(in_gap_indices(band, gap)))
    assert set(counts) <= {0, 2}, counts
    assert counts.count(2) > len(counts) / 2
    sides = {}
    for k in (np.pi / 2 - 0.05, np.pi / 2 + 0.05):
        band = ribbon_spectrum(p_ti, "y", 30, k_values=[k])[0]
        gap = bulk_gap_interval(p_ti, "y", k)
        ing = in_gap_indices(band, gap)
        assert len(ing) == 2
        assert all(abs(band.eigenvalues[i].real) < 0.15 for i in ing)
        sides[k] = {band.edge_flags[i] for i in ing}
        assert sides[k] == {"left", "right"}, sides
    # (b) skin effect against the Hermitian baseline
    skin = skin_metric(p_ti, "y", ribbon_spectrum(p_ti, "y", 30, k_values=[0.0])[0])
    p_herm = ModelParams(t1=0.75, gamma=0.5)
    base = skin_metric(p_herm, "y", ribbon_spectrum(p_herm, "y", 30, k_values=[0.0])[0])
    assert skin > 3 * base, (skin, base)
    # (c) zero-mode pair with overlap near 1 at gamma = 0
    p_g0 = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)
    rep = obc_defective_check(ribbon_spectrum(p_g0, "x", 30, k_values=[np.pi / 2])[0])
    assert not rep.absent
    assert rep.overlap > 1 - 1e-4, rep
    elapsed = time.time() - t0
    announce(9, elapsed < 120.0,
             f"edge pair on opposite sides, skin ratio {skin / base:.2f} > 3, "
             f"zero-mode overlap 1 - {1 - rep.overlap:.1e}, in {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    """Identical run configurations produce byte-identical outputs."""
    from nhdeg.cli import main

    pf = tmp_path / "p.txt"
    save_params(ModelParams(gamma=0.5, gx=0.5, gy=0.3), pf)
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["scan", "--params", str(pf), "--nx", "101", "--ny", "101",
                     "--out", str(out)]) == 0
        assert main(["theorem", "--trials", "30", "--seed", "5",
                     "--out", str(out)]) == 0
        assert main(["ribbon", "--params", str(pf), "--axis", "x",
                     "--n-cells", "12", "--k-samples", "4",
                     "--out", str(out)]) == 0
        payloads.append(b"".join((out / name).read_bytes() for name in
                                 ("degeneracies.json", "field.csv",
                                  "theorem.json", "bands.csv",
                                  "localization.json")))
    announce(10, payloads[0] == payloads[1],
             f"byte-identical across repeated runs ({len(payloads[0])} bytes)")