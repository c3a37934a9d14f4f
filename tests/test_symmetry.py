"""Tests for the composite-symmetry verifier (Bloch and real-space tracks)."""

import numpy as np
import pytest
from _oracles import check_bloch_matmul, operator_matrix_loops, spinor_part

import nhdeg.symmetry
from nhdeg.model import ModelParams, bloch_hamiltonian, phase_boundaries
from nhdeg.symmetry import (BUILTIN_NAMES, _momentum_action, _operator_matrix,
                            apply_parameter_map, builtin_spec,
                            check_bloch, check_realspace, pair_product_phase,
                            symmetry_survey)

REGIME1 = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
REGIME3_G0 = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)
REGIME3_GP = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=np.pi / 2)


def draw_params(rng, regime):
    if regime == 1:
        return ModelParams(gamma=rng.uniform(0.05, np.pi / 2 - 0.05),
                           gx=rng.uniform(-1, 1), gy=rng.uniform(-1, 1))
    if regime == 3:
        gamma = float(rng.choice([0.0, np.pi / 2]))
        return ModelParams(t1=rng.uniform(0.2, 1.0), ga=rng.uniform(-1, 1),
                           gb=rng.uniform(-1, 1), gamma=gamma)
    return ModelParams(t1=rng.uniform(0.2, 1.0), v=rng.uniform(0.2, 1.0),
                       gamma=rng.uniform(0.05, np.pi / 2 - 0.05),
                       gx=rng.uniform(-1, 1), gy=rng.uniform(-1, 1),
                       ga=rng.uniform(-1, 1), gb=rng.uniform(-1, 1))


def realspace_verdict(p, spec, nx=4, ny=4):
    # an operator that cannot be built on the torus is not its symmetry
    try:
        return check_realspace(p, spec, nx, ny).holds
    except ValueError:
        return False


def test_builtin_spec_contents():
    p = ModelParams(ga=0.5, gb=0.3)
    up = builtin_spec("upsilon")
    assert not up.reflect_y
    assert apply_parameter_map(up, p) is p
    pr = builtin_spec("upsilon_prime")
    assert pr.reflect_y and not pr.site_phase
    assert apply_parameter_map(pr, p) == ModelParams(ga=-0.3, gb=-0.5)
    dp = builtin_spec("upsilon_doubleprime")
    assert dp.reflect_y and dp.site_phase
    assert apply_parameter_map(dp, p) == ModelParams(ga=-0.3, gb=-0.5)
    assert BUILTIN_NAMES == ("upsilon", "upsilon_prime", "upsilon_doubleprime")
    with pytest.raises(ValueError, match=r"^unknown symmetry 'upsilon_triple'; choose from "
                                         r"\('upsilon', 'upsilon_prime', 'upsilon_doubleprime'\)$"):
        builtin_spec("upsilon_triple")


def test_parameter_map_is_involution():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = draw_params(rng, 0)
        for name in BUILTIN_NAMES:
            spec = builtin_spec(name)
            assert apply_parameter_map(spec, apply_parameter_map(spec, p)) == p


def test_upsilon_holds_in_regime1():
    rep = check_bloch(REGIME1, builtin_spec("upsilon"), 16, 16)
    assert rep.holds
    assert max(rep.right_residual, rep.left_residual) < 1e-12


def test_upsilon_broken_by_diagonal_hopping_or_potential():
    assert not check_bloch(REGIME1.replace(t1=0.3), builtin_spec("upsilon"),
                           12, 12).holds
    assert not check_bloch(REGIME1.replace(v=0.5), builtin_spec("upsilon"),
                           12, 12).holds


def scalar_loop_check_bloch(p, spec, nx, ny):
    """Reference: the relations evaluated one k-point at a time, kx outer.

    The reported momenta are the first in that order whose residual lies
    within a relative 1e-12 of the extremum.
    """
    W = spinor_part(spec, p)
    pp = apply_parameter_map(spec, p)
    rows, scale = [], 0.0
    for kx in -np.pi + 2 * np.pi * np.arange(nx) / nx:
        for ky in -np.pi + 2 * np.pi * np.arange(ny) / ny:
            h_a = bloch_hamiltonian(p, *_momentum_action(spec, p, kx, ky))
            h_t = bloch_hamiltonian(pp, -kx, -ky)
            r_r = np.linalg.norm(h_a @ W - W @ h_t.T)
            r_l = np.linalg.norm(W @ np.conj(h_t) - h_a.conj().T @ W)
            scale = max(scale, np.linalg.norm(h_a))
            rows.append((max(r_r, r_l), r_r, r_l, (kx, ky)))
    scale = max(scale, 1.0)
    top = max(row[0] for row in rows)
    bottom = min(row[0] for row in rows)
    worst = next(row for row in rows if row[0] >= top * (1 - 1e-12))
    best = next(row for row in rows if row[0] <= bottom * (1 + 1e-12))
    return worst[1] / scale, worst[2] / scale, worst[3], best[0] / scale, best[3]


@pytest.mark.parametrize("params,name", [
    (REGIME1.replace(t1=0.3), "upsilon"),
    (REGIME1.replace(t1=0.4, v=0.3, ga=0.2, gb=-0.5), "upsilon_prime"),
    # the scalar and batched residuals of this case round apart, so the
    # member of a tied pair with the smaller residual differs between them
    (REGIME1.replace(t1=0.4, v=0.3, ga=0.2, gb=-0.5), "upsilon_doubleprime"),
])
def test_check_bloch_matches_scalar_loop(params, name):
    # broken specs, so the residuals are O(1).  Their extrema come in
    # pairs tied up to rounding, so the reported momenta also check that
    # the first member in kx-outer order is reported
    spec = builtin_spec(name)
    rep = check_bloch(params, spec, 12, 10)
    right, left, worst_k, best, best_k = scalar_loop_check_bloch(params, spec, 12, 10)
    assert not rep.holds
    assert rep.worst_k == worst_k
    assert rep.min_k == best_k
    assert rep.right_residual == pytest.approx(right, rel=0, abs=1e-12)
    assert rep.left_residual == pytest.approx(left, rel=0, abs=1e-12)
    assert rep.min_residual == pytest.approx(best, rel=0, abs=1e-12)


_DIAG = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
README_RECIPES = {
    "pinned": REGIME1,
    "closure": _DIAG.replace(v=phase_boundaries(_DIAG)[1]),
    "coexist0": _DIAG.replace(gamma=0.0),
    "coexist_pi2": _DIAG.replace(gamma=np.pi / 2),
    "topo": _DIAG,
}


def assert_survey_matches_matmul_form(p, nx, ny):
    survey = symmetry_survey(p, nx, ny)
    ref = {name: check_bloch_matmul(p, builtin_spec(name), nx, ny) for name in BUILTIN_NAMES}
    assert survey["holding"] == [name for name, rep in ref.items() if rep.holds]
    for name, rep in survey["reports"].items():
        want = ref[name]
        assert (rep.holds, rep.worst_k, rep.min_k) == (
            want.holds, want.worst_k, want.min_k), (name, p, nx, ny)
        # a complex W rounds its products differently from a matmul
        for field in ("right_residual", "left_residual", "min_residual"):
            assert abs(getattr(rep, field) - getattr(want, field)) <= 1e-15, (name, field, p)
    return survey["holding"]


@pytest.mark.parametrize("recipe", README_RECIPES)
def test_check_bloch_matches_matmul_form_on_readme_recipes(recipe):
    assert_survey_matches_matmul_form(README_RECIPES[recipe], 32, 32)


def test_check_bloch_matches_matmul_form_on_seeded_draws():
    # t1 = v = 0 lets upsilon hold and v = 0 the primed specs, with a real W
    # at gamma = 0 and a complex one elsewhere; odd sizes move the grid
    rng = np.random.default_rng(11)
    held = set()
    for trial in range(240):
        gamma = (0.0, np.pi / 4, np.pi / 2, rng.uniform(-np.pi, np.pi))[trial % 4]
        t1 = 0.0 if trial % 3 == 0 else rng.uniform(-1, 1)
        v = 0.0 if trial % 3 < 2 else rng.uniform(-1, 1)
        p = ModelParams(t1=t1, v=v, gamma=gamma, gx=rng.uniform(-1, 1),
                        gy=rng.uniform(-1, 1), ga=rng.uniform(-1, 1), gb=rng.uniform(-1, 1))
        nx, ny = (int(n) for n in rng.integers(4, 21, size=2))
        held.update(assert_survey_matches_matmul_form(p, nx, ny))
    assert held == set(BUILTIN_NAMES)


@pytest.mark.parametrize("params,name", [
    (REGIME3_G0, "upsilon_prime"),
    (REGIME3_GP, "upsilon_doubleprime"),
    (REGIME3_GP, "upsilon_prime"),
])
def test_regime3_symmetries_hold(params, name):
    rep = check_bloch(params, builtin_spec(name), 16, 16)
    assert rep.holds


def test_doubleprime_reduces_to_prime_at_gamma_zero():
    rep_p = check_bloch(REGIME3_G0, builtin_spec("upsilon_prime"), 12, 12)
    rep_d = check_bloch(REGIME3_G0, builtin_spec("upsilon_doubleprime"), 12, 12)
    assert rep_p.holds and rep_d.holds


@pytest.mark.parametrize("nx,ny", [(1, 32), (2, 2), (32, 2), (0, 3)])
def test_check_bloch_needs_three_momenta_per_axis(nx, ny):
    message = f"^check_bloch needs at least 3 momenta per axis, got {nx}x{ny}$"
    with pytest.raises(ValueError, match=message):
        check_bloch(REGIME3_G0, builtin_spec("upsilon"), nx, ny)
    with pytest.raises(ValueError, match=message):
        symmetry_survey(REGIME3_G0, nx, ny)


def test_check_bloch_three_momenta_per_axis_decide_the_verdict():
    # each residual entry is a trigonometric polynomial of degree <= 1 per
    # axis, so a 3x3 grid gives the 32x32 verdict on every draw; a 2x2 grid,
    # computed by the oracle that has no floor, gets some of them wrong
    rng = np.random.default_rng(5)
    held, wrong_on_2x2 = set(), 0
    for trial in range(200):
        gamma = (0.0, np.pi / 4, np.pi / 2, rng.uniform(-np.pi, np.pi))[trial % 4]
        t1 = 0.0 if trial % 3 == 0 else rng.uniform(-1, 1)
        v = 0.0 if trial % 3 < 2 else rng.uniform(-1, 1)
        p = ModelParams(t1=t1, v=v, gamma=gamma, gx=rng.uniform(-1, 1),
                        gy=rng.uniform(-1, 1), ga=rng.uniform(-1, 1), gb=rng.uniform(-1, 1))
        holding = symmetry_survey(p, 32, 32)["holding"]
        assert symmetry_survey(p, 3, 3)["holding"] == holding, p
        coarse = [name for name in BUILTIN_NAMES
                  if check_bloch_matmul(p, builtin_spec(name), 2, 2).holds]
        wrong_on_2x2 += coarse != holding
        held.update(holding)
    assert held == set(BUILTIN_NAMES)
    assert wrong_on_2x2 > 0


def test_realspace_matches_regime1():
    rep = check_realspace(REGIME1, builtin_spec("upsilon"), 4, 4)
    assert rep.holds
    assert max(rep.right_residual, rep.left_residual) < 1e-10


TORI = ((2, 2), (2, 5), (4, 4), (4, 6), (6, 4), (8, 8))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_operator_matrix_matches_loop_oracle(name):
    # byte for byte, on seeded parameters with every field set; the builder
    # does not check commensurability, so any gamma will do
    spec = builtin_spec(name)
    rng = np.random.default_rng(7)
    for trial in range(8):
        p = draw_params(rng, 0)
        if trial % 2:
            p = p.replace(gamma=float(rng.choice([0.0, np.pi / 2, np.pi / 4])))
        for nx, ny in TORI:
            got = _operator_matrix(spec, p, nx, ny)
            want = operator_matrix_loops(spec, p, nx, ny)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (name, p, nx, ny)


@pytest.mark.parametrize("name,builds", [
    ("upsilon", 1), ("upsilon_prime", 2), ("upsilon_doubleprime", 2)])
def test_realspace_builds_the_torus_once_for_the_identity_map(monkeypatch, name, builds):
    calls = []
    build = nhdeg.symmetry.real_space_hamiltonian

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(nhdeg.symmetry, "real_space_hamiltonian", counting)
    rep = check_realspace(REGIME3_GP, builtin_spec(name), 4, 4)
    assert len(calls) == builds
    monkeypatch.undo()
    # the shared build gives the residuals of two separate builds
    H = build(REGIME3_GP, 4, 4)
    A = _operator_matrix(builtin_spec(name), REGIME3_GP, 4, 4)
    Hp = build(apply_parameter_map(builtin_spec(name), REGIME3_GP), 4, 4)
    scale = max(1.0, float(np.linalg.norm(H)))
    assert rep.right_residual == float(np.linalg.norm(H @ A - A @ Hp.T) / scale)
    assert rep.left_residual == float(np.linalg.norm(A @ np.conj(Hp) - H.conj().T @ A)
                                      / scale)


def test_realspace_requires_even_nx():
    with pytest.raises(ValueError):
        check_realspace(REGIME1, builtin_spec("upsilon"), 3, 4)


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 4), (4, 2), (6, 2), (3, 4), (0, 3)])
def test_check_realspace_needs_an_even_nx_of_four_and_three_cells_in_y(nx, ny):
    # on 2x2 the gamma = 0 coexistence recipe showed upsilon holding, though
    # t1 breaks it
    message = f"^check_realspace needs an even nx >= 4 and ny >= 3, got {nx}x{ny}$"
    with pytest.raises(ValueError, match=message):
        check_realspace(REGIME3_G0, builtin_spec("upsilon"), nx, ny)


def test_check_realspace_four_by_three_decides_the_verdict():
    # as for check_bloch, 3 momenta per axis decide each residual, so a 4x3
    # torus gives the 8x8 verdict; the site-phase spec is built only where
    # gamma is commensurate with both tori
    rng = np.random.default_rng(13)
    held, compared = set(), 0
    for trial in range(80):
        gamma = (0.0, np.pi / 2, np.pi, rng.uniform(-np.pi, np.pi))[trial % 4]
        t1 = 0.0 if trial % 3 == 0 else rng.uniform(-1, 1)
        v = 0.0 if trial % 3 < 2 else rng.uniform(-1, 1)
        mu_a, mu_b = rng.uniform(-1, 1, 2) if trial % 2 else (0.0, 0.0)
        p = ModelParams(t1=t1, v=v, gamma=gamma, gx=rng.uniform(-1, 1),
                        gy=rng.uniform(-1, 1), ga=rng.uniform(-1, 1), gb=rng.uniform(-1, 1),
                        mu_a=mu_a, mu_b=mu_b)
        for name in BUILTIN_NAMES:
            spec = builtin_spec(name)
            if spec.site_phase and gamma not in (0.0, np.pi):
                continue
            verdict = check_realspace(p, spec, 8, 8).holds
            assert check_realspace(p, spec, 4, 3).holds == verdict, (name, p)
            held.update([name] if verdict else [])
            compared += 1
    assert held == set(BUILTIN_NAMES)
    assert compared == 200


def test_realspace_site_phase_commensurability():
    with pytest.raises(ValueError, match="incommensurate"):
        check_realspace(ModelParams(gamma=0.37),
                        builtin_spec("upsilon_doubleprime"), 4, 4)
    rep = check_realspace(REGIME3_GP, builtin_spec("upsilon_doubleprime"), 4, 4)
    assert rep.holds


def test_oracle_agreement_across_draws():
    # the Bloch check and the explicit real-space operator must agree on
    # every verdict, for every built-in, across random parameter draws
    rng = np.random.default_rng(42)
    draws = [draw_params(rng, r) for r in (1, 1, 1, 3, 3, 3, 0, 0, 0, 0)]
    for p in draws:
        for name in BUILTIN_NAMES:
            for nx, ny in ((4, 4), (6, 6)):
                spec = builtin_spec(name)
                bloch = check_bloch(p, spec, 10, 10).holds
                real = realspace_verdict(p, spec, nx, ny)
                assert bloch == real, (name, p)


def test_hermitian_limit_all_hold_at_gamma_zero():
    p = ModelParams(gamma=0.0)
    for name in BUILTIN_NAMES:
        assert check_bloch(p, builtin_spec(name), 12, 12).holds
        assert check_realspace(p, builtin_spec(name), 4, 4).holds


def test_pair_product_phases():
    for name, k, expected in [
        ("upsilon", (np.pi / 2, np.pi / 2), -1.0),
        ("upsilon", (0.0, 0.0), 1.0),
        ("upsilon_prime", (np.pi, 0.0), -1.0),
        ("upsilon_doubleprime", (0.0, 0.0), -1.0),
    ]:
        val = pair_product_phase(builtin_spec(name), k)
        assert val == expected


def test_survey_regimes():
    s1 = symmetry_survey(REGIME1, 12, 12)
    assert "upsilon" in s1["holding"]
    s3 = symmetry_survey(REGIME3_G0, 12, 12)
    assert "upsilon_prime" in s3["holding"]
    assert "upsilon" not in s3["holding"]
    generic = symmetry_survey(ModelParams(t1=0.4, v=0.3, gamma=0.4, gx=0.2,
                                          gy=0.1, ga=0.3, gb=0.2), 12, 12)
    assert generic["holding"] == []


def test_survey_reports_gap_closure_at_boundary():
    from nhdeg.model import phase_boundaries
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
    v1, _ = phase_boundaries(p)
    survey = symmetry_survey(p.replace(v=v1), 12, 12)
    assert abs(survey["eta_X1"]) < 1e-10
    assert abs(survey["eta_X2"]) > 1.0


def test_symmetry_breaking_lifts_degeneracy_monotonically():
    # ramping the diagonal hopping splits the X-point bands monotonically
    from nhdeg.model import X1_POINTS, X2_POINTS, dispersion
    gaps = []
    for t1 in np.linspace(0.0, 0.5, 20):
        p = REGIME1.replace(t1=float(t1))
        split = min(abs(np.subtract(*dispersion(p, kx, ky)))
                    for kx, ky in X1_POINTS + X2_POINTS)
        gaps.append(split)
    assert gaps[0] < 1e-12
    assert all(b > a for a, b in zip(gaps[1:], gaps[2:]))
    assert gaps[-1] > 1.0