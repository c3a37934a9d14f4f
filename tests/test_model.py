"""Tests for the lattice model: Bloch matrix, real space, phases, expansions."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (match_eigenvalue_multisets, real_space_hamiltonian_loops,
                      weyl_dispersion)
from nhdeg.model import (ModelParams, X1_POINTS, X2_POINTS, _d_components, _hop_list, _k_grid,
                         bloch_hamiltonian, discriminant_function, dispersion,
                         linear_expansion, load_params, phase_boundaries,
                         phase_classify, quadratic_expansion,
                         real_space_hamiltonian, save_params)


def random_params(rng, hermitian=False):
    if hermitian:
        return ModelParams(t=1.0, t1=rng.uniform(-1, 1), v=rng.uniform(-1, 1),
                           gamma=rng.uniform(0, np.pi / 2))
    return ModelParams(t=1.0, t1=rng.uniform(-1, 1), v=rng.uniform(-1, 1),
                       gamma=rng.uniform(0, np.pi / 2),
                       gx=rng.uniform(-1, 1), gy=rng.uniform(-1, 1),
                       ga=rng.uniform(-1, 1), gb=rng.uniform(-1, 1),
                       mu_a=rng.uniform(-0.5, 0.5), mu_b=rng.uniform(-0.5, 0.5))


# ---------------------------------------------------------------------------
# Bloch matrix

def closed_form_bloch(p, kx, ky):
    """The printed Bloch entries, kept here only as an oracle."""
    t, t1 = p.t, p.t1
    h11 = (-t1 * (-np.exp(-p.ga - 1j * (kx - ky)) - np.exp(p.ga + 1j * (kx - ky))
                  + np.exp(-p.ga - 1j * (kx + ky)) + np.exp(p.ga + 1j * (kx + ky)))
           + 1j * p.mu_a + p.v)
    h22 = (t1 * (-np.exp(-p.gb - 1j * (kx - ky)) - np.exp(p.gb + 1j * (kx - ky))
                 + np.exp(-p.gb - 1j * (kx + ky)) + np.exp(p.gb + 1j * (kx + ky)))
           - 1j * p.mu_b - p.v)
    h12 = -2 * t * np.exp(-p.gx - 1j * p.gamma) * np.cos(kx) \
        - 2 * t * np.exp(-p.gy + 1j * p.gamma) * np.cos(ky)
    h21 = -2 * t * np.exp(p.gx + 1j * p.gamma) * np.cos(kx) \
        - 2 * t * np.exp(p.gy - 1j * p.gamma) * np.cos(ky)
    h11, h12, h21, h22 = np.broadcast_arrays(h11, h12, h21, h22)
    return np.stack([np.stack([h11, h12], -1), np.stack([h21, h22], -1)], -2)


def closed_form_pauli(p, kx, ky):
    """The printed Pauli components (d0, dx, dy, dz), an oracle as above."""
    t, t1 = p.t, p.t1
    half_diff = (p.ga - p.gb) / 2.0
    half_sum = (p.ga + p.gb) / 2.0
    d0 = (-4j * t1 * np.sin(ky) * np.sinh(half_diff)
          * np.cosh(half_sum + 1j * kx)) + 0.5j * (p.mu_a - p.mu_b)
    dx = (-2 * t * np.cos(kx) * np.cosh(p.gx + 1j * p.gamma)
          - 2 * t * np.cos(ky) * np.cosh(p.gy - 1j * p.gamma))
    dy = (2j * t * np.cos(kx) * np.sinh(p.gx + 1j * p.gamma)
          + 2j * t * np.cos(ky) * np.sinh(p.gy - 1j * p.gamma))
    dz = (2 * t1 * np.sin(ky) * (np.sin(kx) * (np.cosh(p.ga) + np.cosh(p.gb))
                                 - 1j * np.cos(kx) * (np.sinh(p.ga) + np.sinh(p.gb)))
          + p.v) + 0.5j * (p.mu_a + p.mu_b)
    return d0, dx, dy, dz


def test_hop_built_bloch_matches_closed_form():
    rng = np.random.default_rng(7)
    kx = rng.uniform(-np.pi, np.pi, 9)[None, :]
    ky = rng.uniform(-np.pi, np.pi, 5)[:, None]
    for _ in range(20):
        p = random_params(rng)
        h = bloch_hamiltonian(p, kx, ky)
        assert h.shape == (5, 9, 2, 2)
        np.testing.assert_allclose(h, closed_form_bloch(p, kx, ky), rtol=0, atol=1e-12)
        for got, want in zip(_d_components(p, kx, ky), closed_form_pauli(p, kx, ky)):
            np.testing.assert_allclose(got, np.broadcast_to(want, (5, 9)),
                                       rtol=0, atol=1e-12)
        qx, qy = rng.uniform(-np.pi, np.pi, 2)
        h = bloch_hamiltonian(p, qx, qy)
        assert h.shape == (2, 2)
        np.testing.assert_allclose(h, closed_form_bloch(p, qx, qy), rtol=0, atol=1e-12)
        for got, want in zip(_d_components(p, qx, qy), closed_form_pauli(p, qx, qy)):
            assert abs(got - want) < 1e-12


def test_bloch_zero_at_x_points_nearest_neighbor_regime():
    # cos(kx) = cos(ky) = 0 kills every entry regardless of gamma, gx, gy
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = ModelParams(gamma=rng.uniform(0, np.pi / 2),
                        gx=rng.uniform(-1, 1), gy=rng.uniform(-1, 1))
        for kx, ky in X1_POINTS + X2_POINTS:
            assert np.linalg.norm(bloch_hamiltonian(p, kx, ky)) < 1e-12


def test_bloch_odd_about_x_points_nearest_neighbor_regime():
    # H(X + p) = -H(X - p): the premise behind the O(|p|^3) remainder of
    # linear_expansion and criterion 7's slope-3 target
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = ModelParams(gamma=rng.uniform(0, np.pi / 2),
                        gx=rng.uniform(-1, 1), gy=rng.uniform(-1, 1))
        for kx, ky in X1_POINTS + X2_POINTS:
            px, py = rng.uniform(-1, 1, 2)
            plus = bloch_hamiltonian(p, kx + px, ky + py)
            minus = bloch_hamiltonian(p, kx - px, ky - py)
            assert np.linalg.norm(plus + minus) < 1e-12


def test_bloch_gamma_origin_value():
    # substituting k = 0 into the printed off-diagonal entries gives -4t
    h = bloch_hamiltonian(ModelParams(), 0.0, 0.0)
    np.testing.assert_allclose(h, [[0, -4], [-4, 0]], atol=1e-15)


def test_bloch_hermitian_limit():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = random_params(rng, hermitian=True)
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        h = bloch_hamiltonian(p, kx, ky)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(t=0.0)
    with pytest.raises(ValueError):
        ModelParams(v=float("nan"))


OVERFLOW = ("a hop amplitude or phase boundary is not finite "
            "(an exp(+-g) factor or its product with t or t1 overflows)")


@pytest.mark.parametrize("kw", [
    {"gx": 800.0}, {"gy": -710.0}, {"t1": 0.75, "ga": 710.0},
    {"t1": 0.75, "gb": -711.0}, {"t": 1e300, "gx": 700.0}, {"t1": 1e308},
])
def test_params_reject_non_finite_amplitudes_without_a_warning(kw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(OVERFLOW)):
            ModelParams(**kw)
        # large but finite
        p = ModelParams(t1=0.5, gx=700.0, ga=-700.0)
    assert all(np.isfinite(amp) for *_, amp in _hop_list(p))
    assert np.isfinite(phase_boundaries(p)).all()


@pytest.mark.parametrize("kw", [{"gb": -711.0}, {"t1": 0.0, "ga": 711.0}])
def test_params_accept_any_diagonal_nonreciprocity_without_diagonal_hops(kw):
    # at t1 = 0 the table has no diagonal hop, so no exp(+-ga), exp(+-gb)
    # or cosh is formed and nothing overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = ModelParams(**kw)
        assert [repr(w) for w in phase_boundaries(p)] == ["-0.0", "0.0"]
    assert [hop[:4] for hop in _hop_list(p)] == [hop[:4] for hop in _hop_list(ModelParams())]


# ---------------------------------------------------------------------------
# d vector (the Pauli components)

def d_at(p, kx, ky):
    """(d0, dx, dy, dz) at one momentum, as Python complex numbers."""
    return tuple(complex(c) for c in _d_components(p, kx, ky))


def pauli_matrix(d0, dx, dy, dz):
    return np.array([[d0 + dz, dx - 1j * dy], [dx + 1j * dy, d0 - dz]])


def test_d_vector_regime1_has_no_identity_or_z_component():
    p = ModelParams(gamma=0.7, gx=0.4, gy=-0.2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        d0, _, _, dz = d_at(p, kx, ky)
        assert abs(d0) < 1e-14
        assert abs(dz) < 1e-14


def test_d_vector_z_component_at_x1():
    # direct substitution: sin(kx) sin(ky) = 1 at X1 and the imaginary part
    # cancels with cos(kx) = 0; the value matches the gap-closure potential
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3)
    dz = d_at(p, np.pi / 2, np.pi / 2)[3]
    expected = 2 * 0.75 * (np.cosh(0.5) + np.cosh(0.3))
    assert dz == pytest.approx(expected, abs=1e-12)
    assert dz.imag == pytest.approx(0.0, abs=1e-12)
    # cross-check gap closure at v = v1
    v1, _ = phase_boundaries(p)
    dz_closed = d_at(p.replace(v=v1), np.pi / 2, np.pi / 2)[3]
    assert abs(dz_closed) < 1e-12


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_d_vector_reconstructs_bloch_matrix(seed):
    rng = np.random.default_rng(seed)
    p = random_params(rng).replace(mu_a=0.0, mu_b=0.0)
    kx, ky = rng.uniform(-np.pi, np.pi, 2)
    h = bloch_hamiltonian(p, kx, ky)
    np.testing.assert_allclose(pauli_matrix(*d_at(p, kx, ky)), h, atol=1e-12)


def test_d_vector_derivatives_match_central_differences():
    # away from the symmetry points, where no other test reads the Jacobian
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        p = random_params(rng)
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        for nx, ny in ((1, 0), (0, 1)):
            plus = np.array(d_at(p, kx + h * nx, ky + h * ny))
            minus = np.array(d_at(p, kx - h * nx, ky - h * ny))
            exact = np.array([complex(c) for c in _d_components(p, kx, ky, nx, ny)])
            np.testing.assert_allclose(exact, (plus - minus) / (2 * h), atol=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_discriminant_is_bitwise_even_in_ky_without_onsite_terms(seed):
    # write_vector_field_csv formats the mirror rows ky and -ky of eta once:
    # without onsite terms they hold the same bits on the torus grid
    k = _k_grid(301)
    rows = np.arange(1, 301)
    rows = rows[k[301 - rows] == -k[rows]]
    assert rows.size == 144
    p = random_params(np.random.default_rng(seed))
    offsite = p.replace(v=0.0, mu_a=0.0, mu_b=0.0)
    for q in (offsite, offsite.replace(v=p.v), offsite.replace(mu_a=p.mu_a),
              offsite.replace(mu_b=p.mu_b)):
        eta = discriminant_function(q, k[None, :], k[:, None])
        mirror, here = eta[301 - rows], eta[rows]
        relative = np.abs(mirror - here).max() / np.abs(here).max()
        if q == offsite:
            assert mirror.tobytes() == here.tobytes()
        else:
            assert relative > 1e-4, (q, relative)


# ---------------------------------------------------------------------------
# dispersions

def test_dispersion_origin_regime1():
    plus, minus = dispersion(ModelParams(), 0.0, 0.0)
    assert {round(float(plus.real)), round(float(minus.real))} == {4, -4}


def test_weyl_dispersion_zero_at_x():
    p = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    plus, minus = weyl_dispersion(p, np.pi / 2, np.pi / 2)
    assert abs(plus) < 1e-12 and abs(minus) < 1e-12


def test_weyl_dispersion_origin():
    plus, minus = weyl_dispersion(ModelParams(), 0.0, 0.0)
    assert sorted([plus.real, minus.real]) == pytest.approx([-4.0, 4.0])


def test_weyl_dispersion_matches_general_formula():
    p = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    rng = np.random.default_rng(3)
    for _ in range(30):
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        wp, wm = weyl_dispersion(p, kx, ky)
        dp, dm = dispersion(p, kx, ky)
        assert match_eigenvalue_multisets([wp, wm], [dp, dm]) < 1e-12


def test_weyl_dispersion_precondition():
    with pytest.raises(ValueError, match="t1"):
        weyl_dispersion(ModelParams(t1=0.5), 0, 0)
    with pytest.raises(ValueError, match="ga"):
        weyl_dispersion(ModelParams(ga=0.5), 0, 0)


def test_dispersion_matches_eigensystem_n():
    from nhdeg.linalg import eigensystem_n
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = random_params(rng)
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        plus, minus = dispersion(p, kx, ky)
        lams = eigensystem_n(bloch_hamiltonian(p, kx, ky)).eigenvalues
        assert match_eigenvalue_multisets([plus, minus], lams) < 1e-10


# ---------------------------------------------------------------------------
# real space

@pytest.mark.parametrize("nx,ny", [(2, 3), (4, 4), (3, 5), (6, 6)])
def test_fourier_consistency(nx, ny):
    # Bloch diagonalization oracle: the periodic real-space spectrum equals
    # the union of the two bands over the allowed momentum grid
    rng = np.random.default_rng(nx * 10 + ny)
    for _ in range(3):
        p = random_params(rng)
        H = real_space_hamiltonian(p, nx, ny)
        assert H.shape == (2 * nx * ny, 2 * nx * ny)
        ev = np.linalg.eigvals(H)
        bloch_ev = []
        for ix in range(nx):
            for iy in range(ny):
                kx, ky = 2 * np.pi * ix / nx, 2 * np.pi * iy / ny
                bloch_ev.extend(np.linalg.eigvals(bloch_hamiltonian(p, kx, ky)))
        assert match_eigenvalue_multisets(ev, bloch_ev) < 1e-8


def test_real_space_hermitian_limit():
    rng = np.random.default_rng(8)
    p = random_params(rng, hermitian=True)
    H = real_space_hamiltonian(p, 4, 4)
    np.testing.assert_allclose(H, H.conj().T, atol=1e-12)


def test_real_space_open_boundaries_drop_hops():
    p = ModelParams()
    H_open = real_space_hamiltonian(p, 3, 3, bc=("open", "open"))
    H_pbc = real_space_hamiltonian(p, 3, 3)
    # fewer nonzero entries with open boundaries
    assert np.count_nonzero(H_open) < np.count_nonzero(H_pbc)


def test_real_space_invalid_bc():
    with pytest.raises(ValueError):
        real_space_hamiltonian(ModelParams(), 4, 4, bc=("open", "wrap"))
    with pytest.raises(ValueError):
        real_space_hamiltonian(ModelParams(), 4, 4, bc=("open", "open"),
                               transverse_k=0.3)


BOUNDARY_CONDITIONS = [("periodic", "periodic"), ("open", "periodic"),
                       ("periodic", "open"), ("open", "open")]


@pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS, ids="-".join)
def test_real_space_matches_loop_oracle_bytes(bc):
    # every field set (mu_a, mu_b included); nx or ny = 2 wraps the +-1 hops
    # onto the same cell, so the sums there depend on the hop order
    rng = np.random.default_rng(BOUNDARY_CONDITIONS.index(bc))
    for nx, ny in [(2, 2), (2, 5), (3, 2), (4, 4), (5, 3), (6, 6)]:
        p = random_params(rng).replace(t=rng.uniform(0.5, 2.0))
        got = real_space_hamiltonian(p, nx, ny, bc)
        want = real_space_hamiltonian_loops(p, nx, ny, bc)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS[1:3], ids="-".join)
def test_ribbon_matches_loop_oracle_bytes(bc):
    rng = np.random.default_rng(10 + BOUNDARY_CONDITIONS.index(bc))
    for n in (2, 3, 8, 39):
        for k in (0.0, np.pi / 2, -np.pi, rng.uniform(-np.pi, np.pi)):
            p = random_params(rng).replace(t=rng.uniform(0.5, 2.0))
            got = real_space_hamiltonian(p, n, n, bc, transverse_k=k)
            want = real_space_hamiltonian_loops(p, n, n, bc, transverse_k=k)
            assert got.shape == (2 * n, 2 * n)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("args,kwargs", [
    ((4, 4, ("open", "wrap")), {}),
    ((4, 4, ("open", "open")), {"transverse_k": 0.3}),
    ((4, 4, ("periodic", "periodic")), {"transverse_k": 0.3}),
    ((1, 4, ("open", "periodic")), {"transverse_k": 0.3}),
    ((4, 1, ("periodic", "open")), {"transverse_k": 0.3}),
    ((1, 4, ("periodic", "periodic")), {}),
    ((4, 1, ("open", "open")), {}),
])
def test_real_space_errors_match_loop_oracle(args, kwargs):
    with pytest.raises(ValueError) as want:
        real_space_hamiltonian_loops(ModelParams(), *args, **kwargs)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        real_space_hamiltonian(ModelParams(), *args, **kwargs)


def test_ribbon_block_matches_full_cylinder_spectrum():
    # cylinder oracle: open x, periodic y resolved into transverse momenta
    p = ModelParams(t1=0.4, v=0.2, gamma=0.6, gx=0.1, gy=0.2, ga=0.3, gb=-0.2)
    nx, ny = 5, 4
    H_cyl = real_space_hamiltonian(p, nx, ny, bc=("open", "periodic"))
    ev_cyl = np.linalg.eigvals(H_cyl)
    ev_rib = []
    for iy in range(ny):
        ky = 2 * np.pi * iy / ny
        Hr = real_space_hamiltonian(p, nx, ny, bc=("open", "periodic"),
                                    transverse_k=ky)
        assert Hr.shape == (2 * nx, 2 * nx)
        ev_rib.extend(np.linalg.eigvals(Hr))
    assert match_eigenvalue_multisets(ev_cyl, ev_rib) < 1e-8


# ---------------------------------------------------------------------------
# phase boundaries

def test_phase_boundary_number():
    v1, v2 = phase_boundaries(ModelParams(t1=0.75, ga=0.5, gb=0.3))
    assert v2 == pytest.approx(3.2594467190028618, abs=1e-10)
    assert v1 == pytest.approx(-v2)


def test_phase_boundaries_trivial_cases():
    assert phase_boundaries(ModelParams(t1=0.0, ga=0.7, gb=0.1)) == (0.0, 0.0)
    v1, v2 = phase_boundaries(ModelParams(t1=1.0))
    assert (v1, v2) == pytest.approx((-4.0, 4.0))


def test_gap_closes_at_boundaries():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = ModelParams(t1=rng.uniform(0.1, 1), ga=rng.uniform(-1, 1),
                        gb=rng.uniform(-1, 1), gamma=0.5)
        v1, v2 = phase_boundaries(p)
        eta1 = discriminant_function(p.replace(v=v1), *X1_POINTS[0])
        eta2 = discriminant_function(p.replace(v=v2), *X2_POINTS[0])
        assert abs(eta1) < 1e-10
        assert abs(eta2) < 1e-10


def test_phase_classify_regions():
    p = ModelParams(t1=0.75, ga=0.5, gb=0.5, gamma=0.5)
    assert phase_classify(p.replace(v=0.0)) == "topological_insulator"
    assert phase_classify(p.replace(v=10.0)) == "band_insulator"
    _, v2 = phase_boundaries(p)
    assert phase_classify(p.replace(v=v2)) == "boundary_gapless"


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_phase_classify_rejects_a_tolerance_the_cli_rejects(tol):
    # -1 and nan labelled v = v2 band_insulator, inf labelled every v
    # boundary_gapless
    p = ModelParams(t1=0.75, ga=0.5, gb=0.5, gamma=0.5)
    v2 = phase_boundaries(p)[1]
    with pytest.raises(ValueError, match="^phase_classify requires a finite tol >= 0, got "):
        phase_classify(p.replace(v=v2), tol=tol)


def test_phase_classify_regime_guard():
    with pytest.raises(ValueError):
        phase_classify(ModelParams(t1=0.75, gamma=0.0))
    with pytest.raises(ValueError):
        phase_classify(ModelParams(t1=0.75, gamma=0.5, gx=0.1))


# ---------------------------------------------------------------------------
# expansions

def test_linear_expansion_requires_regime():
    with pytest.raises(ValueError):
        linear_expansion(ModelParams(t1=0.1), "X1")
    with pytest.raises(ValueError):
        linear_expansion(ModelParams(), "X3")


def test_linear_expansion_hermitian_limit_real_velocities():
    lin = linear_expansion(ModelParams(gamma=0.0), "X1")
    for comp in lin.coeffs.values():
        dx, dy = comp[1], comp[2]
        assert abs(complex(dx).imag) < 1e-14
        assert abs(complex(dy)) < 1e-14


def test_linear_expansion_remainder_at_least_quadratic():
    # order-of-accuracy sweep; the touching is odd in momentum so the true
    # remainder decays one order faster than the generic quadratic bound
    p = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    lin = linear_expansion(p, "X1")
    scales = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
    errs = []
    for s in scales:
        px, py = 0.8 * s, -0.6 * s
        h = bloch_hamiltonian(p, lin.center[0] + px, lin.center[1] + py)
        errs.append(np.linalg.norm(h - lin.matrix(px, py)))
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert slope > 1.9  # remainder bounded by C |p|^2
    assert slope == pytest.approx(3.0, abs=0.1)


def test_linear_expansion_dispersion_formula():
    # the cone energies in closed form: -+2t sqrt(2 s kx ky cosh(2i gamma +
    # gx - gy) + kx^2 + ky^2) with s = +1 at X1 and -1 at X2
    p = ModelParams(gamma=0.5, gx=0.5, gy=0.3)
    rng = np.random.default_rng(5)
    for which, s in (("X1", 1.0), ("X2", -1.0)):
        lin = linear_expansion(p, which)
        for _ in range(10):
            px, py = rng.uniform(-0.1, 0.1, 2)
            plus, minus = lin.bands(px, py)
            root = 2 * p.t * np.sqrt(complex(
                2 * s * px * py * np.cosh(2j * p.gamma + p.gx - p.gy)
                + px * px + py * py))
            assert match_eigenvalue_multisets([plus, minus], [root, -root]) < 1e-10


def test_quadratic_expansion_preconditions():
    with pytest.raises(ValueError):
        quadratic_expansion(ModelParams(t1=0.75, v=0.1), "M")
    with pytest.raises(ValueError):
        quadratic_expansion(ModelParams(t1=0.75, gamma=0.3), "M")
    with pytest.raises(ValueError):
        quadratic_expansion(ModelParams(t1=0.75, gamma=0.0), "Gamma")
    with pytest.raises(ValueError, match="center must be 'M' or 'Gamma', got 'K'"):
        quadratic_expansion(ModelParams(t1=0.75, gamma=0.0), "K")


def test_quadratic_expansion_exact_at_center():
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)
    q = quadratic_expansion(p, "M")
    h_center = bloch_hamiltonian(p, *q.center)
    np.testing.assert_allclose(q.matrix(0.0, 0.0), h_center, atol=1e-12)


def test_quadratic_expansion_identity_component_vanishes_for_equal_g():
    q = quadratic_expansion(ModelParams(t1=0.75, ga=0.4, gb=0.4, gamma=0.0), "M")
    for comp in q.coeffs.values():
        assert abs(complex(comp[0])) < 1e-14


@pytest.mark.parametrize("center,gamma", [("M", 0.0), ("Gamma", np.pi / 2)])
def test_quadratic_expansion_remainder_third_order(center, gamma):
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=gamma)
    q = quadratic_expansion(p, center)
    scales = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
    errs = []
    for s in scales:
        px, py = 0.6 * s, 0.8 * s
        h = bloch_hamiltonian(p, q.center[0] + px, q.center[1] + py)
        errs.append(np.linalg.norm(h - q.matrix(px, py)))
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.1)


def test_quadratic_expansion_gamma_half_pi_printed_components():
    # at gamma = pi/2 the second-order model about the zone center matches
    # the closed-form components: dy = t[(px^2-2) cosh gx - (py^2-2) cosh gy],
    # dz = 2 py t1 [px (cosh ga + cosh gb) - i (sinh ga + sinh gb)], and
    # d0 = 2 py t1 [-i (sinh ga - sinh gb) + px (cosh ga - cosh gb)]
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=np.pi / 2)
    q = quadratic_expansion(p, "Gamma")
    rng = np.random.default_rng(6)
    cga, cgb = np.cosh(p.ga), np.cosh(p.gb)
    sga, sgb = np.sinh(p.ga), np.sinh(p.gb)
    for _ in range(10):
        px, py = rng.uniform(-0.2, 0.2, 2)
        d0, dx, dy, dz = q.d_components(px, py)
        d0_ref = 2 * py * p.t1 * (-1j * (sga - sgb) + px * (cga - cgb))
        dy_ref = p.t * ((px**2 - 2) * np.cosh(p.gx) - (py**2 - 2) * np.cosh(p.gy))
        dz_ref = 2 * py * p.t1 * (px * (cga + cgb) - 1j * (sga + sgb))
        assert complex(d0) == pytest.approx(d0_ref, abs=1e-12)
        assert complex(dy) == pytest.approx(dy_ref, abs=1e-12)
        assert complex(dz) == pytest.approx(dz_ref, abs=1e-12)
        assert abs(complex(dx)) < 1e-12  # gx = gy = 0 kills it


# ---------------------------------------------------------------------------
# parameter files

def test_params_roundtrip(tmp_path):
    p = ModelParams(t=1.25, t1=-0.3, v=3.2594467190028618, gamma=np.pi / 3,
                    gx=0.123456789, gy=-1e-7, ga=0.5, gb=0.3, mu_a=0.0, mu_b=0.25)
    # phase_boundaries returns numpy scalars
    q = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
    for params in (p, q.replace(v=phase_boundaries(q)[1])):
        path = tmp_path / "params.txt"
        save_params(params, path)
        assert load_params(path) == params


def test_params_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("t = 1.0\nbogus = 3\n")
    with pytest.raises(ValueError, match="bogus"):
        load_params(path)


# (file text, line and message of the first bad line)
BAD_PARAM_FILES = {
    "bad_value": ("t = 1.0\nt1 = abc\n", 2, "could not convert string to float: 'abc'"),
    "non_finite": ("gamma = 0.5\ngx = nan\n", 2, "parameter gx is not finite: nan"),
    "non_positive_t": ("t = -1\n", 1, "t must be positive (energy unit), got -1.0"),
    "repeated_key": ("t1 = 0.5\ngamma = 0.5\nt1 = 0.7\n", 3, "repeated parameter 't1'"),
    "unknown_key": ("# comment\nt1 = 0.5\nnonsense = 1\n", 3, "unknown parameter 'nonsense'"),
    "no_equals": ("\nt1 0.5\n", 2, "expected 'key = value'"),
    "overflow": ("gamma = 0.5\ngx = 800\n", 2, OVERFLOW),
    # each line alone is fine; the line that completes the product is named
    "overflow_product": ("t = 1e300\nt1 = 0.5\ngx = 700\ngy = 0.1\n", 3, OVERFLOW),
}


@pytest.mark.parametrize("kind", BAD_PARAM_FILES)
def test_params_file_errors_name_file_and_line(tmp_path, kind):
    text, lineno, message = BAD_PARAM_FILES[kind]
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_params(path)
    assert str(info.value) == f"{path}:{lineno}: {message}"
