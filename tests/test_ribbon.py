"""Tests for ribbon spectra, localization metrics and zero-mode coalescence."""

import os
import re
import sys
import threading
import time

import numpy as np
import pytest

import nhdeg.ribbon
from nhdeg.linalg import MAX_DENSE_DIM
from nhdeg.model import ModelParams, _hop_list, _k_grid
from nhdeg.ribbon import (_gauge_signs, _localize, bulk_gap_interval, in_gap_indices,
                          localization, obc_defective_check, ribbon_hamiltonian,
                          ribbon_spectrum, skin_metric)
from nhdeg.serialize import write_band_csv

# gapped topological regime with diagonal nonreciprocity switched on
P_TI = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
P_HERM = ModelParams(t1=0.75, gamma=0.5)
P_G0 = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0)


def _band(p, axis, n, k):
    return ribbon_spectrum(p, axis, n, k_values=[k])[0]


def test_localization_uniform_vector():
    rep = localization(np.ones(60) / np.sqrt(60), 30)
    assert rep.ipr == pytest.approx(1 / 60)
    assert rep.side == "delocalized"
    assert rep.center_of_mass == pytest.approx(14.5)


def test_localization_edge_vector():
    v = np.zeros(60)
    v[0] = 1.0
    rep = localization(v, 30)
    assert rep.side == "left"
    assert rep.ipr == pytest.approx(1.0)
    v2 = np.zeros(60)
    v2[29] = v2[59] = 1 / np.sqrt(2)
    assert localization(v2, 30).side == "right"


def test_localization_errors():
    with pytest.raises(ValueError):
        localization(np.zeros(60), 30)
    with pytest.raises(ValueError):
        localization(np.ones(10), 30)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_localization_rejects_a_non_finite_entry(bad):
    # an all-inf or all-nan vector gave ipr = nan and side 'delocalized'
    for v in (np.full(60, bad), np.r_[np.ones(59), bad]):
        with pytest.raises(ValueError, match="^vector has a non-finite entry$"):
            localization(v, 30)


@pytest.mark.parametrize("axis", ["z", "X", "", "xy"])
def test_gap_and_skin_metric_reject_an_unknown_axis(axis):
    # any axis but 'x' was taken as 'y'
    band = _band(P_TI, "x", 10, 0.0)
    message = "^" + re.escape(f"open_axis must be 'x' or 'y', got {axis!r}") + "$"
    with pytest.raises(ValueError, match=message):
        bulk_gap_interval(P_TI, axis, 0.3)
    with pytest.raises(ValueError, match=message):
        skin_metric(P_TI, axis, band)


def test_ribbon_hamiltonian_validation():
    with pytest.raises(ValueError):
        ribbon_hamiltonian(P_TI, "z", 30, 0.0)
    with pytest.raises(ValueError):
        ribbon_hamiltonian(P_TI, "x", 4, 0.0)


def test_ribbon_spectrum_sorted_and_sized():
    bands = ribbon_spectrum(P_TI, "x", 12, _k_grid(4))
    assert len(bands) == 4
    for band in bands:
        assert len(band.eigenvalues) == 24
        assert np.all(np.diff(band.eigenvalues.real) > -1e-12)
        assert len(band.edge_flags) == 24


def test_hermitian_ribbon_spectrum_real():
    bands = ribbon_spectrum(P_HERM, "x", 16, k_values=[0.7, 2.1])
    for band in bands:
        assert np.abs(band.eigenvalues.imag).max() < 1e-10


def test_edge_modes_opposite_sides_near_crossing():
    # open y: the in-gap pair just off the crossing momentum sits at small
    # real energy with one state per edge
    k = np.pi / 2 - 0.05
    bands = ribbon_spectrum(P_TI, "y", 30, k_values=[k])
    gap = bulk_gap_interval(P_TI, "y", k)
    ing = in_gap_indices(bands[0], gap)
    assert len(ing) == 2
    sides = {bands[0].edge_flags[i] for i in ing}
    assert sides == {"left", "right"}
    assert all(abs(bands[0].eigenvalues[i].real) < 0.1 for i in ing)


def test_in_gap_modes_have_finite_lifetime_open_x():
    # deep in the gap the open-x chiral branches carry imaginary parts
    bands = ribbon_spectrum(P_TI, "x", 30, k_values=[1.2])
    gap = bulk_gap_interval(P_TI, "x", 1.2)
    ing = in_gap_indices(bands[0], gap)
    assert ing
    assert max(abs(bands[0].eigenvalues[i].imag) for i in ing) > 0.01


def test_in_gap_modes_nearly_real_open_y():
    bands = ribbon_spectrum(P_TI, "y", 30, k_values=[1.2])
    gap = bulk_gap_interval(P_TI, "y", 1.2)
    ing = in_gap_indices(bands[0], gap)
    assert ing
    assert max(abs(bands[0].eigenvalues[i].imag) for i in ing) < 0.01


def test_band_insulator_has_no_in_gap_modes():
    p_bi = P_TI.replace(v=10.0)
    for k in (-2.0, 0.4, 1.8):
        bands = ribbon_spectrum(p_bi, "y", 20, k_values=[k])
        gap = bulk_gap_interval(p_bi, "y", k)
        assert in_gap_indices(bands[0], gap) == []


def test_in_gap_count_zero_or_two_in_ti_phase():
    ks = np.linspace(-np.pi, np.pi, 17, endpoint=False)
    counts = []
    for k in ks:
        bands = ribbon_spectrum(P_TI, "y", 24, k_values=[k])
        gap = bulk_gap_interval(P_TI, "y", k)
        counts.append(len(in_gap_indices(bands[0], gap)))
    assert set(counts) <= {0, 2}
    assert counts.count(2) >= len(ks) // 2


def test_obc_defective_pair_open_x():
    # the skin effect drags both zero modes to one edge where they coalesce
    rep = obc_defective_check(_band(P_G0, "x", 30, np.pi / 2))
    assert not rep.absent
    assert rep.overlap > 1 - 1e-6
    assert max(abs(e) for e in rep.eigenvalues) < 1e-6


def test_obc_independent_pair_open_y():
    rep = obc_defective_check(_band(P_TI, "y", 30, np.pi / 2))
    assert not rep.absent
    assert rep.overlap < 0.5


def test_obc_hermitian_orthogonal_pair():
    rep = obc_defective_check(_band(P_HERM, "y", 30, np.pi / 2))
    assert rep.overlap < 0.1


def test_obc_absent_when_nothing_near_zero():
    rep = obc_defective_check(_band(P_TI.replace(v=10.0), "y", 16, 0.0))
    assert rep.absent


def test_skin_metric_above_baseline():
    skin = skin_metric(P_TI, "y", _band(P_TI, "y", 30, 0.0))
    base = skin_metric(P_HERM, "y", _band(P_HERM, "y", 30, 0.0))
    assert skin > 3 * base


def test_skin_metric_scaling_with_width():
    # doubling the width halves the delocalized baseline, while the
    # skin-localized value stays of the same order
    base_30 = skin_metric(P_HERM, "y", _band(P_HERM, "y", 30, 0.0))
    base_60 = skin_metric(P_HERM, "y", _band(P_HERM, "y", 60, 0.0))
    assert base_60 < 0.65 * base_30
    skin_30 = skin_metric(P_TI, "y", _band(P_TI, "y", 30, 0.0))
    skin_60 = skin_metric(P_TI, "y", _band(P_TI, "y", 60, 0.0))
    assert skin_60 > 0.5 * skin_30


def test_in_gap_modes_converge_with_width():
    vals = {}
    for n in (30, 60):
        bands = ribbon_spectrum(P_TI, "x", n, k_values=[2.0])
        gap = bulk_gap_interval(P_TI, "x", 2.0)
        ing = in_gap_indices(bands[0], gap)
        vals[n] = sorted((bands[0].eigenvalues[i] for i in ing),
                         key=lambda z: z.real)
    assert len(vals[30]) == len(vals[60]) == 2
    for a, b in zip(vals[30], vals[60]):
        assert abs(a - b) < 1e-3

# ---------------------------------------------------------------------------
# the k -> k + pi gauge and the batched edge flags

def _seeded_params(n=20, seed=11):
    rng = np.random.default_rng(seed)
    return [ModelParams(t=rng.uniform(0.5, 2.0), t1=rng.uniform(-1, 1),
                        v=rng.uniform(-3, 3), gamma=rng.uniform(-np.pi, np.pi),
                        gx=rng.uniform(-1, 1), gy=rng.uniform(-1, 1),
                        ga=rng.uniform(-1, 1), gb=rng.uniform(-1, 1),
                        mu_a=rng.uniform(-1, 1), mu_b=rng.uniform(-1, 1))
            for _ in range(n)]


def test_hop_table_parity():
    # the gauge needs every hop to have r + c + dx + dy even
    for p in _seeded_params():
        hops = _hop_list(p)
        assert len(hops) == 18
        assert all((r + c + dx + dy) % 2 == 0 for r, c, dx, dy, _ in hops)


def test_odd_hop_breaks_the_gauge(monkeypatch):
    # a hop with odd r + c + dx + dy must raise rather than be mapped wrongly
    hops = _hop_list(P_TI)
    monkeypatch.setattr(nhdeg.ribbon, "_hop_list", lambda p: hops + [(0, 1, 0, 0, 0.1)])
    with pytest.raises(ValueError, match="gauge"):
        ribbon_spectrum(P_TI, "x", 8, _k_grid(4))


@pytest.mark.parametrize("axis", ["x", "y"])
def test_gauge_maps_k_to_k_plus_pi(axis):
    rng = np.random.default_rng(5)
    n = 10
    for p in _seeded_params():
        u = _gauge_signs(p, n)
        k = rng.uniform(-np.pi, np.pi)
        H = ribbon_hamiltonian(p, axis, n, k)
        H_pi = ribbon_hamiltonian(p, axis, n, k + np.pi)
        err = np.abs(u[:, None] * H * u[None, :] - H_pi).max()
        assert err <= 1e-14 * np.linalg.norm(H)


@pytest.mark.parametrize("p,axis", [(P_TI, "x"), (P_TI, "y"), (P_G0, "x")]
                         + [(p, "y") for p in _seeded_params(3, seed=2)])
def test_mapped_bands_solve_their_own_hamiltonian(p, axis):
    n, k_samples = 12, 8
    bands = ribbon_spectrum(p, axis, n, _k_grid(k_samples))
    for band, partner in zip(bands[:k_samples // 2], bands[k_samples // 2:]):
        assert band.transverse_k < 0 <= partner.transverse_k
        assert np.array_equal(band.eigenvalues, partner.eigenvalues)
        assert band.edge_flags == partner.edge_flags
        H = ribbon_hamiltonian(p, axis, n, band.transverse_k)
        R = band.eigenvectors
        res = np.linalg.norm(H @ R - R * band.eigenvalues, axis=0) / np.linalg.norm(R, axis=0)
        assert res.max() <= 1e-12 * np.linalg.norm(H)


def test_mapped_hermitian_eigenvalues_match_direct_solve():
    # P_HERM is well conditioned, so mapped and direct spectra agree closely
    n = 16
    for band in ribbon_spectrum(P_HERM, "y", n, _k_grid(10)):
        direct = np.linalg.eigvalsh(ribbon_hamiltonian(P_HERM, "y", n, band.transverse_k))
        assert np.abs(np.sort(band.eigenvalues.real) - direct).max() < 1e-10


def test_one_solve_per_momentum_pair(monkeypatch):
    calls = []
    solve = nhdeg.ribbon.eigensystem_n

    def counting(H, **kw):
        calls.append(H.shape)
        return solve(H, **kw)

    monkeypatch.setattr(nhdeg.ribbon, "eigensystem_n", counting)
    for k_samples, expected in ((8, 4), (10, 5), (7, 7), (9, 9)):
        calls.clear()
        assert len(ribbon_spectrum(P_TI, "x", 8, _k_grid(k_samples))) == k_samples
        assert len(calls) == expected
    for k in (-np.pi, -2.0, -np.pi / 2, 0.0, 1.2, np.pi):
        calls.clear()
        band = _band(P_TI, "x", 8, k)
        assert len(calls) == 1
        assert band.transverse_k == k
    # momenta already on the grid modulo pi cost nothing extra, and dropping
    # vectors saves no solve
    grid = (-np.pi + 2 * np.pi * np.arange(8) / 8).tolist()
    for keep in (None, (), (0,), (2, 8, 9)):
        calls.clear()
        ribbon_spectrum(P_TI, "x", 8, k_values=grid + [np.pi / 2, 0.0, -np.pi / 2],
                        keep_vectors=keep)
        assert len(calls) == 4


def test_chained_momenta_share_one_solve(monkeypatch):
    # sorted neighbours within 1e-12 chain into one group, although its ends
    # lie farther apart than that
    calls = []
    solve = nhdeg.ribbon.eigensystem_n

    def counting(H, **kw):
        calls.append(H.shape)
        return solve(H, **kw)

    monkeypatch.setattr(nhdeg.ribbon, "eigensystem_n", counting)
    bands = ribbon_spectrum(P_TI, "x", 8, [0.0, 0.6e-12, 1.2e-12])
    assert len(calls) == 1
    assert [b.transverse_k for b in bands] == [0.0, 0.6e-12, 1.2e-12]


# index 0 (k = -pi) is mapped from 4 (k = 0); 2 and 10 (k = -pi/2) are mapped
# from 6 (k = pi/2), which 9 shares; 8 (k = 1.0) is a solve of its own
_KEEP_K = _k_grid(8).tolist() + [1.0, np.pi / 2, -np.pi / 2]


@pytest.mark.parametrize("keep", [(), (0,), (4,), (0, 4), (2, 8, 10), range(11)])
def test_kept_vectors_match_a_keep_all_sweep(keep):
    n = 12
    full = ribbon_spectrum(P_TI, "y", n, _KEEP_K)
    bands = ribbon_spectrum(P_TI, "y", n, _KEEP_K, keep_vectors=keep)
    for i, (band, ref) in enumerate(zip(bands, full)):
        assert band.transverse_k == ref.transverse_k
        assert np.array_equal(band.eigenvalues, ref.eigenvalues)
        assert band.edge_flags == ref.edge_flags
        if i in keep:
            assert np.array_equal(band.eigenvectors, ref.eigenvectors)
            assert not band.eigenvectors.flags.writeable
        else:
            assert band.eigenvectors is None


@pytest.mark.parametrize("keep", [(11,), (0, -1), (3, 20)])
def test_keep_vectors_out_of_range_is_rejected(keep):
    with pytest.raises(ValueError, match="keep_vectors index .* out of range for 11 momenta"):
        ribbon_spectrum(P_TI, "y", 12, _KEEP_K, keep_vectors=keep)


def test_band_without_vectors_names_its_momentum(tmp_path):
    # skin_metric reads the ipr every band carries, so it needs no vectors
    band = ribbon_spectrum(P_TI, "y", 12, [0.0, 0.25], keep_vectors=(0,))[1]
    kept = ribbon_spectrum(P_TI, "y", 12, [0.0, 0.25], keep_vectors=(1,))[1]
    assert kept.eigenvectors is not None
    assert skin_metric(P_TI, "y", band) == skin_metric(P_TI, "y", kept)
    with pytest.raises(ValueError, match="no eigenvectors kept at transverse k = 0.25"):
        obc_defective_check(band)
    path = tmp_path / "bands.csv"
    with pytest.raises(ValueError, match="no eigenvectors kept at transverse k = 0.25"):
        write_band_csv(path, [band], dump_vectors=True)
    assert not path.exists()
    write_band_csv(path, [band])
    assert len(path.read_text().splitlines()) == 2 + 24


def test_oversized_ribbon_is_rejected_before_any_matrix_is_built(monkeypatch):
    built = []

    def builder(p, open_axis, n_cells, transverse_k):
        built.append(n_cells)
        raise LookupError("built")

    monkeypatch.setattr(nhdeg.ribbon, "ribbon_hamiltonian", builder)
    n = MAX_DENSE_DIM // 2
    with pytest.raises(ValueError, match=f"dense solver limited to dim <= {MAX_DENSE_DIM}, "
                                         f"got {2 * n + 2}"):
        ribbon_spectrum(P_TI, "y", n + 1, [0.0])
    assert built == []
    # the widest allowed ribbon reaches the builder
    with pytest.raises(LookupError):
        ribbon_spectrum(P_TI, "y", n, [0.0])
    assert built == [n]


@pytest.mark.parametrize("axis,n,message", [
    ("z", 30, "open_axis must be 'x' or 'y', got 'z'"),
    ("x", 3, "need at least 8 cells across the ribbon"),
    ("x", -5, "need at least 8 cells across the ribbon"),
])
def test_invalid_ribbon_is_rejected_before_blas_is_pinned(monkeypatch, axis, n, message):
    # an empty sweep returned [], and a bad ribbon raised only in a solve
    def pinned(*args):
        raise LookupError("pinned")

    monkeypatch.setattr(nhdeg.ribbon, "_solve_all", pinned)
    for k_values in ([], [0.0], [0.5, -0.5]):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ribbon_spectrum(P_TI, axis, n, k_values)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_momentum_is_rejected_before_blas_is_pinned(monkeypatch, bad):
    def pinned(*args):
        raise LookupError("pinned")

    monkeypatch.setattr(nhdeg.ribbon, "_solve_all", pinned)
    with pytest.raises(ValueError, match=f"^transverse momentum must be finite, got {bad}$"):
        ribbon_spectrum(P_TI, "x", 10, [0.3, bad])


def test_singleton_momentum_is_a_direct_solve():
    # a momentum without a requested partner is not mapped from k + pi
    n, k = 12, -2.0
    band = _band(P_TI, "y", n, k)
    es = nhdeg.ribbon.eigensystem_n(ribbon_hamiltonian(P_TI, "y", n, k), want_left=False)
    assert np.array_equal(band.eigenvalues, es.eigenvalues)
    assert np.array_equal(band.eigenvectors, es.right)


def _reference_localization(v, n):
    # the earlier per-vector formula, kept as an oracle for the batched one
    w = np.abs(v) ** 2
    w = w / w.sum()
    ipr = float((w ** 2).sum())
    com = float((np.arange(n) * (w[:n] + w[n:])).sum())
    side = "delocalized"
    if ipr > 4.0 / n:
        if com < 0.25 * (n - 1):
            side = "left"
        elif com > 0.75 * (n - 1):
            side = "right"
    return ipr, com, side


@pytest.mark.parametrize("p,axis,n,k", [(P_TI, "y", 30, np.pi / 2 - 0.05),
                                        (P_TI, "x", 30, 1.2), (P_TI, "y", 24, -2.0),
                                        (P_G0, "x", 30, np.pi / 2),
                                        (P_HERM, "y", 60, 0.0)])
def test_batched_flags_match_per_column_localization(p, axis, n, k):
    # one of k and k + pi is solved, the other is its gauge-mapped partner;
    # each band's localization is that of its own vectors, bit for bit
    for band in ribbon_spectrum(p, axis, n, [k, k + np.pi]):
        R = band.eigenvectors
        reports = [localization(R[:, m], n) for m in range(2 * n)]
        assert band.edge_flags == [rep.side for rep in reports]
        assert band.ipr.tolist() == [rep.ipr for rep in reports]
        assert band.center_of_mass.tolist() == [rep.center_of_mass for rep in reports]
        assert not (band.ipr.flags.writeable or band.center_of_mass.flags.writeable)
    ipr, com, side = _localize(R, n)
    ref = [_reference_localization(R[:, m], n) for m in range(2 * n)]
    assert ipr.tolist() == [r[0] for r in ref]
    assert com.tolist() == [r[1] for r in ref]
    assert side == [r[2] for r in ref]
    # the non-Hermitian cases exercise the edge thresholds
    assert set(side) - {"delocalized"} or p is P_HERM


# ---------------------------------------------------------------------------
# parallel solves with OpenBLAS pinned to one thread

def _blas_counts():
    calls = nhdeg.ribbon._blas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS thread-count calls in this process")
    return [get() for get, _ in calls]


def _set_blas_counts(counts):
    for (_, set_), n in zip(nhdeg.ribbon._blas_thread_calls(), counts):
        set_(n)


@pytest.mark.parametrize("p,axis,n", [(P_TI, "y", 30), (P_G0, "x", 16)])
def test_bands_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, p, axis, n):
    files = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: workers)
        path = tmp_path / f"bands-{workers}.csv"
        write_band_csv(path, ribbon_spectrum(p, axis, n, _k_grid(16)), dump_vectors=True)
        files.append(path.read_bytes())
    assert files[1:] == files[:1] * 3


_GROUPS = list(range(9))


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_calling_thread_solves_the_first_share(monkeypatch, workers):
    # the calling thread solves groups[:9 // workers] and a pool of
    # workers - 1 threads the rest; each solve sleeps, so that no pool
    # thread is idle, and reused, before every group has been submitted
    _blas_counts()
    started, solvers = [], {}
    start = threading.Thread.start

    def recording(self):
        started.append(self)
        start(self)

    def solve(group):
        time.sleep(0.02)
        solvers[group] = threading.get_ident()
        return -group

    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: workers)
    monkeypatch.setattr(threading.Thread, "start", recording)
    assert nhdeg.ribbon._solve_all(solve, _GROUPS) == [-g for g in _GROUPS]
    own = [g for g in _GROUPS if solvers[g] == threading.get_ident()]
    assert own == _GROUPS[:len(_GROUPS) // workers]
    assert len(started) == workers - 1


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_calling_thread_failure_raises_once_the_pool_is_done(monkeypatch, workers):
    # the calling thread's first group fails once the pool's first has
    # started, which sleeps, and the pool's last fails too: the calling
    # thread's error is raised, and only once the sleeping solve is done and
    # the pool is gone
    _blas_counts()
    before = threading.active_count()
    first_pooled = len(_GROUPS) // workers
    started = threading.Event()
    done = []

    def solve(group):
        if group == 0:
            assert started.wait(5)
            raise RuntimeError("calling thread's solve failed")
        if group == first_pooled:
            started.set()
            time.sleep(0.2)
            done.append(group)
        if group == _GROUPS[-1]:
            raise RuntimeError("pool solve failed")
        return group

    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: workers)
    with pytest.raises(RuntimeError, match="^calling thread's solve failed$"):
        nhdeg.ribbon._solve_all(solve, _GROUPS)
    assert done == [first_pooled]
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_calling_thread_failure_cancels_the_queued_pool_solves(monkeypatch, workers):
    # the calling thread's first group fails once every pool thread is busy
    # with a sleeping solve: those finish, and the queued ones are cancelled
    # (they all ran before)
    _blas_counts()
    busy = workers - 1
    lock, all_busy = threading.Lock(), threading.Event()
    pooled, failed = [], threading.Event()

    def solve(group):
        if group == 0:
            assert all_busy.wait(5)
            failed.set()
            raise RuntimeError("calling thread's solve failed")
        if group >= len(_GROUPS) // workers:
            with lock:
                pooled.append(failed.is_set())
                if len(pooled) == busy:
                    all_busy.set()
            time.sleep(0.2)
        return group

    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: workers)
    with pytest.raises(RuntimeError, match="^calling thread's solve failed$"):
        nhdeg.ribbon._solve_all(solve, _GROUPS)
    # pool solves made after the failure
    assert pooled.count(True) == 0
    assert len(pooled) == busy < len(_GROUPS) - len(_GROUPS) // workers


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_pool_failure_raises_when_the_calling_share_succeeds(monkeypatch, workers):
    _blas_counts()
    before = threading.active_count()

    def solve(group):
        if group == _GROUPS[-1]:
            raise RuntimeError("pool solve failed")
        return group

    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: workers)
    with pytest.raises(RuntimeError, match="^pool solve failed$"):
        nhdeg.ribbon._solve_all(solve, _GROUPS)
    assert threading.active_count() == before


def test_sweep_pins_and_restores_the_blas_thread_count(monkeypatch):
    before = _blas_counts()
    two, one = [2] * len(before), [1] * len(before)
    seen = []
    solve = nhdeg.ribbon.eigensystem_n

    def recording(H, **kw):
        seen.append(_blas_counts())
        return solve(H, **kw)

    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: 2)
    monkeypatch.setattr(nhdeg.ribbon, "eigensystem_n", recording)
    try:
        _set_blas_counts(two)
        ribbon_spectrum(P_TI, "x", 8, _k_grid(8))
        assert seen == [one] * 4
        assert _blas_counts() == two
    finally:
        _set_blas_counts(before)


def test_failed_solve_restores_the_blas_thread_count_and_raises(monkeypatch):
    before = _blas_counts()
    two = [2] * len(before)
    build = nhdeg.ribbon.ribbon_hamiltonian

    def failing(p, axis, n, k):
        # k = pi/4 is the second of the four solves, the calling thread's last
        if k == np.pi / 4:
            raise RuntimeError("solve failed")
        return build(p, axis, n, k)

    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: 2)
    monkeypatch.setattr(nhdeg.ribbon, "ribbon_hamiltonian", failing)
    try:
        _set_blas_counts(two)
        with pytest.raises(RuntimeError, match="solve failed"):
            ribbon_spectrum(P_TI, "x", 8, _k_grid(8))
        assert _blas_counts() == two
    finally:
        _set_blas_counts(before)


def test_empty_sweep_starts_no_thread(monkeypatch):
    started = []
    start = threading.Thread.start

    def recording(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", recording)
    assert ribbon_spectrum(P_TI, "x", 8, []) == []
    assert started == []


def test_later_failed_solve_raises_once_every_worker_stopped(monkeypatch):
    # the first of four groups solves slowly on one worker while the last
    # fails at once on the other: the sweep raises the last group's error,
    # and only after the slow solve is done and both workers are gone.  A
    # process without OpenBLAS solves serially and skips
    _blas_counts()
    before = threading.active_count()
    build = nhdeg.ribbon.ribbon_hamiltonian
    done, failed_early = [], []

    def failing(p, axis, n, k):
        if k == 0.0:
            time.sleep(0.2)
            done.append(k)
        if k == 3 * np.pi / 4:
            failed_early.append(not done)
            raise RuntimeError("last solve failed")
        return build(p, axis, n, k)

    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: 2)
    monkeypatch.setattr(nhdeg.ribbon, "ribbon_hamiltonian", failing)
    with pytest.raises(RuntimeError, match="last solve failed"):
        ribbon_spectrum(P_TI, "x", 8, _k_grid(8))
    assert failed_early == [True]
    assert done == [0.0]
    assert threading.active_count() == before


@pytest.mark.parametrize("k_values", [[0.7], [0.7, 0.7 + np.pi], [1.1 - np.pi, 1.1, 1.1 + np.pi]])
def test_sweep_of_one_solve_runs_on_the_calling_thread(monkeypatch, k_values):
    # with two CPUs a sweep started a pool thread for its one solve
    if not nhdeg.ribbon._blas_thread_calls():
        pytest.skip("no OpenBLAS thread setter: every sweep is serial")
    threads = []
    solve = nhdeg.ribbon.eigensystem_n

    def recording(H, **kw):
        threads.append(threading.current_thread())
        return solve(H, **kw)

    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: 2)
    monkeypatch.setattr(nhdeg.ribbon, "eigensystem_n", recording)
    ribbon_spectrum(P_TI, "y", 12, k_values)
    assert threads == [threading.main_thread()]


def test_without_blas_calls_the_sweep_is_serial(monkeypatch):
    # no thread setter: every solve runs on the calling thread, as direct
    # solves there would.  The lookup finds none in a process without
    # OpenBLAS, without /proc/self/maps, or when no library can be opened
    threads = []
    solve, lookup = nhdeg.ribbon.eigensystem_n, nhdeg.ribbon._blas_thread_calls

    def recording(H, **kw):
        threads.append(threading.current_thread())
        return solve(H, **kw)

    def missing(path, *args, **kw):
        raise FileNotFoundError(2, "No such file or directory", path)

    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: 2)
    monkeypatch.setattr(nhdeg.ribbon, "eigensystem_n", recording)
    n = 12
    for target, name, fake in [(nhdeg.ribbon, "_blas_thread_calls", lambda: ()),
                               (nhdeg.ribbon, "open", missing),
                               (nhdeg.ribbon.ctypes, "CDLL", missing)]:
        threads.clear()
        with monkeypatch.context() as m:
            m.setattr(target, name, fake, raising=False)
            lookup.cache_clear()
            try:
                assert nhdeg.ribbon._blas_thread_calls() == ()
                bands = ribbon_spectrum(P_TI, "y", n, _k_grid(8))
            finally:
                lookup.cache_clear()
        assert threads == [threading.main_thread()] * 4, name
        for band in bands[4:]:
            es = solve(ribbon_hamiltonian(P_TI, "y", n, band.transverse_k), want_left=False)
            assert np.array_equal(band.eigenvalues, es.eigenvalues)
            assert np.array_equal(band.eigenvectors, es.right)


def test_concurrent_sweeps_under_thread_stress(monkeypatch):
    # two sweeps at once, each with more workers than CPUs and a short
    # switch interval: every solve sees one BLAS thread, the bands equal a
    # plain sweep's, and the counts from before the sweeps come back.  The
    # longer sweep starts once the shorter one is solving, and the solves
    # are slowed down, so unserialized sweeps would overlap and the shorter
    # one would restore the counts while the longer one still solves
    before = _blas_counts()
    two, one = [2] * len(before), [1] * len(before)
    sizes = (16, 64)
    reference = [ribbon_spectrum(P_TI, "y", 12, _k_grid(k)) for k in sizes]
    seen = []
    solving = threading.Event()
    solve = nhdeg.ribbon.eigensystem_n

    def recording(H, **kw):
        solving.set()
        seen.append(_blas_counts())
        time.sleep(0.002)
        return solve(H, **kw)

    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: (os.cpu_count() or 1) + 2)
    monkeypatch.setattr(nhdeg.ribbon, "eigensystem_n", recording)
    results = [None, None]

    def sweep(slot):
        if slot:
            solving.wait(timeout=10)
        results[slot] = ribbon_spectrum(P_TI, "y", 12, _k_grid(sizes[slot]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _set_blas_counts(two)
        threads = [threading.Thread(target=sweep, args=(slot,)) for slot in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert _blas_counts() == two
    finally:
        sys.setswitchinterval(interval)
        _set_blas_counts(before)
    assert seen == [one] * (sum(sizes) // 2)
    for bands, ref_bands in zip(results, reference):
        assert [b.transverse_k for b in bands] == [b.transverse_k for b in ref_bands]
        for band, ref in zip(bands, ref_bands):
            assert np.array_equal(band.eigenvalues, ref.eigenvalues)
            assert np.array_equal(band.eigenvectors, ref.eigenvectors)
            assert band.edge_flags == ref.edge_flags
