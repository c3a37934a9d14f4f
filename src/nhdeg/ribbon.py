"""Ribbon spectra, edge-mode bookkeeping and skin-effect localization metrics.

A ribbon is open along one axis (N cells) and Bloch-periodic along the
other; each transverse momentum gives a dense 2N-dimensional non-Hermitian
matrix.  Eigenvalues are sorted ascending by real part.  States are flagged
``left``/``right``/``delocalized`` from their inverse participation ratio
and center of mass; "in gap" means the real part falls strictly inside the
gap of the periodic bulk bands at the same transverse momentum.

Momenta k and k + pi give the same ribbon up to a sign gauge.  Every hop
(row sublattice r, column sublattice c, cell step dx, dy) has r + c + dx +
dy even, so H(k + pi) = U H(k) U with U = diag(u), where u is +(-1)^j on
the A rows and -(-1)^j on the B rows (j the cell index across the ribbon).
The two momenta share eigenvalues, their order and edge flags, and the
eigenvectors map as R -> u * R.  ``ribbon_spectrum`` therefore solves the
member of each requested pair whose wrapped momentum lies in [0, pi) and
maps the other.  A mapped band equals a direct solve at its own momentum
only to within the eigenproblem's conditioning.  On the 64-momentum grid
a random perturbation of norm 1e-15 |H| moves the eigenvalues by up to
2.5e-2 on the N = 100 y-open skin-effect ribbon and 1.8e-5 on the N = 30
x-open one; the mapped and direct eigenvalues differ by up to 2.1e-2 and
3.0e-6 there (after matching).  Both have the solver's residual against
H(k).

The dense solves of a sweep run on one thread per CPU available to the
process, but no more than the solves, while OpenBLAS is pinned to one
thread: the calling thread solves the first share of the momentum groups
and a ``concurrent.futures`` pool of the other threads the rest; with one
CPU or one solve, or without an OpenBLAS thread setter, the calling thread
solves them all.  Each solve is then single-threaded, so the bands do not
depend on the number of CPUs or on ``OPENBLAS_NUM_THREADS``; a threaded
solve rounds differently, and the conditioning above amplifies that.

Bands of one solve share its eigenvalues and the localization of its
states (edge flags, inverse participation ratios and centers of mass).
Eigenvectors are kept only for the bands the caller names
(``keep_vectors``, all by default): each thread drops a solve's vectors
once it has their localization, so a sweep holds one (2N)^2 solve per
solving thread plus the kept bands, not one matrix per momentum.
"""

import ctypes
import os
import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import MAX_DENSE_DIM, eigensystem_n
from .model import ModelParams, _hop_list, _k_grid, dispersion, real_space_hamiltonian

# Ribbon matrices in the skin-effect regimes are strongly non-normal and
# their left/right eigenvalue pairing is pseudospectrally ill-posed, so the
# spectra below are computed right-only; every metric in this module uses
# right eigenvectors, which stay backward stable at any width.

__all__ = [
    "RibbonBand",
    "LocalizationReport",
    "ZeroModePairReport",
    "ribbon_hamiltonian",
    "ribbon_spectrum",
    "localization",
    "bulk_gap_interval",
    "in_gap_indices",
    "obc_defective_check",
    "skin_metric",
]

# requested momenta closer than this (modulo pi) share one solve
_SAME_K_TOL = 1e-12
# samples along the open axis for the bulk gap
_GAP_NK = 301
# states this close to a gap edge do not count as in the gap
_GAP_MARGIN = 1e-9
# the zero-mode pair is absent when an eigenvalue lies farther from zero
_ZERO_WINDOW = 0.5
# held while a sweep has OpenBLAS pinned, so that concurrent sweeps cannot
# restore each other's thread count
_BLAS_LOCK = threading.Lock()
# OpenBLAS thread-count calls ({} = get or set): plain, with the suffixes of
# 64-bit integer builds, and with the scipy_ prefix of numpy's and scipy's wheels
_OPENBLAS_THREAD_CALLS = [f"{prefix}_{{}}_num_threads{suffix}"
                          for prefix in ("openblas", "scipy_openblas")
                          for suffix in ("", "64_", "_64")]


@dataclass
class LocalizationReport:
    """Localization of a ribbon eigenvector.

    ``ipr`` is sum |psi_i|^4 / (sum |psi_i|^2)^2 over all 2N components
    (1/L for a uniform state of length L), ``center_of_mass`` the mean open
    axis cell index, and ``side`` one of 'left', 'right', 'delocalized'.
    A side is assigned only when the center sits in the outer quarter of
    the ribbon and ipr exceeds 4/N.
    """

    ipr: float
    center_of_mass: float
    side: str


@dataclass
class RibbonBand:
    """Spectral data of a ribbon at one transverse momentum.

    ``ipr``, ``center_of_mass`` and ``edge_flags`` hold each state's
    ``localization``.  ``eigenvectors`` is None when the sweep did not keep
    this band's vectors (see ``ribbon_spectrum``'s ``keep_vectors``); the
    eigenvalues and the localization are there either way.
    """

    transverse_k: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    edge_flags: list
    ipr: np.ndarray
    center_of_mass: np.ndarray

    def vectors(self) -> np.ndarray:
        """The eigenvectors; ValueError naming the momentum if they were dropped."""
        if self.eigenvectors is None:
            raise ValueError(f"no eigenvectors kept at transverse k = {self.transverse_k!r}")
        return self.eigenvectors


@dataclass
class ZeroModePairReport:
    """Eigenvalues and eigenvector overlap of the two eigenvalues closest to zero.

    An overlap near 1 does not by itself show that the pair coalesces: under
    the skin effect most eigenvectors crowd onto one edge and overlap near 1
    (see ``obc_defective_check``).
    """

    eigenvalues: tuple
    overlap: float
    absent: bool


def ribbon_hamiltonian(p: ModelParams, open_axis: str, n_cells: int,
                       transverse_k: float) -> np.ndarray:
    """Mixed real-space/Bloch Hamiltonian of a ribbon (dimension 2 n_cells)."""
    bc = _ribbon_bc(open_axis, n_cells)
    return real_space_hamiltonian(p, n_cells, n_cells, bc=bc, transverse_k=transverse_k)


def _x_open(open_axis: str) -> bool:
    """Whether the ribbon is open along x; ValueError unless the axis is 'x' or 'y'."""
    if open_axis not in ("x", "y"):
        raise ValueError(f"open_axis must be 'x' or 'y', got {open_axis!r}")
    return open_axis == "x"


def _ribbon_bc(open_axis: str, n_cells: int) -> tuple[str, str]:
    """The (x, y) boundary conditions of a ribbon, once its axis and width are checked."""
    x_open = _x_open(open_axis)
    if n_cells < 8:
        raise ValueError("need at least 8 cells across the ribbon")
    return ("open", "periodic") if x_open else ("periodic", "open")


def _localize(vecs: np.ndarray, n_cells: int):
    """ipr, center of mass and side of every column of a (2N, m) array."""
    # one row per state, so each reduction runs over a contiguous row
    w = np.abs(np.ascontiguousarray(vecs.T)) ** 2
    total = w.sum(axis=1)
    if not total.all():
        raise ValueError("zero vector")
    w = w / total[:, None]
    ipr = (w ** 2).sum(axis=1)
    com = (np.arange(n_cells) * (w[:, :n_cells] + w[:, n_cells:])).sum(axis=1)
    sided = ipr > 4.0 / n_cells
    side = np.select([sided & (com < 0.25 * (n_cells - 1)),
                      sided & (com > 0.75 * (n_cells - 1))], ["left", "right"],
                     "delocalized")
    return ipr, com, side.tolist()


def localization(vec, n_cells: int) -> LocalizationReport:
    """Localization metrics of a length-2N ribbon eigenvector."""
    v = np.asarray(vec, dtype=complex)
    if v.shape != (2 * n_cells,):
        raise ValueError(f"expected a vector of length {2 * n_cells}, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has a non-finite entry")
    ipr, com, side = _localize(v[:, None], n_cells)
    return LocalizationReport(ipr=float(ipr[0]), center_of_mass=float(com[0]),
                              side=side[0])


def _gauge_signs(p: ModelParams, n_cells: int) -> np.ndarray:
    """Diagonal u of the ribbon gauge H(k + pi) = diag(u) H(k) diag(u)."""
    if any((r + c + dx + dy) % 2 for r, c, dx, dy, _ in _hop_list(p)):
        raise ValueError("a hop with odd r + c + dx + dy breaks the k -> k + pi gauge")
    alt = (-1.0) ** np.arange(n_cells)
    return np.concatenate([alt, -alt])


@cache
def _blas_thread_calls() -> tuple:
    """(get, set) thread-count calls of every OpenBLAS loaded in the process.

    Libraries are found in the process's memory map (numpy and scipy may
    each bring one) and opened only if already loaded; the calls are looked
    up under the names OpenBLAS builds export.  Empty where none is found.
    """
    try:
        with open("/proc/self/maps") as fh:
            # only the path field of a map line can name a library
            paths = sorted({line.split(maxsplit=5)[5].rstrip("\n") for line in fh
                            if "openblas" in line})
    except OSError:
        return ()
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_CALLS:
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                calls.append((get, set_))
                break
    return tuple(calls)


def _worker_count() -> int:
    """Solver threads of a sweep: the CPUs this process may run on.

    Only called once an OpenBLAS was found through /proc, so on Linux.
    """
    return len(os.sched_getaffinity(0))


def _solve_all(solve, groups) -> list:
    """``solve`` of every group, in order, with OpenBLAS pinned to one thread.

    The solves share min(CPUs, groups) threads: the calling thread solves
    the first len(groups) // threads groups and a pool of the other threads
    the rest, so no pool is started for one thread or when there is no
    thread setter.  A failure cancels the pool's queued solves, and the first
    in group order is raised once the pool is joined; the counts are restored.
    """
    calls = _blas_thread_calls()
    if not calls:
        return list(map(solve, groups))
    with _BLAS_LOCK:
        before = [get() for get, _ in calls]
        for _, set_ in calls:
            set_(1)
        try:
            workers = min(_worker_count(), len(groups))
            if workers <= 1:
                return list(map(solve, groups))
            from concurrent.futures import ThreadPoolExecutor
            # the calling thread takes a share: each pool thread's malloc arena adds peak RSS
            split = len(groups) // workers
            with ThreadPoolExecutor(workers - 1) as pool:
                rest = pool.map(solve, groups[split:])
                try:
                    return [*map(solve, groups[:split]), *rest]
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
        finally:
            for (_, set_), count in zip(calls, before):
                set_(count)


def ribbon_spectrum(p: ModelParams, open_axis: str, n_cells: int, k_values,
                    keep_vectors=None) -> list:
    """One band per transverse momentum of ``k_values``, in the given order.

    Eigenvalues per momentum are sorted ascending by real part (ties by
    imaginary part); edge flags are attached per state.

    Requested momenta are sorted modulo pi, and sorted neighbours within
    1e-12 chain into one group that shares one dense solve, made at the
    first of them whose wrapped value lies in [0, pi); a momentum in
    [-pi, 0) without such a partner is solved directly.
    Bands from one solve share its read-only eigenvalues, inverse
    participation ratios and centers of mass (the gauge map keeps every
    |psi_i|).  ``keep_vectors`` holds the indices into ``k_values`` whose
    bands keep their eigenvectors (None, the default, keeps all); the other
    bands carry ``eigenvectors=None``.  A kept band shares the read-only
    vectors of its solve, except that a partner across pi gets its own
    gauge-mapped copy; no copy is made for a dropped one.  The solves run on
    min(CPUs, solves) threads, the calling thread one of them, with OpenBLAS
    pinned to one thread, each dropping its unkept vectors at once (module
    docstring): the bands do not depend on the number of CPUs, the memory
    not on the number of momenta.  A failed solve cancels the queued ones,
    and of the failed solves, the one at the least momentum modulo pi
    raises once every started solve has stopped.  The ribbon's
    size and axis, and that every momentum is finite, are checked before
    any matrix is built, even for no ``k_values``.
    """
    if 2 * n_cells > MAX_DENSE_DIM:
        raise ValueError(f"dense solver limited to dim <= {MAX_DENSE_DIM}, got {2 * n_cells}")
    _ribbon_bc(open_axis, n_cells)
    ks = [float(k) for k in k_values]
    bad_k = [k for k in ks if not np.isfinite(k)]
    if bad_k:
        raise ValueError(f"transverse momentum must be finite, got {bad_k[0]}")
    keep = set(range(len(ks))) if keep_vectors is None else set(keep_vectors)
    bad = keep - set(range(len(ks)))
    if bad:
        raise ValueError(f"keep_vectors index {next(iter(bad))!r} is out of range "
                         f"for {len(ks)} momenta")
    wrapped = (np.array(ks) + np.pi) % (2 * np.pi) - np.pi
    lower = wrapped < 0
    rep = np.where(lower, wrapped + np.pi, wrapped)
    u = _gauge_signs(p, n_cells)
    order = np.argsort(rep, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(rep[order]) > _SAME_K_TOL) + 1) if ks else []

    def solve(group):
        at = next((i for i in group if not lower[i]), group[0])
        es = eigensystem_n(ribbon_hamiltonian(p, open_axis, n_cells, ks[at]), want_left=False)
        right = None if keep.isdisjoint(group) else es.right
        return at, es.eigenvalues, right, *_localize(es.right, n_cells)

    bands = [None] * len(ks)
    for group, (at, lam, right, ipr, com, flags) in zip(groups, _solve_all(solve, groups)):
        for shared in (lam, ipr, com):
            shared.flags.writeable = False
        for i in group:
            vecs = None
            if i in keep:
                vecs = right if lower[i] == lower[at] else u[:, None] * right
                vecs.flags.writeable = False
            bands[i] = RibbonBand(transverse_k=ks[i], eigenvalues=lam, eigenvectors=vecs,
                                  edge_flags=list(flags), ipr=ipr, center_of_mass=com)
    return bands


def bulk_gap_interval(p: ModelParams, open_axis: str,
                      transverse_k: float) -> tuple[float, float]:
    """Real-part gap of the periodic bulk bands at fixed transverse momentum.

    Returns (lower, upper) with lower = max Re of the minus band and upper
    = min Re of the plus band over the momentum along the open axis; an
    empty or inverted interval means no gap.
    """
    ks = _k_grid(_GAP_NK)
    if _x_open(open_axis):
        plus, minus = dispersion(p, ks, transverse_k)
    else:
        plus, minus = dispersion(p, transverse_k, ks)
    lo = np.minimum(plus.real, minus.real).max()
    hi = np.maximum(plus.real, minus.real).min()
    return float(lo), float(hi)


def in_gap_indices(band: RibbonBand, gap: tuple[float, float]) -> list:
    """Indices of ribbon states whose Re eigenvalue lies inside the bulk gap.

    Both edges move ``_GAP_MARGIN`` inward, so a narrower gap holds none.
    """
    lo, hi = gap
    return [n for n, ev in enumerate(band.eigenvalues)
            if lo + _GAP_MARGIN < ev.real < hi - _GAP_MARGIN]


def obc_defective_check(band: RibbonBand) -> ZeroModePairReport:
    """Eigenvector overlap of the two ribbon eigenvalues nearest zero.

    The overlap |<v1|v2>| of the unit-normalized eigenvectors approaches 1
    at an open-boundary defective point and stays near 0 for an independent
    pair (for instance hybridized edge modes).  The converse does not hold
    under the skin effect, which crowds most eigenvectors onto one edge:
    on the gamma = 0 x ribbon at N = 30 the median state's largest overlap
    with another is 0.9987 at k = pi/2 and 0.988 at k = 1.2, and the zero
    pair's overlap reads 1, yet after balancing by diag(exp(-0.8 j)) the
    matrix has two singular values below 1e-13, so its zero eigenvalue has
    geometric multiplicity 2: a non-defective pair.  An overlap near 1
    alone therefore does not show coalescence.  When no eigenvalue lies
    within ``_ZERO_WINDOW`` of zero the pair is reported absent.
    """
    order = np.argsort(np.abs(band.eigenvalues))
    i1, i2 = int(order[0]), int(order[1])
    pair = (complex(band.eigenvalues[i1]), complex(band.eigenvalues[i2]))
    absent = max(abs(pair[0]), abs(pair[1])) > _ZERO_WINDOW
    vecs = band.vectors()
    v1 = vecs[:, i1] / np.linalg.norm(vecs[:, i1])
    v2 = vecs[:, i2] / np.linalg.norm(vecs[:, i2])
    overlap = float(min(abs(np.vdot(v1, v2)), 1.0))
    return ZeroModePairReport(eigenvalues=pair, overlap=overlap, absent=absent)


def skin_metric(p: ModelParams, open_axis: str, band: RibbonBand) -> float:
    """Mean inverse participation ratio of the bulk-classified ribbon states.

    States inside the bulk real-part gap at the band's momentum are
    excluded; a uniform spectrum of extended states gives roughly 1/(2N),
    boundary accumulation (the skin effect) pushes the mean far above that
    baseline.  It reads the band's ``ipr``, so the band need not keep its
    eigenvectors.
    """
    bulk = np.ones(band.ipr.size, dtype=bool)
    bulk[in_gap_indices(band, bulk_gap_interval(p, open_axis, band.transverse_k))] = False
    return float(np.mean(band.ipr[bulk]))
