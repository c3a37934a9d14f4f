"""Command-line front end: reproducible runs emitting versioned CSV/JSON.

Subcommands
-----------
theorem   verify the anti-unitary pair construction over a random ensemble
scan      locate and classify Brillouin-zone degeneracies, export the field
symmetry  survey the built-in composite symmetries at one parameter set
phases    sweep the staggered potential against the phase boundaries
ribbon    ribbon spectra with localization metrics

Exit codes: 0 success, 1 verification failure, 2 usage error.  Machine
output goes to files under --out, which ``serialize`` encodes and writes only
once every result is computed and checked, so a rejected input writes
nothing; stdout carries a short human summary.
Identical configurations (including --seed) produce byte-identical files.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .model import _k_grid, _phase_labels, load_params, phase_boundaries
from .ribbon import localization, obc_defective_check, ribbon_spectrum, skin_metric
from .scanner import scan_discriminant  # noqa: F401 (perfbench reads it)
from .scanner import NEWTON_TOL, find_degeneracies
from .serialize import write_band_csv, write_json, write_phases_csv, write_vector_field_csv
from .symmetry import symmetry_survey
from .theorem import MAX_DIM, RESIDUAL_BOUND, run_ensemble

__all__ = ["main"]


def _count(text: str, least: int = 1) -> int:
    """Argument type of the integer flags: positive, or non-negative for ``least=0``."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        kind = "positive" if least > 0 else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return value


def _finite(text: str, least: float = -np.inf, strict: bool = False) -> float:
    """Argument type of the float flags: finite and at least ``least`` (above it if ``strict``)."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and (value > least if strict else value >= least)):
        floor = f" {'>' if strict else '>='} {least:g}" if np.isfinite(least) else ""
        raise argparse.ArgumentTypeError(f"expected a finite number{floor}, got {text!r}")
    return value


_positive = functools.partial(_finite, least=0.0, strict=True)
_seed = functools.partial(_count, least=0)


def _add_common(sub):
    sub.add_argument("--out", default=".", help="output directory")


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_theorem(args) -> int:
    dims = tuple(range(args.min_dim, args.max_dim + 1))
    report = run_ensemble(dims=dims, trials=args.trials, seed=args.seed,
                          bound=args.tol, inject_defective=args.inject_defective)
    write_json(_outpath(args, "theorem.json"), report)
    if args.inject_defective:
        print(f"theorem: rejected {report['rejected_defective']}/{args.trials} "
              f"defective inputs")
    else:
        worst = max(report["max_residuals"].values())
        print(f"theorem: {args.trials} trials over dims {dims}, "
              f"worst residual {worst:.3e} (bound {args.tol:.1e})")
    if not report["passed"] and report["failures"]:
        print(f"first failure: {report['failures'][0]}")
    return 0 if report["passed"] else 1


def cmd_scan(args) -> int:
    p = load_params(args.params)
    result = find_degeneracies(p, args.nx, args.ny, tol=args.tol, fold=args.fold_bz)
    payload = {
        "params": p,
        "tol": args.tol,
        "nx": args.nx,
        "ny": args.ny,
        "fold_bz": args.fold_bz,
        "n_candidates": result.n_candidates,
        "n_dropped": result.n_dropped,
        "points": result.points,
    }
    write_vector_field_csv(_outpath(args, "field.csv"), result.field)
    write_json(_outpath(args, "degeneracies.json"), payload)
    n_nd, n_d = len(result.nondefective), len(result.defective)
    print(f"scan: {n_nd} non-defective, {n_d} defective, "
          f"{len(result.unresolved)} unresolved "
          f"({result.n_dropped} candidates dropped)")
    return 0 if not result.unresolved else 1


def cmd_symmetry(args) -> int:
    p = load_params(args.params)
    survey = symmetry_survey(p, nx=args.nx, ny=args.ny)
    write_json(_outpath(args, "symmetry.json"), {"params": p, **survey})
    print("symmetry: holding = " + (", ".join(survey["holding"]) or "none"))
    return 0


def cmd_phases(args) -> int:
    p = load_params(args.params)
    for name, lo, hi in (("v", args.v_min, args.v_max), ("g", args.g_min, args.g_max)):
        if not np.isfinite(hi - lo):
            raise ValueError(f"--{name}-min {lo!r} to --{name}-max {hi!r} spans more "
                             f"than the largest float")
    v_values = np.linspace(args.v_min, args.v_max, args.v_steps)
    g_values = np.linspace(args.g_min, args.g_max, args.g_steps)
    rows = []
    for g in g_values.tolist():
        pg = p.replace(ga=g, gb=g)
        rows.append((g, *phase_boundaries(pg), _phase_labels(pg, v_values, args.boundary_tol)))
    path = _outpath(args, "phases.csv")
    write_phases_csv(path, v_values, rows)
    v1, v2 = phase_boundaries(p)
    print(f"phases: v1 = {v1:.6f}, v2 = {v2:.6f} at the file parameters; "
          f"grid written to {path}")
    return 0


def cmd_ribbon(args) -> int:
    p = load_params(args.params)
    k_grid = _k_grid(args.k_samples)
    # the edge pair crosses at |k| = pi/2, where it can hybridize, so its sides
    # are read at the nearest grid momentum off the crossing but within pi/4
    # of it (the edge pair has left the gap by pi/2 away), else at the nearest
    # one, the first on a tie; d = ||4i - 2nk| - nk| is 4 ||k_i| - pi/2| / dk
    nk = args.k_samples
    dist = [(abs(abs(4 * i - 2 * nk) - nk), i) for i in range(nk)]
    mid_i = min([(d, i) for d, i in dist if 0 < 2 * d <= nk] or dist)[1]
    # the zero-mode and skin momenta cost no solve when on the grid modulo pi;
    # only the mid, zero-mode and skin bands keep vectors unless all are dumped
    *bands, zero_band, skin_band = ribbon_spectrum(
        p, args.axis, args.n_cells, k_values=[*k_grid.tolist(), args.zero_k, 0.0],
        keep_vectors=None if args.dump_vectors else (mid_i, nk, nk + 1))
    zero = obc_defective_check(zero_band)
    mid = bands[mid_i]
    order = np.argsort(np.abs(mid.eigenvalues))[:2]
    payload = {
        "params": p,
        "axis": args.axis,
        "n_cells": args.n_cells,
        "zero_mode_check_k": args.zero_k,
        "zero_mode_overlap": zero.overlap,
        "zero_mode_absent": zero.absent,
        "zero_mode_eigenvalues": zero.eigenvalues,
        "skin_metric_k0": skin_metric(p, args.axis, skin_band),
        "edge_mode_sides": {str(int(n)): localization(mid.eigenvectors[:, n], args.n_cells)
                            for n in order},
    }
    write_band_csv(_outpath(args, "bands.csv"), bands, dump_vectors=args.dump_vectors)
    write_json(_outpath(args, "localization.json"), payload)
    print(f"ribbon: {len(bands)} momenta, zero-mode overlap {zero.overlap:.6f} "
          f"at transverse k = {args.zero_k:.4f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nhdeg", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("theorem", help="verify the operator-pair construction")
    t.add_argument("--trials", type=_count, default=500)
    t.add_argument("--min-dim", type=int, default=2)
    t.add_argument("--max-dim", type=int, default=8,
                   help=f"largest matrix dimension, at most {MAX_DIM}")
    t.add_argument("--inject-defective", action="store_true",
                   help="feed Jordan blocks instead; expect rejection")
    t.add_argument("--tol", type=_positive, default=RESIDUAL_BOUND, help="residual bound")
    t.add_argument("--seed", type=_seed, default=0)
    _add_common(t)

    s = sub.add_parser("scan", help="find and classify degeneracies")
    s.add_argument("--params", required=True)
    s.add_argument("--nx", type=_count, default=301)
    s.add_argument("--ny", type=_count, default=301)
    s.add_argument("--fold-bz", action="store_true",
                   help="merge points equivalent under the reduced zone")
    s.add_argument("--tol", type=_positive, default=NEWTON_TOL, help="Newton tolerance")
    _add_common(s)

    y = sub.add_parser("symmetry", help="survey the built-in symmetries")
    y.add_argument("--params", required=True)
    y.add_argument("--nx", type=_count, default=32)
    y.add_argument("--ny", type=_count, default=32)
    _add_common(y)

    phases_help = "staggered-potential phase sweep; needs 0 < gamma < pi/2 and gx = gy = 0"
    f = sub.add_parser("phases", help=phases_help, description=phases_help)
    f.add_argument("--params", required=True)
    f.add_argument("--v-min", type=_finite, default=-6.0)
    f.add_argument("--v-max", type=_finite, default=6.0)
    f.add_argument("--v-steps", type=_count, default=121)
    f.add_argument("--g-min", type=_finite, default=0.0)
    f.add_argument("--g-max", type=_finite, default=1.0)
    f.add_argument("--g-steps", type=_count, default=11)
    f.add_argument("--boundary-tol", type=functools.partial(_finite, least=0.0), default=1e-6)
    _add_common(f)

    ribbon_help = ("ribbon spectra and localization; edge_mode_sides are read at the "
                   "sampled momentum nearest |k| = pi/2 but not on it, since the edge "
                   "modes cross at |k| = pi/2 and can hybridize there (a grid with no "
                   "such momentum within pi/4, such as --k-samples 4, reads the "
                   "crossing)")
    r = sub.add_parser("ribbon", help="ribbon spectra and localization",
                       description=ribbon_help)
    r.add_argument("--params", required=True)
    r.add_argument("--axis", choices=("x", "y"), default="x")
    r.add_argument("--n-cells", type=_count, default=30)
    r.add_argument("--k-samples", type=_count, default=64)
    r.add_argument("--zero-k", type=_finite, default=np.pi / 2,
                   help="transverse momentum for the zero-mode pair check")
    r.add_argument("--dump-vectors", action="store_true",
                   help="append every band's |psi| to bands.csv; the sweep then holds "
                        "k-samples x (2 n-cells)^2 complex numbers in memory")
    _add_common(r)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        # looked up at call time, so a rebound cmd_* runs under the cached parser
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
