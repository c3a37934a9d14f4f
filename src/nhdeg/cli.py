"""Command-line front end: reproducible runs emitting versioned CSV/JSON.

Subcommands
-----------
theorem   verify the anti-unitary pair construction over a random ensemble
scan      locate and classify Brillouin-zone degeneracies, export the field
symmetry  survey the built-in composite symmetries at one parameter set
phases    sweep the staggered potential against the phase boundaries
ribbon    ribbon spectra with localization metrics

Exit codes: 0 success, 1 verification failure, 2 usage error.  Machine
output goes to files under --out; stdout carries a short human summary.
Identical configurations (including --seed) produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .model import (ModelParams, load_params, phase_boundaries, phase_classify)
from .ribbon import localization, obc_defective_check, ribbon_spectrum, skin_metric
from .scanner import find_degeneracies, scan_discriminant  # noqa: F401 (perfbench reads it)
from .serialize import (json_document, write_band_csv, write_json,
                        write_vector_field_csv)
from .symmetry import symmetry_survey
from .theorem import run_ensemble

__all__ = ["main"]


def _add_common(sub):
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--tol", type=float, default=None, help="override tolerance")
    sub.add_argument("--seed", type=int, default=0)


def _params_from(args) -> ModelParams:
    return load_params(args.params)


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_theorem(args) -> int:
    dims = tuple(range(args.min_dim, args.max_dim + 1))
    bound = args.tol if args.tol is not None else 1e-9
    report = run_ensemble(dims=dims, trials=args.trials, seed=args.seed,
                          bound=bound, inject_defective=args.inject_defective)
    write_json(_outpath(args, "theorem.json"), json_document(report,
               toolkit_version=__version__))
    if args.inject_defective:
        ok = report["rejected_defective"] == args.trials
        print(f"theorem: rejected {report['rejected_defective']}/{args.trials} "
              f"defective inputs")
        if not ok and report["failures"]:
            print(f"first failure: {report['failures'][0]}")
        return 0 if ok else 1
    worst = max(report["max_residuals"].values(), default=0.0)
    print(f"theorem: {args.trials} trials over dims {dims}, "
          f"worst residual {worst:.3e} (bound {bound:.1e})")
    if not report["passed"] and report["failures"]:
        print(f"first failure: {report['failures'][0]}")
    return 0 if report["passed"] else 1


def cmd_scan(args) -> int:
    p = _params_from(args)
    tol = args.tol if args.tol is not None else 1e-13
    result = find_degeneracies(p, args.nx, args.ny, tol=tol, fold=args.fold_bz)
    write_vector_field_csv(_outpath(args, "field.csv"), result.field)
    payload = {
        "tol": tol,
        "nx": args.nx,
        "ny": args.ny,
        "fold_bz": args.fold_bz,
        "n_candidates": result.n_candidates,
        "n_dropped": result.n_dropped,
        "points": [asdict(q) for q in result.points],
    }
    write_json(_outpath(args, "degeneracies.json"),
               json_document(payload, params=p, toolkit_version=__version__))
    n_nd, n_d = len(result.nondefective), len(result.defective)
    print(f"scan: {n_nd} non-defective, {n_d} defective, "
          f"{len(result.unresolved)} unresolved "
          f"({result.n_dropped} candidates dropped)")
    return 0 if not result.unresolved else 1


def cmd_symmetry(args) -> int:
    p = _params_from(args)
    survey = symmetry_survey(p, nx=args.nx, ny=args.ny)
    reports = {}
    for name, rep in survey["reports"].items():
        reports[name] = {
            "spec": name,
            "holds": rep.holds,
            "right_residual": rep.right_residual,
            "left_residual": rep.left_residual,
            "worst_k": list(rep.grid_max_k),
            "min_residual": rep.grid_min_residual,
            "min_k": list(rep.grid_min_k),
        }
    payload = {
        "eta_X1": survey["eta_X1"],
        "eta_X2": survey["eta_X2"],
        "holding": survey["holding"],
        "reports": reports,
    }
    write_json(_outpath(args, "symmetry.json"),
               json_document(payload, params=p, toolkit_version=__version__))
    print("symmetry: holding = " + (", ".join(survey["holding"]) or "none"))
    return 0


def cmd_phases(args) -> int:
    p = _params_from(args)
    v_values = np.linspace(args.v_min, args.v_max, args.v_steps)
    g_values = np.linspace(args.g_min, args.g_max, args.g_steps)
    path = _outpath(args, "phases.csv")
    with open(path, "w") as fh:
        fh.write("# format=nhdeg/1\n")
        fh.write("g,v,v1,v2,phase\n")
        for g in g_values:
            pg = p.replace(ga=float(g), gb=float(g))
            v1, v2 = phase_boundaries(pg)
            for v in v_values:
                label = phase_classify(pg.replace(v=float(v)), tol=args.boundary_tol)
                fh.write(f"{float(g)!r},{float(v)!r},{float(v1)!r},{float(v2)!r},"
                         f"{label}\n")
    v1, v2 = phase_boundaries(p)
    print(f"phases: v1 = {v1:.6f}, v2 = {v2:.6f} at the file parameters; "
          f"grid written to {path}")
    return 0


def cmd_ribbon(args) -> int:
    p = _params_from(args)
    k_values = -np.pi + 2 * np.pi * np.arange(args.k_samples) / args.k_samples
    bands = ribbon_spectrum(p, args.axis, args.n_cells, k_values=k_values)
    write_band_csv(_outpath(args, "bands.csv"), bands,
                   dump_vectors=args.dump_vectors)
    zero = obc_defective_check(p, args.axis, args.n_cells, args.zero_k)
    loc_payload = {
        "axis": args.axis,
        "n_cells": args.n_cells,
        "zero_mode_check_k": args.zero_k,
        "zero_mode_overlap": zero.overlap,
        "zero_mode_absent": zero.absent,
        "zero_mode_eigenvalues": list(zero.eigenvalues),
        "skin_metric_k0": skin_metric(p, args.axis, args.n_cells, 0.0),
        "edge_mode_sides": {},
    }
    mid = min(bands, key=lambda b: abs(abs(b.transverse_k) - np.pi / 2))
    order = np.argsort(np.abs(mid.eigenvalues))[:2]
    loc_payload["edge_mode_sides"] = {
        str(int(n)): asdict(localization(mid.eigenvectors[:, int(n)], args.n_cells))
        for n in order
    }
    write_json(_outpath(args, "localization.json"),
               json_document(loc_payload, params=p, toolkit_version=__version__))
    print(f"ribbon: {len(bands)} momenta, zero-mode overlap {zero.overlap:.6f} "
          f"at transverse k = {args.zero_k:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nhdeg", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("theorem", help="verify the operator-pair construction")
    t.add_argument("--trials", type=int, default=500)
    t.add_argument("--min-dim", type=int, default=2)
    t.add_argument("--max-dim", type=int, default=8)
    t.add_argument("--inject-defective", action="store_true",
                   help="feed Jordan blocks instead; expect rejection")
    _add_common(t)
    t.set_defaults(func=cmd_theorem)

    s = sub.add_parser("scan", help="find and classify degeneracies")
    s.add_argument("--params", required=True)
    s.add_argument("--nx", type=int, default=301)
    s.add_argument("--ny", type=int, default=301)
    s.add_argument("--fold-bz", action="store_true",
                   help="merge points equivalent under the reduced zone")
    _add_common(s)
    s.set_defaults(func=cmd_scan)

    y = sub.add_parser("symmetry", help="survey the built-in symmetries")
    y.add_argument("--params", required=True)
    y.add_argument("--nx", type=int, default=32)
    y.add_argument("--ny", type=int, default=32)
    _add_common(y)
    y.set_defaults(func=cmd_symmetry)

    f = sub.add_parser("phases", help="staggered-potential phase sweep")
    f.add_argument("--params", required=True)
    f.add_argument("--v-min", type=float, default=-6.0)
    f.add_argument("--v-max", type=float, default=6.0)
    f.add_argument("--v-steps", type=int, default=121)
    f.add_argument("--g-min", type=float, default=0.0)
    f.add_argument("--g-max", type=float, default=1.0)
    f.add_argument("--g-steps", type=int, default=11)
    f.add_argument("--boundary-tol", type=float, default=1e-6)
    _add_common(f)
    f.set_defaults(func=cmd_phases)

    r = sub.add_parser("ribbon", help="ribbon spectra and localization")
    r.add_argument("--params", required=True)
    r.add_argument("--axis", choices=("x", "y"), default="x")
    r.add_argument("--n-cells", type=int, default=30)
    r.add_argument("--k-samples", type=int, default=64)
    r.add_argument("--zero-k", type=float, default=np.pi / 2,
                   help="transverse momentum for the zero-mode pair check")
    r.add_argument("--dump-vectors", action="store_true")
    _add_common(r)
    r.set_defaults(func=cmd_ribbon)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
