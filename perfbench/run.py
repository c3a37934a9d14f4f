"""Run one nhdeg benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 20 --trace 0

The run process is fresh: it times ``import nhdeg.cli``, generates the
workload's inputs from ``--seed``, runs one warm-up job, then repeats the job
back to back (closed loop, one client) for ``--seconds`` seconds (default:
``run_seconds`` of BENCHMARK.json).  Between jobs, spread evenly over those
seconds, it times the same import in fresh child interpreters, for
``setup_s``.  After each job its outputs are checked; a job that raises,
exits non-zero or fails its check counts as failed.  ``--trace 1``
alternates untraced and traced jobs and reports per-layer metrics instead of
end-to-end ones.  ``--smoke`` shrinks every size for a quick functional run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give each
metric with its unit and sample count, and the environment.  Full records
(samples, environment, spans) go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# child interpreters timed per run for setup_s; with the run's own import,
# eight samples.  Each costs about 0.6 s of the measured window.
SETUP_CHILDREN = 7

_CHILD_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import nhdeg.cli; "
                 "print(repr(time.perf_counter() - t))")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(spec, argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one job")
    return ap.parse_args(argv)


def import_program():
    """Import nhdeg.cli from this checkout's src/; returns (module, seconds)."""
    if not (SRC / "nhdeg" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'nhdeg'} not found; run from a checkout "
                         "of the repository")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import nhdeg.cli
    seconds = time.perf_counter() - start
    import nhdeg
    if Path(nhdeg.__file__).resolve().parent != (SRC / "nhdeg").resolve():
        raise SystemExit(f"error: imported nhdeg from {nhdeg.__file__}, not {SRC}")
    return nhdeg, seconds


def child_import_seconds():
    proc = subprocess.run([sys.executable, "-c", _CHILD_IMPORT, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment():
    import numpy as np
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
    }


def tail_percentile(samples):
    """(q, value) of the highest percentile with ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return None
    q = 1.0 - 10.0 / n
    return q, statistics.quantiles(samples, n=100, method="inclusive")[int(q * 100) - 1]


class Runner:
    def __init__(self, nhdeg, workload):
        self.nhdeg, self.workload = nhdeg, workload
        self.attempted = self.failed = 0
        self.problems = []

    def one(self, tracer=None):
        """Run one job (traced if a tracer is given), then check it untraced.

        Returns the job's (wall s, cpu s).
        """
        self.attempted += 1
        gc.collect()   # start every job with the same collector state
        if tracer:
            tracer.job += 1
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = self.workload.job(self.nhdeg)
            problems = []
        except Exception:
            problems = ["job raised: " + traceback.format_exc(limit=3)]
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if tracer:
                tracer.uninstall()
        if not problems:
            try:
                problems = self.workload.check(self.nhdeg, result)
            except Exception:
                problems = ["check raised: " + traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5 - len(self.problems)])
        return wall, cpu


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    nhdeg, own_import_s = import_program()
    setup = [own_import_s]
    # setup_s is an end-to-end metric, so a traced run times no children
    children = 0 if args.trace else 1 if args.smoke else SETUP_CHILDREN

    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    sizes = workloads.SIZES["smoke" if args.smoke else "full"]
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, run_dir, sizes)
        runner = Runner(nhdeg, workload)
        runner.one()                          # warm-up, checked but not timed
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = [], []
        t_start = time.perf_counter()
        t_end = t_start + args.seconds
        while True:
            if tracer and len(plain) > len(traced):
                traced.append(runner.one(tracer))
            else:
                plain.append(runner.one())
            # child imports follow the clock, so they sample the whole window
            while len(setup) - 1 < children * min(
                    1.0, (time.perf_counter() - t_start) / args.seconds):
                setup.append(child_import_seconds())
            if tracer and not traced:
                continue
            if args.smoke or time.perf_counter() >= t_end:
                break
        while len(setup) - 1 < children:
            setup.append(child_import_seconds())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = environment()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    job_s = [w for w, _ in plain]
    cpu_s = [c for _, c in plain]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "job_s": (statistics.median(job_s), "s", len(job_s)),
            "cpu_s": (statistics.median(cpu_s), "s", len(cpu_s)),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
            "ok_frac": (1.0 - runner.failed / runner.attempted, "ratio",
                        runner.attempted),
        }
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layer = tracing.layer_metrics(tracer.spans, len(traced), list(units),
                                      tracing.span_cost_s())
        metrics = {name: (value, units[name], len(traced))
                   for name, value in layer.items()}
        tracer.write_csv(WORK / f"spans-{args.workload}.csv", t_start)

    print(f"# nhdeg benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds} smoke={args.smoke}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} (n={n})")
    tail = tail_percentile(job_s)
    if tracer is None and tail:
        print(f"# job_s p{100 * tail[0]:.0f} = {tail[1]:.6g} s (n={len(job_s)})")
    for why in runner.problems:
        print("# FAILED: " + why.replace("\n", " | "))

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke, "env": env, "sizes": sizes,
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems,
        "samples": {"setup_s": setup, "job_s": job_s, "cpu_s": cpu_s,
                    "traced_job_s": [w for w, _ in traced]},
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
    }
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
