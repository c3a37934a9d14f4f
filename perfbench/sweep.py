"""Run the benchmark over several seeds and record one point of the BENCH trajectory.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 --label baseline \
        --out perfbench/trajectory/baseline.json

For each workload it runs ``run.py`` for ``run_seconds`` (from
BENCHMARK.json) once per seed with ``--trace 0`` (end-to-end metrics) and
once with ``--trace 1`` on the first seed (per-layer metrics), in fresh
processes, one after another.  For every end-to-end metric it prints the
median and the quartile spread (``(q3 - q1) / median``, from
``statistics.quantiles(values, n=4)``) next to the metric's bound from
BENCHMARK.json, and writes all values to --out.  With ``--compare`` it also
prints, per workload and end-to-end metric, how far this set's median is
from that of an earlier point, against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    env = next((json.loads(line[len("# env "):]) for line in proc.stdout.splitlines()
                if line.startswith("# env ")), None)
    return result, env, time.perf_counter() - start


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def compare(entry, earlier, workload, metrics):
    """Print each metric's change of median against an earlier point."""
    for m in metrics:
        new = entry["end_to_end"][m["name"]]["median"]
        old = earlier["end_to_end"][m["name"]]["median"]
        worse = (new - old if m["better"] == "lower" else old - new) / old
        flag = "  WORSE than bound" if worse > m["bound"] else ""
        print(f"  {workload} {m['name']}: median {new:.4g} vs {old:.4g}, worse by "
              f"{worse:+.4f} (bound {m['bound']}){flag}")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="for example 1-10 or 0,3,5")
    ap.add_argument("--label", default="")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", type=Path, help="an earlier point's JSON file")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    if len(seeds) < 2:
        ap.error("quartiles need at least two seeds")
    seconds = spec["run_seconds"]
    point = {"label": args.label, "seeds": seeds, "run_seconds": seconds,
             "workloads": {}}
    for workload in args.workloads.split(","):
        values, walls, correct = {}, [], True
        for seed in seeds:
            result, env, wall = run_once(workload, seed, seconds, 0)
            point.setdefault("env", env)
            walls.append(wall)
            correct &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
                + f" ({wall:.1f} s)", flush=True)
        entry = {"correct": correct, "max_run_wall_s": max(walls),
                 "end_to_end": {name: summarize(v) for name, v in values.items()}}
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  > bound/3"
            print(f"  {workload} {name}: median {s['median']:.4g}, spread "
                  f"{s['spread']:.4f} (bound {bounds[name]}){flag}")
        if args.compare:
            compare(entry, json.loads(args.compare.read_text())["workloads"][workload],
                    workload, spec["end_to_end"])
        result, _, _ = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        point["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
