"""Tests of the benchmark harness itself; run with `python3 -m pytest -q perfbench`.

The end-to-end tests use `run.py --smoke` (tiny sizes, one timed job).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--trace", str(trace),
                     "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench("--workload", "scan", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_recipes_are_seeded_and_seed_zero_is_the_readme():
    assert workloads.recipes(7) == workloads.recipes(7)
    assert workloads.recipes(7) != workloads.recipes(8)
    zero = workloads.recipes(0)
    assert zero["pinned"] == {"gamma": 0.5, "gx": 0.5, "gy": 0.3}
    assert zero["coexist0"] == {"t1": 0.75, "ga": 0.5, "gb": 0.3, "gamma": 0.0}
    assert abs(zero["closure"]["v"] - 3.2594) < 1e-4


def test_self_time_subtracts_the_union_of_overlapping_children():
    # parent 0..10 with two pool children overlapping on 2..6 and 4..8
    spans = [(1, 0, "cli.cmd_ribbon", 1, 0.0, 10.0, {"k_samples": 2}, 1),
             (2, 1, "linalg.eigensystem_n", 2, 2.0, 6.0, {"dim3": 8}, 1),
             (3, 1, "linalg.eigensystem_n", 3, 4.0, 8.0, {"dim3": 8}, 1)]
    stats = tracer.aggregate(spans)
    assert stats["cli.cmd_ribbon"]["self_s"] == pytest.approx(4.0)
    assert stats["linalg.eigensystem_n"]["total_s"] == pytest.approx(8.0)
    assert stats["linalg.eigensystem_n"]["dim3"] == 16
    names = ["ribbon.eig_per_momentum", "cli.ribbon.self_s",
             "linalg.eigensystem_n.dim3_sum", "trace.overhead_s"]
    layer = tracer.layer_metrics(spans, 1, names, span_cost=0.5)
    assert layer == pytest.approx({"ribbon.eig_per_momentum": 1.0, "cli.ribbon.self_s": 4.0,
                                   "linalg.eigensystem_n.dim3_sum": 16,
                                   "trace.overhead_s": 1.5})


def test_every_span_metric_names_a_traced_function():
    import importlib
    derived = {"scanner.points_per_candidate", "ribbon.eig_per_momentum",
               "theorem.trials_passed_frac", "trace.overhead_s"}
    for metric in SPEC["per_layer"]:
        if metric["name"] in derived:
            continue
        span, _ = tracer._span_stat(metric["name"])
        module, func = span.split(".")
        assert module in tracer.TRACED_MODULES, metric["name"]
        assert callable(getattr(importlib.import_module(f"nhdeg.{module}"), func)), \
            metric["name"]


def test_span_cost_is_small_and_positive():
    assert 0 < tracer.span_cost_s(2000) < 1e-3


def test_tracer_wraps_every_imported_copy_and_restores_them():
    import nhdeg.cli
    import nhdeg.model
    import nhdeg.scanner

    original = nhdeg.model.discriminant_function
    tr = tracer.Tracer()
    tr.install()
    try:
        assert nhdeg.scanner.discriminant_function is nhdeg.model.discriminant_function
        assert nhdeg.model.discriminant_function is not original
        nhdeg.scanner.scan_discriminant(nhdeg.model.ModelParams(), 16, 16)
    finally:
        tr.uninstall()
    assert nhdeg.scanner.discriminant_function is original
    assert nhdeg.cli.scan_discriminant is nhdeg.scanner.scan_discriminant
    names = [s[2] for s in tr.spans]
    assert names == ["model.discriminant_function", "scanner.scan_discriminant"]
    assert tr.spans[0][1] == tr.spans[1][0]   # parent link
    assert tr.spans[0][6] == {"points": 256}
