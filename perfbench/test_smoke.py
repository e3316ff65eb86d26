"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

It checks the result schema and that every metric BENCHMARK.json names
appears with its unit, on two seeds untraced and once traced.  It is not
a timing gate.
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Each workload's own metrics, printed by name on the detail line.
DETAIL_METRICS = {
    "train-small": {"train_samples_per_s": "samples/s", "train_paired_step_ms_p50": "ms",
                    "train_unpaired_step_ms_p50": "ms"},
    "eval-small": {"eval_s": "s"},
    "retarget-large": {"transfer_ms_p50": "ms"},
}


def run_benchmark(cwd, workload, seed, trace, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, spec_metrics):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"], m["name"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    return result, json.loads(lines[-2])["detail"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics_on_two_seeds(workload):
    names = []
    for seed in (5, 6):
        result, detail = check_result(run_benchmark(ROOT, workload, seed, 0),
                                      SPEC["end_to_end"])
        assert all(v["value"] > 0 for v in result["metrics"].values())
        env = detail["environment"]
        assert env["seed"] == seed and env["blas_threads_pinned"] == 1
        for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_version",
                    "blas_threads"):
            assert key in env
        expected = dict(DETAIL_METRICS[workload], error_rate="failed/attempted")
        assert {k: v["unit"] for k, v in detail["metrics"].items()} == expected
        names.append(sorted(result["metrics"]))
    assert names[0] == names[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics(workload):
    _, detail = check_result(run_benchmark(ROOT, workload, 5, 1), SPEC["per_layer"])
    assert detail["op_ms"]["n"] >= 1 and detail["traced_op_ms"]["n"] >= 1
    assert detail["tracing"]["spans"] > 0
    assert os.path.isfile(detail["tracing"]["span_file"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, WORKLOADS[0], 5, 0,
                         script=os.path.join(tmp_path, SPEC["command"][1]))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
