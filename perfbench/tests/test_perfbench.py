"""Tests of the benchmark itself, on tiny A2 workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
from workloads import BENCHMARK_WORKLOADS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ("a2_rational_tiny", "a2_prime_tiny")


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _in_worker(code):
    """Run ``code`` in a fresh process that has imported the worker."""
    prelude = f"import sys; sys.path.insert(0, {str(HERE)!r}); import worker, json\n"
    proc = subprocess.run([sys.executable, "-c", prelude + code], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", TINY)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_prints_by_name_with_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])
    assert any(line.startswith("metric fail_frac 0 ratio") for line in lines)
    for name in ("build_s", "total_s", "query_s", "chunk_s"):
        assert any(line.startswith(f"metric {name} ") and line.endswith(" s") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("nproc", "cpu_model", "python", "numpy", "numba_imports", "kernel_path"):
        assert key in env


def test_chunk_metrics_divide_seconds_by_the_chunk_time():
    record = _in_worker(
        "print(json.dumps(worker.run_iteration(worker.WORKLOADS['a2_prime_tiny'], 3, False)))\n")
    assert sum(record["chunk_samples"].values()) >= 2  # one at each end, more from the timer
    assert record["build_chunks"] == pytest.approx(record["build_s"] / record["build_chunk_s"])
    assert record["total_chunks"] == pytest.approx(record["total_s"] / record["chunk_s"])
    assert 0 < record["build_s"] < record["total_s"]


def test_calibration_is_left_out_of_the_workload_clock():
    got = _in_worker(
        "import time\n"
        "cal = worker.Calibrator(); cal.start()\n"
        "w0, c0, s0 = time.perf_counter(), cal.clock(), cal.spent\n"
        "while time.perf_counter() - w0 < 1.0: pass\n"
        "w1, c1, s1 = time.perf_counter(), cal.clock(), cal.spent\n"
        "cal.stop()\n"
        "print(json.dumps({'wall': w1 - w0, 'work': c1 - c0, 'spent': s1 - s0,"
        " 'samples': len(cal.samples['query'])}))\n")
    assert got["samples"] >= 5  # one at each end and one per 0.1 s of timer
    assert got["spent"] > 0
    assert got["work"] == pytest.approx(got["wall"] - got["spent"], abs=1e-3)


def test_wrong_dims_make_fail_frac_positive():
    wl = WORKLOADS["a2_prime_tiny"]
    bad = dataclasses.replace(wl, commands=tuple(
        dataclasses.replace(c, dims=(1, 3, 5, 3, 1)) for c in wl.commands))
    record = _in_worker(
        "import dataclasses, workloads\n"
        f"wl = workloads.WORKLOADS[{wl.name!r}]\n"
        "bad = dataclasses.replace(wl, commands=tuple(dataclasses.replace(c, dims=(1, 3, 5, 3, 1))"
        " for c in wl.commands))\n"
        "print(json.dumps(worker.run_iteration(bad, 3, False)))\n")
    checks = bench_run.checks_of([record])
    failed = [c for c in checks if not c["ok"]]
    assert 0 < len(failed) / len(checks) < 1
    assert all(c["name"].endswith(": dims") for c in failed)
    assert len(failed) == len(bad.commands)


@pytest.mark.parametrize("workload", TINY)
def test_traced_self_times_within_total(workload):
    record = _in_worker(
        f"print(json.dumps(worker.run_iteration(worker.WORKLOADS[{workload!r}], 3, True)))\n")
    assert record["trace_missing"] == []
    assert len(record["checks"]) == 2 * 3  # rank and reproduction for each modp.micro size
    assert all(c["ok"] for c in record["checks"])
    assert 0 < record["self_s_sum"] <= record["total_s"]
    layers = record["layers"]
    assert layers["nichols_core.assembly.s"] <= layers["nichols_core.construct.s"]
    assert layers["nichols_core.kept"] == 7 * sum((4, 3, 1))  # extend_degree builds n >= 2


def test_traced_counts_repeat_exactly():
    a, b = (_in_worker("print(json.dumps(worker.run_iteration("
                       "worker.WORKLOADS['a2_rational_tiny'], 5, True)))\n") for _ in range(2))
    counts = [{k: v for k, v in r["layers"].items() if bench_run._is_count(k)} for r in (a, b)]
    assert counts[0] == counts[1]
    assert counts[0]["nichols_core.elem.multiply.calls"] > 0
    assert all(c["ok"] for c in bench_run.checks_of([a, b]))


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(BENCHMARK_WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_modp_micro_rejects_wrong_coordinates():
    ok, bad = _in_worker(
        "import numpy as np\nfrom nwalgebra import modp\n"
        "a = np.random.default_rng(0).integers(0, 101, size=(5, 10), dtype=np.int64)\n"
        "sel, coords = modp.greedy_solve(a, 101)\n"
        "wrong = coords.copy(); wrong[0, -1] = (wrong[0, -1] + 1) % 101\n"
        "print(json.dumps([worker._reproduces(a, sel, c, 101) for c in (coords, wrong)]))\n")
    assert ok and not bad


def test_benchmark_json_matches_the_harness():
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(BENCHMARK_WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in bench_run.END_TO_END]
