"""Layer-split benchmark of the nwalgebra engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload a3_prime_calculus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Load is one closed loop: one caller runs the workload's commands one
after another in one worker process, and worker processes run one at a
time until ``--seconds`` have passed, at least twice.  The stdout of the
iterations is compared byte for byte, command by command.  Set-up is
timed separately in fresh processes, a few times before each iteration,
so that its samples spread over the whole run like the iterations do.

``--trace 0`` reports the end-to-end metrics, each the median over the
iterations.  Build and total time are reported in calibration chunks:
wall seconds divided by the time a fixed pure-Python chunk took, sampled
all through the same iteration (see ``worker.Calibrator``), so that the
host's drifting speed cancels out.  The raw seconds are printed too.
``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics from the traced ones, plus
``trace.overhead_s``, traced minus untraced ``total_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, with the
environment, every iteration and every failed check, is written to
``perfbench/out/BENCH_<workload>_seed<seed>_trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import MAIN_WORKLOADS, WORKLOADS  # noqa: E402

SETUP_PER_ROUND = 6
MIN_ITERATIONS = 2
RUN_BUDGET_S = 170.0  # stay inside the 180 s a run may take

END_TO_END = (("setup_s", "s"), ("build_chunks", "chunk"), ("total_chunks", "chunk"),
              ("peak_rss_mb", "MB"))


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def host_env():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def time_setup(workload, deadline):
    """Wall seconds of ``SETUP_PER_ROUND`` set-up steps, each in a fresh process."""
    argv = [sys.executable, str(HERE / "setup_probe.py"),
            workload.type, str(workload.rank), workload.field]
    samples = []
    for _ in range(SETUP_PER_ROUND):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise HarnessError(f"set-up failed:\n{proc.stderr}")
    return samples


def run_worker(workload, seed, trace, deadline, spans=None):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
            "--seed", str(seed), "--trace", str(int(trace))]
    if spans:
        argv += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("no time left for another iteration")
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the worker
        raise HarnessError(f"{workload.name} did not finish within {timeout:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def iterations(workload, seed, trace, seconds, deadline):
    """Closed loop: whole iterations until ``seconds`` have passed.

    Each round times set-up, then runs one iteration, or an (untraced,
    traced) pair when traced; the spans of the first traced iteration
    are written out.  Returns the iterations and the set-up samples.
    """
    runs, setup = [], []
    t0 = time.monotonic()
    kinds = (False, True) if trace else (False,)
    while True:
        setup += time_setup(workload, deadline)
        for kind in kinds:
            spans = None
            if kind and not any(r["trace"] for r in runs):
                spans = OUT / f"spans_{workload.name}_seed{seed}.tsv.gz"
            runs.append(run_worker(workload, seed, kind, deadline, spans))
        now = time.monotonic()
        per_round = (now - t0) * len(kinds) / len(runs)
        if len(runs) >= MIN_ITERATIONS and (now - t0 >= seconds
                                            or now + per_round > deadline):
            return runs, setup


def checks_of(runs):
    """Every check of every iteration, plus stdout equality between them."""
    checks = []
    for i, r in enumerate(runs):
        checks += [dict(ch, iteration=i) for ch in r["checks"]]
        for c in r["commands"]:
            checks += [dict(ch, iteration=i) for ch in c["checks"]]
    first = runs[0]["commands"]
    for i, r in enumerate(runs[1:], 1):
        for a, b in zip(first, r["commands"]):
            checks.append({"name": f"{' '.join(a['argv'][:2])}: stdout repeats",
                           "ok": a["stdout_sha256"] == b["stdout_sha256"],
                           "detail": [a["stdout_sha256"], b["stdout_sha256"]],
                           "iteration": i})
    traced = [r for r in runs if r["trace"]]
    for i, r in enumerate(traced[1:], 1):
        counts = {k: v for k, v in traced[0]["layers"].items() if _is_count(k)}
        again = {k: v for k, v in r["layers"].items() if _is_count(k)}
        checks.append({"name": "traced counts repeat", "ok": counts == again,
                       "detail": sorted(k for k in counts if counts[k] != again.get(k)),
                       "iteration": i})
    return checks


def _is_count(name):
    return name.endswith((".calls", ".candidates", ".kept", ".entries", ".bytes_computed",
                          "trace.spans"))


def measure(workload, seed, seconds, trace):
    """Run one workload and return the full record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    runs, setup = iterations(workload, seed, trace, seconds, deadline)
    setup_s = statistics.median(setup)
    checks = checks_of(runs)
    failed = sum(not c["ok"] for c in checks)
    plain = [r for r in runs if not r["trace"]]
    if trace:
        traced = [r for r in runs if r["trace"]]
        from tracer import layer_units

        metrics = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            metrics[name] = {"value": values[0] if _is_count(name) else
                             statistics.median(values), "unit": layer_units(name)[0]}
        overhead = (statistics.median(r["total_s"] for r in traced)
                    - statistics.median(r["total_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for name, unit in END_TO_END[1:]:
            metrics[name] = {"value": statistics.median(r[name] for r in plain), "unit": unit}
    # printed with the others but kept out of the result line: raw seconds
    # drift with the host's speed, query_s is next to 0 on the construction
    # workload, and fail_frac is 0 on a correct build, where no metric of
    # the result line may read 0
    printed = {name: {"value": statistics.median(r[name] for r in plain), "unit": "s"}
               for name in ("build_s", "total_s", "query_s", "chunk_s")}
    printed["fail_frac"] = {"value": failed / len(checks), "unit": "ratio"}
    return {
        "workload": workload.name, "why": workload.why, "seed": seed, "trace": int(trace),
        "seconds": seconds, "env": dict(host_env(), **runs[0]["env"]),
        "iterations": len(runs), "setup_s": setup_s, "setup_samples": setup,
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "failed_checks": [c for c in checks if not c["ok"]],
        "metrics": metrics, "printed_only": printed,
        "runs": [{k: v for k, v in r.items() if k != "env"} for r in runs],
    }


def report(record):
    """Human-readable lines, then the one-line result."""
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['iterations']} iterations, {record['attempted']} checks, "
          f"{record['failed']} failed")
    for c in record["failed_checks"][:10]:
        print(f"FAILED {c['name']} (iteration {c['iteration']}): {c['detail']}")
    for name, m in dict(record["metrics"], **record["printed_only"]).items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="layer-split benchmark of nwalgebra")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nwalgebra" / "__init__.py").is_file():
        print(f"no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = MAIN_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            record = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            path = OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1, sort_keys=True))
            results[name] = report(record)
            if len(names) > 1:
                print(json.dumps(results[name]))
    except (HarnessError, subprocess.TimeoutExpired) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
