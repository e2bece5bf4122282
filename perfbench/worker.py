"""One iteration of a workload, in a fresh process.

Runs every command of the workload through ``nwalgebra.cli.main``
in-process, one after another, with stdout and stderr captured, and
prints one JSON line: per-command timings, the correctness checks,
the peak resident memory of this process, the library environment and,
when traced, the per-layer metrics.  An untraced iteration also times a
fixed calibration chunk at regular intervals (see ``Calibrator``); a
traced iteration first times ``modp.greedy_solve`` alone on random
matrices (see ``modp_micro``).

    python3 perfbench/worker.py --workload a3_prime_calculus --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS, Workload, command_checks  # noqa: E402


def library_env():
    """Versions and the prime-field kernel path actually in effect."""
    from nwalgebra import __version__, modp

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {"engine_version": __version__, "numpy": np.__version__,
            "numba_imports": numba_imports,
            "kernel_path": "numba" if modp.USE_NUMBA else "numpy",
            "NWALGEBRA_NO_NUMBA": os.environ.get("NWALGEBRA_NO_NUMBA", "")}


MICRO_ROWS = (100, 200, 400)
MICRO_BUDGET_S = 20.0


def _reproduces(a, sel, coords, p):
    """Whether a[:, sel] @ coords == a (mod p), one rank-1 update at a time."""
    acc = np.zeros_like(a)
    for k, col in enumerate(sel):
        acc = (acc + np.outer(a[:, col], coords[k])) % p
    return bool(np.array_equal(acc, a))


def modp_micro(seed):
    """Time ``modp.greedy_solve`` alone on random n x 2n residue matrices.

    Calls go through the public entry point, so they take whichever
    kernel path the engine selected (``library_env`` names it).  A tiny
    call first keeps numba compilation out of the timings.  The matrices
    are twice as wide as tall, so half the columns get non-trivial
    coordinates, and every result is checked against the matrix.  A size
    whose cubic extrapolation from the previous one would pass
    ``MICRO_BUDGET_S`` is skipped and reads 0.
    """
    from nwalgebra import modp
    from nwalgebra.exactlinalg import DEFAULT_PRIME as p

    rng = np.random.default_rng(seed)
    modp.greedy_solve(rng.integers(0, p, size=(4, 8), dtype=np.int64), p)
    metrics, checks, prev = {}, [], None
    for n in MICRO_ROWS:
        name = f"modp.micro.{n}x{2 * n}.s"
        if prev is not None and prev[1] * (n / prev[0]) ** 3 > MICRO_BUDGET_S:
            metrics[name] = 0.0
            continue
        a = rng.integers(0, p, size=(n, 2 * n), dtype=np.int64)
        t0 = time.perf_counter()
        sel, coords = modp.greedy_solve(a, p)
        metrics[name] = time.perf_counter() - t0
        checks.append((f"{name}: rank", len(sel) == n, len(sel)))
        checks.append((f"{name}: coordinates reproduce the matrix",
                       _reproduces(a, sel, coords, p), None))
        prev = (n, metrics[name])
    return metrics, checks


CAL_PERIOD_S = 0.1


def calibration_chunk():
    """A fixed piece of pure-Python work of the engine's kind.

    Fraction and machine-int arithmetic and dict updates under tuple
    keys, about 5 ms on a 2-vCPU Xeon.  It does not touch the engine, so
    a change to the engine cannot change its cost.
    """
    acc, table, p = Fraction(0), {}, 2147483647
    for i in range(1, 1000):
        acc += Fraction(i % 97, i % 89 + 1)
        key = (i % 61, i % 7)
        table[key] = (table.get(key, 1) * (i + 12345)) % p
    return acc, table


class Calibrator:
    """Samples the host's current speed while the workload runs.

    The host is a shared machine whose speed drifts by a third within
    minutes, so raw seconds of one run are not comparable with another's.
    Every ``CAL_PERIOD_S`` of wall time, SIGALRM interrupts the workload
    between two bytecodes and ``calibration_chunk`` is timed.  Samples are
    uniform in time, so the harmonic mean of the chunk times is the
    chunk's time at the workload's average speed; a workload time divided
    by it is the workload's cost in chunks, which the host's speed cancels
    out of.  Each sample is filed under the current ``phase``, so that
    construction time is divided by the chunk time seen during
    construction.  ``clock`` is wall time minus the time spent in chunks,
    so the workload's timings leave the chunks out.
    """

    def __init__(self):
        self.samples = {}
        self.phase = "query"
        self.spent = 0.0
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a tick that lands inside a chunk is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        calibration_chunk()
        dt = time.perf_counter() - t0
        self.samples.setdefault(self.phase, []).append(dt)
        self.spent += dt
        self._busy = False

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def clock(self):
        """Wall seconds minus chunk seconds; retried if a chunk ran meanwhile."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:
                return t - spent

    def chunk_s(self, *phases):
        """Harmonic mean of the chunk times, of all phases if none is named."""
        return statistics.harmonic_mean(
            [dt for ph, dts in self.samples.items() if ph in phases or not phases for dt in dts])


def _install_build_probe(builds, calibrator):
    """Record (start, end, dims, top) of every construct_all call."""
    from nwalgebra.nichols_core import AlgebraState

    inner = AlgebraState.construct_all
    clock = calibrator.clock if calibrator else time.perf_counter

    def construct_all(self):
        if calibrator:
            calibrator.phase = "build"
        t0 = clock()
        dims = inner(self)
        builds.append((t0, clock(), list(dims), self.finite_top))
        if calibrator:
            calibrator.phase = "query"
        return dims

    AlgebraState.construct_all = construct_all


def run_iteration(workload: Workload, seed: int, trace: bool, spans_path=None):
    """Run the workload once in this process and return its record."""
    from nwalgebra import cli

    tracer, calibrator, micro, micro_checks = None, None, {}, []
    clock = time.perf_counter
    if trace:
        from tracer import Tracer

        micro, micro_checks = modp_micro(seed)

        tracer = Tracer()
        tracer.install()
    else:
        calibrator = Calibrator()
        clock = calibrator.clock
    builds = []
    _install_build_probe(builds, calibrator)

    commands = []
    if calibrator is not None:
        calibrator.start()
    t_start = clock()
    for cmd, argv in zip(workload.commands, workload.argvs(seed)):
        out, err = io.StringIO(), io.StringIO()
        first_build = len(builds)
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as e:  # a crash is a failed check, not a harness error
            code = f"{type(e).__name__}: {e}"
        t1 = clock()
        mine = builds[first_build:]
        build_s = sum(b[1] - b[0] for b in mine)
        record = {"exit": code, "stdout": out.getvalue(),
                  "builds": [(b[2], b[3]) for b in mine]}
        checks = command_checks(cmd, record)
        commands.append({
            "argv": argv, "exit": code, "wall_s": t1 - t0, "build_s": build_s,
            "query_s": t1 - (mine[-1][1] if mine else t0),
            "stdout_sha256": hashlib.sha256(record["stdout"].encode()).hexdigest(),
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        })
    total_s = clock() - t_start
    if calibrator is not None:
        calibrator.stop()

    result = {
        "workload": workload.name, "seed": seed, "trace": bool(trace),
        "total_s": total_s,
        "build_s": sum(c["build_s"] for c in commands),
        "query_s": sum(c["query_s"] for c in commands),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in micro_checks],
        "env": library_env(),
    }
    if calibrator is not None:
        # a build shorter than one tick may catch no sample of its own
        build_chunk_s = calibrator.chunk_s("build") if "build" in calibrator.samples \
            else calibrator.chunk_s()
        result.update(chunk_s=calibrator.chunk_s(), build_chunk_s=build_chunk_s,
                      chunk_samples={ph: len(v) for ph, v in calibrator.samples.items()},
                      build_chunks=result["build_s"] / build_chunk_s,
                      total_chunks=total_s / calibrator.chunk_s())
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = dict(layer_metrics(tracer), **micro)
        result["self_s_sum"] = sum(tracer.self_times())
        result["trace_missing"] = tracer.missing
        if spans_path:
            tracer.write(spans_path)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write traced spans here")
    args = parser.parse_args(argv)
    result = run_iteration(WORKLOADS[args.workload], args.seed, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
