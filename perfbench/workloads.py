"""Workload table and the correctness checks applied to every iteration.

A workload is a list of ``nwalg`` command lines run one after another in
one process.  ``{seed}`` in a command is replaced by the run's seed.
Every command that builds graded components must reproduce the
Fomin-Kirillov Hilbert series of the algebra it builds; every report
must have status ``pass``; every exit code must be 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# Hilbert series of the Fomin-Kirillov algebras E_3, E_4 (complete) and
# E_5 (through degree 6): [2]^2[3], [2]^2[3]^2[4]^2, [4]^4[5]^2[6]^4.
A2_DIMS = (1, 3, 4, 3, 1)
A3_DIMS = (1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1)
A4_DIMS_CAP6 = (1, 10, 55, 220, 711, 1960, 4761)


@dataclass(frozen=True)
class Command:
    argv: tuple
    dims: tuple  # the dims every construct_all in this command must return
    top: int | None  # the finite top degree, or None when built under a cap


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    type: str
    rank: int
    field: str
    commands: tuple

    def argvs(self, seed):
        return [[a.format(seed=seed) for a in c.argv] for c in self.commands]


def _calculus(type_, rank, field, dims, trials):
    """The identity suite, the integral and the hypothetical subalgebra.

    ``verify gen-leibniz`` is left out: its cost is set by one or two
    random elements of random degree, so it varies tenfold from seed to
    seed and would swamp every other change in the timings.
    """
    sysargs = ("--type", type_, "--rank", str(rank), "--field", field)
    seeded = sysargs + ("--trials", str(trials), "--seed", "{seed}")
    return tuple(Command(argv, dims, len(dims) - 1) for argv in (
        ("verify", "rhoD") + seeded,
        ("verify", "nz-antipode") + seeded,
        ("verify", "tower") + seeded,
        ("verify", "skew-commutation") + seeded,
        ("verify", "basic-rev") + seeded,
        ("integral",) + sysargs + ("--seed", "{seed}"),
        ("hypo",) + sysargs + ("--seed", "{seed}"),
    ))


WORKLOADS = {w.name: w for w in (
    Workload(
        "a4_prime_cap6",
        "A4 over GF(p) to degree 6: candidate assembly and prime elimination "
        "dominate; no element or structure-matrix work at scale",
        "A", 4, "prime",
        (Command(("dims", "--type", "A", "--rank", "4", "--field", "prime",
                  "--degree-cap", "6", "--seed", "{seed}"), A4_DIMS_CAP6, None),),
    ),
    Workload(
        "a3_rational_calculus",
        "A3 over Q: structure matrices, element operations and exact linear "
        "algebra over Fraction dominate; modp never runs",
        "A", 3, "rational", _calculus("A", 3, "rational", A3_DIMS, 20),
    ),
    Workload(
        "a3_prime_calculus",
        "the same A3 calculus over GF(p) with machine-int scalars, to catch "
        "changes that help one scalar type and cost the other",
        "A", 3, "prime", _calculus("A", 3, "prime", A3_DIMS, 20),
    ),
    # tiny workloads for the benchmark's own tests
    Workload("a2_rational_tiny", "test fixture", "A", 2, "rational",
             _calculus("A", 2, "rational", A2_DIMS, 4)),
    Workload("a2_prime_tiny", "test fixture", "A", 2, "prime",
             _calculus("A", 2, "prime", A2_DIMS, 4)),
)}

# the workloads of BENCHMARK.json; a3_prime_calculus runs only by name or
# with --workload all: the time for a comparison is fixed in total, and
# with a third workload a run could not hold two iterations
BENCHMARK_WORKLOADS = ("a4_prime_cap6", "a3_rational_calculus")
MAIN_WORKLOADS = BENCHMARK_WORKLOADS + ("a3_prime_calculus",)


def command_checks(cmd: Command, result):
    """(name, ok, detail) for one command run.

    ``result`` holds the exit code, the captured stdout and the dims and
    top degree returned by every construct_all the command made.
    """
    label = " ".join(cmd.argv[:2]) if cmd.argv[0] == "verify" else cmd.argv[0]
    checks = [(f"{label}: exit code", result["exit"] == 0, result["exit"])]
    expected = list(cmd.dims)
    for dims, top in result["builds"]:
        got = dims[:top + 1] if top is not None else dims
        checks.append((f"{label}: dims", got == expected and top == cmd.top,
                       {"got": got, "top": top, "expected": expected}))
    if not result["builds"]:
        checks.append((f"{label}: dims", False, "no construction recorded"))
    try:
        payload = json.loads(result["stdout"])
    except ValueError:
        checks.append((f"{label}: report", False, "stdout is not one JSON document"))
        return checks
    kind = cmd.argv[0]
    if kind == "dims":
        checks.append((f"{label}: printed dims", payload.get("dims") == expected,
                       payload.get("dims")))
    else:
        try:
            statuses = {
                "verify": lambda p: [r["status"] for r in p["reports"]],
                "integral": lambda p: [p["invariance"]["status"]],
                "hypo": lambda p: [p["report"]["status"]],
            }[kind](payload)
        except (KeyError, TypeError):
            statuses = []
        checks.append((f"{label}: report status", bool(statuses) and
                       all(s == "pass" for s in statuses), statuses))
    return checks
