"""Command line entry point.

Subcommands construct root systems and graded components, run the
identity suites, search disjoint systems, reduce monomials and emit
machine-readable reports.  Everything that samples is seeded and the
seed is echoed, so identical configurations produce byte-identical
stdout; wall times per phase go to stderr where they cannot perturb
report comparisons.  ``dims`` and ``hilbert`` build dimensions only, one
class block per conjugacy orbit (:mod:`nwalgebra.orbits`); every other
command builds the word basis.

A handler returns 0 when its report passes and 1 when it fails, or
raises; only :func:`main` turns an exception into an exit code and a
stderr prefix: 1 ``check failed:`` for ``CheckFailed``, 2 ``error:`` for
a usage error (``CoxeterError``), 3 ``resource bound exceeded:`` for a
degree cap, memory or enumeration bound.  Any other exception is a crash
and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .coxeter import (
    DEFAULT_MEMORY_BOUND,
    CoxeterError,
    EnumerationBoundExceeded,
    RootSystem,
    cartan_data,
    centralizer_of_longest,
    element_from_json,
)
from .exactlinalg import DEFAULT_PRIME, QQ, LinalgError, PrimeField
from .nichols_core import (
    AlgebraState,
    CheckFailed,
    DegreeCapExceeded,
    MemoryBoundExceeded,
    pairing_with,
)


class _Phases:
    """Wall-clock bookkeeping, reported on stderr."""

    def __init__(self):
        self.items = []
        self._t = time.perf_counter()

    def mark(self, name):
        now = time.perf_counter()
        self.items.append((name, now - self._t))
        self._t = now

    def emit(self):
        for name, dt in self.items:
            print(f"[phase] {name}: {dt:.3f}s", file=sys.stderr)


def _config(args):
    return {
        "engine_version": __version__,
        "type": args.type,
        "rank": args.rank,
        "field": args.field,
        "prime": args.prime if args.field == "prime" else None,
        "degree_cap": args.degree_cap,
        "seed": args.seed,
        "trials": args.trials,
        "format": args.format,
        "memory_bound": args.memory_bound,
    }


def _emit(args, payload):
    """Print ``payload`` with the run's ``config`` added: the whole report,
    or with ``--format csv`` only its ``csv`` text where it has one."""
    payload = {"config": _config(args), **payload}
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv" and "csv" in payload:
        print(payload["csv"], end="")
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _system(args) -> RootSystem:
    return RootSystem(cartan_data(args.type, args.rank), memory_bound=args.memory_bound)


def _field(args):
    if args.field == "prime":
        try:
            return PrimeField(args.prime)
        except LinalgError as e:
            raise CoxeterError(f"--prime: {e}") from None
    return QQ


def _state(args, cls=AlgebraState) -> AlgebraState:
    return cls(_system(args), field=_field(args), degree_cap=args.degree_cap)


def _refuse_past_cap(state, command, longest=False, products=0, top=False):
    """Refuse, before any build, a degree the cap cannot reach, checked in
    this order: with ``longest``, x_{w_o}, in degree l(w_o); the
    products of ``products`` y's, in degree products * l(w_o); with
    ``top``, a known top, confirmed only by building the empty degree
    past it."""
    length = state.system.longest_element().length() if longest or products else 0
    known = state.predicted_top
    needs = [(length, f"the longest element has length {length}")] if longest else []
    if products:
        needs.append((products * length, f"the products need degree {products * length}"))
    if top and known is not None:
        needs.append((known + 1,
                      f"the top degree {known} is confirmed only at degree {known + 1}"))
    for need, what in needs:
        if need > state.degree_cap:
            raise DegreeCapExceeded(f"{command}: {what}, above the degree cap {state.degree_cap}")


def _build(state, phases, command, **needs):
    """Refuse what the cap cannot reach (:func:`_refuse_past_cap` with
    ``needs``), then build ``state`` to its cap as the ``construct`` phase."""
    _refuse_past_cap(state, command, **needs)
    state.construct_all()
    phases.mark("construct")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_roots(args, phases):
    system = _system(args)
    phases.mark("roots")
    roots = []
    for i, r in enumerate(system.roots):
        entry = {"index": i, "coeffs": list(r), "height": system.heights[i]}
        if system._is_type_a:
            entry["transposition"] = list(system.pair_of_root[i])
        roots.append(entry)
    csv = "index,height,coeffs\n" + "".join(
        f"{e['index']},{e['height']},{' '.join(map(str, e['coeffs']))}\n" for e in roots)
    _emit(args, {"positive_roots": roots, "count": system.nroots, "csv": csv})
    return 0


def cmd_group(args, phases):
    system = _system(args)
    wo = system.longest_element()
    payload = {
        "rank": system.rank,
        "reflections": system.nroots,
        "longest_element": wo.to_json(),
        "longest_length": wo.length(),
        "exponent": system.exponent(),
        "centralizer_of_longest_size": len(centralizer_of_longest(system)),
    }
    if args.element:
        w = _parse_element(system, args.element)
        payload["element"] = {
            "value": w.to_json(),
            "length": w.length(),
            "reduced_word": list(w.reduced_word()),
            "t_set": sorted(w.t_set()),
            "centralizes_longest": w * wo == wo * w,
        }
    phases.mark("group")
    _emit(args, payload)
    return 0


def _parse_element(system, text):
    try:
        data = json.loads(text)
    except ValueError:
        raise CoxeterError(f"not a JSON element: {text!r}") from None
    return element_from_json(system, {"perm": data} if isinstance(data, list) else data)


def cmd_dims(args, phases):
    """``dims``, and ``hilbert``, which adds the Hilbert series."""
    from .orbits import OrbitState

    state = _state(args, OrbitState)
    _build(state, phases, args.command)
    dims = state.dims()
    if state.finite_top is not None:
        dims = dims[: state.finite_top + 1]
    label = "exact" if args.field == "rational" else "mod-p lower-bound certified"
    csv = "degree,dim\n" + "".join(f"{n},{d}\n" for n, d in enumerate(dims))
    payload = {
        "dims": dims,
        "certification": label,
        "top_degree": state.finite_top,
        "truncated": state.truncated,
        "total": sum(dims),
        "csv": csv,
    }
    if args.command == "hilbert":
        payload["hilbert_series"] = " + ".join(
            f"{d}*t^{n}" if n else str(d) for n, d in enumerate(dims) if d)
    _emit(args, payload)
    return 0


def _skew_commutation(calculus, state, args):
    from .disjoint import search_complete

    # w_o when no complete system has a member other than e (A1: only {e})
    system = state.system
    sols = search_complete(system)
    w = next((w for d in sols[:1] for w in d.elements if not w.is_identity()),
             system.longest_element())
    return calculus.check_skew_commutation(state, w, system.identity(),
                                           max(1, args.trials // 10), args.seed)


# name -> (whether the check embeds x_{w_o}, its run on (calculus, state,
# args)), in report order; each name is also its [phase] name
_IDENTITIES = {
    "rhoD": (False, lambda calculus, state, args: calculus.check_rhoD(
        state, args.trials, args.seed)),
    "nz-antipode": (False, lambda calculus, state, args: calculus.check_nz_antipode(state)),
    "gen-leibniz": (True, lambda calculus, state, args: calculus.check_gen_leibniz(
        state, state.system.identity(), state.system.longest_element(),
        state.system.identity(), max(1, args.trials // 10), args.seed)),
    # v = s_0, so D_{w_o x_v} is not the identity
    "tower": (True, lambda calculus, state, args: calculus.check_tower_invariance(
        state, state.system.longest_element(), state.system.simple_reflection(0),
        max(1, args.trials // 10), args.seed)),
    "skew-commutation": (True, _skew_commutation),
    "basic-rev": (True, lambda calculus, state, args: calculus.check_basic_rev(
        state, args.trials, args.seed)),
}


def cmd_verify(args, phases):
    from . import calculus

    which = args.identity
    names = list(_IDENTITIES) if which == "all" else [which]
    state = _state(args)
    _build(state, phases, f"verify {which}",
           longest=any(_IDENTITIES[name][0] for name in names))
    reports = []
    for name in names:
        reports.append(_IDENTITIES[name][1](calculus, state, args))
        phases.mark(name)
    _emit(args, {"reports": [r.to_json() for r in reports]})
    return 0 if all(r.status in ("pass", "skipped") for r in reports) else 1


def cmd_integral(args, phases):
    from .disjoint import classify, search_complete
    from .integrals import invariance_suite, top_integral

    state = _state(args)
    _build(state, phases, "integral", longest=True, top=True)
    cert = top_integral(state)
    sols = search_complete(state.system)
    order2 = None
    if sols and sols[0].order >= 2:
        order2 = classify(list(sols[0].elements)[:2], state.system)
    inv = invariance_suite(cert, state, order2)
    phases.mark("integral")
    _emit(args, {"certificate": cert.to_json(), "invariance": inv.to_json()})
    return 0 if inv.passed else 1


def cmd_hypo(args, phases):
    from .integrals import hypothetical_checks, nonsimple_roots, subalgebra_build

    state = _state(args)
    # hypothetical_checks would refuse only after the build
    state.system.require_type_a("hypo: lifting theory")
    _build(state, phases, "hypo", longest=True, top=True)
    state.require_top("hypo")
    theta = nonsimple_roots(state)
    bases = subalgebra_build(theta, state)
    report = hypothetical_checks(theta, bases, state)
    phases.mark("hypo")
    _emit(args, {"subalgebra": {"theta": list(theta), "dims": [len(b) for b in bases],
                                "top_degree": len(bases) - 1},
                 "report": report.to_json()})
    return 0 if report.passed else 1


def cmd_reduce(args, phases):
    from .reduction import reduce_mod_left_ideal, reduce_mod_right_ideal

    system = _system(args)
    system.require_type_a("reduce: monomial reduction")
    try:
        word = tuple(int(x) for x in args.monomial.split(",")) if args.monomial.strip() else ()
    except ValueError:
        raise CoxeterError(
            f"--monomial: not comma-separated root indices: {args.monomial!r}") from None
    for a in word:
        if not 0 <= a < system.nroots:
            raise CoxeterError(f"root index out of range: {a}")
    side = args.side
    fn = reduce_mod_right_ideal if side == "right" else reduce_mod_left_ideal
    result = fn(word, system)
    phases.mark("reduce")
    _emit(args, {"side": side, "monomial": list(word), **result.to_json()})
    return 0


def cmd_disjoint(args, phases):
    from .disjoint import DisjointSystem, classify, search_complete

    system = _system(args)
    if args.check:
        elements = [_parse_element(system, part) for part in args.check.split(";")]
        result = classify(elements, system)
        phases.mark("classify")
        ok = isinstance(result, DisjointSystem)
        _emit(args, {"result": "system" if ok else "violation", "detail": result.to_json()})
        return 0 if ok else 1
    if args.find_complete:
        sols = search_complete(system)
        phases.mark("search")
        _emit(args, {"count": len(sols), "systems": [d.to_json() for d in sols]})
        return 0
    raise CoxeterError("disjoint requires --find-complete or --check")


def cmd_pairing(args, phases):
    from .nilcoxeter import embed_element

    state = _state(args)
    _refuse_past_cap(state, "pairing", longest=True)
    system = state.system
    n = system.group_order
    if n ** 2 > system.memory_bound:
        raise MemoryBoundExceeded(
            f"pairing: {n}^2 = {n ** 2} pairs exceed the memory bound {system.memory_bound}")
    elements = system.elements()
    _build(state, phases, "pairing")
    embedded = [embed_element(state, u) for u in elements]
    # one Gram product per element, shared by its |W| pairings
    against = [pairing_with(xv) for xv in embedded]
    bad = []
    for u, xu in zip(elements, embedded):
        for v, pair in zip(elements, against):
            val = pair(xu)
            expect = state.field.one if u == v.inverse() else state.field.zero
            if val != expect:
                bad.append({"u": u.to_json(), "v": v.to_json(), "value": str(val)})
    phases.mark("pairing")
    _emit(args, {"pairs": len(elements) ** 2, "orthonormal": not bad, "violations": bad})
    return 0 if not bad else 1


def cmd_bracket(args, phases):
    from .calculus import bracket_matrix
    from .disjoint import classify, search_complete

    state = _state(args)
    system = state.system
    r = args.order
    if r == 1:
        d = classify([system.identity()], system)
    else:
        sols = [s for s in search_complete(system) if s.order >= r]
        if not sols:
            raise CheckFailed("bracket: no complete disjoint system of sufficient order")
        d = classify(list(sols[0].elements)[:r], system)
    _build(state, phases, "bracket", products=r, top=True)
    matrix, report = bracket_matrix(list(d.elements), state)
    phases.mark("bracket")
    _emit(args, {"system": d.to_json(),
                 "matrix": [[str(x) for x in row] for row in matrix],
                 "report": report.to_json()})
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------


def _int_at_least(low):
    """An argparse type: an int that is at least ``low``, else exit 2."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _subcommands():
    """name -> (handler, the arguments of its own beyond the common ones),
    in the order the help lists them.  The handlers are read when the
    parser is built."""
    return {
        "roots": (cmd_roots, ()),
        "group": (cmd_group, (
            (("--element",), {"default": None, "help": "JSON element or one-line permutation"}),)),
        "dims": (cmd_dims, ()),
        "hilbert": (cmd_dims, ()),
        "verify": (cmd_verify, (
            (("identity",), {"choices": [*_IDENTITIES, "all"]}),)),
        "integral": (cmd_integral, ()),
        "hypo": (cmd_hypo, ()),
        "reduce": (cmd_reduce, (
            (("--monomial",), {"required": True, "help": "comma-separated root indices"}),
            (("--side",), {"default": "right", "choices": ["left", "right"]}))),
        "disjoint": (cmd_disjoint, (
            (("--find-complete",), {"action": "store_true"}),
            (("--check",), {"default": None,
                            "help": "semicolon-separated one-line permutations or JSON elements"}))),
        "pairing": (cmd_pairing, ()),
        "bracket": (cmd_bracket, ((("--order",), {"type": _int_at_least(1), "default": 2}),)),
    }


def _add_common(p):
    p.add_argument("--type", default="A", choices=["A", "D", "E"])
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--field", default="rational", choices=["rational", "prime"])
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--degree-cap", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--format", default="json", choices=["json", "text", "csv"])
    # argparse passes a string default, the environment's, through the type
    p.add_argument(
        "--memory-bound", type=_int_at_least(1),
        default=os.environ.get("NWALGEBRA_MEMORY_BOUND", DEFAULT_MEMORY_BOUND))


def build_parser(command=None):
    """The ``nwalg`` parser.  For a known subcommand ``command`` only its
    subparser is built, which parses that command's arguments exactly as
    the full parser does: the usage line still names every subcommand.
    Otherwise (help, version, an unknown name) every subparser is built."""
    parser = argparse.ArgumentParser(
        prog="nwalg",
        description="exact engine for Nichols-Woronowicz algebras over Weyl groups")
    parser.add_argument("--version", action="version", version=__version__)
    table = _subcommands()
    if command in table:
        # the usage line that argparse derives from the full list of choices
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(table) + "}")
        names = [command]
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = table
    for name in names:
        fn, extra = table[name]
        p = sub.add_parser(name)
        _add_common(p)
        for flags, kwargs in extra:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    phases = _Phases()
    try:
        code = args.fn(args, phases)
    except (DegreeCapExceeded, MemoryBoundExceeded, EnumerationBoundExceeded) as e:
        print(f"resource bound exceeded: {e}", file=sys.stderr)
        return 3
    except CoxeterError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    phases.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
