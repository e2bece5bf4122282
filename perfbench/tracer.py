"""Spans around the engine's layers, recorded from outside the engine.

Each traced function is replaced, at every module or class attribute
where a caller looks it up, by a wrapper that appends one span: its
name, its parent span, its start and its end.  Spans stay in compact
arrays in memory and are written out once, after the workload ends.
A span's self time is its duration minus the durations of its direct
children, so memoized builders that recurse (``rmul`` -> ``rmul``,
``dright`` -> ``act_matrix``) are not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import time
from array import array

# gram_inv is left out: only coproduct_split calls it, and no command does
STRUCTURE = ("rmul", "dright", "act_matrix", "gram",
             "antipode_matrix", "antipode_inv_matrix", "rho_matrix")
ELEMENT_OPS = ("multiply", "right_derivative", "left_derivative", "group_act", "pairing")
CHECKS = {"check_rhoD": "rhoD", "check_nz_antipode": "nz_antipode",
          "check_tower_invariance": "tower_invariance",
          "check_skew_commutation": "skew_commutation", "check_basic_rev": "basic_rev"}
INTEGRALS = ("top_integral", "invariance_suite", "subalgebra_build", "hypothetical_checks")
ELIMINATION = ("modp.greedy_solve", "exactlinalg.column_solver")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.info = {}        # span id -> counts recorded at that boundary
        self.missing = []     # traced targets the engine no longer has
        self._stack = [-1]

    def wrap(self, name, fn, info=None):
        """A traced version of ``fn``; ``info(args, result)`` adds counts."""
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, clock, infos = self._stack, time.perf_counter, self.info

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if info is not None:
                infos[sid] = info(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced layer of the ``nwalgebra`` package."""
        import nwalgebra

        modules = [importlib.import_module(f"nwalgebra.{m.name}")
                   for m in pkgutil.iter_modules(nwalgebra.__path__)]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        core = by_name["nichols_core"]
        state_cls = core.AlgebraState

        def extend_info(args, _result):
            bases = args[0].bases
            return {"candidates": args[0].system.nroots * bases[-2].dim,
                    "kept": bases[-1].dim}

        def solve_info(args, _result):
            rows, cols = args[0].shape
            return {"entries": rows * cols}

        self._patch_method(state_cls, "construct_all", "nichols_core.construct")
        self._patch_method(state_cls, "extend_degree", "nichols_core.extend_degree",
                           extend_info)
        for m in STRUCTURE:
            self._patch_method(state_cls, m, f"nichols_core.structure.{m}")
        solver = getattr(by_name["exactlinalg"], "ColumnSolver", None)
        for m in ("add", "coordinates"):
            self._patch_method(solver, m, "exactlinalg.column_solver")
        self._patch_method(by_name["coxeter"].RootSystem, "__init__", "coxeter.root_system")

        targets = [("modp", "greedy_solve", "modp.greedy_solve", solve_info),
                   ("exactlinalg", "kernel_basis", "exactlinalg.kernel_basis", None),
                   ("exactlinalg", "in_span", "exactlinalg.in_span", None),
                   ("disjoint", "search_complete", "disjoint.search_complete", None),
                   ("nilcoxeter", "skew_element", "nilcoxeter.skew_element", None),
                   ("nilcoxeter", "y_element", "nilcoxeter.y_element", None)]
        targets += [("nichols_core", op, f"nichols_core.elem.{op}", None) for op in ELEMENT_OPS]
        targets += [("calculus", fn, f"calculus.{short}", None) for fn, short in CHECKS.items()]
        targets += [("integrals", fn, f"integrals.{fn}", None) for fn in INTEGRALS]
        for home, attr, name, info in targets:
            fn = getattr(by_name.get(home), attr, None)
            if fn is None:
                self.missing.append(f"{home}.{attr}")
                continue
            traced = self.wrap(name, fn, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)

    def _patch_method(self, cls, attr, name, info=None):
        fn = getattr(cls, attr, None) if cls is not None else None
        if fn is None:
            self.missing.append(f"{getattr(cls, '__name__', '?')}.{attr}")
            return
        setattr(cls, attr, self.wrap(name, fn, info))

    # -- analysis -----------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        dur = self.durations()
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def has_ancestor(self, sid, name_ids):
        p = self.parent[sid]
        while p >= 0:
            if self.span_name[p] in name_ids:
                return True
            p = self.parent[p]
        return False

    def write(self, path):
        """Spans as gzipped TSV: id, parent, name, start and end in us."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.names[self.span_name[i]]}\t"
                          f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n")


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * q // 100) - 1))
    return sorted_values[int(k)]


def layer_metrics(tr: Tracer):
    """Per-layer numbers from one traced workload, keyed by metric name.

    ``.s`` is self time for the engine's inner layers (structure
    matrices, element operations, exact linear algebra, modp) and the
    outermost inclusive time for the call-level layers (construction,
    identity checks, integrals, search, nilCoxeter elements, root system).
    """
    dur = tr.durations()
    self_t = tr.self_times()
    ids = tr.name_id
    by_name = {}
    for sid, nid in enumerate(tr.span_name):
        by_name.setdefault(tr.names[nid], []).append(sid)

    def spans(name):
        return by_name.get(name, [])

    def calls(name):
        return len(spans(name))

    def self_s(name):
        return sum(self_t[i] for i in spans(name))

    def id_set(*names):
        return {ids[n] for n in names if n in ids}

    def outer_s(name):
        same = id_set(name)
        return sum(dur[i] for i in spans(name) if not tr.has_ancestor(i, same))

    m = {}
    construct = outer_s("nichols_core.construct")
    construct_ids, elim_ids = id_set("nichols_core.construct"), id_set(*ELIMINATION)
    elim_in_construct = sum(
        dur[i] for n in ELIMINATION for i in spans(n)
        if tr.has_ancestor(i, construct_ids) and not tr.has_ancestor(i, elim_ids))
    extends = spans("nichols_core.extend_degree")
    candidates = sum(tr.info[i]["candidates"] for i in extends)
    kept = sum(tr.info[i]["kept"] for i in extends)
    m["nichols_core.construct.s"] = construct
    m["nichols_core.assembly.s"] = construct - elim_in_construct
    m["nichols_core.degree_max.s"] = max((dur[i] for i in extends), default=0.0)
    m["nichols_core.candidates"] = candidates
    m["nichols_core.kept"] = kept
    m["nichols_core.keep_ratio"] = kept / candidates if candidates else 0.0

    solves = spans("modp.greedy_solve")
    entries = sum(tr.info[i]["entries"] for i in solves)
    m["modp.greedy_solve.calls"] = len(solves)
    m["modp.greedy_solve.s"] = self_s("modp.greedy_solve")
    m["modp.greedy_solve.entries"] = entries
    m["modp.greedy_solve.bytes_computed"] = 8 * entries

    for name in ("column_solver", "kernel_basis", "in_span"):
        m[f"exactlinalg.{name}.calls"] = calls(f"exactlinalg.{name}")
        m[f"exactlinalg.{name}.s"] = self_s(f"exactlinalg.{name}")
    for name in STRUCTURE:
        m[f"nichols_core.structure.{name}.s"] = self_s(f"nichols_core.structure.{name}")
        m[f"nichols_core.structure.{name}.calls"] = calls(f"nichols_core.structure.{name}")
    for op in ELEMENT_OPS:
        name = f"nichols_core.elem.{op}"
        per_call = sorted(dur[i] * 1e6 for i in spans(name))
        m[f"{name}.calls"] = len(per_call)
        m[f"{name}.s"] = self_s(name)
        m[f"{name}.p50_us"] = _percentile(per_call, 50)
        m[f"{name}.p99_us"] = _percentile(per_call, 99)
    for short in CHECKS.values():
        m[f"calculus.{short}.s"] = outer_s(f"calculus.{short}")
    for fn in INTEGRALS:
        m[f"integrals.{fn}.s"] = outer_s(f"integrals.{fn}")
    for name in ("disjoint.search_complete", "nilcoxeter.skew_element",
                 "nilcoxeter.y_element", "coxeter.root_system"):
        m[f"{name}.s"] = outer_s(name)
    m["trace.spans"] = len(dur)
    return m


def layer_units(name):
    """(unit, better) of a per-layer metric, read from its name."""
    if name.endswith("_us"):
        return "us", "lower"
    if name.endswith(".s") or name.endswith("_s"):
        return "s", "lower"
    if name.endswith("keep_ratio"):
        return "ratio", "higher"
    if name.endswith("bytes_computed"):
        return "B", "lower"
    if name.endswith(".kept"):
        return "count", "higher"
    return "count", "lower"
