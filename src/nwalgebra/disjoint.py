"""Disjoint systems: sets of centralizer elements whose conjugated simple
reflections tile the reflections, with an exact-cover search for complete
systems and the integrality equivalence checks they feed.
"""

from __future__ import annotations

from .coxeter import GroupElement, RootSystem, centralizer_of_longest
from .nichols_core import AlgebraState, CheckFailed, multiply, ordered_product


class DisjointSystem:
    __slots__ = ("elements", "blocks", "order", "normalized", "complete")

    def __init__(self, elements, blocks, order, normalized, complete):
        self.elements = elements  # a tuple
        self.blocks = blocks      # element -> frozenset of positive-root indices
        self.order, self.normalized, self.complete = order, normalized, complete

    def to_json(self):
        sys = self.elements[0].system if self.elements else None
        out = []
        for w in self.elements:
            block = sorted(self.blocks[w])
            if sys is not None and sys._is_type_a:
                roots = [list(sys.pair_of_root[t]) for t in block]
            else:
                roots = block
            out.append({"element": w.to_json(), "block": roots})
        return {
            "order": self.order,
            "normalized": self.normalized,
            "complete": self.complete,
            "members": out,
        }


class DisjointViolation:
    __slots__ = ("reason", "witness")

    def __init__(self, reason, witness):
        # witness: the offending elements (and the shared reflection index if any)
        self.reason, self.witness = reason, witness

    def to_json(self):
        parts = []
        for x in self.witness:
            parts.append(x.to_json() if isinstance(x, GroupElement) else x)
        return {"reason": self.reason, "witness": parts}


def classify(elements, system: RootSystem):
    """Validate a set of group elements as a disjoint system.

    Returns a DisjointSystem on success, else a DisjointViolation naming
    the first offending element or pair (with a shared reflection).
    """
    elements = sorted(set(elements), key=lambda w: w.images)
    wo = system.longest_element()
    for w in elements:
        if w * wo != wo * w:
            return DisjointViolation("element does not centralize the longest element", (w,))
    blocks = {w: w.t_set() for w in elements}
    for i, w in enumerate(elements):
        for v in elements[:i]:
            shared = blocks[w] & blocks[v]
            if shared:
                return DisjointViolation(
                    "conjugated simple reflections overlap", (v, w, min(shared)))
    order = len(elements)
    covered = frozenset().union(*blocks.values()) if blocks else frozenset()
    complete = order * system.rank == system.nroots and len(covered) == system.nroots
    normalized = any(w.is_identity() for w in elements)
    return DisjointSystem(tuple(elements), blocks, order, normalized, complete)


def search_complete(system: RootSystem):
    """All normalized complete disjoint systems, modulo w ~ w w_o per member.

    Exact-cover backtracking over the candidate blocks T_w of centralizer
    elements; the uncovered root with the fewest remaining candidate
    blocks is branched first, candidates in canonical element order.

    Every cover found, with e added, is a complete disjoint system, so it
    is returned as classified.  Each block T_w holds rank roots, so a
    cover of the |R+| - rank non-simple roots has |R+|/rank - 1 members,
    and each centralizes w_o.  No block meets T_e, the simple roots, so e
    and the cover are |R+|/rank pairwise disjoint blocks that cover R+.
    """
    rank = system.rank
    nroots = system.nroots
    if nroots % rank != 0:
        return []
    wo = system.longest_element()
    cent = centralizer_of_longest(system)
    simple_set = frozenset(system.simple_index)
    # candidate representatives: w and w*wo share a block; keep the smaller
    cand = {}
    for w in cent:
        if w.is_identity() or w == wo:
            continue
        block = w.t_set()
        if block & simple_set:
            continue
        rep = min(w, w * wo, key=lambda u: u.images)
        cand.setdefault(block, rep)
    blocks = sorted(cand.items(), key=lambda kv: kv[1].images)
    universe = frozenset(range(nroots)) - simple_set
    by_root = {t: [i for i, (b, _) in enumerate(blocks) if t in b] for t in universe}

    solutions = []

    def recurse(uncovered, chosen):
        if not uncovered:
            solutions.append(tuple(chosen))
            return
        best_t, best_avail = None, None
        for t in sorted(uncovered):
            avail = [i for i in by_root[t] if blocks[i][0] <= uncovered]
            if best_avail is None or len(avail) < len(best_avail):
                best_t, best_avail = t, avail
                if not avail:
                    break
        for i in best_avail:
            b, w = blocks[i]
            chosen.append(w)
            recurse(uncovered - b, chosen)
            chosen.pop()

    recurse(universe, [])
    return [classify((system.identity(),) + sol, system)
            for sol in sorted(solutions, key=lambda ws: tuple(w.images for w in ws))]


def motiv_check(d: DisjointSystem, ordering, state: AlgebraState):
    """Evaluate the three equivalent integrality statements for a complete
    system: some ordered product of the y's is a nonzero integral, all
    orderings are, and the y's commute up to the parity sign of the top
    word.  Reports each truth value and whether the pattern is consistent
    (all three equal).  The sign commutation is checked for i <= j only:
    the (j, i) statement is the (i, j) one times sign^2 = 1."""
    import itertools as it

    from .integrals import is_integral
    from .nilcoxeter import y_element

    sys = state.system
    wo = sys.longest_element()
    r = d.order
    lwo = wo.length()
    if r * lwo > state.require_top("motiv_check"):
        raise CheckFailed("product degree exceeds the top degree")
    ys = [y_element(w, state) for w in ordering]
    sign = -1 if lwo % 2 else 1
    given = ordered_product(ys, state)
    item1 = (not given.is_zero()) and is_integral(given, state)
    item2 = True
    for perm in it.permutations(range(r)):
        z = ordered_product([ys[i] for i in perm], state)
        if z.is_zero() or not is_integral(z, state):
            item2 = False
            break
    item3 = all(multiply(ys[i], ys[j]) == multiply(ys[j], ys[i]).scale(sign)
                for i in range(r) for j in range(i, r))
    consistent = item1 == item2 == item3
    return {
        "order": r,
        "some_ordering_integral": item1,
        "all_orderings_integral": item2,
        "sign_commutation": item3,
        "equivalence_consistent": consistent,
    }
