"""Type A normal forms of monomials modulo the one-sided ideals generated
by the non-simple generators.

Every monomial M of group degree w is congruent to a unique multiple
lambda * x_w modulo the right ideal J^r = sum_{a not simple} x_a B_W;
modulo the left ideal the unique scalar is that of the reversed word
(the two scalars differ in general, e.g. a two-letter word ending in a
non-simple generator dies on the left but can survive on the right).
The scalar is computed
purely syntactically with the quadratic relations (square zero,
orthogonal commutation, the three-term relation) plus nilCoxeter
normalization of simple prefixes; the graded components of B_W are never
consulted, so this runs at ranks where the algebra itself is out of
reach.  A linear-algebra oracle in the tests (``tests/oracles.py``:
membership in the ideal's span and the quotient dimensions, by
elimination in the built algebra) cross-checks it at constructible
ranks.

Core recursion: ``block(u, a)`` returns the unique mu with
x_u x_a = mu x_{u s_a} mod J^r.  Case analysis for non-simple a, with
beta running over simple roots made negative by u:

  case 1: some (a, beta) = 1   -> split off beta, three-term relation
  case 2: some (a, beta) = 0   -> split off beta, commutation
  case 3: all  (a, beta) = -1  -> split off gamma, three-term relation,
           then a commutation step across the unique simple root beta
           with (a, beta) > 0 and (gamma, beta) < 0

The recursion is memoized per (u, a); a cycle guard raises instead of
looping, and exhaustive tests over whole groups plus the oracle keep the
case analysis honest.
"""

from __future__ import annotations

from .coxeter import GroupElement, RootSystem
from .nichols_core import CheckFailed


class ReductionError(CheckFailed):
    pass


class ReductionResult:
    __slots__ = ("scalar", "w", "trace")

    def __init__(self, scalar, w, trace):
        self.scalar, self.w, self.trace = scalar, w, trace

    def to_json(self):
        return {
            "lambda": str(self.scalar),
            "w": self.w.to_json(),
            "trace": [list(step) for step in self.trace],
        }


class Reducer:
    """Memoized block reduction for one type-A root system."""

    def __init__(self, system: RootSystem):
        system.require_type_a("monomial reduction")
        self.system = system
        self._memo = {}
        self._running = set()

    # -- helpers ---------------------------------------------------------

    def _pick(self, options):
        """The candidate root to split off; any choice gives the same normal
        form, which the tests check by replacing this rule."""
        return min(options)

    def _nil(self, u: GroupElement, s: int) -> int:
        """x_u x_s for a simple root s: 1 if lengths add, else 0."""
        return 1 if u.images[s] > 0 else 0

    def _root_sum(self, a: int, b: int, sign: int):
        """The index of the root alpha_a + sign * alpha_b, or None."""
        sys = self.system
        return sys.index.get(tuple(x + sign * y for x, y in zip(sys.roots[a], sys.roots[b])))

    # -- the block recursion ----------------------------------------------

    def block(self, u: GroupElement, a: int):
        """(mu, trace) with x_u x_a = mu x_{u s_a} modulo the right ideal."""
        key = (u.images, a)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if key in self._running:
            raise ReductionError("cyclic block reduction; case analysis violated")
        self._running.add(key)
        try:
            result = self._block_inner(u, a)
        finally:
            self._running.discard(key)
        self._memo[key] = result
        return result

    def _block_inner(self, u, a):
        sys = self.system
        if sys.heights[a] == 1:
            return self._nil(u, a), ()
        if u.is_identity():
            # a leading non-simple generator lies in the ideal
            return 0, ()
        neg = [sys.simple_index[i] for i in u.right_descents()]  # simple roots u sends negative
        ra = sys.roots[a]
        case1 = [b for b in neg if sys.ip(ra, sys.roots[b]) > 0]
        case2 = [b for b in neg if sys.ip(ra, sys.roots[b]) == 0]
        if case1:
            b = self._pick(case1)
            g = self._root_sum(a, b, -1)
            ub = u * sys.reflection(b)
            m1, t1 = self.block(ub, g)
            m2, t2 = self.block(ub * sys.reflection(g), b) if m1 else (0, ())
            m3, t3 = self.block(ub, a)
            m4, t4 = self.block(ub * sys.reflection(a), g) if m3 else (0, ())
            mu = m1 * m2 - m3 * m4
            return mu, ((1, a, b),) + t1 + t2 + t3 + t4
        if case2:
            b = self._pick(case2)
            ub = u * sys.reflection(b)
            m1, t1 = self.block(ub, a)
            m2, t2 = self.block(ub * sys.reflection(a), b) if m1 else (0, ())
            return m1 * m2, ((2, a, b),) + t1 + t2
        # case 3: every candidate pairs to -1 with a
        g = self._pick(neg)
        apg = self._root_sum(a, g, 1)
        if apg is None:
            raise ReductionError("case 3 expects a + gamma to be a root")
        ug = u * sys.reflection(g)
        trace = ((3, a, g),)
        # second summand: x_{u s_g} x_{a+g} x_g
        mb1, tb1 = self.block(ug, apg)
        mb2, tb2 = self.block(ug * sys.reflection(apg), g) if mb1 else (0, ())
        term_b = mb1 * mb2
        trace += tb1 + tb2
        # first summand: x_{u s_g} x_a x_{a+g}, then commute across beta
        ma1, ta1 = self.block(ug, a)
        trace += ta1
        term_a = 0
        if ma1:
            v = ug * sys.reflection(a)
            beta = [b for b in (sys.simple_index[i] for i in range(sys.rank))
                    if sys.ip(ra, sys.roots[b]) > 0 and sys.ip(sys.roots[g], sys.roots[b]) < 0]
            if len(beta) != 1:
                raise ReductionError("case 3 expects a unique commuting pivot root")
            b = beta[0]
            if sys.ip(sys.roots[apg], sys.roots[b]) != 0:
                raise ReductionError("case 3 pivot root must be orthogonal to a + gamma")
            if v.images[b] > 0:
                raise ReductionError("case 3 pivot root must be a descent")
            vb = v * sys.reflection(b)
            ma2, ta2 = self.block(vb, apg)
            ma3, ta3 = self.block(vb * sys.reflection(apg), b) if ma2 else (0, ())
            term_a = ma1 * ma2 * ma3
            trace += ta2 + ta3
        return term_a + term_b, trace


def reduce_mod_right_ideal(word, system: RootSystem) -> ReductionResult:
    """Reduce x_{word} to lambda x_w modulo the right ideal J^r."""
    red = Reducer(system)
    u = system.identity()
    lam = 1
    trace = ()
    for a in word:
        if lam:
            mu, t = red.block(u, a)
            lam *= mu
            trace += t
        u = u * system.reflection(a)
    return ReductionResult(lam, u, trace)


def reduce_mod_left_ideal(word, system: RootSystem) -> ReductionResult:
    """Reduce modulo the left ideal J^l, via word reversal."""
    r = reduce_mod_right_ideal(tuple(reversed(word)), system)
    return ReductionResult(r.scalar, r.w.inverse(), r.trace)
