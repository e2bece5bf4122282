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
reach.  A linear-algebra oracle cross-checks it at constructible ranks.

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

from dataclasses import dataclass, field
from fractions import Fraction

from .coxeter import GroupElement, RootSystem
from .exactlinalg import ColumnSolver
from .nichols_core import AlgebraState, CheckFailed, NicholsElement


class ReductionError(CheckFailed):
    pass


@dataclass
class ReductionResult:
    scalar: Fraction
    w: GroupElement
    trace: tuple

    def to_json(self):
        return {
            "lambda": str(self.scalar),
            "w": self.w.to_json(),
            "trace": [list(step) for step in self.trace],
        }


class Reducer:
    """Memoized block reduction for one type-A root system."""

    def __init__(self, system: RootSystem, policy: str = "min"):
        if not system.cartan.type_label.startswith("A"):
            raise ReductionError("monomial reduction is implemented for type A only")
        if policy not in ("min", "max"):
            raise ReductionError("choice policy must be 'min' or 'max'")
        self.system = system
        self.policy = policy
        self._memo = {}
        self._running = set()

    # -- helpers ---------------------------------------------------------

    def _simple_choices(self, u: GroupElement):
        """Simple roots sent negative by u, as root indices."""
        sys = self.system
        out = []
        for i in range(sys.rank):
            si = sys.simple_index[i]
            if u.images[si] < 0:
                out.append(si)
        return out

    def _pick(self, options):
        return min(options) if self.policy == "min" else max(options)

    def _nil(self, u: GroupElement, s: int) -> int:
        """x_u x_s for a simple root s: 1 if lengths add, else 0."""
        return 1 if u.images[s] > 0 else 0

    def _root_sub(self, a: int, b: int):
        sys = self.system
        diff = tuple(x - y for x, y in zip(sys.roots[a], sys.roots[b]))
        return sys.index.get(diff)

    def _root_add(self, a: int, b: int):
        sys = self.system
        s = tuple(x + y for x, y in zip(sys.roots[a], sys.roots[b]))
        return sys.index.get(s)

    # -- the block recursion ----------------------------------------------

    def block(self, u: GroupElement, a: int):
        """(mu, trace) with x_u x_a = mu x_{u s_a} modulo the right ideal."""
        sys = self.system
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
        neg = self._simple_choices(u)
        ra = sys.roots[a]
        case1 = [b for b in neg if sys.ip(ra, sys.roots[b]) > 0]
        case2 = [b for b in neg if sys.ip(ra, sys.roots[b]) == 0]
        if case1:
            b = self._pick(case1)
            g = self._root_sub(a, b)
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
        apg = self._root_add(a, g)
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


_REDUCERS = {}


def _reducer(system: RootSystem, policy: str = "min") -> Reducer:
    key = (id(system), policy)
    if key not in _REDUCERS:
        _REDUCERS[key] = Reducer(system, policy)
    return _REDUCERS[key]


def reduce_mod_right_ideal(word, system: RootSystem, coeff=1, policy: str = "min") -> ReductionResult:
    """Reduce coeff * x_{word} to lambda x_w modulo the right ideal J^r."""
    red = _reducer(system, policy)
    u = system.identity()
    lam = Fraction(coeff)
    trace = ()
    for a in word:
        if lam:
            mu, t = red.block(u, a)
            lam *= mu
            trace += t
        u = u * system.reflection(a)
    return ReductionResult(lam, u, trace)


def reduce_mod_left_ideal(word, system: RootSystem, coeff=1, policy: str = "min") -> ReductionResult:
    """Reduce modulo the left ideal J^l, via word reversal."""
    r = reduce_mod_right_ideal(tuple(reversed(word)), system, coeff, policy)
    return ReductionResult(r.scalar, r.w.inverse(), r.trace)


def ideal_membership_oracle(z: NicholsElement, side: str, state: AlgebraState):
    """Linear-algebra membership in J^l or J^r plus the nilCoxeter normal form.

    Returns (member, normal_form) where normal_form maps group elements w
    to the coefficient of x_w in the class of z modulo the ideal.
    """
    from .nilcoxeter import embed_element

    if side not in ("left", "right"):
        raise ReductionError("side must be 'left' or 'right'")
    sys = state.system
    field = state.field
    nonsimple = [a for a in range(sys.nroots) if sys.heights[a] > 1]
    member = True
    normal = {}
    for n, vec in z.components.items():
        state.ensure_degree(n)
        dim = state.dim(n)
        solver = ColumnSolver(dim, field)
        if n >= 1:
            for a in nonsimple:
                mat = state.lmul(n, a) if side == "right" else state.rmul(n, a)
                for col in mat:
                    solver.add(col)
        njr = solver.rank
        length_n = [w for w in sys.elements() if w.length() == n]
        for w in length_n:
            if not solver.add(embed_element(state, w).component(n)):
                raise ReductionError("standard basis met the ideal; inconsistency")
        coords = solver.coordinates(vec)
        if coords is None:
            raise ReductionError("ideal plus nilCoxeter span is not everything")
        for k, w in enumerate(length_n):
            c = coords.get(njr + k)
            if c:
                member = False
                normal[w] = normal.get(w, field.zero) + c
    return member, normal


def quotient_dimensions(state: AlgebraState, side: str = "right"):
    """Per-degree dimension of B_W modulo the one-sided ideal."""
    sys = state.system
    field = state.field
    if state.finite_top is None:
        raise ReductionError("quotient dimensions need the full algebra")
    nonsimple = [a for a in range(sys.nroots) if sys.heights[a] > 1]
    out = []
    for n in range(state.finite_top + 1):
        dim = state.dim(n)
        solver = ColumnSolver(dim, field)
        if n >= 1:
            for a in nonsimple:
                mat = state.lmul(n, a) if side == "right" else state.rmul(n, a)
                for col in mat:
                    solver.add(col)
        out.append(dim - solver.rank)
    return out
