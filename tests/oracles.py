"""Independent oracles that the tests check the engine against.

No command runs these, so they live with the tests, off the import path
of ``nwalg``:

- the Woronowicz symmetrizer on raw words, whose ranks are the
  dimensions of B_W built another way;
- the braided coproduct of a word on tensor representatives, the
  coproduct of an element read from it, and the reconstruction of the
  coproduct of x_w from the skew elements x_{w/v};
- the nilCoxeter algebra, with its own product;
- the centralizer of w_o as the elements of W that commute with it, a
  filter over the whole group, and the exponent of W as the lcm of the
  orders of its elements;
- membership in the one-sided ideals of the non-simple generators by
  elimination in the built algebra, against which the syntactic
  reduction of :mod:`nwalgebra.reduction` is checked;
- derivatives by an element composed word by word, one letter map at a
  time, against which the engine's word-tree walk is checked;
- the monomial predicates (starts with, ends with, involves only the
  letters of a set, with the span of the words over that set) and the
  group degree of an element, which the nilCoxeter statements read;
- the basis of a degree as elements, for the tests' exhaustive loops;
- the per-class dimensions of the orbit build, which the tests compare
  with the word build's class blocks;
- the order-two statement y_1 D_{y_2} = D_{y_2} y_1 (-1)^{l(w_o)} of a
  complete system of A3, as an instance of skew commutation.
"""

from __future__ import annotations

import itertools
import math

from nwalgebra.calculus import _right_leibniz_mismatch, basis_element
from nwalgebra.coxeter import DEFAULT_MEMORY_BOUND, GroupElement, RootSystem
from nwalgebra.disjoint import search_complete
from nwalgebra.exactlinalg import QQ, ColumnSolver, in_span
from nwalgebra.integrals import nonsimple_roots
from nwalgebra.nichols_core import (
    AlgebraState,
    CheckFailed,
    MemoryBoundExceeded,
    NicholsElement,
    group_act,
    mat_col,
    right_derivative_columns,
    right_multiplier,
)
from nwalgebra.nilcoxeter import embed_element, reduced_word_roots, skew_element, y_element
from nwalgebra.reduction import ReductionError

def basis_elements(state: AlgebraState, n):
    """The degree-n basis elements, in basis order."""
    return (basis_element(state, n, i) for i in range(state.dim(n)))


# ---------------------------------------------------------------------------
# words, braiding and the symmetrizer
# ---------------------------------------------------------------------------


def word_wdeg(sys: RootSystem, word) -> GroupElement:
    """The group degree s_{a_1} ... s_{a_n} of a word."""
    w = sys.identity()
    for a in word:
        w = w * sys.reflection(a)
    return w


def braid_apply(sys: RootSystem, word, i, inverse=False):
    """One braiding at position i: (sign, new_word).

    Forward: (a, b) -> (s_a(b), a).  Inverse: (a, b) -> (b, s_b(a)).
    """
    if not 0 <= i < len(word) - 1:
        raise IndexError("braiding position out of range")
    a, b = word[i], word[i + 1]
    if inverse:
        s = sys.refl[b][a]
        pair = (b, abs(s) - 1)
    else:
        s = sys.refl[a][b]
        pair = (abs(s) - 1, a)
    sign = 1 if s > 0 else -1
    return sign, word[:i] + pair + word[i + 2:]


def _permutation_words(n):
    """A reduced word for every permutation of n letters, by BFS."""
    ident = tuple(range(n))
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(n - 1):
                q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
                if q not in words:
                    words[q] = words[p] + (i,)
                    nxt.append(q)
        frontier = nxt
    return words


def _braid_lift_terms(sys, word, braid_word):
    """Apply a sequence of forward braidings (rightmost first) to a word."""
    sign, w = 1, word
    for i in reversed(braid_word):
        s, w = braid_apply(sys, w, i)
        sign *= s
    return sign, w


def symmetrizer_rank(sys: RootSystem, n: int, field=QQ,
                     memory_bound=DEFAULT_MEMORY_BOUND) -> int:
    """Rank of the degree-n symmetrizer, computed per group-degree class.
    Its n |R+|^n word entries are held against ``memory_bound``."""
    nwords = sys.nroots ** n
    if nwords * n > memory_bound:
        raise MemoryBoundExceeded(f"{nwords} words exceed the memory bound")
    perm_words = _permutation_words(n)
    by_class = {}
    for w in itertools.product(range(sys.nroots), repeat=n):
        by_class.setdefault(word_wdeg(sys, w).images, []).append(w)
    total = 0
    for key in sorted(by_class):
        words = by_class[key]
        index = {w: i for i, w in enumerate(words)}
        solver = ColumnSolver(field)
        for w in words:
            acc = {}
            for bw in perm_words.values():
                sign, img = _braid_lift_terms(sys, w, bw)
                acc[img] = acc.get(img, 0) + sign
            solver.add({index[img]: x for img, c in acc.items() if (x := field.of(c))})
        total += solver.rank
    return total


# ---------------------------------------------------------------------------
# the braided coproduct
# ---------------------------------------------------------------------------


def coproduct_word_expansion(sys: RootSystem, word):
    """Full braided coproduct of a word on tensor representatives.

    Returns {(left_word, right_word): integer coefficient}.
    """
    terms = {((), ()): 1}
    wdeg_cache = {(): sys.identity()}
    for a in word:
        new = {}
        for (w1, w2), c in terms.items():
            g = wdeg_cache.get(w2)
            if g is None:
                g = word_wdeg(sys, w2)
                wdeg_cache[w2] = g
            s = g.act(a + 1)
            key1 = (w1 + (abs(s) - 1,), w2)
            val = c if s > 0 else -c
            new[key1] = new.get(key1, 0) + val
            key2 = (w1, w2 + (a,))
            new[key2] = new.get(key2, 0) + c
        terms = {k: v for k, v in new.items() if v}
    return terms


def coproduct_legs(z: NicholsElement, k: int):
    """The (k, n-k) part of the coproduct of each component z_n, as
    (left, right) element pairs whose tensors sum to it.  Each basis word
    of z is expanded by :func:`coproduct_word_expansion` and each leg
    read through ``word_column``; pairs with a zero leg are dropped."""
    state = z.state
    sys = state.system
    out = []
    for n, v in z.components.items():
        if k > n:
            continue
        words = state.basis(n).words
        for i, c in v.items():
            for (w1, w2), d in coproduct_word_expansion(sys, words[i]).items():
                if len(w1) != k:
                    continue
                left = NicholsElement.from_word(state, w1).scale(c * d)
                right = NicholsElement.from_word(state, w2)
                if not left.is_zero() and not right.is_zero():
                    out.append((left, right))
    return out


def liu_reconstruction_holds(state: AlgebraState, w: GroupElement) -> bool:
    """Whether the coproduct of x_w equals sum_v x_{w/v} (x) x_v, exactly.

    A failure here is a hard inconsistency of the skew extraction and is
    surfaced as False rather than absorbed.
    """
    sys = state.system
    word = reduced_word_roots(sys, w)
    expansion = coproduct_word_expansion(sys, word)
    n = len(word)
    field = state.field

    def tensor(legs):
        """sum c * l (x) r over the (c, l, r) legs, as {(i, j): scalar}."""
        acc = {}
        for c, lvec, rvec in legs:
            for i, x in lvec.items():
                for j, y in rvec.items():
                    acc[(i, j)] = acc.get((i, j), 0) + c * x * y
        return field.canon(acc)

    for k in range(n + 1):
        # the raw expansion legs at split (n-k, k), against the skew legs
        got = tensor((field.of(c), state.word_column(w1), state.word_column(w2))
                     for (w1, w2), c in expansion.items() if len(w2) == k)
        want = tensor((field.one, skew_element(w, v, state).component(n - k),
                       embed_element(state, v).component(k))
                      for v in sys.elements() if v.length() == k)
        if got != want:
            return False
    return True


# ---------------------------------------------------------------------------
# derivatives word by word, monomial predicates and the group degree
# ---------------------------------------------------------------------------


def apply_words(y: NicholsElement, z: NicholsElement, matrix, reverse):
    """The sum of c * M(w) z over the basis words w of y, c their coefficients.

    M(w) applies the derivative ``matrix(d, g)`` for each letter g of w
    (last letter first when ``reverse``) to the running vector of degree
    d, and lowers d by one: (z)D_y for ``state.dright``, D_y(z) for
    ``state.dleft`` with ``reverse``.
    """
    state = z.state
    field = state.field
    out = {}
    for ny, vy in y.components.items():
        words = state.basis(ny).words
        for nz, vz in z.components.items():
            if nz < ny:
                continue
            acc = out.setdefault(nz - ny, {})
            for i, c in vy.items():
                vec, d = vz, nz
                word = words[i]
                for g in (reversed(word) if reverse else word):
                    vec = mat_col(matrix(d, g), vec, field)
                    if not vec:
                        break
                    d -= 1
                for t, x in vec.items():
                    acc[t] = acc.get(t, 0) + c * x
    return NicholsElement(state, {n: field.canon(acc) for n, acc in out.items()})


def _components_in_span(z: NicholsElement, columns) -> bool:
    """Whether each component z_n lies in the span of ``columns(n)``."""
    state = z.state
    return all(in_span(v, columns(n), state.dim(n), state.field)[0]
               for n, v in z.components.items())


def ends_with(z: NicholsElement, g: int) -> bool:
    """Whether z can be written as z' * x_g (per nonzero component)."""
    return _components_in_span(z, lambda n: z.state.rmul(n, g) if n else [])


def starts_with_set(z: NicholsElement, theta) -> bool:
    """Whether z is a sum of monomials starting with letters from theta."""
    lmul = z.state.lmul
    return _components_in_span(z, lambda n: [c for g in sorted(theta) for c in lmul(n, g)] if n else [])


def theta_span(state: AlgebraState, theta, n):
    """Basis (as coordinate dicts) of the degree-n span of the words over
    theta: each x_g b independent of those before it, for g in theta
    ascending and b in the degree n - 1 span, read in B_W."""
    field = state.field
    if n == 0:
        return [{0: field.one}]
    prev = theta_span(state, theta, n - 1)
    solver = ColumnSolver(field)
    vecs = []
    for g in sorted(theta):
        lm = state.lmul(n, g)
        for b in prev:
            col = mat_col(lm, b, field)
            if solver.add(col):
                vecs.append(col)
    return vecs


def involves_only(z: NicholsElement, theta) -> bool:
    """Whether each component of z lies in the span of the words over theta."""
    return _components_in_span(z, lambda n: theta_span(z.state, theta, n))


def w_degree(z: NicholsElement):
    """The group degree of a homogeneous element (None if mixed or zero):
    the one class of every basis word it holds."""
    classes = {z.state.basis(n).wdegs[i] for n, v in z.components.items() for i in v}
    return next(iter(classes)) if len(classes) == 1 else None


# ---------------------------------------------------------------------------
# the nilCoxeter algebra
# ---------------------------------------------------------------------------


class NilCoxeterError(CheckFailed):
    pass


class NilCoxeterElement:
    """A linear combination of standard basis elements x_w."""

    def __init__(self, system: RootSystem, terms=None):
        self.system = system
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = c

    @classmethod
    def basis(cls, system, w: GroupElement):
        return cls(system, {w: 1})

    def __add__(self, other):
        t = dict(self.terms)
        for w, c in other.terms.items():
            x = t.get(w, 0) + c
            if x:
                t[w] = x
            else:
                t.pop(w, None)
        return NilCoxeterElement(self.system, t)

    def scale(self, s):
        return NilCoxeterElement(self.system, {w: c * s for w, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, NilCoxeterElement) and self.terms == other.terms

    def __repr__(self):
        return " + ".join(f"{c}*x[{w!r}]" for w, c in sorted(self.terms.items(), key=lambda t: t[0].images)) or "0"

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda t: t[0].images)
        return {"terms": [{"element": w.to_json(), "coeff": str(c)} for w, c in items]}


def nc_product(a: NilCoxeterElement, b: NilCoxeterElement) -> NilCoxeterElement:
    """Product in the nilCoxeter algebra: x_u x_v = x_{uv} iff lengths add."""
    if a.system is not b.system:
        raise NilCoxeterError("elements of different groups")
    out = {}
    for u, cu in a.terms.items():
        lu = u.length()
        for v, cv in b.terms.items():
            if lu + v.length() == (u * v).length():
                w = u * v
                x = out.get(w, 0) + cu * cv
                if x:
                    out[w] = x
                else:
                    out.pop(w, None)
    return NilCoxeterElement(a.system, out)


def centralizer_by_filter(sys: RootSystem):
    """Every element of W that commutes with w_o, in canonical order."""
    wo = sys.longest_element()
    return tuple(w for w in sys.elements() if w * wo == wo * w)


def exponent_by_enumeration(sys: RootSystem) -> int:
    """The least N > 0 with w^N = 1 for every w, as the lcm of the orders
    of all elements of W."""
    e, one = 1, sys.identity()
    for w in sys.elements():
        n, u = 1, w
        while u is not one:
            u, n = u * w, n + 1
        e = math.lcm(e, n)
    return e


# ---------------------------------------------------------------------------
# the one-sided ideals of the non-simple generators
# ---------------------------------------------------------------------------


def ideal_membership_oracle(z: NicholsElement, side: str, state: AlgebraState):
    """Linear-algebra membership in J^l or J^r plus the nilCoxeter normal form.

    Returns (member, normal_form) where normal_form maps group elements w
    to the coefficient of x_w in the class of z modulo the ideal.
    """
    if side not in ("left", "right"):
        raise ReductionError("side must be 'left' or 'right'")
    sys = state.system
    field = state.field
    member = True
    normal = {}
    for n, vec in z.components.items():
        solver = _ideal_solver(state, side, n)
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
    if state.finite_top is None:
        raise ReductionError("quotient dimensions need the full algebra")
    return [state.dim(n) - _ideal_solver(state, side, n).rank
            for n in range(state.finite_top + 1)]


def _ideal_solver(state: AlgebraState, side: str, n: int) -> ColumnSolver:
    """A solver holding the degree-n columns of J^r (side "right") or J^l."""
    solver = ColumnSolver(state.field)
    if n >= 1:
        for a in nonsimple_roots(state):
            for col in state.lmul(n, a) if side == "right" else state.rmul(n, a):
                solver.add(col)
    return solver


# ---------------------------------------------------------------------------
# the orbit build, class by class
# ---------------------------------------------------------------------------


def orbit_class_dims(state, n):
    """{class: dim} for every class of nonzero dimension at degree n of an
    orbit build (:class:`nwalgebra.orbits.OrbitState`), read from the rank
    of each class's orbit representative.  The classes are every class of
    every orbit the search filed, not only those the build read."""
    state.ensure_degree(n)
    ranks = state.bases[n].ranks
    return {GroupElement(state.system, k): ranks[r]
            for k, (r, _) in state._filed.items() if r in ranks}


# ---------------------------------------------------------------------------
# the order-two statement of a complete system
# ---------------------------------------------------------------------------


def ofbskew_mismatch(state):
    """The order-two statement y_1 D_{y_2} = D_{y_2} y_1 (-1)^{l(w_o)},
    for the complete system {w_1, w_2} of A3, as skew commutation at
    (w, v) = (w_2, e) and b = y_1 (see ``check_skew_commutation``): its
    first mismatch, after asserting that b = y_1 is in the sample space
    and that the twist and the derivative are those of skew commutation."""
    sys = state.system
    wo, e = sys.longest_element(), sys.identity()
    w1, w2 = search_complete(sys)[0].elements
    y1, y2 = y_element(w1, state), y_element(w2, state)
    ny = y1.degrees()[0]
    # y_1 is in the joint T_{w_2} kernel
    assert all(not mat_col(state.dright(ny, a), y1.component(ny), state.field)
               for a in w2.t_set())
    # g = w_2 w_o w_2^{-1} = w_o, g y_1 = (-1)^{l(w_o)} y_1, xi = y_2
    sign = -1 if wo.length() % 2 else 1
    assert w2 * wo * w2.inverse() == wo
    assert group_act(wo, y1) == y1.scale(sign)
    xi = group_act(w2, skew_element(wo, e, state))
    assert xi == y2
    return _right_leibniz_mismatch(state, state.finite_top, right_multiplier(y1).columns, ny,
                                   right_derivative_columns(xi), xi.degrees()[0],
                                   right_multiplier(y1.scale(sign)).columns)
