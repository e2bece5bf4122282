"""The nilCoxeter algebra, its embedding into B_W, skew elements x_{w/v}
and the translated top words y = w . x_{w_o}.
"""

from __future__ import annotations

from .coxeter import GroupElement, RootSystem
from .nichols_core import (
    AlgebraState,
    CheckFailed,
    NicholsElement,
    coproduct_word_expansion,
    group_act,
    right_derivative,
)


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


def reduced_word_roots(system: RootSystem, w: GroupElement):
    """A reduced word of w as positive-root indices of simple roots."""
    return tuple(system.simple_index[i] for i in w.reduced_word())


def embed_element(state: AlgebraState, w: GroupElement) -> NicholsElement:
    """The image of the standard basis element x_w inside B_W."""
    return NicholsElement.from_word(state, reduced_word_roots(state.system, w))


def embed(a: NilCoxeterElement, state: AlgebraState) -> NicholsElement:
    out = NicholsElement.zero(state)
    for w, c in a.terms.items():
        out = out + embed_element(state, w).scale(c)
    return out


def skew_element(w: GroupElement, v: GroupElement, state: AlgebraState) -> NicholsElement:
    """The skew coproduct component x_{w/v}.

    Extracted by pairing the second coproduct legs of x_w with x_{v^{-1}},
    which is the right derivative of x_w by x_{v^{-1}}.
    """
    return right_derivative(embed_element(state, w), embed_element(state, v.inverse()))


def y_element(w: GroupElement, state: AlgebraState) -> NicholsElement:
    """The translated top word y = w . x_{w_o}."""
    wo = state.system.longest_element()
    return group_act(w, embed_element(state, wo))


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
        return {ij: y for ij, x in acc.items() if (y := field.normalize(x))}

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
