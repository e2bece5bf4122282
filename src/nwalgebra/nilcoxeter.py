"""The embedding of the nilCoxeter basis into B_W, skew elements x_{w/v}
and the translated top words y = w . x_{w_o}.

The nilCoxeter algebra itself (its elements and product) and the
reconstruction of the coproduct of x_w from the skew elements are
independent oracles of the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from .coxeter import GroupElement, RootSystem
from .nichols_core import AlgebraState, NicholsElement, group_act, right_derivative


def reduced_word_roots(system: RootSystem, w: GroupElement):
    """A reduced word of w as positive-root indices of simple roots."""
    return tuple(system.simple_index[i] for i in w.reduced_word())


def embed_element(state: AlgebraState, w: GroupElement) -> NicholsElement:
    """The image of the standard basis element x_w inside B_W."""
    return NicholsElement.from_word(state, reduced_word_roots(state.system, w))


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
