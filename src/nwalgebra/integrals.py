"""Integrals of B_W, their signs and invariance properties, the subalgebra
generated by the non-simple roots, and its top-component elements that
lift to integrals by multiplication with the top word.
"""

from __future__ import annotations

from itertools import combinations

from .calculus import IdentityReport, _fail, _joint_kernels, _t_blocks
from .coxeter import centralizer_of_longest
from .exactlinalg import ColumnSolver, rank, scalar_str
from .nichols_core import (
    AlgebraState,
    CheckFailed,
    DegreeCapExceeded,
    NicholsElement,
    element_to_json,
    mat_col,
    mat_identity,
    mat_stack,
    multiply,
    pairing,
    right_derivative,
)
from .nilcoxeter import embed_element, y_element


class IntegralError(CheckFailed):
    pass


class IntegralCertificate:
    __slots__ = ("element", "degree", "w_degree", "char", "eps_rho", "eps_antipode",
                 "eps_sbar")

    def __init__(self, element, degree, w_degree, char, eps_rho, eps_antipode, eps_sbar):
        self.element, self.degree, self.w_degree = element, degree, w_degree
        self.char = char  # simple index -> scalar, the action character
        self.eps_rho, self.eps_antipode, self.eps_sbar = eps_rho, eps_antipode, eps_sbar

    def to_json(self):
        field = self.element.state.field
        return {
            "element": element_to_json(self.element),
            "degree": self.degree,
            "w_degree": self.w_degree.to_json(),
            "character_on_simple_reflections": {str(i): scalar_str(v, field)
                                                for i, v in self.char.items()},
            "eps_rho": scalar_str(self.eps_rho, field),
            "eps_antipode": scalar_str(self.eps_antipode, field),
            "eps_sbar": scalar_str(self.eps_sbar, field),
        }


def is_integral(z: NicholsElement, state: AlgebraState) -> bool:
    """Whether all products x_a z and z x_a vanish (both sides checked),
    read component by component from the ``lmul`` and ``rmul`` columns."""
    if z.is_zero():
        return True
    state.require_top("is_integral")
    roots = range(state.system.nroots)
    left, right = (all(not mat_col(m, v, state.field) for n, v in z.components.items()
                       for m, _ in _mul_blocks(state, mul, n, roots))
                   for mul in (state.lmul, state.rmul))
    if left != right:
        raise IntegralError("one-sided integral found; graded theory violated")
    return left


def top_integral(state: AlgebraState) -> IntegralCertificate:
    """Certificate for the generator x of the one-dimensional top component.
    x is an integral without an :func:`is_integral` check: every x_a x and
    x x_a lies in degree ``finite_top + 1``, zero by definition of the top."""
    top = state.require_top("top_integral")
    dim = state.dim(top)
    if dim != 1:
        raise IntegralError(f"top component has dimension {dim}, expected 1")
    field_ = state.field
    x = NicholsElement(state, {top: {0: field_.one}})
    basis = state.basis(top)
    w = basis.wdegs[0]
    char = {i: _top_sign(state, top, state.system.simple_reflection(i))
            for i in range(state.system.rank)}
    eps_rho = state.rho_matrix(top)[0].get(0, field_.zero)
    eps_s = state.antipode_matrix(top)[0].get(0, field_.zero)
    # s-bar is (-1)^n rho S, and the top is one-dimensional
    sign = field_.minus_one if top % 2 else field_.one
    eps_sbar = field_.normalize(sign * eps_rho * eps_s)
    cert = IntegralCertificate(x, top, w, char, eps_rho, eps_s, eps_sbar)
    _validate_certificate(cert, state)
    return cert


def _top_sign(state: AlgebraState, top, g):
    """The scalar by which g acts on the one-dimensional top degree
    ``top``: the entry of its 1x1 action matrix."""
    return state.act_matrix(top, g)[0].get(0, state.field.zero)


def _validate_certificate(cert: IntegralCertificate, state: AlgebraState):
    """Checks that the simple characters are signs, that the character is
    multiplicative and that eps_S = (-1)^degree, in that order.

    Multiplicativity is checked on s_i s_j for i < j, read like
    ``char[i]`` from its 1x1 matrix on the top.  The rest needs no check:
    s_i s_i = e acts by char[i]^2 = 1, ``char[i]`` being a sign, and
    s_j s_i = (s_i s_j)^-1 acts by the inverse of a sign, which is the
    same sign.  The group degree w is central: s.x spans the
    one-dimensional top and lies in the class s w s^-1, so s w s^-1 = w.
    Two more facts follow: eps_sbar = eps_rho, as s-bar is (-1)^n rho S;
    and the w-degree's length has the parity of the degree, being a
    product of that many reflections of odd length 2 ht - 1."""
    sys, field_ = state.system, state.field
    one, minus = field_.one, field_.minus_one
    for i, lam in cert.char.items():
        if lam not in (one, minus):
            raise IntegralError("character value is not a sign")
    for i, j in combinations(range(sys.rank), 2):
        g = sys.simple_reflection(i) * sys.simple_reflection(j)
        if _top_sign(state, cert.degree, g) != field_.normalize(cert.char[i] * cert.char[j]):
            raise IntegralError("character is not multiplicative")
    if cert.eps_antipode != (minus if cert.degree % 2 else one):
        raise IntegralError("antipode sign does not match the degree parity")


def invariance_suite(cert: IntegralCertificate, state: AlgebraState,
                     order2_system=None) -> IdentityReport:
    """The recovery formulas of the integral under derivative/multiply
    composites, itemized; the order-two item is skipped with a notice
    when no such system is supplied."""
    name = "invariance"
    sys = state.system
    field_ = state.field
    x = cert.element
    wo = sys.longest_element()
    lwo_sign = field_.minus_one if wo.length() % 2 else field_.one
    params = {"degree": cert.degree}
    notes = []

    # items 1 and 2, for every root: x = (x)D_a x_a and x = -eps x_a (x)D_a
    # with s_a x = eps x
    for a in range(sys.nroots):
        xa = NicholsElement.generator(state, a)
        dx = right_derivative(x, xa)
        if multiply(dx, xa) != x:
            return _fail(name, params, 0, None, item=1, root=a)
        eps = _top_sign(state, cert.degree, sys.reflection(a))
        if multiply(xa, dx).scale(-eps) != x:
            return _fail(name, params, 0, None, item=2, root=a)
    # item 3: x = (x)D_y y for every w
    tops = {}  # w -> (y, (x)D_y), read again by items 4 and 5
    for w in sys.elements():
        y = y_element(w, state)
        dx = right_derivative(x, y)
        if multiply(dx, y) != x:
            return _fail(name, params, 0, None, item=3, w=w)
        tops[w] = (y, dx)
    # item 4: x = (-1)^{l(wo)} eps y (x)D_y over the centralizer
    eps_wo = _top_sign(state, cert.degree, wo)
    for w in centralizer_of_longest(sys):
        y, dx = tops[w]
        if multiply(y, dx).scale(lwo_sign * eps_wo) != x:
            return _fail(name, params, 0, None, item=4, w=w)
        # nonvanishing of the derivative bracket
        if pairing(dx, dx) == field_.zero:
            return _fail(name, params, 0, None, item="hypo-bracket", w=w)
    # item 5: the order-two system displays
    if order2_system is None:
        notes.append("item 5 skipped: no order-two disjoint system supplied")
    else:
        y1, y2 = (tops[w][0] for w in order2_system.elements[:2])
        y12 = multiply(y1, y2)
        dx12 = right_derivative(x, y12)
        got = multiply(y12, dx12).scale(lwo_sign)
        if got != x:
            return _fail(name, params, 0, None, item=5, display=1)
        got = multiply(dx12, multiply(y2, y1))
        if got != x:
            return _fail(name, params, 0, None, item=5, display=2)
    return IdentityReport(name, params, 0, "pass", None, None, notes)


def lift_monomial_to_integral(z: NicholsElement, state: AlgebraState):
    """Monomial words M, M' with M z and z M' nonzero integrals.

    Greedy ascending search on the lowest-degree homogeneous part, as the
    finite-dimensionality argument prescribes.
    """
    if z.is_zero():
        raise IntegralError("cannot lift the zero element")
    state.require_top("lift_monomial_to_integral")
    n0 = z.degrees()[0]
    roots = range(state.system.nroots)

    def letters(mul):
        # greedy: multiply by the first generator that keeps the product
        # nonzero, until every generator kills it
        cur, out = z.component(n0), []
        while True:
            for a, (m, _) in enumerate(_mul_blocks(state, mul, n0 + len(out), roots)):
                nxt = mat_col(m, cur, state.field)
                if nxt:
                    out.append(a)
                    cur = nxt
                    break
            else:
                return out

    words = []
    for side, mul in (("left", state.lmul), ("right", state.rmul)):
        # a letter found on the left multiplies from outside the ones before
        # it, so M lists them last first; each lift is verified on z itself
        found = letters(mul)
        word = tuple(reversed(found) if side == "left" else found)
        m = NicholsElement.from_word(state, word)
        lift = multiply(m, z) if side == "left" else multiply(z, m)
        if lift.is_zero() or not is_integral(lift, state):
            raise IntegralError(f"{side} lift failed")
        words.append(word)
    return tuple(words)


# ---------------------------------------------------------------------------
# the subalgebra generated by the non-simple roots
# ---------------------------------------------------------------------------


def subalgebra_build(theta, state: AlgebraState):
    """Per-degree coordinate bases in B_W of the subalgebra generated by
    the given roots, from degree 0 to its top.  Degree n keeps, in order,
    each x_g b that is independent of those before it, for g in theta
    ascending and b in the basis of degree n - 1."""
    theta = tuple(sorted(theta))
    field = state.field
    bases = [mat_identity(1, field)]
    while True:
        n = len(bases)
        if state.finite_top is None and n > state.degree_cap:
            raise DegreeCapExceeded(
                f"the subalgebra needs degree {n}, above the degree cap {state.degree_cap}")
        solver = ColumnSolver(field)
        span = [col for g in theta for b in bases[-1]
                if solver.add(col := mat_col(state.lmul(n, g), b, field))]
        if not span:
            return bases
        bases.append(span)


def nonsimple_roots(state: AlgebraState):
    sys = state.system
    return tuple(a for a in range(sys.nroots) if sys.heights[a] > 1)


def hypothetical_space(state: AlgebraState, degree: int):
    """Kernel at one degree of all simple right derivatives (those by the
    roots of T_e) and of left and right multiplication by every
    non-simple generator."""
    simple, others = _t_blocks(state, state.system.identity()), nonsimple_roots(state)

    def blocks(n):
        return simple(n) + [b for mul in (state.lmul, state.rmul)
                            for b in _mul_blocks(state, mul, n, others)]

    return next((ker for _, ker in _joint_kernels(state, blocks, [degree])), [])


def _mul_blocks(state, mul, degree, letters):
    """Multiplication by x_a out of the given degree for each letter a, as
    blocks (matrix, nrows); ``mul`` is ``state.lmul`` or ``state.rmul``.
    Empty past the top degree, where the next degree is empty."""
    nrows = state.dim(degree + 1)
    return [(mul(degree + 1, a), nrows) for a in letters] if nrows else []


def hypothetical_checks(theta, bases, state: AlgebraState) -> IdentityReport:
    """The full battery for the top component P of the subalgebra generated
    by ``theta``, whose per-degree bases ``bases`` are those of
    :func:`subalgebra_build`: one-dimensionality, lifting to an integral
    by the top word, the derivative recovery of P, nondegeneracy of its
    self-pairing, uniqueness of the one-dimensional graded ideals, and the
    space of elements with all the vanishing properties, which must be the
    line through P.  That last check also covers the simple right
    derivatives and the two-sided non-simple products of P:
    :func:`hypothetical_space` is their joint kernel.  P is a subalgebra
    basis vector by construction.

    Three facts follow from these and are not checked.  Reversal maps
    words over theta to words over theta, so it maps the one-dimensional
    top onto itself: rho(P) = c P.  P x_{w_o} is nonzero, since the
    recovery gives (P x_{w_o})D_{x_{w_o}} = P.  And x_{w_o} P is nonzero:
    rho(x_{w_o} P) = rho(P) rho(x_{w_o}) = c P x_{w_o}, as rho(x_{w_o}) =
    x_{w_o} (the reversed reduced word of w_o is a reduced word of
    w_o^{-1} = w_o).

    The lifting theory is type A only, and the battery reads every degree
    of B_W up to its top: it refuses any other type and a truncated build."""
    name = "hypothetical"
    sys = state.system
    field_ = state.field
    params = {"theta": list(theta)}
    sys.require_type_a("hypothetical_checks: lifting theory")
    b_top = state.require_top("hypothetical_checks")
    top = len(bases) - 1
    if len(bases[top]) != 1:
        return _fail(name, params, 0, None,
                     note=f"top of the subalgebra has dimension {len(bases[top])}")
    vec = bases[top][0]
    p = NicholsElement(state, {top: vec}).scale(field_.inv(vec[min(vec)]))

    # the lift through the top word
    xwo = embed_element(state, sys.longest_element())
    x = multiply(p, xwo)
    if not is_integral(x, state):
        return _fail(name, params, 0, None, note="P x_{w_o} is not an integral")
    # recovery: P = (x) D_{w_o}
    if right_derivative(x, xwo) != p:
        return _fail(name, params, 0, None, note="derivative recovery of P failed")
    if pairing(p, p) == field_.zero:
        return _fail(name, params, 0, None, note="self-pairing of P vanishes")
    # the space of elements with all vanishing properties is exactly k P
    for n in range(0, b_top + 1):
        ker = hypothetical_space(state, n)
        if n == top:
            if len(ker) != 1 or NicholsElement(state, {n: ker[0]}).proportional_to(p) is None:
                return _fail(name, params, 0, None, degree=n, dimension=len(ker),
                             note="vanishing space of the top is not the line through P")
        elif ker:
            return _fail(name, params, 0, None, degree=n,
                         note="unexpected degree carries vanishing elements")
    # every one-dimensional one-sided graded ideal of the subalgebra is the top
    for n in range(0, top):
        basis_n = bases[n]
        for side, mul in (("left", state.lmul), ("right", state.rmul)):
            stacked = mat_stack(_mul_blocks(state, mul, n, theta), state.dim(n))
            if rank([mat_col(stacked, b, field_) for b in basis_n], field_) < len(basis_n):
                return _fail(name, params, 0, None, degree=n, side=side,
                             note="a lower degree carries a one-dimensional ideal")
    notes = [f"subalgebra dims {[len(b) for b in bases]}, top degree {top}"]
    return IdentityReport(name, params, 0, "pass", None, None, notes)
