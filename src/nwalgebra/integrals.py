"""Integrals of B_W, their signs and invariance properties, the subalgebra
generated by the non-simple roots, and its top-component elements that
lift to integrals by multiplication with the top word.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .calculus import IdentityReport, _fail
from .coxeter import GroupElement, centralizer_of_longest
from .exactlinalg import ColumnSolver, kernel_basis
from .nichols_core import (
    AlgebraState,
    CheckFailed,
    NicholsElement,
    element_to_json,
    group_act,
    involves_only,
    mat_col,
    mat_stack,
    multiply,
    pairing,
    rho,
    right_derivative,
    theta_span,
)
from .nilcoxeter import embed_element, y_element


class IntegralError(CheckFailed):
    pass


@dataclass
class IntegralCertificate:
    element: NicholsElement
    degree: int
    w_degree: GroupElement
    char: dict            # simple index -> scalar, the action character
    eps_rho: object
    eps_antipode: object
    eps_sbar: object

    def to_json(self):
        return {
            "element": element_to_json(self.element),
            "degree": self.degree,
            "w_degree": self.w_degree.to_json(),
            "character_on_simple_reflections": {str(i): str(v) for i, v in self.char.items()},
            "eps_rho": str(self.eps_rho),
            "eps_antipode": str(self.eps_antipode),
            "eps_sbar": str(self.eps_sbar),
        }


def is_integral(z: NicholsElement, state: AlgebraState) -> bool:
    """Whether all products x_a z and z x_a vanish (both sides checked)."""
    if z.is_zero():
        return True
    if state.finite_top is None:
        raise IntegralError("integral detection needs the fully constructed algebra")
    left = all(multiply(NicholsElement.generator(state, a), z).is_zero()
               for a in range(state.system.nroots))
    right = all(multiply(z, NicholsElement.generator(state, a)).is_zero()
                for a in range(state.system.nroots))
    if left != right:
        raise IntegralError("one-sided integral found; graded theory violated")
    return left


def top_integral(state: AlgebraState) -> IntegralCertificate:
    """Certificate for the generator of the one-dimensional top component."""
    if state.finite_top is None:
        from .nichols_core import DegreeCapExceeded

        raise DegreeCapExceeded("algebra is truncated; top component unknown")
    top = state.finite_top
    dim = state.dim(top)
    if dim != 1:
        raise IntegralError(f"top component has dimension {dim}, expected 1")
    field_ = state.field
    x = NicholsElement(state, {top: {0: field_.one}})
    if not is_integral(x, state):
        raise IntegralError("top generator fails the integral criterion")
    basis = state.basis(top)
    w = basis.wdegs[0]
    char = {}
    for i in range(state.system.rank):
        m = state.act_matrix(top, state.system.simple_reflection(i))
        char[i] = m[0].get(0, field_.zero)
    eps_rho = state.rho_matrix(top)[0].get(0, field_.zero)
    eps_s = state.antipode_matrix(top)[0].get(0, field_.zero)
    eps_sbar = state.sbar_matrix(top)[0].get(0, field_.zero)
    cert = IntegralCertificate(x, top, w, char, eps_rho, eps_s, eps_sbar)
    _validate_certificate(cert, state)
    return cert


def _validate_certificate(cert: IntegralCertificate, state: AlgebraState):
    field_ = state.field
    one, minus = field_.one, field_.neg(field_.one)
    for i, lam in cert.char.items():
        if lam not in (one, minus):
            raise IntegralError("character value is not a sign")
    if cert.eps_antipode != (minus if cert.degree % 2 else one):
        raise IntegralError("antipode sign does not match the degree parity")
    if cert.eps_rho != cert.eps_sbar:
        raise IntegralError("reversal and twisted-antipode signs differ")
    if cert.w_degree.length() % 2 != cert.degree % 2:
        raise IntegralError("group-degree length parity mismatch")


def integral_character(cert: IntegralCertificate, state: AlgebraState):
    """The full action character, verified multiplicative with central
    group degree; returns {simple index: sign}."""
    sys = state.system
    x = cert.element
    # g x = lambda_g x for simple generators, verified directly
    for i, lam in cert.char.items():
        if group_act(sys.simple_reflection(i), x) != x.scale(lam):
            raise IntegralError("character fails on a simple reflection")
    # the group degree must be central
    w = cert.w_degree
    for i in range(sys.rank):
        s = sys.simple_reflection(i)
        if s * w != w * s:
            raise IntegralError("group degree of the integral is not central")
    # multiplicativity on a few products
    field_ = state.field
    for i in range(sys.rank):
        for j in range(sys.rank):
            g = sys.simple_reflection(i) * sys.simple_reflection(j)
            lam = field_.mul(cert.char[i], cert.char[j])
            if group_act(g, x) != x.scale(lam):
                raise IntegralError("character is not multiplicative")
    return dict(cert.char)


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
    lwo_sign = field_.neg(field_.one) if wo.length() % 2 else field_.one
    params = {"degree": cert.degree}
    notes = []

    def sign_of_action(g):
        gx = group_act(g, x)
        s = gx.proportional_to(x)
        if s is None:
            raise IntegralError("integral is not a sign eigenvector")
        return s

    # item 1: x = (x)D_a x_a for every root
    for a in range(sys.nroots):
        xa = NicholsElement.generator(state, a)
        if multiply(right_derivative(x, xa), xa) != x:
            return _fail(name, params, 0, None, item=1, root=a)
    # item 2: x = -eps x_a (x)D_a with s_a x = eps x
    for a in range(sys.nroots):
        xa = NicholsElement.generator(state, a)
        eps = sign_of_action(sys.reflection(a))
        got = multiply(xa, right_derivative(x, xa)).scale(field_.neg(eps))
        if got != x:
            return _fail(name, params, 0, None, item=2, root=a)
    # item 3: x = (x)D_y y for every w
    for w in sys.elements():
        y = y_element(w, state)
        if multiply(right_derivative(x, y), y) != x:
            return _fail(name, params, 0, None, item=3, w=w)
    # item 4: x = (-1)^{l(wo)} eps y (x)D_y over the centralizer
    eps_wo = sign_of_action(wo)
    for w in centralizer_of_longest(sys):
        y = y_element(w, state)
        got = multiply(y, right_derivative(x, y)).scale(field_.mul(lwo_sign, eps_wo))
        if got != x:
            return _fail(name, params, 0, None, item=4, w=w)
        # nonvanishing of the derivative bracket
        dx = right_derivative(x, y)
        if pairing(dx, dx) == field_.zero:
            return _fail(name, params, 0, None, item="hypo-bracket", w=w)
    # item 5: the order-two system displays
    if order2_system is None:
        notes.append("item 5 skipped: no order-two disjoint system supplied")
    else:
        w1, w2 = order2_system.elements if len(order2_system.elements) == 2 \
            else [e for e in order2_system.elements][:2]
        y1, y2 = y_element(w1, state), y_element(w2, state)
        y12 = multiply(y1, y2)
        got = multiply(y12, right_derivative(x, y12)).scale(lwo_sign)
        if got != x:
            return _fail(name, params, 0, None, item=5, display=1)
        got = multiply(right_derivative(x, y12), multiply(y2, y1))
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
    if state.finite_top is None:
        raise IntegralError("lifting needs the fully constructed algebra")
    n0 = z.degrees()[0]
    cur = z.homogeneous_part(n0)
    sys = state.system

    def left_blocked(el):
        return all(multiply(NicholsElement.generator(state, a), el).is_zero()
                   for a in range(sys.nroots))

    def right_blocked(el):
        return all(multiply(el, NicholsElement.generator(state, a)).is_zero()
                   for a in range(sys.nroots))

    m_letters = []
    while not left_blocked(cur):
        for a in range(sys.nroots):
            nxt = multiply(NicholsElement.generator(state, a), cur)
            if not nxt.is_zero():
                m_letters.append(a)
                cur = nxt
                break
    m_word = tuple(reversed(m_letters))
    cur = z.homogeneous_part(n0)
    mp_letters = []
    while not right_blocked(cur):
        for a in range(sys.nroots):
            nxt = multiply(cur, NicholsElement.generator(state, a))
            if not nxt.is_zero():
                mp_letters.append(a)
                cur = nxt
                break
    mp_word = tuple(mp_letters)
    # verify on the original element
    m_el = NicholsElement.from_word(state, m_word)
    mp_el = NicholsElement.from_word(state, mp_word)
    mz = multiply(m_el, z)
    zmp = multiply(z, mp_el)
    if mz.is_zero() or not is_integral(mz, state):
        raise IntegralError("left lift failed")
    if zmp.is_zero() or not is_integral(zmp, state):
        raise IntegralError("right lift failed")
    return m_word, mp_word


# ---------------------------------------------------------------------------
# the subalgebra generated by the non-simple roots
# ---------------------------------------------------------------------------


@dataclass
class SubalgebraState:
    theta: tuple
    bases: list            # per degree: list of coordinate dicts in B_W
    top_degree: int
    dims: list = field(default_factory=list)

    def to_json(self):
        return {"theta": list(self.theta), "dims": self.dims,
                "top_degree": self.top_degree}


def subalgebra_build(theta, state: AlgebraState) -> SubalgebraState:
    """Per-degree coordinate bases of the subalgebra generated by the
    given roots, with its top degree."""
    theta = tuple(sorted(theta))
    bases = []
    n = 0
    while True:
        span = theta_span(state, theta, n)
        if not span:
            top = n - 1
            break
        bases.append(span)
        n += 1
        if state.finite_top is None and n > state.degree_cap:
            raise IntegralError("degree cap reached before the subalgebra closed")
        if state.finite_top is not None and n > state.finite_top + 1:
            top = n - 1
            break
    return SubalgebraState(theta, bases, top, [len(b) for b in bases])


def nonsimple_roots(state: AlgebraState):
    sys = state.system
    return tuple(a for a in range(sys.nroots) if sys.heights[a] > 1)


def hypothetical_space(state: AlgebraState, degree: int):
    """Kernel at one degree of all simple right derivatives and of left
    and right multiplication by every non-simple generator."""
    sys = state.system
    field_ = state.field
    dim = state.dim(degree)
    if dim == 0:
        return []
    blocks = []
    if degree >= 1:
        for i in range(sys.rank):
            blocks.append((state.dright(degree, sys.simple_index[i]), state.dim(degree - 1)))
    for a in nonsimple_roots(state):
        blocks += _restrict_mul(state, degree, a, "left")
        blocks += _restrict_mul(state, degree, a, "right")
    return kernel_basis(*mat_stack(blocks, dim), field_)


def _restrict_mul(state, degree, a, side):
    """Multiplication by x_a out of the given degree, as a list of at
    most one block (matrix, nrows); empty past the top degree."""
    if state.finite_top is not None and degree + 1 > state.finite_top:
        return []
    mat = state.lmul(degree + 1, a) if side == "left" else state.rmul(degree + 1, a)
    return [(mat, state.dim(degree + 1))]


def hypothetical_checks(sub: SubalgebraState, state: AlgebraState) -> IdentityReport:
    """The full battery for the top component of the non-simple subalgebra:
    one-dimensionality, both-sided annihilation, derivative vanishing,
    lifting to an integral by the top word, the derivative recovery of the
    generator, nondegeneracy of its self-pairing, uniqueness of the
    one-dimensional graded ideals, and the dimension count of the space of
    elements with all those vanishing properties."""
    name = "hypothetical"
    sys = state.system
    field_ = state.field
    params = {"theta": list(sub.theta)}
    if not sys.cartan.type_label.startswith("A"):
        return IdentityReport(name, params, 0, "skipped", None, None,
                              ["lifting theory is type A only"])
    if state.finite_top is None:
        return IdentityReport(name, params, 0, "skipped", None, None,
                              ["algebra truncated"])
    notes = []
    top = sub.top_degree
    if len(sub.bases[top]) != 1:
        return _fail(name, params, 0, None,
                     note=f"top of the subalgebra has dimension {len(sub.bases[top])}")
    vec = sub.bases[top][0]
    p = NicholsElement(state, {top: vec}).scale(field_.inv(vec[min(vec)]))
    wo = sys.longest_element()

    # derivative vanishing for all simple roots
    for i in range(sys.rank):
        if not right_derivative(p, NicholsElement.generator(state, sys.simple_index[i])).is_zero():
            return _fail(name, params, 0, None, note="simple right derivative", simple=i)
    # two-sided annihilation by the non-simple generators
    for a in nonsimple_roots(state):
        if not multiply(NicholsElement.generator(state, a), p).is_zero():
            return _fail(name, params, 0, None, note="left annihilation", root=a)
        if not multiply(p, NicholsElement.generator(state, a)).is_zero():
            return _fail(name, params, 0, None, note="right annihilation", root=a)
    # reversal swaps the sides and fixes P up to sign
    if rho(p).proportional_to(p) is None:
        return _fail(name, params, 0, None, note="reversal does not preserve the line")
    if not involves_only(p, sub.theta):
        return _fail(name, params, 0, None, note="generator leaves the subalgebra span")
    # the lifts through the top word
    xwo = embed_element(state, wo)
    x = multiply(p, xwo)
    if x.is_zero() or multiply(xwo, p).is_zero():
        return _fail(name, params, 0, None, note="top-word products vanish")
    if not is_integral(x, state):
        return _fail(name, params, 0, None, note="P x_{w_o} is not an integral")
    # recovery: P = (x) D_{w_o}
    if right_derivative(x, xwo) != p:
        return _fail(name, params, 0, None, note="derivative recovery of P failed")
    if pairing(p, p) == field_.zero:
        return _fail(name, params, 0, None, note="self-pairing of P vanishes")
    # the space of elements with all vanishing properties is exactly k P
    total = 0
    for n in range(0, state.finite_top + 1):
        ker = hypothetical_space(state, n)
        total += len(ker)
        if ker and n != top:
            return _fail(name, params, 0, None, degree=n,
                         note="unexpected degree carries vanishing elements")
    if total != 1:
        return _fail(name, params, 0, None, note=f"vanishing space has dimension {total}")
    # every one-dimensional one-sided graded ideal of the subalgebra is the top
    for n in range(0, top):
        basis_n = sub.bases[n]
        for side in ("left", "right"):
            blocks = [(state.lmul(n + 1, a) if side == "left" else state.rmul(n + 1, a),
                       state.dim(n + 1)) for a in sub.theta]
            stacked, nrows = mat_stack(blocks, state.dim(n))
            solver = ColumnSolver(nrows, field_)
            for b in basis_n:
                solver.add(mat_col(stacked, b, field_))
            if solver.rank < len(basis_n):
                return _fail(name, params, 0, None, degree=n, side=side,
                             note="a lower degree carries a one-dimensional ideal")
    notes.append(f"subalgebra dims {sub.dims}, top degree {top}")
    return IdentityReport(name, params, 0, "pass", None, None, notes)
