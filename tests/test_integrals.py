import random

import pytest

from nwalgebra.calculus import bracket_matrix, random_element
from nwalgebra.coxeter import CoxeterError, RootSystem, cartan_data
from nwalgebra.disjoint import motiv_check, search_complete
from nwalgebra.exactlinalg import PrimeField
from nwalgebra.integrals import (
    IntegralError,
    hypothetical_checks,
    hypothetical_space,
    invariance_suite,
    is_integral,
    lift_monomial_to_integral,
    nonsimple_roots,
    subalgebra_build,
    top_integral,
)
from nwalgebra.nichols_core import (
    AlgebraState,
    DegreeCapExceeded,
    NicholsElement,
    group_act,
    multiply,
    neg_col,
    pairing,
    right_derivative,
)
from nwalgebra.nilcoxeter import embed_element
from oracles import basis_elements, theta_span


def test_certificate_a1(a1):
    cert = top_integral(a1)
    assert cert.degree == 1
    assert cert.char == {0: a1.field.minus_one}
    assert cert.eps_antipode == a1.field.minus_one
    assert cert.w_degree == a1.system.reflection(0)


def test_certificate_s3(s3):
    cert = top_integral(s3)
    assert cert.degree == 4
    assert s3.dim(4) == 1
    assert cert.w_degree.is_identity()
    assert cert.eps_antipode == s3.field.one
    assert cert.eps_rho == cert.eps_sbar
    one = s3.field.one
    assert all(v in (one, s3.field.minus_one) for v in cert.char.values())
    # x ~ g x for every group element
    for g in s3.system.elements():
        assert group_act(g, cert.element).proportional_to(cert.element) in (one, -one)


def test_certificate_s4(s4):
    cert = top_integral(s4)
    assert cert.degree == 12
    w = cert.w_degree
    # central group degree, and w x = (-1)^{l(w)} x
    for i in range(s4.system.rank):
        s = s4.system.simple_reflection(i)
        assert s * w == w * s
    sign = s4.field.minus_one if w.length() % 2 else s4.field.one
    assert group_act(w, cert.element) == cert.element.scale(sign)
    assert cert.w_degree.length() % 2 == cert.degree % 2


def test_is_integral_examples(s3):
    assert is_integral(NicholsElement(s3), s3)
    assert not is_integral(NicholsElement.unit(s3), s3)
    sys = s3.system
    theta = sys.index[(1, 1)]
    wo = sys.longest_element()
    z = multiply(NicholsElement.generator(s3, theta), embed_element(s3, wo))
    assert not z.is_zero()
    assert is_integral(z, s3)


def test_top_absorbs_positive_degrees(s3, s4):
    # z x = x z = 0 for every basis element z of positive degree
    for state in (s3, s4):
        x = top_integral(state).element
        for n in range(1, state.finite_top + 1):
            for z in basis_elements(state, n):
                assert multiply(z, x).is_zero()
                assert multiply(x, z).is_zero()


def test_derivatives_of_integral_nonzero(s3):
    # (x) D_y is nonzero for nonzero y
    rng = random.Random(51)
    x = top_integral(s3).element
    count = 0
    while count < 50:
        y = random_element(s3, rng, rng.randint(0, 4))
        if y.is_zero():
            continue
        assert not right_derivative(x, y).is_zero()
        count += 1


def test_integral_self_pairing(s3, s4):
    for state in (s3, s4):
        x = top_integral(state).element
        assert pairing(x, x) != state.field.zero


def test_integral_rigidity(s3):
    # matching one nonzero derivative pins the integral exactly
    x = top_integral(s3).element
    sys = s3.system
    y = NicholsElement.generator(s3, 0)
    dx = right_derivative(x, y)
    for c in (2, -1):
        x2 = x.scale(c)
        assert right_derivative(x2, y) != dx or x2 == x


@pytest.mark.parametrize("prime", [False, True])
def test_top_integral_catches_a_wrong_product_character(prime, monkeypatch):
    # the top is a sign eigenvector of s_0 s_1 with the product of the
    # simple characters; an action matrix with the opposite sign there
    # fails the certificate's multiplicativity check
    from nwalgebra.coxeter import RootSystem, cartan_data
    from nwalgebra.exactlinalg import QQ, PrimeField

    state = AlgebraState(RootSystem(cartan_data("A", 2)),
                         field=PrimeField() if prime else QQ)
    state.construct_all()
    top = top_integral(state).degree
    sys, field = state.system, state.field
    g = sys.simple_reflection(0) * sys.simple_reflection(1)
    act_matrix = state.act_matrix

    def wrong(n, w):
        m = act_matrix(n, w)
        if n == top and w == g:
            return [neg_col(col, field) for col in m]
        return m

    monkeypatch.setattr(state, "act_matrix", wrong)
    with pytest.raises(IntegralError, match="not multiplicative"):
        top_integral(state)


def test_top_integral_reports_a_wrong_product_character_before_the_antipode_sign(
        monkeypatch):
    # with both the product character and the antipode sign wrong on the
    # top, the multiplicativity failure is the one reported
    state = AlgebraState(RootSystem(cartan_data("A", 2)))
    state.construct_all()
    top, sys, field = state.finite_top, state.system, state.field
    g = sys.simple_reflection(0) * sys.simple_reflection(1)
    act_matrix, antipode_matrix = state.act_matrix, state.antipode_matrix

    def wrong_act(n, w):
        m = act_matrix(n, w)
        return [neg_col(col, field) for col in m] if n == top and w == g else m

    def wrong_antipode(n):
        m = antipode_matrix(n)
        return [neg_col(col, field) for col in m] if n == top else m

    monkeypatch.setattr(state, "antipode_matrix", wrong_antipode)
    with pytest.raises(IntegralError, match="antipode sign"):
        top_integral(state)
    monkeypatch.setattr(state, "act_matrix", wrong_act)
    with pytest.raises(IntegralError, match="not multiplicative"):
        top_integral(state)


def test_invariance_item_2_catches_a_wrong_reflection_sign(monkeypatch):
    # item 2 reads eps, the sign of s_a on the top, from its 1x1 action
    # matrix; the opposite sign for one reflection fails that item
    from nwalgebra.coxeter import RootSystem, cartan_data

    state = AlgebraState(RootSystem(cartan_data("A", 2)))
    state.construct_all()
    cert = top_integral(state)
    s1 = state.system.reflection(1)
    act_matrix = state.act_matrix

    def wrong(n, w):
        m = act_matrix(n, w)
        if n == cert.degree and w == s1:
            return [neg_col(col, state.field) for col in m]
        return m

    assert invariance_suite(cert, state).passed
    monkeypatch.setattr(state, "act_matrix", wrong)
    rep = invariance_suite(cert, state)
    assert not rep.passed
    assert rep.counterexample == {"item": 2, "root": 1}


def test_invariance_s3(s3):
    cert = top_integral(s3)
    rep = invariance_suite(cert, s3)
    assert rep.passed
    assert any("item 5 skipped" in n for n in rep.notes)


def test_invariance_s4_with_order2(s4):
    cert = top_integral(s4)
    d = search_complete(s4.system)[0]
    rep = invariance_suite(cert, s4, d)
    assert rep.passed and not rep.notes


def test_invariance_suite_derives_each_result_once(s4, monkeypatch):
    # on A3/Q: (x)D_a for the 6 roots, y and (x)D_y for the 24 elements,
    # and (x)D_{y12} once; items 2, 4 and 5 read them from items 1 and 3
    from nwalgebra import integrals

    calls = {"right_derivative": 0, "y_element": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for fn in (integrals.right_derivative, integrals.y_element):
        monkeypatch.setattr(integrals, fn.__name__, counted(fn))
    d = search_complete(s4.system)[0]
    assert invariance_suite(top_integral(s4), s4, d).passed
    assert calls == {"right_derivative": 31, "y_element": 24}


def test_prep_inv_on_kernel_samples(s3):
    # z x_a = 0 forces (z) D_a x_a = z, also away from the top degree
    from nwalgebra.exactlinalg import kernel_basis

    sys = s3.system
    for n in range(1, s3.finite_top):
        for a in range(sys.nroots):
            for vec in kernel_basis(s3.rmul(n + 1, a), s3.field):
                z = NicholsElement(s3, {n: vec})
                xa = NicholsElement.generator(s3, a)
                assert multiply(z, xa).is_zero()
                assert multiply(right_derivative(z, xa), xa) == z


def test_lift_monomial(s3):
    x = top_integral(s3).element
    mw, mpw = lift_monomial_to_integral(x, s3)
    assert mw == () and mpw == ()
    one = NicholsElement.unit(s3)
    mw, mpw = lift_monomial_to_integral(one, s3)
    assert len(mw) == s3.finite_top and len(mpw) == s3.finite_top
    z = NicholsElement.generator(s3, s3.system.simple_index[0])
    mw, mpw = lift_monomial_to_integral(z, s3)
    assert len(mw) == 3 and len(mpw) == 3
    with pytest.raises(IntegralError):
        lift_monomial_to_integral(NicholsElement(s3), s3)


def test_lift_uses_lowest_component(s3):
    # mixed-degree input lifts through its lowest homogeneous part
    z = NicholsElement.unit(s3) + NicholsElement.generator(s3, 0)
    mw, mpw = lift_monomial_to_integral(z, s3)
    mz = multiply(NicholsElement.from_word(s3, mw), z)
    assert is_integral(mz, s3) and not mz.is_zero()


def test_lift_words_pinned_a3(s4):
    # the greedy search picks the first generator that keeps the product
    # nonzero, letter by letter on each side
    one = NicholsElement.unit(s4)
    assert lift_monomial_to_integral(one, s4) == (
        (5, 0, 4, 1, 2, 3, 0, 1, 2, 0, 1, 0), (0, 1, 0, 2, 1, 0, 3, 2, 1, 4, 0, 5))
    assert lift_monomial_to_integral(NicholsElement.generator(s4, 0), s4) == (
        (5, 0, 4, 1, 2, 3, 0, 1, 2, 0, 1), (1, 0, 2, 1, 0, 3, 2, 1, 4, 0, 5))
    rng = random.Random(3)
    expected = {
        2: ((4, 1, 2, 3, 0, 1, 2, 0, 1, 0), (0, 1, 0, 2, 1, 0, 3, 2, 1, 4)),
        5: ((3, 0, 1, 2, 0, 1, 0), (0, 1, 0, 2, 1, 0, 3)),
        8: ((2, 0, 1, 0), (0, 1, 0, 2)),
    }
    for degree, words in expected.items():
        assert lift_monomial_to_integral(random_element(s4, rng, degree), s4) == words


def _dims(bases):
    return [len(b) for b in bases]


def test_subalgebra_examples(a1, s3, s4):
    assert _dims(subalgebra_build((), a1)) == [1]
    theta = s3.system.index[(1, 1)]
    assert _dims(subalgebra_build((theta,), s3)) == [1, 1]
    assert _dims(subalgebra_build(nonsimple_roots(s4), s4)) == [1, 3, 5, 6, 5, 3, 1]


@pytest.fixture(scope="module")
def s3_prime(s3):
    state = AlgebraState(s3.system, field=PrimeField())
    state.construct_all()
    return state


def _alpha_12(state):
    return (state.system.index[(1, 1)],)


@pytest.mark.parametrize("fixture,letters", [
    ("a1", nonsimple_roots), ("s3", _alpha_12), ("s3", nonsimple_roots),
    ("s3_prime", nonsimple_roots), ("s4", nonsimple_roots), ("s4_prime", nonsimple_roots),
], ids=["A1-empty", "A2-alpha12", "A2", "A2-prime", "A3", "A3-prime"])
def test_subalgebra_bases_are_the_spans_of_the_words_over_theta(fixture, letters, request):
    # column for column at every degree, and nothing past the top: the
    # order in which the words are offered fixes P and the printed bytes
    state = request.getfixturevalue(fixture)
    theta = letters(state)
    bases = subalgebra_build(theta, state)
    assert bases == [theta_span(state, theta, n) for n in range(len(bases))]
    assert theta_span(state, theta, len(bases)) == []


def test_hypothetical_checks(a1, s3, s4):
    for state in (a1, s3, s4):
        theta = nonsimple_roots(state)
        rep = hypothetical_checks(theta, subalgebra_build(theta, state), state)
        assert rep.passed, rep.counterexample


@pytest.mark.parametrize("fixture", ["s3", "s4"])
def test_hypothetical_checks_catch_every_perturbation_of_p(fixture, request):
    # P plus any basis vector of its degree in B_W fails the battery
    # unless the sum is a multiple of P, which the battery rescales back
    state = request.getfixturevalue(fixture)
    field = state.field
    theta = nonsimple_roots(state)
    bases = subalgebra_build(theta, state)
    top = len(bases) - 1
    p = bases[top][0]
    line = NicholsElement(state, {top: p})
    failed = 0
    for k in range(state.dim(top)):
        q = dict(p)
        q[k] = field.normalize(q.get(k, field.zero) + field.one)
        q = {i: x for i, x in q.items() if x}
        if not q:  # P = -e_k: the sum is zero, not a spanning vector
            continue
        rep = hypothetical_checks(theta, bases[:top] + [[q]], state)
        if NicholsElement(state, {top: q}).proportional_to(line) is None:
            assert rep.status == "fail", k
            failed += 1
        else:
            assert rep.passed
    assert failed >= state.dim(top) - 2


def test_hypothetical_space_dimensions(s3):
    total = {n: len(hypothetical_space(s3, n)) for n in range(s3.finite_top + 1)}
    assert sum(total.values()) == 1
    assert total[1] == 1  # the top of the subalgebra sits in degree 1 for S3


def test_hypothetical_s3_explicit(s3):
    # P = x_theta and x = P x_{w_o}, recovered by the top-word derivative
    sys = s3.system
    theta = sys.index[(1, 1)]
    p = NicholsElement.generator(s3, theta)
    wo = sys.longest_element()
    xwo = embed_element(s3, wo)
    x = multiply(p, xwo)
    assert is_integral(x, s3) and not x.is_zero()
    assert right_derivative(x, xwo) == p
    assert pairing(p, p) != 0


def test_abstract_commutativity_instance(s4):
    # when x1 y x2 x3 is a nonzero integral and the kernel hypotheses hold,
    # the factors commute with the group twist on the nose; realized with
    # the order-two system, x1 = x3 = 1 and x2 the other top word
    from nwalgebra.nichols_core import group_act
    from nwalgebra.nilcoxeter import y_element

    sys = s4.system
    wo = sys.longest_element()
    d = search_complete(sys)[0]
    w1, w2 = d.elements
    y1, y2 = y_element(w1, s4), y_element(w2, s4)
    prod = multiply(y1, y2)
    assert is_integral(prod, s4) and not prod.is_zero()
    for a in sorted(w1.t_set()):
        assert right_derivative(y2, NicholsElement.generator(s4, a)).is_zero()
    h = w1 * wo * w1.inverse()
    assert prod == multiply(group_act(h, y2), y1)


def test_truncated_state_raises():
    # at cap 7 the build reaches x_{w_o} (degree 6) but not the top
    # (degree 12); the refusal names the cap the build stopped at
    for cap in (4, 7):
        st = AlgebraState(RootSystem(cartan_data("A", 3)), degree_cap=cap)
        st.construct_all()
        with pytest.raises(DegreeCapExceeded, match=f"truncated at the degree cap {cap};"):
            top_integral(st)


def test_a_state_built_below_its_cap_is_refused_by_the_degree_it_reached():
    # a state never built to its cap is not truncated at it: the refusal
    # names the last degree built
    state = AlgebraState(RootSystem(cartan_data("A", 3)))
    for built in (1, 3):
        state.ensure_degree(built)
        assert not state.truncated
        with pytest.raises(DegreeCapExceeded, match=(
                f"^top_integral: the algebra is built only to degree {built}, below its "
                f"degree cap 13; top component unknown$")):
            top_integral(state)


def _a3_at_cap(cap):
    state = AlgebraState(RootSystem(cartan_data("A", 3)), degree_cap=cap)
    state.construct_all()
    return state


@pytest.fixture(scope="module")
def a3_cap7():
    # the build passes x_{w_o} (degree 6) and stops at the cap 7, below the
    # top (degree 12)
    return _a3_at_cap(7)


def _system_of(state):
    d = search_complete(state.system)[0]
    return d, list(d.elements)


_WHOLE_ALGEBRA = {
    "is_integral": lambda st: is_integral(NicholsElement.unit(st), st),
    "top_integral": top_integral,
    "lift_monomial_to_integral": lambda st: lift_monomial_to_integral(NicholsElement.unit(st), st),
    "hypothetical_checks":
        lambda st: hypothetical_checks(nonsimple_roots(st),
                                       subalgebra_build(nonsimple_roots(st), st), st),
    "motiv_check": lambda st: motiv_check(*_system_of(st), st),
    "bracket_matrix": lambda st: bracket_matrix(_system_of(st)[1], st),
}


@pytest.mark.parametrize("name", _WHOLE_ALGEBRA)
def test_every_statement_on_the_whole_algebra_refuses_a_truncated_build(name, a3_cap7):
    # one refusal, naming the statement and the cap, wherever a statement
    # reads the whole algebra and the build stopped before its top
    with pytest.raises(DegreeCapExceeded, match=f"^{name}: .*degree cap 7;"):
        _WHOLE_ALGEBRA[name](a3_cap7)


def test_the_subalgebra_closes_inside_a_truncated_build(a3_cap7):
    # subalgebra_build keeps its own rule: it refuses only a degree past the cap
    assert _dims(subalgebra_build(nonsimple_roots(a3_cap7), a3_cap7)) == [1, 3, 5, 6, 5, 3, 1]


def test_the_subalgebra_past_the_cap_is_refused():
    state = _a3_at_cap(5)
    with pytest.raises(DegreeCapExceeded,
                       match="the subalgebra needs degree 6, above the degree cap 5"):
        subalgebra_build(nonsimple_roots(state), state)


def test_hypothetical_checks_outside_type_a_is_a_usage_error():
    state = AlgebraState(RootSystem(cartan_data("D", 4)), degree_cap=2)
    with pytest.raises(CoxeterError, match="^hypothetical_checks: lifting theory is type A only, "
                                           "not D4$"):
        hypothetical_checks((), [[{0: state.field.one}]], state)
