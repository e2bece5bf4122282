import random

from nwalgebra.nichols_core import (
    NicholsElement,
    ends_with,
    involves_only,
    multiply,
    pairing,
    starts_with,
    starts_with_set,
    w_degree,
)
from nwalgebra.coxeter import centralizer_of_longest
from nwalgebra.nilcoxeter import (
    NilCoxeterElement,
    embed,
    embed_element,
    liu_reconstruction_holds,
    nc_product,
    skew_element,
    y_element,
)


def test_nilcoxeter_relations(s3):
    sys = s3.system
    for i in range(sys.rank):
        b = NilCoxeterElement.basis(sys, sys.simple_reflection(i))
        assert nc_product(b, b).terms == {}
    e = NilCoxeterElement.basis(sys, sys.identity())
    wo = sys.longest_element()
    xwo = NilCoxeterElement.basis(sys, wo)
    assert nc_product(e, xwo) == xwo
    s1 = NilCoxeterElement.basis(sys, sys.simple_reflection(0))
    s2s1 = NilCoxeterElement.basis(sys, sys.simple_reflection(1) * sys.simple_reflection(0))
    assert nc_product(s1, s2s1) == xwo


def test_nc_product_matches_embedding(s3):
    sys = s3.system
    for u in sys.elements():
        for v in sys.elements():
            nc = nc_product(NilCoxeterElement.basis(sys, u), NilCoxeterElement.basis(sys, v))
            got = multiply(embed_element(s3, u), embed_element(s3, v))
            assert got == embed(nc, s3)


def test_embed_examples(s3):
    sys = s3.system
    assert embed_element(s3, sys.identity()) == NicholsElement.unit(s3)
    # the two reduced words of the top element give the same class
    w1 = sys.from_word((0, 1, 0))
    w2 = sys.from_word((1, 0, 1))
    assert w1 == w2 == sys.longest_element()
    a, b = sys.simple_index
    za = NicholsElement.from_word(s3, (a, b, a))
    zb = NicholsElement.from_word(s3, (b, a, b))
    assert za == zb == embed_element(s3, sys.longest_element())


def test_orthonormality_s3(s3):
    els = s3.system.elements()
    for u in els:
        for v in els:
            expect = 1 if u == v.inverse() else 0
            assert pairing(embed_element(s3, u), embed_element(s3, v)) == expect


def test_embedding_injective_dimension(s3, s4):
    # the image of the standard basis is linearly independent: |W| elements
    from nwalgebra.exactlinalg import rank

    for state in (s3, s4):
        els = state.system.elements()
        by_len = {}
        for w in els:
            by_len.setdefault(w.length(), []).append(w)
        total = 0
        for n, ws in by_len.items():
            cols = [embed_element(state, w).component(n) for w in ws]
            total += rank(cols, state.dim(n))
        assert total == len(els)


def test_skew_basics(s3):
    sys = s3.system
    els = sys.elements()
    one = NicholsElement.unit(s3)
    for w in els:
        assert skew_element(w, w, s3) == one
        assert skew_element(w, sys.identity(), s3) == embed_element(s3, w)
        for v in els:
            if not v.bruhat_leq(w):
                assert skew_element(w, v, s3).is_zero()


def test_liu_reconstruction(s3, s4):
    for w in s3.system.elements():
        assert liu_reconstruction_holds(s3, w)
    # a couple of longer elements in the bigger group
    sys = s4.system
    for w in [sys.longest_element(), sys.from_permutation((2, 4, 1, 3))]:
        assert liu_reconstruction_holds(s4, w)


def test_skew_antipode_twist_cross_check(s3, s4):
    # x_{w_o/v} agrees with the twisted antipode of x_{v w_o}; the skew
    # extraction is by pairing, so this is an independent route
    from nwalgebra.nichols_core import s_bar

    sys = s3.system
    wo = sys.longest_element()
    for v in sys.elements():
        assert skew_element(wo, v, s3) == s_bar(embed_element(s3, v * wo))
    sys4 = s4.system
    wo4 = sys4.longest_element()
    sample = [sys4.identity(), sys4.simple_reflection(0),
              sys4.from_permutation((2, 4, 1, 3)), wo4]
    for v in sample:
        assert skew_element(wo4, v, s4) == s_bar(embed_element(s4, v * wo4))


def test_nilcoxeter_json(s3):
    sys = s3.system
    el = NilCoxeterElement(sys, {sys.identity(): 2, sys.longest_element(): -1})
    data = el.to_json()
    # canonical element order sorts by the signed root-permutation key
    assert data == {"terms": [
        {"element": {"perm": [3, 2, 1]}, "coeff": "-1"},
        {"element": {"perm": [1, 2, 3]}, "coeff": "2"},
    ]}


def test_skew_starts_with_t_set(s3):
    sys = s3.system
    wo = sys.longest_element()
    for w in sys.elements():
        tw = w.t_set()
        for v in sys.elements():
            if v == wo:
                continue
            z = skew_element(wo, v, s3)
            z = NicholsElement(s3, dict(z.components))
            from nwalgebra.nichols_core import group_act

            m = group_act(w, z)
            if not m.is_zero():
                assert starts_with_set(m, tw)


def test_y_element_properties(s3, s4):
    for state in (s3, s4):
        sys = state.system
        wo = sys.longest_element()
        lwo = wo.length()
        y0 = y_element(sys.identity(), state)
        assert y0 == embed_element(state, wo)
        assert pairing(y0, y0) == 1
        for w in centralizer_of_longest(sys):
            y = y_element(w, state)
            assert not y.is_zero()
            assert y.degrees() == [lwo]
            assert w_degree(y) == wo
            # reversal fixes it, the longest element acts by the parity sign
            from nwalgebra.nichols_core import group_act, rho

            assert rho(y) == y
            assert group_act(wo, y) == y.scale(-1 if lwo % 2 else 1)
            assert pairing(y, y) == 1


def test_y_element_noncentral_w_degree(s4):
    sys = s4.system
    wo = sys.longest_element()
    w = sys.from_permutation((2, 1, 3, 4))
    y = y_element(w, s4)
    assert w_degree(y) == w * wo * w.inverse()


def test_y_2413_s4(s4):
    w = s4.system.from_permutation((2, 4, 1, 3))
    y = y_element(w, s4)
    assert not y.is_zero()
    assert y.degrees() == [6]


def test_y_predicates_and_annihilation(s3, s4):
    rng = random.Random(23)
    for state in (s3, s4):
        sys = state.system
        for w in centralizer_of_longest(sys):
            y = y_element(w, state)
            tw = sorted(w.t_set())
            for g in tw:
                assert starts_with(y, g)
                assert ends_with(y, g)
            assert involves_only(y, tw)
            # z y = 0 for z ending with T_w; y z = 0 for z starting with T_w
            for _ in range(3):
                g = rng.choice(tw)
                word = tuple(rng.choice(tw) for _ in range(rng.randint(0, 2))) + (g,)
                z = NicholsElement.from_word(state, word)
                assert multiply(z, y).is_zero()
                z = NicholsElement.from_word(state, (g,) + word[:-1])
                assert multiply(y, z).is_zero()
