import copy
import json
import math
import pickle
import random
import re
import time
import tracemalloc

import pytest

from nwalgebra import cli
from nwalgebra.coxeter import (
    ENUMERATION_BOUND,
    CartanData,
    CoxeterError,
    EnumerationBoundExceeded,
    GroupElement,
    RootSystem,
    cartan_data,
    centralizer_of_longest,
    element_from_json,
    positive_root_count,
)
from oracles import centralizer_by_filter, exponent_by_enumeration


@pytest.fixture(scope="module")
def a2():
    return RootSystem(cartan_data("A", 2))


@pytest.fixture(scope="module")
def a3():
    return RootSystem(cartan_data("A", 3))


def test_positive_root_counts():
    assert RootSystem(cartan_data("A", 1)).nroots == 1
    assert RootSystem(cartan_data("A", 2)).nroots == 3
    assert RootSystem(cartan_data("A", 5)).nroots == 15
    assert RootSystem(cartan_data("D", 4)).nroots == 12
    assert RootSystem(cartan_data("E", 6)).nroots == 36
    # the closed form the rank bound is checked against
    for t, ranks in (("A", range(1, 9)), ("D", range(3, 8)), ("E", (6, 7, 8))):
        for n in ranks:
            c = cartan_data(t, n)
            assert positive_root_count(c) == RootSystem(c).nroots
    # the largest ranks whose nroots x nroots reflection table, O(rank)
    # per entry, fits the bound
    for t, n in (("A", 26), ("D", 20)):
        assert positive_root_count(cartan_data(t, n)) ** 2 * n <= ENUMERATION_BOUND
    for t, n in (("A", 27), ("D", 21)):
        with pytest.raises(EnumerationBoundExceeded):
            RootSystem(cartan_data(t, n))


def test_invalid_diagrams_rejected():
    with pytest.raises(CoxeterError):
        cartan_data("B", 2)
    with pytest.raises(CoxeterError):
        cartan_data("E", 9)
    # a value that names no type: a letter other than A, D or E, a rank
    # out of the letter's range, a label that disagrees with the rank
    for cartan, message in ((CartanData(3, "X3"), "not a simply-laced type: 'X3'"),
                            (CartanData(2, "D2"), "type D needs rank >= 3"),
                            (CartanData(4, "A3"), "'A3' names no type of rank 4"),
                            (CartanData(9, "E9"), "type E needs rank in {6, 7, 8}")):
        with pytest.raises(CoxeterError, match=re.escape(message)):
            RootSystem(cartan)


def test_cartan_data_is_an_immutable_value():
    d4 = cartan_data("D", 4)
    same = CartanData(rank=4, type_label="D4")
    assert same == d4 == CartanData(4, "D4")
    assert hash(same) == hash(d4) and len({same, d4}) == 1
    assert d4 != cartan_data("A", 4)
    assert (d4.rank, d4.type_label) == (4, "D4")
    assert repr(d4) == "CartanData(rank=4, type_label='D4')"
    assert pickle.loads(pickle.dumps(d4)) == copy.deepcopy(d4) == d4
    with pytest.raises(AttributeError):
        d4.rank = 5
    with pytest.raises(AttributeError):
        del d4.type_label
    with pytest.raises(CoxeterError, match="type A needs rank >= 1"):
        cartan_data("A", 0)


def test_a_bound_refusal_allocates_nothing_of_size_rank_squared():
    # the reflection-table bound reads the closed-form |R+| of the type;
    # a rank x rank Cartan form of A1000 would hold a million entries
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBoundExceeded, match="^A1000 has 500500 positive roots"):
            RootSystem(cartan_data("A", 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_resource_bound_is_no_usage_error():
    # a caller that catches CoxeterError for bad input lets the bound pass
    with pytest.raises(EnumerationBoundExceeded):
        try:
            RootSystem(cartan_data("A", 27))
        except CoxeterError:
            pytest.fail("the enumeration bound was caught as a usage error")


def test_canonical_root_order(a2):
    # by height then lexicographic on coefficients
    assert a2.roots == ((0, 1), (1, 0), (1, 1))
    heights = [a2.heights[i] for i in range(a2.nroots)]
    assert heights == sorted(heights)


def test_root_form_normalization(a3):
    for i in range(a3.nroots):
        assert a3.ip(a3.roots[i], a3.roots[i]) == 2
        assert a3.heights[i] >= 1
        for j in range(a3.nroots):
            if i != j:
                assert a3.ip(a3.roots[i], a3.roots[j]) in (-1, 0, 1)


def test_reflection_examples(a2):
    a1_idx = a2.simple_index[0]
    a2_idx = a2.simple_index[1]
    theta = a2.index[(1, 1)]
    # s_{a1}(a2) = a1 + a2
    assert a2.refl[a1_idx][a2_idx] == theta + 1
    # s_a(a) = -a
    for t in range(a2.nroots):
        assert a2.refl[t][t] == -(t + 1)
    # s_theta(a1) = -a2
    assert a2.refl[theta][a1_idx] == -(a2_idx + 1)


def test_reflection_is_involution(a3):
    for t in range(a3.nroots):
        for i in range(a3.nroots):
            s = a3.refl[t][i]
            assert a3.reflection(t).act(s) == i + 1


def test_reflect_root_validates(a2):
    # roots are reflected on coefficient vectors and read back as signed
    # indices, and the reflection table holds the same values; a vector
    # that is not a root has no index
    theta, a1, a2r = a2.index[(1, 1)], a2.index[(1, 0)], a2.index[(0, 1)]
    assert a2.reflect_coeffs((1, 0), (1, 1)) == (0, -1)
    assert a2._signed_index((0, -1)) == -(a2r + 1) == a2.refl[theta][a1]
    # negative roots are accepted on both sides
    assert a2.reflect_coeffs((-1, 0), (-1, -1)) == (0, 1)
    for coeffs in ((2, 1), (5, 0)):
        with pytest.raises(CoxeterError):
            a2._signed_index(coeffs)


def test_group_laws_and_lengths(a2):
    wo = a2.longest_element()
    assert wo.length() == a2.nroots == 3
    assert (wo * wo).is_identity()
    for w in a2.elements():
        assert w.length() == w.inverse().length()
        assert (w * w.inverse()).is_identity()


def test_longest_element_one_line():
    a3 = RootSystem(cartan_data("A", 3))
    assert a3.longest_element().perm() == (4, 3, 2, 1)
    # w_o conjugation preserves the simple reflections
    wo = a3.longest_element()
    simple = {a3.simple_index[i] for i in range(a3.rank)}
    assert {abs(wo.act(s + 1)) - 1 for s in simple} == simple


def test_descent_criterion(a3):
    # l(w s_a) < l(w) iff w(a) < 0, over all elements and positive roots
    for w in a3.elements():
        for t in range(a3.nroots):
            drop = (w * a3.reflection(t)).length() < w.length()
            assert drop == (w.images[t] < 0)


def test_reduced_word_roundtrip(a3):
    rng = random.Random(11)
    elements = a3.elements()
    for _ in range(1000):
        w = elements[rng.randrange(len(elements))]
        word = w.reduced_word()
        assert len(word) == w.length()
        assert a3.from_word(word) == w


def test_bruhat_order(a2):
    els = a2.elements()
    e = a2.identity()
    wo = a2.longest_element()
    for w in els:
        assert e.bruhat_leq(w)
        assert w.bruhat_leq(wo)
        assert w.bruhat_leq(w)
    # antisymmetry and transitivity on the small group
    for u in els:
        for v in els:
            if u.bruhat_leq(v) and v.bruhat_leq(u):
                assert u == v
            for w in els:
                if u.bruhat_leq(v) and v.bruhat_leq(w):
                    assert u.bruhat_leq(w)


def test_centralizer_mirror_criterion():
    a5 = RootSystem(cartan_data("A", 5))
    w1 = a5.from_permutation((2, 4, 1, 6, 3, 5))
    wo = a5.longest_element()
    assert w1 * wo == wo * w1
    cent = centralizer_of_longest(a5)
    assert w1 in cent
    assert a5.from_permutation((3, 1, 5, 2, 6, 4)) in cent
    # mirror criterion characterizes membership
    for w in cent:
        p = w.perm()
        assert all(p[i] + p[5 - i] == 7 for i in range(6))


@pytest.mark.parametrize("type_,rank", [*(("A", n) for n in range(1, 8)), ("D", 4), ("D", 5)])
def test_centralizer_matches_the_filter_over_w(type_, rank):
    sys = RootSystem(cartan_data(type_, rank))
    cent = centralizer_of_longest(sys)
    if (type_, rank) in (("A", 1), ("D", 4)):
        # sigma is trivial: the centralizer is W, closed once and cached
        assert cent is sys.elements()
    else:
        # the closure of the sigma-orbit generators never fills the cache of W
        assert sys._elements is None
    assert cent == centralizer_by_filter(sys)


CENTRALIZED = [*(("A", n) for n in range(1, 9)), *(("D", n) for n in range(4, 8)), ("E", 6)]


@pytest.mark.parametrize("type_,rank", CENTRALIZED, ids=[f"{t}{n}" for t, n in CENTRALIZED])
def test_centralizer_order_is_the_product_of_the_even_degrees(type_, rank):
    # w_o is regular of order 2, so |C_W(w_o)| is the product of the
    # degrees that 2 divides (Springer 1974, Thm 4.2)
    sys = RootSystem(cartan_data(type_, rank))
    assert len(centralizer_of_longest(sys)) == math.prod(d for d in sys.degrees if d % 2 == 0)


def test_centralizer_e6_without_enumerating_w():
    e6 = RootSystem(cartan_data("E", 6))
    wo = e6.longest_element()
    cent = centralizer_of_longest(e6)
    assert len(cent) == 1152
    assert all(w * wo == wo * w for w in cent)
    assert e6._elements is None


def test_group_elements_are_interned(a3):
    # one object per images tuple in a system: == and hash are identity
    w = a3.from_word([0, 1, 0])
    assert a3.from_word([1, 0, 1]) is w is GroupElement(a3, list(w.images))
    assert (w * w).is_identity() and w * w is a3.identity()
    # < and sorted still compare images
    elements = a3.elements()
    assert list(elements) == sorted(elements, key=lambda u: u.images) == sorted(elements)
    assert (a3.identity() < w) == (a3.identity().images < w.images)
    # the table holds every element made, at most |W|
    assert len(a3._table) == len(elements) == a3.group_order
    # copy and deepcopy return the element itself
    assert copy.copy(w) is w and copy.deepcopy(w) is w and copy.deepcopy([w])[0] is w
    # pickle re-interns in the unpickled system, which is rebuilt from its
    # Cartan datum, so elements pickled together multiply
    u, v, u2 = pickle.loads(pickle.dumps([w, a3.longest_element(), w]))
    assert u is u2 and u.system is v.system is not a3
    assert u.images == w.images and u.system.cartan == a3.cartan
    assert (u * v).images == (w * a3.longest_element()).images
    assert u.system.from_word([0, 1, 0]) is u
    # elements of two systems never compare equal, and never multiply
    assert u != w and len({u, w}) == 2
    with pytest.raises(CoxeterError, match="different root systems"):
        u * w


DEGREES = [("A", 1, (2,)), ("A", 4, (2, 3, 4, 5)), ("D", 4, (2, 4, 4, 6)),
           ("D", 5, (2, 4, 5, 6, 8)), ("E", 6, (2, 5, 6, 8, 9, 12)),
           ("E", 7, (2, 6, 8, 10, 12, 14, 18)), ("E", 8, (2, 8, 12, 14, 18, 20, 24, 30))]


@pytest.mark.parametrize("type_,rank,degrees", DEGREES, ids=[f"{t}{n}" for t, n, _ in DEGREES])
def test_degrees_from_root_heights(type_, rank, degrees):
    sys = RootSystem(cartan_data(type_, rank))
    assert sys.degrees == degrees
    # sum of the exponents d_i - 1 is |R+|
    assert sum(d - 1 for d in degrees) == sys.nroots
    if sys.group_order <= 2000:
        assert len(sys.elements()) == sys.group_order


REFUSED = [
    ("group", "E", 7, "W(E7) has 2903040 elements of 63 images each, 182891520 entries, "
                      "over the memory bound 50000000"),
    ("group", "E", 8, "W(E8) has 696729600 elements, over the enumeration bound 3628800"),
    ("group", "D", 8, "W(D8) has 5160960 elements, over the enumeration bound 3628800"),
    ("group", "D", 9, "C_W(w_o) in W(D9) has 10321920 elements, "
                      "over the enumeration bound 3628800"),
    ("group", "A", 13, "C_W(w_o) in W(A13) has 645120 elements of 91 images each, "
                       "58705920 entries, over the memory bound 50000000"),
    ("group", "A", 15, "C_W(w_o) in W(A15) has 10321920 elements, "
                       "over the enumeration bound 3628800"),
    ("disjoint", "A", 15, "C_W(w_o) in W(A15) has 10321920 elements, "
                          "over the enumeration bound 3628800"),
]


@pytest.mark.parametrize("command,type_,rank,message", REFUSED, ids=[
    f"{t}{n}" if c == "group" else f"{c}-{t}{n}" for c, t, n, _ in REFUSED])
def test_closure_over_w_is_refused_before_it_starts(command, type_, rank, message, monkeypatch,
                                                    capsys):
    # group and disjoint read the centralizer of w_o, whose order is the
    # product of the even degrees: W where sigma is trivial (E7, E8, D8),
    # a proper subgroup elsewhere (D9, A13, A15)
    def refuse(self, gens):
        raise AssertionError("_closure entered")

    monkeypatch.setattr(RootSystem, "_closure", refuse)
    extra = ["--find-complete"] if command == "disjoint" else []
    start = time.perf_counter()
    assert cli.main([command, *extra, "--type", type_, "--rank", str(rank)]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert f"resource bound exceeded: {message}" in err
    with pytest.raises(EnumerationBoundExceeded, match=re.escape(message)):
        centralizer_of_longest(RootSystem(cartan_data(type_, rank)))


@pytest.mark.parametrize("type_,rank,exponent", [("E", 6, 360), ("D", 5, 120)],
                         ids=["E6", "D5"])
def test_group_closes_no_w_where_sigma_is_nontrivial(type_, rank, exponent, monkeypatch,
                                                     capsys):
    def refuse(self):
        raise AssertionError("elements() called")

    monkeypatch.setattr(RootSystem, "elements", refuse)
    assert cli.main(["group", "--type", type_, "--rank", str(rank)]) == 0
    assert json.loads(capsys.readouterr().out)["exponent"] == exponent


def test_group_closes_w_once_where_sigma_is_trivial(monkeypatch, capsys):
    closures = []
    closure = RootSystem._closure

    def counted(self, gens):
        closures.append(len(gens))
        return closure(self, gens)

    monkeypatch.setattr(RootSystem, "_closure", counted)
    assert cli.main(["group", "--type", "D", "--rank", "6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert closures == [6]
    assert data["centralizer_of_longest_size"] == 23040 and data["exponent"] == 120


def test_t_set(a3):
    simple = frozenset(a3.simple_index)
    assert a3.identity().t_set() == simple
    wo = a3.longest_element()
    for w in centralizer_of_longest(a3):
        assert (wo * w).t_set() == w.t_set() == (w * wo).t_set()
        assert len(w.t_set()) == a3.rank


def test_t_set_s6_example():
    a5 = RootSystem(cartan_data("A", 5))
    w1 = a5.from_permutation((2, 4, 1, 6, 3, 5))
    pairs = {a5.pair_of_root[t] for t in w1.t_set()}
    assert pairs == {(2, 4), (1, 4), (1, 6), (3, 6), (3, 5)}


ENUMERATED = [*(("A", n) for n in range(1, 7)), *(("D", n) for n in range(4, 7))]


@pytest.mark.parametrize("type_,rank", ENUMERATED, ids=[f"{t}{n}" for t, n in ENUMERATED])
def test_exponent_matches_the_enumeration(type_, rank):
    sys = RootSystem(cartan_data(type_, rank))
    exponent = sys.exponent()
    # lcm(d_i) makes no element
    assert sys._table == {}
    assert exponent == exponent_by_enumeration(sys)


def test_exponent():
    # lcm(d_i), pinned where the enumeration is slow or refused
    for type_, rank, exponent in [("A", 1, 2), ("A", 3, 12), ("D", 3, 12), ("E", 6, 360),
                                  ("D", 7, 840), ("A", 8, 2520), ("E", 7, 2520),
                                  ("E", 8, 2520)]:
        assert RootSystem(cartan_data(type_, rank)).exponent() == exponent


def test_element_json_roundtrip(a3):
    for w in a3.elements():
        assert element_from_json(a3, w.to_json()) == w


@pytest.mark.parametrize("data", [
    {"word": [-1]}, {"word": [3]}, {"word": [0.0]}, {"word": 5}, {"foo": 1}, 5,
    [2, 1, 3, 4], {"perm": [1, 2, "x", 4]}, {"perm": [1, 2, 3]}, {"perm": 1234},
    {"perm": [1, 2, 3, 4], "word": [0]},
], ids=repr)
def test_element_json_rejects_malformed_input(a3, data):
    # a negative index would silently pick the last simple reflection
    with pytest.raises(CoxeterError):
        element_from_json(a3, data)
