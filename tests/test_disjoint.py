import itertools

import pytest

from nwalgebra.coxeter import RootSystem, cartan_data, centralizer_of_longest
from nwalgebra.disjoint import (
    DisjointSystem,
    DisjointViolation,
    classify,
    motiv_check,
    search_complete,
)


@pytest.fixture(scope="module")
def a5():
    return RootSystem(cartan_data("A", 5))


def test_empty_system(s3):
    d = classify([], s3.system)
    assert isinstance(d, DisjointSystem)
    assert d.order == 0 and not d.normalized and not d.complete


def test_s6_golden_example(a5):
    w1 = a5.from_permutation((2, 4, 1, 6, 3, 5))
    w2 = a5.from_permutation((3, 1, 5, 2, 6, 4))
    d = classify([a5.identity(), w1, w2], a5)
    assert isinstance(d, DisjointSystem)
    assert d.order == 3 and d.normalized and d.complete
    pairs1 = {a5.pair_of_root[t] for t in d.blocks[w1]}
    pairs2 = {a5.pair_of_root[t] for t in d.blocks[w2]}
    assert pairs1 == {(2, 4), (1, 4), (1, 6), (3, 6), (3, 5)}
    assert pairs2 == {(1, 3), (1, 5), (2, 5), (2, 6), (4, 6)}
    simple = {a5.pair_of_root[t] for t in d.blocks[a5.identity()]}
    assert simple == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}
    # extra relations of the example
    assert w1.inverse() == w2 and w2.inverse() == w1
    wo = a5.longest_element()
    assert w1.inverse() * w2 == w2 * w2 == w1 * wo
    assert w2.inverse() * w1 == w1 * w1 == w2 * wo
    # the partition is invariant under conjugation by w1 and w2
    parts = [frozenset(d.blocks[w]) for w in d.elements]
    for g in (w1, w2):
        mapped = [frozenset(abs(g.act(t + 1)) - 1 for t in p) for p in parts]
        assert sorted(map(sorted, mapped)) == sorted(map(sorted, parts))


def test_violations(s3):
    sys = s3.system
    s1 = sys.simple_reflection(0)
    v = classify([sys.identity(), s1], sys)
    assert isinstance(v, DisjointViolation)
    # s1 is not in the centralizer of the longest element of S3
    assert "centralize" in v.reason
    # overlapping blocks: 1 and w_o share every block
    wo = sys.longest_element()
    v = classify([sys.identity(), wo], sys)
    assert isinstance(v, DisjointViolation)
    assert "overlap" in v.reason and len(v.witness) == 3


def test_translation_and_normalization(s4):
    sys = s4.system
    sols = search_complete(sys)
    assert sols
    wo = sys.longest_element()
    for d in sols:
        # the translate v D of a system by a centralizer element, and its
        # normalization v^{-1} D by a member v, are systems
        for v in centralizer_of_longest(sys):
            t = classify([v * w for w in d.elements], sys)
            assert isinstance(t, DisjointSystem) and t.order == d.order
        for v in d.elements:
            n = classify([v.inverse() * w for w in d.elements], sys)
            assert isinstance(n, DisjointSystem) and n.normalized


def test_subsets_remain_systems(a5):
    w1 = a5.from_permutation((2, 4, 1, 6, 3, 5))
    w2 = a5.from_permutation((3, 1, 5, 2, 6, 4))
    for subset in ([w1], [w2], [w1, w2], [a5.identity(), w1]):
        d = classify(subset, a5)
        assert isinstance(d, DisjointSystem)
        assert d.order == len(subset)


def test_search_s3_empty(s3):
    # |T| / |S| = 3/2 is not an integer
    assert search_complete(s3.system) == []


def test_search_s4(s4):
    sys = s4.system
    sols = search_complete(sys)
    assert len(sols) == 1
    d = sols[0]
    assert d.complete and d.normalized and d.order == 2
    wo = sys.longest_element()
    w = next(w for w in d.elements if not w.is_identity())
    target = sys.from_permutation((2, 4, 1, 3))
    assert w in (target, target * wo)


def test_search_s6_contains_golden(a5):
    sols = search_complete(a5)
    assert sols
    wo = a5.longest_element()
    w1 = a5.from_permutation((2, 4, 1, 6, 3, 5))
    w2 = a5.from_permutation((3, 1, 5, 2, 6, 4))
    target = {w1, w2}

    def matches(d):
        rest = [w for w in d.elements if not w.is_identity()]
        return all(any(u in (w, w * wo) for u in rest) for w in target)

    assert any(matches(d) for d in sols)


def test_t_sets_stable_under_longest_multiplication():
    # T_{wo w} = T_{w wo} = T_w over the centralizers of S3 through S6
    for rank in (2, 3, 4, 5):
        sys = RootSystem(cartan_data("A", rank))
        wo = sys.longest_element()
        for w in centralizer_of_longest(sys):
            assert (wo * w).t_set() == w.t_set() == (w * wo).t_set()


def test_t_set_converse_exhaustive():
    # for irreducible groups T_w = T_w' forces w' in {w, w wo}
    for rank in (3, 4):
        sys = RootSystem(cartan_data("A", rank))
        wo = sys.longest_element()
        els = sys.elements()
        by_t = {}
        for w in els:
            by_t.setdefault(w.t_set(), []).append(w)
        for ws in by_t.values():
            for u in ws:
                for v in ws:
                    assert v in (u, u * wo)


def test_search_beyond_type_a():
    # even Coxeter number is necessary; at desk ranks it is also sufficient
    d4 = RootSystem(cartan_data("D", 4))
    sols = search_complete(d4)
    assert len(sols) == 4
    assert all(s.complete and s.normalized and s.order == 3 for s in sols)
    d5 = RootSystem(cartan_data("D", 5))
    assert len(search_complete(d5)) == 56
    # odd Coxeter number: immediately empty
    a4 = RootSystem(cartan_data("A", 4))
    assert search_complete(a4) == []


def test_motiv_a1(a1):
    sys = a1.system
    d = classify([sys.identity()], sys)
    report = motiv_check(d, [sys.identity()], a1)
    assert report["some_ordering_integral"]
    assert report["all_orderings_integral"]
    assert report["sign_commutation"]
    assert report["equivalence_consistent"]


def test_motiv_s4(s4):
    sys = s4.system
    d = search_complete(sys)[0]
    for ordering in itertools.permutations(d.elements):
        report = motiv_check(d, list(ordering), s4)
        assert report["some_ordering_integral"]
        assert report["all_orderings_integral"]
        assert report["sign_commutation"]
        assert report["equivalence_consistent"]
