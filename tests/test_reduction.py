import itertools
import random
from fractions import Fraction

import pytest

from nwalgebra.coxeter import CoxeterError, RootSystem, cartan_data
from nwalgebra.nichols_core import NicholsElement
from nwalgebra.reduction import Reducer, reduce_mod_left_ideal, reduce_mod_right_ideal
from oracles import ideal_membership_oracle, quotient_dimensions, word_wdeg


def test_simple_words_are_normal(s3):
    sys = s3.system
    for w in sys.elements():
        word = tuple(sys.simple_index[i] for i in w.reduced_word())
        r = reduce_mod_right_ideal(word, sys)
        assert r.scalar == 1 and r.w == w
        r = reduce_mod_left_ideal(word, sys)
        assert r.scalar == 1 and r.w == w


def test_leading_nonsimple_dies(s3):
    sys = s3.system
    theta = sys.index[(1, 1)]
    r = reduce_mod_right_ideal((theta,), sys)
    assert r.scalar == 0
    assert r.w == sys.reflection(theta)
    r = reduce_mod_left_ideal((theta,), sys)
    assert r.scalar == 0


def test_three_term_rewrite_example(s3):
    sys = s3.system
    a1 = sys.simple_index[0]
    theta = sys.index[(1, 1)]
    r = reduce_mod_right_ideal((a1, theta), sys)
    s2s1 = sys.simple_reflection(1) * sys.simple_reflection(0)
    assert (r.scalar, r.w) == (1, s2s1)
    assert r.trace and r.trace[0][0] in (1, 2, 3)


def test_w_degree_is_preserved(s4):
    rng = random.Random(31)
    sys = s4.system
    for _ in range(100):
        word = tuple(rng.randrange(sys.nroots) for _ in range(rng.randint(1, 6)))
        r = reduce_mod_right_ideal(word, sys)
        assert r.w == word_wdeg(sys, word)


def test_syntactic_matches_oracle_s3(s3):
    sys = s3.system
    for n in range(1, 5):
        for word in itertools.product(range(sys.nroots), repeat=n):
            r = reduce_mod_right_ideal(word, sys)
            member, normal = ideal_membership_oracle(
                NicholsElement.from_word(s3, word), "right", s3)
            assert normal.get(r.w, Fraction(0)) == r.scalar
            assert all(w == r.w for w in normal)
            assert member == (r.scalar == 0 and not normal)
            rl = reduce_mod_left_ideal(word, sys)
            _, normal_l = ideal_membership_oracle(
                NicholsElement.from_word(s3, word), "left", s3)
            assert normal_l.get(rl.w, Fraction(0)) == rl.scalar
            assert rl.w == r.w


def test_syntactic_matches_oracle_s4_random(s4):
    rng = random.Random(42)
    sys = s4.system
    for _ in range(200):
        n = rng.randint(1, 6)
        word = tuple(rng.randrange(sys.nroots) for _ in range(n))
        r = reduce_mod_right_ideal(word, sys)
        member, normal = ideal_membership_oracle(
            NicholsElement.from_word(s4, word), "right", s4)
        assert normal.get(r.w, Fraction(0)) == r.scalar
        assert all(w == r.w for w in normal)


def test_reversal_consistency(s4):
    # left reduction is right reduction of the reversed word with w inverted
    rng = random.Random(43)
    sys = s4.system
    for _ in range(200):
        word = tuple(rng.randrange(sys.nroots) for _ in range(rng.randint(1, 6)))
        rl = reduce_mod_left_ideal(word, sys)
        rr = reduce_mod_right_ideal(tuple(reversed(word)), sys)
        assert rl.scalar == rr.scalar
        assert rl.w == rr.w.inverse()


def test_one_sided_scalars_differ_in_general(s3):
    # a word ending with the non-simple generator dies on the left only
    sys = s3.system
    a2 = sys.simple_index[1]
    theta = sys.index[(1, 1)]
    word = (a2, theta)
    assert reduce_mod_right_ideal(word, sys).scalar == 1
    assert reduce_mod_left_ideal(word, sys).scalar == 0
    member, _ = ideal_membership_oracle(NicholsElement.from_word(s3, word), "left", s3)
    assert member


def test_policy_confluence(s4, monkeypatch):
    # the recursion splits off the least candidate root; the greatest must
    # give the same normal form on every word where the two can differ
    rng = random.Random(44)
    sys = s4.system
    words = [tuple(rng.randrange(sys.nroots) for _ in range(rng.randint(1, 8)))
             for _ in range(300)]
    choices = []

    def least(self, options):
        choices.append(len(options) > 1)
        return min(options)

    monkeypatch.setattr(Reducer, "_pick", least)
    by_min = {}
    for word in words:
        choices.clear()
        result = reduce_mod_right_ideal(word, sys)
        if any(choices):
            by_min[word] = result
    assert by_min
    monkeypatch.setattr(Reducer, "_pick", lambda self, options: max(options))
    by_max = {word: reduce_mod_right_ideal(word, sys) for word in by_min}
    for word, a in by_min.items():
        b = by_max[word]
        assert (a.scalar, a.w) == (b.scalar, b.w), word
    assert any(a.trace != by_max[word].trace for word, a in by_min.items())


def test_quotient_dimensions_poincare(s3, s4):
    # per-degree dimensions of the quotient match the length generating function
    for state, poly in ((s3, [1, 2, 2, 1]), (s4, [1, 3, 5, 6, 5, 3, 1])):
        dims = quotient_dimensions(state, "right")
        assert dims[: len(poly)] == poly
        assert all(d == 0 for d in dims[len(poly):])
        dims = quotient_dimensions(state, "left")
        assert dims[: len(poly)] == poly
        by_len = {}
        for w in state.system.elements():
            by_len[w.length()] = by_len.get(w.length(), 0) + 1
        assert [by_len.get(n, 0) for n in range(len(poly))] == poly


def test_exhaustive_block_table_terminates():
    # every (prefix, root) state over whole small groups computes without cycles
    from nwalgebra.reduction import Reducer

    for rank in (2, 3):
        sys = RootSystem(cartan_data("A", rank))
        red = Reducer(sys)
        for u in sys.elements():
            for a in range(sys.nroots):
                mu, _ = red.block(u, a)
                assert mu in (-1, 0, 1) or isinstance(mu, int)


def test_non_type_a_rejected():
    sys = RootSystem(cartan_data("D", 4))
    with pytest.raises(CoxeterError):
        reduce_mod_right_ideal((0,), sys)
