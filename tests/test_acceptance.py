"""Acceptance suite: one criterion per test, each printing exactly one
ACCEPTANCE <n> PASS/FAIL line with its measured runtime.  Every
comparison is exact; the stated time budgets are asserted, not
aspirational.
"""

import random
import time
from fractions import Fraction

from nwalgebra.calculus import (
    bracket_matrix,
    check_basic_rev,
    check_gen_leibniz,
    check_nz_antipode,
    check_prep_abstr_comm,
    check_rhoD,
    check_skew_commutation,
)
from nwalgebra.coxeter import RootSystem, cartan_data
from nwalgebra.disjoint import classify, motiv_check, search_complete
from nwalgebra.exactlinalg import PrimeField
from nwalgebra.integrals import (
    hypothetical_checks,
    invariance_suite,
    nonsimple_roots,
    subalgebra_build,
    top_integral,
)
from nwalgebra.nichols_core import (
    AlgebraState,
    NicholsElement,
    group_act,
    multiply,
    pairing,
)
from nwalgebra.nilcoxeter import embed_element, y_element
from nwalgebra.reduction import reduce_mod_right_ideal
from oracles import (
    ideal_membership_oracle,
    ofbskew_mismatch,
    quotient_dimensions,
    symmetrizer_rank,
)


class criterion:
    """Context printing exactly one ACCEPTANCE <n> PASS/FAIL line."""

    def __init__(self, num, label, budget=None):
        self.num = num
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        if status == "PASS" and self.budget is not None and dt >= self.budget:
            print(f"ACCEPTANCE {self.num} FAIL ({dt:.2f}s): {self.label}")
            raise AssertionError(
                f"criterion {self.num} exceeded its {self.budget}s budget")
        print(f"ACCEPTANCE {self.num} {status} ({dt:.2f}s): {self.label}")
        return False


def test_criterion_1_s6_golden():
    with criterion(1, "S6 golden disjoint system with exact blocks", budget=1.0):
        sys5 = RootSystem(cartan_data("A", 5))
        w1 = sys5.from_permutation((2, 4, 1, 6, 3, 5))
        w2 = sys5.from_permutation((3, 1, 5, 2, 6, 4))
        d = classify([sys5.identity(), w1, w2], sys5)
        assert d.__class__.__name__ == "DisjointSystem"
        assert d.normalized and d.complete and d.order == 3
        pairs = lambda w: {sys5.pair_of_root[t] for t in d.blocks[w]}
        assert pairs(w1) == {(2, 4), (1, 4), (1, 6), (3, 6), (3, 5)}
        assert pairs(w2) == {(1, 3), (1, 5), (2, 5), (2, 6), (4, 6)}
        assert pairs(sys5.identity()) == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}


def test_criterion_2_dimension_tables():
    with criterion(2, "dimension tables with dual-path agreement at degrees <= 4"):
        a1 = AlgebraState(RootSystem(cartan_data("A", 1)))
        a1.construct_all()
        assert a1.dims()[: a1.finite_top + 1] == [1, 1]

        t_s3 = time.monotonic()
        s3 = AlgebraState(RootSystem(cartan_data("A", 2)))
        s3.construct_all()
        dims3 = s3.dims()[: s3.finite_top + 1]
        assert dims3 == [1, 3, 4, 3, 1] and sum(dims3) == 12
        for n in range(1, 5):
            assert symmetrizer_rank(s3.system, n) == s3.dim(n)
        assert time.monotonic() - t_s3 < 5.0

        t_s4 = time.monotonic()
        s4 = AlgebraState(RootSystem(cartan_data("A", 3)))
        s4.construct_all()
        dims4 = s4.dims()[: s4.finite_top + 1]
        assert sum(dims4) == 576 and s4.finite_top == 12
        assert dims4 == dims4[::-1]
        for n in range(1, 5):
            assert symmetrizer_rank(s4.system, n) == s4.dim(n)
        assert time.monotonic() - t_s4 < 300.0


def test_criterion_3_nilcoxeter_orthonormality(s3, s4):
    with criterion(3, "pairing of standard basis elements is delta_{u,v^{-1}} "
                      "(36 + 576 pairs)"):
        for state in (s3, s4):
            els = state.system.elements()
            images = {w: embed_element(state, w) for w in els}
            for u in els:
                for v in els:
                    expect = state.field.one if u == v.inverse() else state.field.zero
                    assert pairing(images[u], images[v]) == expect


def test_criterion_4_identity_suite(s3, s4):
    with criterion(4, "identity suite green with zero counterexamples"):
        # rhoD: exhaustive single-generator case plus >= 500 seeded samples
        assert check_rhoD(s3, trials=300, seed=11).passed
        assert check_rhoD(s4, trials=200, seed=12).passed
        # antipode powers as matrix identities: S^12 on S3, S^24 on S4
        assert check_nz_antipode(s3).passed
        assert check_nz_antipode(s4).passed
        # generalized Leibniz rule, exhaustive in the operator argument
        sys3, sys4 = s3.system, s4.system
        assert check_gen_leibniz(s3, sys3.identity(), sys3.longest_element(),
                                 sys3.identity(), trials=25, seed=13).passed
        assert check_gen_leibniz(s3, sys3.simple_reflection(0), sys3.longest_element(),
                                 sys3.simple_reflection(1), trials=10, seed=14).passed
        assert check_gen_leibniz(s4, sys4.identity(), sys4.longest_element(),
                                 sys4.identity(), trials=3, seed=15).passed
        # skew commutation plus its order-two consequences
        for w in sys3.elements():
            r = check_skew_commutation(s3, w, sys3.identity(), trials=4, seed=16)
            assert r.status in ("pass", "skipped")
        d = search_complete(sys4)[0]
        w2 = next(w for w in d.elements if not w.is_identity())
        assert check_skew_commutation(s4, w2, sys4.identity(), trials=3, seed=17).passed
        # the order-two statement y_1 D_{y_2} = D_{y_2} y_1 (-1)^{l(w_o)} is
        # skew commutation at (w_2, e) and b = y_1 (check_skew_commutation)
        assert ofbskew_mismatch(s4) is None
        assert check_prep_abstr_comm(s4, w2, trials=8, seed=18).passed
        # start/end annihilation property tests
        assert check_basic_rev(s3, trials=60, seed=19).passed
        assert check_basic_rev(s4, trials=40, seed=20).passed


def test_criterion_5_integrals_suite(s3, s4):
    with criterion(5, "integral certificates, signs and invariance formulas"):
        for state in (s3, s4):
            cert = top_integral(state)
            assert state.dim(state.finite_top) == 1
            # parity of the group degree
            assert cert.w_degree.length() % 2 == cert.degree % 2
            # sign character
            one = state.field.one
            assert all(v in (one, state.field.minus_one) for v in cert.char.values())
            for g in state.system.elements():
                s = group_act(g, cert.element).proportional_to(cert.element)
                assert s in (one, state.field.minus_one)
            # sign bookkeeping
            expected = state.field.minus_one if cert.degree % 2 else one
            assert cert.eps_antipode == expected
            assert cert.eps_rho == cert.eps_sbar
            # w x = (-1)^{l(w)} x for the group degree w of x
            w = cert.w_degree
            sgn = state.field.minus_one if w.length() % 2 else one
            assert group_act(w, cert.element) == cert.element.scale(sgn)
        # invariance items 1-4 on both, item 5 on the order-two system of S4
        assert invariance_suite(top_integral(s3), s3).passed
        d = search_complete(s4.system)[0]
        rep = invariance_suite(top_integral(s4), s4, d)
        assert rep.passed and not rep.notes


def test_criterion_6_hypothetical_theorems(s3, s4):
    with criterion(6, "hypothetical-element theorems at S3 and S4", budget=600.0):
        for state in (s3, s4):
            theta = nonsimple_roots(state)
            bases = subalgebra_build(theta, state)
            assert len(bases[-1]) == 1
            rep = hypothetical_checks(theta, bases, state)
            assert rep.passed, rep.counterexample


def test_criterion_7_reduction_cross_validation(s4):
    with criterion(7, "200 seeded monomials: syntactic normal form equals the "
                      "oracle; quotient dims match the length generating function"):
        rng = random.Random(2024)
        sys = s4.system
        for _ in range(200):
            n = rng.randint(1, 6)
            word = tuple(rng.randrange(sys.nroots) for _ in range(n))
            r = reduce_mod_right_ideal(word, sys)
            member, normal = ideal_membership_oracle(
                NicholsElement.from_word(s4, word), "right", s4)
            assert normal.get(r.w, Fraction(0)) == r.scalar
            assert all(w == r.w for w in normal)
        poincare = [1, 3, 5, 6, 5, 3, 1]
        dims = quotient_dimensions(s4, "right")
        assert dims[:7] == poincare and all(d == 0 for d in dims[7:])
        by_len = {}
        for w in sys.elements():
            by_len[w.length()] = by_len.get(w.length(), 0) + 1
        assert [by_len.get(n, 0) for n in range(7)] == poincare


def test_criterion_8_section11_equivalence_a3(s4):
    with criterion(8, "complete system found; integrality equivalences and "
                      "bracket signs for r in {1, 2}"):
        sys = s4.system
        sols = search_complete(sys)
        assert sols
        d = sols[0]
        rep = motiv_check(d, list(d.elements), s4)
        assert rep["some_ordering_integral"]
        assert rep["all_orderings_integral"]
        assert rep["sign_commutation"]
        assert rep["equivalence_consistent"]
        # the commutation sign is +1 because l(w_o) = 6 is even
        from nwalgebra.nilcoxeter import y_element

        ys = [y_element(w, s4) for w in d.elements]
        assert multiply(ys[0], ys[1]) == multiply(ys[1], ys[0])
        # bracket sign matrices for orders 1 and 2
        d1 = classify([sys.identity()], sys)
        m1, r1 = bracket_matrix(list(d1.elements), s4)
        assert r1.passed and m1 == [[s4.field.one]]
        m2, r2 = bracket_matrix(list(d.elements), s4)
        assert r2.passed
        one = s4.field.one
        assert m2 == [[one, one], [one, one]]


def test_criterion_9_s5_prime_field_exploratory():
    with criterion(9, "S5 prime-field construction to cap 8 completes; dual "
                      "paths agree at degrees <= 3"):
        gf = PrimeField()
        s5 = AlgebraState(RootSystem(cartan_data("A", 4)), field=gf, degree_cap=8)
        s5.construct_all()
        assert s5.truncated and s5.finite_top is None
        dims = s5.dims()
        # [4]^4[5]^2[6]^4, the Hilbert series of E_5 (Fomin-Kirillov 1999)
        assert dims == [1, 10, 55, 220, 711, 1960, 4761, 10410, 20796]
        for n in range(1, 4):
            assert symmetrizer_rank(s5.system, n, gf) == dims[n]
