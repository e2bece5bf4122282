import random

import pytest

from nwalgebra import calculus
from nwalgebra.calculus import (
    bracket_matrix,
    check_basic_rev,
    check_gen_leibniz,
    check_nz_antipode,
    check_prep_abstr_comm,
    check_rhoD,
    check_skew_commutation,
    check_tower_invariance,
    find_commuting_cofactors,
    random_element,
    random_homogeneous,
    _joint_kernels,
    _kernel_samples,
    _right_leibniz_mismatch,
    _t_blocks,
)
from nwalgebra.coxeter import GroupElement, RootSystem, cartan_data, centralizer_of_longest
from nwalgebra.disjoint import classify, search_complete
from nwalgebra.exactlinalg import QQ, PrimeField, kernel_basis
from nwalgebra.integrals import (
    hypothetical_checks,
    invariance_suite,
    nonsimple_roots,
    subalgebra_build,
    top_integral,
)
from nwalgebra.nichols_core import (
    ZERO_COL,
    AlgebraState,
    LazyColumns,
    NicholsElement,
    mat_mul,
    mat_stack,
    multiply,
    neg_col,
    right_derivative,
    right_derivative_columns,
    right_multiplier,
)
from nwalgebra.nilcoxeter import skew_element
from oracles import ofbskew_mismatch


def test_failing_report_carries_counterexample(s3):
    from nwalgebra.calculus import IdentityReport, _fail

    z = NicholsElement.generator(s3, 0)
    rep = _fail("demo", {"p": 1}, 3, 9, degree=2, z=z, note="synthetic")
    assert rep.status == "fail" and not rep.passed
    assert rep.counterexample["degree"] == 2
    assert rep.counterexample["note"] == "synthetic"
    assert rep.counterexample["z"]["degree_components"][0]["degree"] == 1
    data = rep.to_json()
    assert data["status"] == "fail" and data["seed"] == 9
    ok = IdentityReport("demo", {}, 0, "pass")
    assert ok.passed and ok.to_json()["counterexample"] is None


def test_rhoD(s3, s4):
    assert check_rhoD(s3, trials=60, seed=7).passed
    assert check_rhoD(s4, trials=40, seed=7).passed


@pytest.mark.parametrize("rank", [1, 2])
def test_rhoD_over_gf3_accepts_a_zero_sample(rank, monkeypatch):
    # over GF(3) a drawn coefficient +-3 is zero, so a sampled xi may vanish
    state = AlgebraState(RootSystem(cartan_data("A", rank)), field=PrimeField(3))
    state.construct_all()
    drawn = []

    def recording(*args):
        drawn.append(random_homogeneous(*args))
        return drawn[-1]

    monkeypatch.setattr(calculus, "random_homogeneous", recording)
    assert check_rhoD(state, trials=40, seed=1).passed
    assert len(drawn) == 40 and any(xi.is_zero() for xi in drawn)


def test_nz_antipode(s3, s4):
    r = check_nz_antipode(s3)
    assert r.passed and r.parameters["exponent"] == 6
    r = check_nz_antipode(s4)
    assert r.passed and r.parameters["exponent"] == 12


def _fresh_a2(prime):
    state = AlgebraState(RootSystem(cartan_data("A", 2)),
                         field=PrimeField() if prime else QQ)
    state.construct_all()
    return state


@pytest.mark.parametrize("prime", [False, True])
def test_nz_antipode_catches_a_negated_inverse_column(prime):
    # S S^{-1} = I certifies the recursions of S and S^{-1} against each
    # other, so one wrong column of S^{-1} fails the check at its degree
    state = _fresh_a2(prime)
    sinv = state.antipode_inv_matrix(2)
    sinv[1] = neg_col(sinv[1], state.field)
    r = check_nz_antipode(state)
    assert r.status == "fail"
    assert r.counterexample["degree"] == 2


@pytest.mark.parametrize("prime", [False, True])
def test_nz_antipode_catches_a_negated_antipode_column(prime):
    # and one wrong column of S fails it at its degree too
    state = _fresh_a2(prime)
    s = state.antipode_matrix(3)
    s[2] = neg_col(s[2], state.field)
    r = check_nz_antipode(state)
    assert r.status == "fail"
    assert r.counterexample["degree"] == 3


def test_nz_antipode_reads_no_group_action():
    # S and S^{-1} are built by generator recursions: checking them builds
    # no action matrix at any degree
    state = AlgebraState(RootSystem(cartan_data("A", 3)))
    state.construct_all()
    assert check_nz_antipode(state).passed
    acts = [(b.degree, key) for b in state.bases for key in b.cache if key[0] == "act"]
    assert acts == []
    assert all(("antipode_inv", None) in b.cache for b in state.bases[:state.finite_top + 1])


@pytest.mark.parametrize("prime", [False, True])
def test_rhoD_catches_a_perturbed_reversal_column(prime):
    # the single-generator part reads the columns of rho_matrix directly;
    # a wrong column fails it at that degree, reported as that basis vector
    state = _fresh_a2(prime)
    r2 = state.rho_matrix(2)
    r2[0] = _bumped(r2[0], state.field)
    r = check_rhoD(state, trials=0)
    assert r.status == "fail"
    ce = r.counterexample
    assert ce["degree"] == 2
    assert ce["z"]["degree_components"][0]["terms"] == [
        {"word": list(state.basis(2).words[0]), "coeff": "1"}]


def test_rhoD_peak_memory():
    # building A3 over Q and checking rhoD reads every structure map of
    # reversal, right derivatives and the action: on Python 3.11 it peaked
    # at 4.0 MB of Python allocations while mat_col copied a unit column
    # and every zero column was its own dict, at 2.9 MB since the maps
    # share them, and at 2.0 MB since every map stores a unit column
    # {k: ±1} as the state's one copy of it
    import tracemalloc

    tracemalloc.start()
    try:
        state = AlgebraState(RootSystem(cartan_data("A", 3)))
        state.construct_all()
        r = check_rhoD(state, 20, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.passed
    assert peak < 2_400_000, peak


def _gen_leibniz(state, sys):
    e = sys.identity()
    return check_gen_leibniz(state, e, sys.longest_element(), e, trials=3, seed=0)


def _tower(state, sys):
    return check_tower_invariance(state, sys.longest_element(), sys.simple_reflection(0),
                                  trials=3, seed=0)


def _skew_commutation(state, sys):
    w = next(w for w in sys.elements() if not w.is_identity())
    return check_skew_commutation(state, w, sys.identity(), trials=3, seed=0)


@pytest.mark.parametrize("check,rank,n,root,degree", [
    (_gen_leibniz, 2, 2, 1, 2),
    (_tower, 2, 1, 0, 4),
    (_skew_commutation, 2, 1, 2, 2),
], ids=["gen-leibniz", "tower", "skew-commutation"])
def test_leibniz_form_checks_catch_a_perturbed_derivative_column(check, rank, n, root, degree):
    # each check applies right derivatives to every basis element; one
    # wrong stored column of dright(n, root) fails it at some degree
    state = AlgebraState(RootSystem(cartan_data("A", rank)))
    state.construct_all()
    dr = state.dright(n, root)
    dr[0] = _bumped(dr[0], state.field)
    r = check(state, state.system)
    assert r.status == "fail"
    assert r.counterexample["degree"] == degree


@pytest.mark.parametrize("cap", [6, 7, 9, 12, None])
def test_leibniz_form_checks_stay_inside_a_truncated_build(cap):
    # on a build truncated at the cap, skew commutation compares only z
    # with z y in a built degree and tower only b with (b)D_y z in one,
    # so neither reads past the cap; a wrong column of a right derivative
    # fails each at the degree where it fails the complete build (None),
    # if the cap reaches it
    def run(check, bump):
        state = AlgebraState(RootSystem(cartan_data("A", 3)), degree_cap=cap)
        state.construct_all()
        if bump:
            dr = state.dright(*bump)
            dr[0] = _bumped(dr[0], state.field)
        r = check(state, state.system)
        assert (state.finite_top is None) == (cap is not None)
        return r.status, r.counterexample and r.counterexample["degree"]

    def skew(state, sys):
        w = next(w for w in search_complete(sys)[0].elements if not w.is_identity())
        return check_skew_commutation(state, w, sys.identity(), 10, 0)

    def tower(state, sys):
        return check_tower_invariance(state, sys.longest_element(), sys.simple_reflection(0),
                                      10, 0)

    assert run(skew, None) == run(tower, None) == ("pass", None)
    assert run(skew, (1, 3)) == ("fail", 5)  # root 3 is in T_w
    assert run(tower, (1, 0)) == (("fail", 7) if cap != 6 else ("pass", None))


def test_basic_rev_on_a_truncated_build_runs_only_the_products_that_fit():
    # xi of degree k = 1..3 times y of degree l(w_o) = 6 on A3: cap 6 fits
    # none of them, cap 7 the trials with k = 1, cap 9 every trial
    def run(cap):
        state = AlgebraState(RootSystem(cartan_data("A", 3)), degree_cap=cap)
        state.construct_all()
        return check_basic_rev(state, 20, 0)

    r6, r7, r9 = run(6), run(7), run(9)
    assert (r6.status, r6.trials, r6.notes) == (
        "skipped", 0, ["no product fits under the degree bound"])
    assert r7.status == "pass" and 0 < r7.trials < 20
    assert (r9.status, r9.trials) == ("pass", 20)


def _bumped(col, field):
    """A copy of a column with one added to coordinate 0.  Stored columns
    are shared between maps and never changed in place, so a test puts
    the copy into the one map it perturbs."""
    out = dict(col)
    x = field.normalize(out.get(0, field.zero) + field.one)
    if x:
        out[0] = x
    else:
        del out[0]
    return out


@pytest.mark.parametrize("prime", [False, True])
@pytest.mark.parametrize("check", [_tower, _skew_commutation], ids=["tower", "skew-commutation"])
def test_column_form_checks_catch_a_perturbed_product_column(check, prime, monkeypatch):
    # the first right multiplier the check makes gets one wrong product
    # column, that of the last basis element whose product lands in the
    # top degree, the highest the check reads
    state = _fresh_a2(prime)
    top = state.finite_top
    made = []

    def perturbed(y):
        times = right_multiplier(y)
        if not made and not y.is_zero():
            made.append(y)
            n = top - y.degrees()[0]
            cols = list(times.columns(n))
            cols[-1] = _bumped(cols[-1], state.field)
            columns = times.columns
            times.columns = lambda k: cols if k == n else columns(k)
        return times

    monkeypatch.setattr(calculus, "right_multiplier", perturbed)
    r = check(state, state.system)
    assert made and r.status == "fail"
    # tower's first multiplier is that of z, the counterexample basis
    # element b of the top degree; skew commutation's is that of its
    # first sample b, of degree 1 or more, and the counterexample z is of
    # degree top - deg b
    if check is _tower:
        assert r.counterexample["degree"] == top
    else:
        deg_b = made[0].degrees()[0]
        assert deg_b >= 1 and r.counterexample["degree"] == top - deg_b


@pytest.mark.parametrize("prime", [False, True])
@pytest.mark.parametrize("check,degree", [(_tower, 4), (_skew_commutation, 3)],
                         ids=["tower", "skew-commutation"])
def test_column_form_checks_catch_a_perturbed_last_top_column(check, degree, prime,
                                                              monkeypatch):
    # every derivative map the check makes gets a wrong column for the
    # last basis element of the top degree: the last column compared, on
    # one side only where the other side's input is the zero column
    state = _fresh_a2(prime)

    def perturbed(y):
        columns = right_derivative_columns(y)
        top = columns(state.finite_top)
        top[-1] = _bumped(top[-1], state.field)
        return columns

    monkeypatch.setattr(calculus, "right_derivative_columns", perturbed)
    r = check(state, state.system)
    assert r.status == "fail"
    assert r.counterexample["degree"] == degree


@pytest.mark.parametrize("prime", [False, True])
def test_skew_commutation_first_sample_sees_a_perturbed_derivative_column(prime,
                                                                          monkeypatch):
    # both sides read the derivative columns of xi, the left one at degree
    # deg z + deg b and the right one at deg z: for a scalar sample b they
    # are the same columns, and a wrong one cancels.  The samples start at
    # kernel degree 1, so the first one alone sees a wrong top-degree column
    state = _fresh_a2(prime)

    def perturbed(y):
        columns = right_derivative_columns(y)
        top = columns(state.finite_top)
        top[-1] = _bumped(top[-1], state.field)
        return columns

    monkeypatch.setattr(calculus, "right_derivative_columns", perturbed)
    sys = state.system
    w = next(w for w in sys.elements() if not w.is_identity())
    r = check_skew_commutation(state, w, sys.identity(), trials=1, seed=0)
    assert r.status == "fail"
    assert r.counterexample["b"]["degree_components"][0]["degree"] >= 1


def test_column_compare_skips_only_where_both_sides_are_zero(s3):
    # (z y)D_xi against ((z)D_xi) y' with one of y, y' zero: the side
    # whose input columns are all zero is still compared, and the first
    # basis element with a nonzero other side, x_0, is the mismatch
    xi, y = NicholsElement.generator(s3, 0), NicholsElement.generator(s3, 1)
    zero = right_multiplier(NicholsElement(s3)).columns
    derive, times_y = right_derivative_columns(xi), right_multiplier(y).columns
    assert _right_leibniz_mismatch(s3, 4, zero, 0, derive, 1, times_y) == (1, 0)
    assert _right_leibniz_mismatch(s3, 4, times_y, 1, derive, 1, zero) == (1, 0)


def test_gen_leibniz_trivial_collapse(s3):
    # v = w: the skew factor is 1 and both sides are the same operator
    sys = s3.system
    wo = sys.longest_element()
    rng = random.Random(5)
    one = NicholsElement.unit(s3)
    assert skew_element(wo, wo, s3) == one
    for _ in range(10):
        z = random_element(s3, rng, rng.randint(0, 3))
        b = random_element(s3, rng, rng.randint(0, 2))
        lhs = right_derivative(multiply(b, z), one)
        assert lhs == multiply(b, z)


def test_gen_leibniz(s3, s4):
    sys = s3.system
    wo = sys.longest_element()
    e = sys.identity()
    assert check_gen_leibniz(s3, e, wo, e, trials=50, seed=3).passed
    s1 = sys.simple_reflection(0)
    s2 = sys.simple_reflection(1)
    assert check_gen_leibniz(s3, s1, wo, s1 * s2, trials=10, seed=4).passed
    assert check_gen_leibniz(s3, s2, s2 * s1, s2, trials=10, seed=5).passed
    sys4 = s4.system
    wo4 = sys4.longest_element()
    assert check_gen_leibniz(s4, sys4.identity(), wo4, sys4.identity(),
                             trials=2, seed=3).passed
    w = sys4.from_permutation((2, 4, 1, 3))
    assert check_gen_leibniz(s4, sys4.simple_reflection(0), wo4, w,
                             trials=2, seed=6).passed


def test_tower_invariance(s3, s4):
    sys = s3.system
    wo = sys.longest_element()
    for w in sys.elements():
        assert check_tower_invariance(s3, w, sys.simple_reflection(0),
                                      trials=4, seed=1).passed
    sys4 = s4.system
    w = sys4.from_permutation((2, 4, 1, 3))
    assert check_tower_invariance(s4, w, sys4.simple_reflection(1),
                                  trials=2, seed=1).passed


def test_skew_commutation(s3, s4):
    sys = s3.system
    for w in sys.elements():
        for v in (sys.identity(), sys.simple_reflection(0)):
            r = check_skew_commutation(s3, w, v, trials=4, seed=2)
            assert r.status in ("pass", "skipped")
    sys4 = s4.system
    w = sys4.from_permutation((2, 4, 1, 3))
    r = check_skew_commutation(s4, w, sys4.identity(), trials=3, seed=2)
    assert r.passed


@pytest.mark.parametrize("prime", [False, True])
def test_skew_commutation_computes_kernels_to_its_last_sample(prime, monkeypatch):
    # the samples are drawn degree by degree from degree 1, and no joint
    # kernel past the degree of the last kept sample is computed; they are
    # the first samples of all the kernels computed at once
    state = AlgebraState(RootSystem(cartan_data("A", 3)),
                         field=PrimeField() if prime else QQ)
    state.construct_all()
    sys = state.system
    w, top = sys.simple_reflection(0), state.finite_top
    kernels = list(_joint_kernels(state, _t_blocks(state, w), range(1, top + 1)))
    eager = list(_kernel_samples(state, kernels, random.Random(3), 1))[:2]
    computed, made = [], []

    def counted(cols, field):
        computed.append(len(cols))
        return kernel_basis(cols, field)

    def recording(y):
        made.append(y)
        return right_multiplier(y)

    monkeypatch.setattr(calculus, "kernel_basis", counted)
    monkeypatch.setattr(calculus, "right_multiplier", recording)
    r = check_skew_commutation(state, w, sys.identity(), trials=2, seed=3)
    assert r.passed and r.trials == 2
    assert made[0::2] == eager  # b, then g b, per sample
    assert len(computed) == eager[-1].degrees()[0] < top


@pytest.mark.parametrize("prime", [False, True])
def test_ofbskew_catches_a_perturbed_derivative_column(prime):
    state = AlgebraState(RootSystem(cartan_data("A", 3)), field=PrimeField() if prime else QQ)
    state.construct_all()
    dr = state.dright(1, 0)
    dr[0] = _bumped(dr[0], state.field)
    assert ofbskew_mismatch(state)[0] == 6


def test_ofbskew_and_prep_abstr_comm_centralizer(s4, s4_prime):
    for state in (s4, s4_prime):
        assert ofbskew_mismatch(state) is None
    d = search_complete(s4.system)[0]
    w = next(w for w in d.elements if not w.is_identity())
    r = check_prep_abstr_comm(s4, w, trials=8, seed=4)
    assert r.passed and r.trials > 0


def test_prep_abstr_comm_centralizer_twist_adds_no_constraint(s4):
    # h = w w_o w^{-1} permutes the roots of T_w = |w(Delta)| up to sign,
    # so the T_w right derivatives of h x2 vanish once those of x2 do, and
    # the x2 sample space of check_prep_abstr_comm is the T_w kernel
    # itself; in the centralizer of w_o the twist is w_o.  The twisted
    # blocks are the oracle, for every w of A3
    sys = s4.system
    wo = sys.longest_element()
    cent = centralizer_of_longest(sys)
    assert len(cent) == 8
    assert all(w * wo * w.inverse() == wo for w in cent)
    for w in sys.elements():
        h = w * wo * w.inverse()
        t_blocks = _t_blocks(s4, w)
        for n in range(0, 7):
            blocks = t_blocks(n)
            twisted = [(mat_mul(s4.dright(n, a), s4.act_matrix(n, h), s4.field), s4.dim(n - 1))
                       for a in sorted(w.t_set())] if n >= 1 else []
            dim = s4.dim(n)
            assert (kernel_basis(mat_stack(blocks + twisted, dim), s4.field)
                    == kernel_basis(mat_stack(blocks, dim), s4.field))



def _samples_per_call(state, blocks_by_degree, rng, count, max_degree):
    """Oracle: one call that computes each degree's joint kernel and
    samples it right away, as the check once did for each sample set."""
    out = []
    field = state.field
    for n in range(0, max_degree + 1):
        dim = state.dim(n)
        if dim == 0:
            continue
        ker = kernel_basis(mat_stack(blocks_by_degree(n), dim), field)
        for _ in range(count):
            if not ker:
                break
            acc = {}
            for kv in ker:
                c = field.of(rng.randint(-2, 2))
                if c:
                    for i, x in kv.items():
                        acc[i] = acc.get(i, 0) + c * x
            z = NicholsElement(state, {n: {i: field.normalize(x) for i, x in acc.items()}})
            if not z.is_zero():
                out.append(z)
    return out


def test_kernels_computed_once_give_the_same_samples(s4):
    # check_prep_abstr_comm samples its two sets from one kernel per
    # degree, in the rng order of two back-to-back calls that each
    # computed the kernels
    sys = s4.system
    for w in [sys.identity(), sys.longest_element(),
              sys.from_permutation((2, 4, 1, 3)), sys.from_permutation((2, 1, 3, 4))]:
        t_blocks = _t_blocks(s4, w)
        old = random.Random(9)
        expected = [_samples_per_call(s4, t_blocks, old, 3, 6) for _ in range(2)]
        rng = random.Random(9)
        kernels = list(_joint_kernels(s4, t_blocks, range(7)))
        assert [list(_kernel_samples(s4, kernels, rng, 3)) for _ in range(2)] == expected
        assert all(expected)

def test_prep_abstr_comm_general_w(s4):
    # the preparation lemma with the w w_o w^{-1} twist, for w outside the
    # centralizer of the longest element
    sys = s4.system
    wo = sys.longest_element()
    outside = next(w for w in sys.elements()
                   if w * wo != wo * w and 0 < w.length() <= 2)
    r = check_prep_abstr_comm(s4, outside, trials=8, seed=5)
    assert r.status in ("pass", "skipped")
    if r.status == "pass":
        assert r.trials > 0
    w2 = sys.from_permutation((2, 4, 1, 3))
    r = check_prep_abstr_comm(s4, w2, trials=8, seed=6)
    assert r.passed and r.trials > 0


def test_basic_rev(s3, s4):
    assert check_basic_rev(s3, trials=40, seed=5).passed
    assert check_basic_rev(s4, trials=20, seed=5).passed


@pytest.mark.parametrize("fixture", ["s4", "s4_prime"])
def test_basic_rev_rejects_a_y_that_is_not_plus_or_minus_its_word(fixture, request,
                                                                   monkeypatch):
    # y = w . x_{w_o} is a signed word over T_w: -y passes, but 2 y, which
    # lies in the same span and annihilates the same products, fails
    state = request.getfixturevalue(fixture)
    y_element = calculus.y_element
    for scale, passes in ((-1, True), (2, False)):
        monkeypatch.setattr(calculus, "y_element",
                            lambda w, st, c=scale: y_element(w, st).scale(c))
        rep = check_basic_rev(state, 20, 1)
        assert rep.passed == passes
        if not passes:
            assert rep.counterexample["note"] == "y must be a signed word over T_w"


def test_bracket_r1(s4):
    sys = s4.system
    d = classify([sys.identity()], sys)
    matrix, report = bracket_matrix(list(d.elements), s4)
    assert report.passed
    assert matrix == [[s4.field.one]]


def test_bracket_r2(s4):
    d = search_complete(s4.system)[0]
    matrix, report = bracket_matrix(list(d.elements), s4)
    assert report.passed
    one = s4.field.one
    # l(w_o) = 6 is even, so every sign collapses to +1
    assert matrix == [[one, one], [one, one]]
    # symmetry of the sign
    assert matrix[0][1] == matrix[1][0]


def test_cofactors_dependent_case(s4):
    # orthogonal generators already commute: empty cofactors, scalar 1
    sys = s4.system
    r12 = sys.root_of_pair[(1, 2)]
    r34 = sys.root_of_pair[(3, 4)]
    res = find_commuting_cofactors((r12,), (r34,), {r12}, {r34}, 3, s4)
    assert res == ((), (), s4.field.one)


def test_cofactors_s3(s3):
    sys = s3.system
    a1, a2 = sys.simple_index
    res = find_commuting_cofactors((a1,), (a2,), {a1}, {a2}, 4, s3)
    assert res is not None
    yw, bw, scalar = res
    assert len(yw) + len(bw) <= 2
    u = multiply(NicholsElement.from_word(s3, yw),
                 multiply(NicholsElement.generator(s3, a1), NicholsElement.generator(s3, a2)))
    v = multiply(NicholsElement.from_word(s3, bw),
                 multiply(NicholsElement.generator(s3, a2), NicholsElement.generator(s3, a1)))
    assert not u.is_zero() and u == v.scale(scalar)


def test_cofactors_s4(s4):
    sys = s4.system
    a1 = sys.simple_index[0]
    theta12 = sys.index[(1, 1, 0)]
    res = find_commuting_cofactors((a1,), (theta12,), {a1}, {theta12}, 12, s4)
    assert res is not None
    yw, bw, scalar = res
    u = multiply(NicholsElement.from_word(s4, yw),
                 multiply(NicholsElement.generator(s4, a1), NicholsElement.generator(s4, theta12)))
    v = multiply(NicholsElement.from_word(s4, bw),
                 multiply(NicholsElement.generator(s4, theta12), NicholsElement.generator(s4, a1)))
    assert not u.is_zero() and u == v.scale(scalar)
    assert scalar != 0


def test_cofactors_exhausted_returns_none(s3):
    sys = s3.system
    a1, a2 = sys.simple_index
    # cap 0 admits no witness for a non-proportional pair
    assert find_commuting_cofactors((a1,), (a2,), {a1}, {a2}, 0, s3) is None


def _fresh_map(state, n, key):
    """The degree-n map ``key`` of a state's memo, built in ``state``."""
    name, arg = key
    if name == "act":
        return state.act_matrix(n, GroupElement(state.system, arg))
    if arg is None:
        return getattr(state, "gram" if name == "gram" else f"{name}_matrix")(n)
    return getattr(state, name)(n, arg)


def _fresh_a3(prime):
    state = AlgebraState(RootSystem(cartan_data("A", 3)), field=PrimeField() if prime else QQ)
    state.construct_all()
    return state


@pytest.fixture(scope="module")
def checked_a3():
    """``get(prime)``: an A3 state that ran every check of the A3
    calculus workload (the seven commands of ``a3_rational_calculus``),
    made once per field and only read afterwards."""
    states = {}

    def get(prime):
        if prime not in states:
            state, seed = _fresh_a3(prime), 1
            sys = state.system
            wo, e = sys.longest_element(), sys.identity()
            assert check_rhoD(state, 20, seed).passed
            assert check_nz_antipode(state).passed
            assert check_tower_invariance(state, wo, sys.simple_reflection(0), 2, seed).passed
            sols = search_complete(sys)
            w = next(w for w in sols[0].elements if not w.is_identity())
            assert check_skew_commutation(state, w, e, 2, seed).passed
            assert check_basic_rev(state, 20, seed).status in ("pass", "skipped")
            cert = top_integral(state)
            assert invariance_suite(cert, state, classify(list(sols[0].elements)[:2], sys)).passed
            theta = nonsimple_roots(state)
            assert hypothetical_checks(theta, subalgebra_build(theta, state), state).passed
            states[prime] = state
        return states[prime]
    return get


@pytest.mark.parametrize("prime", [False, True])
def test_checks_leave_every_stored_column_unchanged(prime, checked_a3):
    # stored columns are shared between maps and never changed in place:
    # after every check of the A3 calculus workload, each stored map equals
    # the same map of a state that ran no check, column by column as far
    # as it was built, and the shared zero column is still empty
    state = checked_a3(prime)
    ref = _fresh_a3(prime)
    keys = set()
    for b, rb in zip(state.bases, ref.bases, strict=True):
        assert b.lmul == rb.lmul and b.derivs == rb.derivs, b.degree
        for key, m in b.cache.items():
            keys.add(key[0])
            built = (range(len(m)) if not isinstance(m, LazyColumns)
                     else [i for i in range(len(m)) if m._cols[i] is not None])
            rm = _fresh_map(ref, b.degree, key)
            assert [m[i] for i in built] == [rm[i] for i in built], (b.degree, key)
    # the memo holds structure maps only
    assert keys == {"rmul", "dleft", "dright", "act", "gram", "rho", "antipode",
                    "antipode_inv"}
    assert ZERO_COL == {} and not ZERO_COL


@pytest.mark.parametrize("prime", [False, True])
def test_checks_store_one_copy_of_each_unit_column(prime, checked_a3):
    # every structure map stores a unit column {k: 1} or {k: -1} as the
    # state's one copy of it: after every check of the A3 calculus
    # workload, the equal unit columns of all maps and all degrees are one
    # object.  Before the maps shared them, 3 990 of them on A3 over Q
    # were equal copies of one stored in the same degree
    state = checked_a3(prime)
    field = state.field
    held = {}  # (k, value) -> {id: {(map name, degree)}} of the stored unit columns
    for b in state.bases:
        for (name, _), m in b.cache.items():
            for col in (m._cols if isinstance(m, LazyColumns) else m):
                if col is not None and len(col) == 1:
                    (k, v), = col.items()
                    if v in (field.one, field.minus_one):
                        held.setdefault((k, v), {}).setdefault(id(col), set()).add(
                            (name, b.degree))
    holders = [h for ids in held.values() for h in ids.values()]
    assert {name for h in holders for name, _ in h} == {
        "rmul", "dleft", "dright", "act", "rho", "antipode", "antipode_inv", "gram"}
    assert {v for _, v in held} == {field.one, field.minus_one}
    # one object serves many maps and degrees
    assert max(len({name for name, _ in h}) for h in holders) == 8
    assert max(len({n for _, n in h}) for h in holders) > 6
    assert [key for key, ids in held.items() if len(ids) > 1] == []
