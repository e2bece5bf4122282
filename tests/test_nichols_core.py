import random
from fractions import Fraction

import pytest

from nwalgebra.coxeter import RootSystem, cartan_data
from nwalgebra.exactlinalg import QQ, PrimeField, rank
from nwalgebra.nichols_core import (
    AlgebraState,
    NicholsElement,
    TensorElement,
    antipode,
    braid_apply,
    braid_transposition,
    coproduct_split,
    counit,
    element_from_json,
    element_to_json,
    ends_with,
    group_act,
    involves_only,
    left_derivative,
    mat_col,
    mat_eq,
    mat_identity,
    mat_mul,
    mat_stack,
    multiply,
    pairing,
    rho,
    right_derivative,
    s_bar,
    starts_with,
    symmetrizer_rank,
    w_degree,
    w_degree_decompose,
)
from nwalgebra.calculus import basis_elements, random_element


def gens(state):
    return [NicholsElement.generator(state, a) for a in range(state.system.nroots)]


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------


def test_braid_examples(s3):
    sys = s3.system
    a1, a2 = sys.simple_index
    theta = sys.index[(1, 1)]
    t = braid_transposition(sys, (a1, a2), 0)
    assert t.terms == {(theta, a1): Fraction(1)}
    t = braid_transposition(sys, (a1, a1), 0)
    assert t.terms == {(a1, a1): Fraction(-1)}


def test_braid_inverse_and_relation(s4):
    sys = s4.system
    rng = random.Random(2)
    for _ in range(200):
        w = tuple(rng.randrange(sys.nroots) for _ in range(3))
        s, w1 = braid_apply(sys, w, 0)
        s2, w2 = braid_apply(sys, w1, 0, inverse=True)
        assert (s * s2, w2) == (1, w)
        # Psi_0 Psi_1 Psi_0 = Psi_1 Psi_0 Psi_1
        def chain(word, seq):
            sign = 1
            for i in seq:
                s, word = braid_apply(sys, word, i)
                sign *= s
            return sign, word

        assert chain(w, (0, 1, 0)) == chain(w, (1, 0, 1))


def test_braid_position_range(s3):
    with pytest.raises(IndexError):
        braid_apply(s3.system, (0, 1), 1)


# ---------------------------------------------------------------------------
# construction and the symmetrizer oracle
# ---------------------------------------------------------------------------


def test_dims_a1(a1):
    assert a1.dims()[: a1.finite_top + 1] == [1, 1]
    assert a1.finite_top == 1


def test_dims_s3(s3):
    assert s3.dims()[: s3.finite_top + 1] == [1, 3, 4, 3, 1]
    assert sum(s3.dims()) == 12


def test_dims_s4(s4):
    dims = s4.dims()[: s4.finite_top + 1]
    assert dims == [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1]
    assert sum(dims) == 576
    assert s4.finite_top == 12
    assert dims == dims[::-1]


def test_symmetrizer_oracle_small(a1, s3):
    assert symmetrizer_rank(s3.system, 1) == 3
    assert symmetrizer_rank(a1.system, 2) == 0
    assert symmetrizer_rank(s3.system, 2) == 4


def test_symmetrizer_agrees_with_construction(s3, s4):
    for n in range(1, 5):
        assert symmetrizer_rank(s3.system, n) == s3.dim(n)
        assert symmetrizer_rank(s4.system, n) == s4.dim(n)


def test_prime_field_construction_matches_dims(s4):
    st = AlgebraState(s4.system, field=PrimeField(), degree_cap=5)
    st.ensure_degree(5)
    assert st.dims()[:6] == s4.dims()[:6]
    assert st.bases[4].words == s4.bases[4].words


def test_prime_field_structure_matrices_match_rational(s4):
    # every lmul/dleft entry over GF(p) is the rational one reduced mod p
    gf = PrimeField()
    st = AlgebraState(s4.system, field=gf)
    st.construct_all()
    assert st.dims() == s4.dims()
    for bp, bq in zip(st.bases, s4.bases):
        assert bp.words == bq.words
        for mp, mq in ((bp.lmul, bq.lmul), (bp.dleft, bq.dleft)):
            assert mp.keys() == mq.keys()
            for key in mq:
                want = [{c: gf.of(v) for c, v in row.items() if gf.of(v)} for row in mq[key]]
                assert mp[key] == want, (bp.degree, key)


def test_rational_structure_matrices_are_int(s4):
    # every A3 structure constant is integral, so the rational lane must
    # hold plain ints: a Fraction here means the fast lane fell back
    for n in range(1, s4.finite_top + 1):
        mats = [s4.antipode_matrix(n)]
        for a in range(s4.system.nroots):
            mats += [s4.lmul(n, a), s4.dleft(n, a), s4.dright(n, a)]
        for mat in mats:
            assert all(type(v) is int for col in mat for v in col.values()), n


def test_mat_col_matches_dense_reference():
    rng = random.Random(21)
    for field in (QQ, PrimeField()):
        for _ in range(200):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            dense = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(ncols)] for _ in range(nrows)]
            dense[rng.randrange(nrows)][rng.randrange(ncols)] = Fraction(1, 3)
            dense = [[field.of(x) for x in row] for row in dense]
            mat = [{i: dense[i][j] for i in range(nrows) if dense[i][j]} for j in range(ncols)]
            density = rng.choice([0.2, 1.0])
            vec = [field.of(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                   if rng.random() < density else field.zero for _ in range(ncols)]
            want = [field.zero] * nrows
            for i in range(nrows):
                for j in range(ncols):
                    want[i] = field.add(want[i], field.mul(dense[i][j], vec[j]))
            want = {i: x for i, x in enumerate(want) if x}
            got = mat_col(mat, {j: x for j, x in enumerate(vec) if x}, field)
            assert got == want
            assert {i: type(x) for i, x in got.items()} == {i: type(x) for i, x in want.items()}


# ---------------------------------------------------------------------------
# multiplication, action, pairing
# ---------------------------------------------------------------------------


def test_square_zero_and_fk_relation(s3):
    sys = s3.system
    a1, a2 = sys.simple_index
    theta = sys.index[(1, 1)]
    xs = gens(s3)
    for x in xs:
        assert multiply(x, x).is_zero()
    z = multiply(xs[a1], xs[theta]) + multiply(xs[theta], xs[a2]) - multiply(xs[a2], xs[a1])
    assert z.is_zero()


def test_unit_and_associativity(s3):
    rng = random.Random(4)
    one = NicholsElement.unit(s3)
    for _ in range(20):
        a = random_element(s3, rng, rng.randint(0, 2))
        b = random_element(s3, rng, rng.randint(0, 2))
        c = random_element(s3, rng, rng.randint(0, 1))
        assert multiply(one, a) == a == multiply(a, one)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_group_action(s4):
    sys = s4.system
    rng = random.Random(8)
    wo = sys.longest_element()
    for a in range(sys.nroots):
        x = NicholsElement.generator(s4, a)
        assert group_act(sys.reflection(a), x) == x.scale(-1)
        assert group_act(sys.identity(), x) == x
    # action by algebra automorphisms
    for _ in range(10):
        w = rng.choice(sys.elements())
        a = random_element(s4, rng, rng.randint(0, 2))
        b = random_element(s4, rng, rng.randint(0, 2))
        assert group_act(w, multiply(a, b)) == multiply(group_act(w, a), group_act(w, b))


def test_action_of_longest_on_nilcoxeter(s3):
    from nwalgebra.nilcoxeter import embed_element

    sys = s3.system
    wo = sys.longest_element()
    for v in sys.elements():
        lhs = group_act(wo, embed_element(s3, v))
        rhs = embed_element(s3, wo * v * wo).scale(-1 if v.length() % 2 else 1)
        assert lhs == rhs


def test_pairing_examples(s3):
    xs = gens(s3)
    for a, x in enumerate(xs):
        for g, y in enumerate(xs):
            assert pairing(x, y) == (1 if a == g else 0)
    one = NicholsElement.unit(s3)
    assert pairing(one, one) == 1
    sys = s3.system
    s1s2 = sys.simple_reflection(0) * sys.simple_reflection(1)
    from nwalgebra.nilcoxeter import embed_element

    assert pairing(embed_element(s3, s1s2), embed_element(s3, s1s2.inverse())) == 1
    assert pairing(embed_element(s3, s1s2), embed_element(s3, s1s2)) == 0


def test_gram_symmetric_nondegenerate(s3, s4):
    for state in (s3, s4):
        top = state.finite_top
        for n in range(top + 1):
            g = state.gram(n)
            dim = state.dim(n)
            for i in range(dim):
                for j in range(dim):
                    assert g[i][j] == g[j][i]
            rows = [{j: v for j, v in enumerate(row) if v} for row in g]
            assert rank(rows, dim) == dim


def test_gram_inverse(s4):
    # gram(n) * gram_inv(n) is the identity in every A3 degree, over Q and GF(p)
    sp = AlgebraState(s4.system, field=PrimeField())
    sp.construct_all()
    for state in (s4, sp):
        field = state.field
        for n in range(state.finite_top + 1):
            rows = [{j: v for j, v in enumerate(row) if v} for row in state.gram(n)]
            assert mat_mul(rows, state.gram_inv(n), field) == mat_identity(state.dim(n), field)


def test_pairing_w_invariance(s3):
    rng = random.Random(1)
    for _ in range(20):
        g = rng.choice(s3.system.elements())
        n = rng.randint(0, 4)
        a = random_element(s3, rng, n)
        b = random_element(s3, rng, n)
        assert pairing(group_act(g, a), group_act(g, b)) == pairing(a, b)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_derivative_degree_one(s3):
    xs = gens(s3)
    one = NicholsElement.unit(s3)
    for a, x in enumerate(xs):
        for g, y in enumerate(xs):
            d = right_derivative(x, y)
            assert d == (one if a == g else NicholsElement.zero(s3))


def test_derivative_top_word(s3):
    from nwalgebra.nilcoxeter import embed_element

    wo = s3.system.longest_element()
    xwo = embed_element(s3, wo)
    assert right_derivative(xwo, xwo) == NicholsElement.unit(s3)


def test_duality_contracts(s4):
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        xs = random_element(s4, rng, n)
        y = random_element(s4, rng, k)
        x = random_element(s4, rng, n - k)
        assert pairing(xs, multiply(y, x)) == pairing(right_derivative(xs, y), x)
        ys = random_element(s4, rng, k)
        xs2 = random_element(s4, rng, n - k)
        z = random_element(s4, rng, n)
        assert pairing(multiply(xs2, ys), z) == pairing(xs2, left_derivative(ys, z))


def test_derivative_equivariance(s3):
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        z = random_element(s3, rng, n)
        y = random_element(s3, rng, k)
        g = rng.choice(s3.system.elements())
        lhs = right_derivative(z, group_act(g, y))
        rhs = group_act(g, right_derivative(group_act(g.inverse(), z), y))
        assert lhs == rhs


def test_derivative_pairing_consistency_exhaustive(s3, s4):
    # exact duality on all basis triples at bounded degrees
    for state, max_n in ((s3, 4), (s4, 3)):
        for n in range(1, max_n + 1):
            for k in range(0, n + 1):
                for xs in basis_elements(state, n):
                    for y in basis_elements(state, k):
                        d = right_derivative(xs, y)
                        for x in basis_elements(state, n - k):
                            assert pairing(xs, multiply(y, x)) == pairing(d, x)


# ---------------------------------------------------------------------------
# coproduct, antipode, reversal
# ---------------------------------------------------------------------------


def test_coproduct_primitive(s3):
    x = NicholsElement.generator(s3, 0)
    legs = coproduct_split(x, 1)
    assert legs == [(x, NicholsElement.unit(s3))]


def test_counit_law(s3):
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(0, 4)
        z = random_element(s3, rng, n)
        acc = NicholsElement.zero(s3)
        for left, right in coproduct_split(z, n):
            acc = acc + left.scale(counit(right))
        assert acc == z


def test_coproduct_duality_axiom(s4):
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        phi = random_element(s4, rng, n - k)
        psi = random_element(s4, rng, k)
        z = random_element(s4, rng, n)
        total = s4.field.zero
        for left, right in coproduct_split(z, k):
            total += pairing(phi, right) * pairing(psi, left)
        assert pairing(multiply(phi, psi), z) == total


def test_antipode_axiom_per_degree(s3, s4):
    # m (S x id) Delta = unit * counit, exactly, on every basis element
    for state, max_n in ((s3, 4), (s4, 5)):
        for n in range(1, max_n + 1):
            for z in basis_elements(state, n):
                acc = NicholsElement.zero(state)
                for k in range(0, n + 1):
                    for left, right in coproduct_split(z, k):
                        acc = acc + multiply(antipode(left), right)
                assert acc.is_zero()


def test_antipode_examples(s3):
    for x in gens(s3):
        assert antipode(x) == x.scale(-1)
    rng = random.Random(14)
    from nwalgebra.calculus import random_homogeneous

    for _ in range(50):
        xi = random_homogeneous(s3, rng, 4)
        g = w_degree(xi)
        lhs = antipode(antipode(xi))
        rhs = group_act(g, xi).scale(-1 if g.length() % 2 else 1)
        assert lhs == rhs


def test_antipode_inverse(s3, s4):
    for state in (s3, s4):
        for n in range(0, min(6, state.finite_top) + 1):
            s = state.antipode_matrix(n)
            si = state.antipode_inv_matrix(n)
            assert mat_eq(mat_mul(s, si, state.field), mat_identity(state.dim(n), state.field))


def test_rho_antialgebra(s3):
    rng = random.Random(15)
    for _ in range(30):
        a = random_element(s3, rng, rng.randint(0, 2))
        b = random_element(s3, rng, rng.randint(0, 2))
        assert rho(multiply(a, b)) == multiply(rho(b), rho(a))
    # rho is an involution fixing degrees 0 and 1
    for n in (0, 1):
        for z in basis_elements(s3, n):
            assert rho(z) == z


def test_rho_squared_and_sbar(s4):
    rng = random.Random(16)
    for _ in range(20):
        n = rng.randint(0, 4)
        z = random_element(s4, rng, n)
        assert rho(rho(z)) == z
        assert s_bar(s_bar(z)) == z
        # sbar = (-1)^n rho S on homogeneous parts
        assert s_bar(z) == rho(antipode(z)).scale(-1 if n % 2 else 1)


def test_word_reversal_well_defined(s4):
    # reversed representatives of kernel tensors stay in the kernel
    rng = random.Random(17)
    sys = s4.system
    for _ in range(200):
        n = rng.randint(2, 4)
        terms = {}
        for _ in range(4):
            w = tuple(rng.randrange(sys.nroots) for _ in range(n))
            terms[w] = terms.get(w, 0) + rng.randint(-2, 2)
        t = TensorElement(n, {w: Fraction(c) for w, c in terms.items() if c})
        vec = s4.project_tensor(t)
        lift = {}
        for i, c in vec.items():
            lift[s4.bases[n].words[i]] = lift.get(s4.bases[n].words[i], 0) - c
        kernel_tensor = t + TensorElement(n, lift)
        assert not s4.project_tensor(kernel_tensor)
        rev = kernel_tensor.reversed_words()
        assert not s4.project_tensor(rev)


# ---------------------------------------------------------------------------
# predicates and the group grading
# ---------------------------------------------------------------------------


def test_starts_ends_with(s3):
    rng = random.Random(18)
    for g in range(s3.system.nroots):
        xg = NicholsElement.generator(s3, g)
        for _ in range(5):
            z = random_element(s3, rng, rng.randint(0, 2))
            prod = multiply(xg, z)
            if not prod.is_zero():
                assert starts_with(prod, g)
            prod = multiply(z, xg)
            if not prod.is_zero():
                assert ends_with(prod, g)


def test_rho_swaps_starts_and_ends(s3):
    # reversal exchanges the start and end predicates and fixes involvement
    rng = random.Random(27)
    from nwalgebra.nichols_core import rho

    for _ in range(20):
        g = rng.randrange(s3.system.nroots)
        z = random_element(s3, rng, rng.randint(1, 3))
        xg = NicholsElement.generator(s3, g)
        prod = multiply(xg, z)
        if prod.is_zero():
            continue
        assert starts_with(prod, g)
        assert ends_with(rho(prod), g)
        theta = {g, rng.randrange(s3.system.nroots)}
        if involves_only(prod, theta):
            assert involves_only(rho(prod), theta)


def test_product_vanishing_rules(s4):
    # derivative annihilation transported through products:
    # z touching only the complement of theta dies under theta-words,
    # and theta-killed left factors pass through theta-derivatives
    rng = random.Random(28)
    from nwalgebra.nichols_core import theta_span, w_degree

    sys = s4.system
    for _ in range(15):
        theta = sorted(rng.sample(range(sys.nroots), rng.randint(1, 3)))
        comp = sorted(set(range(sys.nroots)) - set(theta))
        n = rng.randint(1, 3)
        span = theta_span(s4, comp, n)
        if not span:
            continue
        z = NicholsElement(s4, {n: span[rng.randrange(len(span))]})
        word = tuple(rng.choice(theta) for _ in range(rng.randint(1, n)))
        xi = NicholsElement.from_word(s4, word)
        if xi.is_zero():
            continue
        assert right_derivative(z, xi).is_zero()
        # left factors killed by the theta derivatives factor out
        z2 = random_element(s4, rng, rng.randint(0, 2))
        assert right_derivative(multiply(z, z2), xi) == multiply(z, right_derivative(z2, xi))

def test_left_twisted_factorization(s4):
    # z1 killed by the left theta-derivatives and group-homogeneous of
    # degree g factors out of left derivatives with a g-twist on the index
    import random as _random

    from nwalgebra.exactlinalg import kernel_basis
    from nwalgebra.nichols_core import w_degree

    rng = _random.Random(29)
    sys = s4.system
    field = s4.field
    checked = 0
    for _ in range(30):
        theta = sorted(rng.sample(range(sys.nroots), rng.randint(1, 2)))
        n = rng.randint(1, 3)
        basis = s4.basis(n)
        classes = sorted(basis.classes, key=lambda e: e.images)
        g = classes[rng.randrange(len(classes))]
        idxs = basis.classes[g]
        m, nrows = mat_stack([(s4.dleft(n, t), s4.dim(n - 1)) for t in theta], basis.dim)
        ker = kernel_basis([m[i] for i in idxs], nrows, field)
        if not ker:
            continue
        z1 = NicholsElement(s4, {n: {idxs[local]: x for local, x in ker[0].items()}})
        assert w_degree(z1) == g
        word = tuple(rng.choice(theta) for _ in range(rng.randint(1, 2)))
        xi = NicholsElement.from_word(s4, word)
        if xi.is_zero():
            continue
        z2 = random_element(s4, rng, rng.randint(0, 2))
        lhs = left_derivative(xi, multiply(z1, z2))
        rhs = multiply(z1, left_derivative(group_act(g.inverse(), xi), z2))
        assert lhs == rhs
        checked += 1
    assert checked >= 5


def test_involves_only_scalar(s3):
    one = NicholsElement.unit(s3)
    assert involves_only(one, set())
    x = NicholsElement.generator(s3, 0)
    assert not involves_only(x, set())
    assert involves_only(x, {0})


def test_w_degree_examples(s3):
    sys = s3.system
    for a in range(sys.nroots):
        assert w_degree(NicholsElement.generator(s3, a)) == sys.reflection(a)
    from nwalgebra.nilcoxeter import embed_element

    for w in sys.elements():
        if w.length() and not embed_element(s3, w).is_zero():
            assert w_degree(embed_element(s3, w)) == w


def test_w_degree_parity(s4):
    rng = random.Random(19)
    from nwalgebra.calculus import random_homogeneous

    for _ in range(500):
        xi = random_homogeneous(s4, rng, 5)
        n = xi.degrees()[0]
        g = w_degree(xi)
        assert g.length() % 2 == n % 2


def test_w_degree_decompose_sums(s4):
    rng = random.Random(20)
    for _ in range(20):
        z = random_element(s4, rng, rng.randint(0, 4))
        parts = w_degree_decompose(z)
        acc = NicholsElement.zero(s4)
        for g, part in parts.items():
            assert w_degree(part) == g
            acc = acc + part
        assert acc == z


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_element_json_roundtrip(s3):
    rng = random.Random(21)
    for _ in range(10):
        z = random_element(s3, rng, rng.randint(0, 3)) + random_element(s3, rng, 1)
        data = element_to_json(z)
        assert element_from_json(s3, data) == z


def test_index_zero_element_is_nonzero(s3):
    # coordinates are {index: scalar} dicts: an element whose only entry
    # sits at index 0 is nonzero (any() on such a dict would read 0)
    gf = AlgebraState(s3.system, PrimeField())
    gf.construct_all()
    for state in (s3, gf):
        one = state.field.one
        zero = NicholsElement.zero(state)
        elements = [(0, NicholsElement.unit(state)), (1, NicholsElement.generator(state, 0))]
        elements += [(n, next(basis_elements(state, n))) for n in range(1, state.finite_top + 1)]
        for n, z in elements:
            assert z.components == {n: {0: one}}
            assert not z.is_zero() and z != zero
            assert z + zero == z and zero + z == z
            assert z + z == z.scale(2) and not (z + z).is_zero()
            assert z.scale(1) == z and z.scale(0) == zero
            assert (z - z).is_zero()
            data = element_to_json(z)
            assert data["degree_components"] == [
                {"degree": n, "terms": [{"word": list(state.bases[n].words[0]), "coeff": "1"}]}]
            assert element_from_json(state, data) == z
        assert counit(elements[0][1]) == one


def test_tensor_predicates(s3):
    sys = s3.system
    theta = sys.index[(1, 1)]
    t = TensorElement(2, {(theta, 0): Fraction(1), (theta, 1): Fraction(-1)})
    assert t.starts_with(theta)
    assert not t.ends_with(theta)
    assert t.involves_only({theta, 0, 1})
    assert not t.involves_only({theta})


def test_s6_partial_construction():
    # quadratic component: 225 - 15 squares - 45 commutations - 40 three-term
    sysa5 = RootSystem(cartan_data("A", 5))
    sq = AlgebraState(sysa5, degree_cap=3)
    sq.ensure_degree(3)
    sp = AlgebraState(sysa5, field=PrimeField(), degree_cap=3)
    sp.ensure_degree(3)
    assert sq.dims()[:4] == sp.dims()[:4] == [1, 15, 125, 765]
    assert symmetrizer_rank(sysa5, 2) == 125


def test_e6_degree_two():
    sys = RootSystem(cartan_data("E", 6))
    st = AlgebraState(sys, field=PrimeField(), degree_cap=2)
    st.ensure_degree(2)
    assert st.dims()[:3] == [1, 36, 750]


def test_construction_memory_bound():
    from nwalgebra.nichols_core import MemoryBoundExceeded

    st = AlgebraState(RootSystem(cartan_data("A", 3)), memory_bound=10)
    with pytest.raises(MemoryBoundExceeded):
        st.construct_all()


def test_type_d_low_degrees():
    # the construction is not tied to type A; dual paths and both lanes agree for D4
    sys = RootSystem(cartan_data("D", 4))
    st = AlgebraState(sys, degree_cap=3)
    st.ensure_degree(3)
    assert st.dim(1) == 12
    for n in (2, 3):
        assert symmetrizer_rank(sys, n) == st.dim(n)
    gf = PrimeField()
    sp = AlgebraState(sys, field=gf, degree_cap=3)
    sp.ensure_degree(3)
    assert sp.dims() == st.dims() == [1, 12, 82, 420]
    for n in (2, 3):
        assert symmetrizer_rank(sys, n, gf) == sp.dim(n)


def test_known_top_guard(monkeypatch):
    # A2 tops out at degree 4; a wrong known top fails loudly either way
    from nwalgebra import cli, nichols_core
    from nwalgebra.nichols_core import TopDegreeMismatch

    for wrong in (3, 5):
        monkeypatch.setitem(nichols_core.KNOWN_TOP, "A2", wrong)
        st = AlgebraState(RootSystem(cartan_data("A", 2)))
        assert st.degree_cap == wrong + 1
        with pytest.raises(TopDegreeMismatch):
            st.construct_all()
        assert cli.main(["dims", "--rank", "2"]) == 1


def test_degree_cap_raises():
    st = AlgebraState(RootSystem(cartan_data("A", 3)), degree_cap=3)
    st.construct_all()
    assert st.truncated
    from nwalgebra.nichols_core import DegreeCapExceeded

    with pytest.raises(DegreeCapExceeded):
        st.ensure_degree(5)


def test_memory_bound_raises():
    from nwalgebra.nichols_core import MemoryBoundExceeded

    with pytest.raises(MemoryBoundExceeded):
        symmetrizer_rank(RootSystem(cartan_data("A", 3)), 4, memory_bound=100)
