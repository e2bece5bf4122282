import hashlib
import random
from fractions import Fraction

import pytest

from nwalgebra.coxeter import RootSystem, cartan_data
from nwalgebra.exactlinalg import QQ, ColumnSolver, PrimeField, rank
from nwalgebra.nichols_core import (
    ZERO_COL,
    AlgebraState,
    NicholsElement,
    UnitColumns,
    antipode,
    element_to_json,
    group_act,
    left_derivative,
    mat_col,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_stack,
    multiply,
    neg_col,
    pairing,
    rho,
    right_derivative,
    right_derivative_columns,
    right_multiplier,
    s_bar,
    split_joint,
)
from nwalgebra.calculus import random_element
from oracles import (
    apply_words,
    basis_elements,
    braid_apply,
    coproduct_legs,
    ends_with,
    involves_only,
    starts_with_set,
    symmetrizer_rank,
    theta_span,
    w_degree,
)


def gens(state):
    return [NicholsElement.generator(state, a) for a in range(state.system.nroots)]


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------


def test_braid_examples(s3):
    sys = s3.system
    a1, a2 = sys.simple_index
    theta = sys.index[(1, 1)]
    assert braid_apply(sys, (a1, a2), 0) == (1, (theta, a1))
    assert braid_apply(sys, (a1, a1), 0) == (-1, (a1, a1))


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
    # every lmul/dleft entry and every stored derivative vector over GF(p)
    # is the rational one reduced mod p
    gf = PrimeField()
    st = AlgebraState(s4.system, field=gf)
    st.construct_all()
    assert st.dims() == s4.dims()

    def reduced(mat):
        return [{c: gf.of(v) for c, v in row.items() if gf.of(v)} for row in mat]

    for bp, bq in zip(st.bases, s4.bases):
        n = bp.degree
        assert bp.words == bq.words
        assert bp.derivs == reduced(bq.derivs), n
        assert bp.lmul.keys() == bq.lmul.keys()
        for key in bq.lmul:
            assert bp.lmul[key] == reduced(bq.lmul[key]), (n, key)
        for g in range(s4.system.nroots) if n else ():
            assert st.dleft(n, g) == reduced(s4.dleft(n, g)), (n, g)


def test_rational_structure_matrices_are_int(s4):
    # every A3 structure constant is integral, so the rational lane must
    # hold plain ints: a Fraction here means the fast lane fell back
    for n in range(1, s4.finite_top + 1):
        mats = [s4.antipode_matrix(n)]
        for a in range(s4.system.nroots):
            mats += [s4.lmul(n, a), s4.dleft(n, a), s4.dright(n, a)]
        for mat in mats:
            assert all(type(v) is int for col in mat for v in col.values()), n


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["rational", "prime-101"])
def test_mat_pow_matches_repeated_products(field, monkeypatch):
    # a^k against k - 1 products of a, and the count of products:
    # bit_length(k) - 1 squarings and popcount(k) - 1 other products
    from nwalgebra import nichols_core

    a = [field.canon({0: 2, 1: field.of(Fraction(1, 3))}), field.canon({1: -1, 2: 5}),
         field.canon({0: 1, 2: field.of(Fraction(-3, 2))})]
    calls = []

    def counting(x, y, fld):
        calls.append(None)
        return mat_mul(x, y, fld)

    monkeypatch.setattr(nichols_core, "mat_mul", counting)
    expect = mat_identity(3, field)
    for k in range(14):
        calls.clear()
        assert mat_pow(a, k, field) == expect, k
        assert len(calls) == (k.bit_length() + bin(k).count("1") - 2 if k else 0), k
        expect = mat_mul(expect, a, field)
    calls.clear()
    mat_pow(a, 12, field)
    assert len(calls) == 4


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
                    want[i] = field.normalize(want[i] + dense[i][j] * vec[j])
            want = {i: x for i, x in enumerate(want) if x}
            got = mat_col(mat, {j: x for j, x in enumerate(vec) if x}, field)
            assert got == want
            assert {i: type(x) for i, x in got.items()} == {i: type(x) for i, x in want.items()}


def _mat_col_reference(mat, col, field, plus=None):
    """M c (+ plus), accumulated in full and normalized entry by entry."""
    acc = dict(plus) if plus else {}
    for j, x in col.items():
        for i, v in mat[j].items():
            acc[i] = acc.get(i, 0) + v * x
    return {i: y for i, x in acc.items() if (y := field.normalize(x))}


@pytest.mark.parametrize("field", [QQ, PrimeField()], ids=["rational", "prime"])
def test_mat_col_matches_accumulate_reference(field):
    # every shortcut of mat_col (empty column, one entry scaled by one,
    # minus one or another value) gives the full accumulation's values,
    # scalar types and entry order, and shares only what it may: a stored
    # column is never changed in place
    rng = random.Random(23)
    pool = [field.of(x) for x in (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2))]
    kinds = {"one": [field.one], "minus_one": [field.of(-1)],
             "other": [x for x in pool if x not in (field.one, field.of(-1))]}
    seen = set()
    for _ in range(300):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 6)
        mat = [{i: rng.choice(pool) for i in rng.sample(range(nrows), rng.randint(0, nrows))}
               for _ in range(ncols)]
        kind = rng.choice(["empty", "one", "minus_one", "other", "multi"])
        if kind == "empty":
            col = {}
        elif kind == "multi":
            size = min(ncols, 2 + rng.randrange(3))
            col = {j: rng.choice(pool) for j in rng.sample(range(ncols), size)}
        else:
            col = {rng.randrange(ncols): rng.choice(kinds[kind])}
        for plus in (None, {i: rng.choice(pool) for i in rng.sample(range(nrows), 1)}):
            seen.add((kind, plus is None, len(col)))
            got = mat_col(mat, col, field, plus)
            want = _mat_col_reference(mat, col, field, plus)
            assert list(got.items()) == list(want.items())
            assert [type(x) for x in got.values()] == [type(x) for x in want.values()]
            # column j itself for {j: one}, else a new dict; empty: the zero column
            if not got:
                assert got is ZERO_COL
            elif plus is None and list(col.values()) == [field.one]:
                assert got is mat[next(iter(col))]
            else:
                assert type(got) is dict and all(got is not m for m in (*mat, plus))
    assert {(k, p) for k, p, _ in seen} == {(k, p) for k in ("empty", "one", "minus_one", "other",
                                                             "multi") for p in (True, False)}
    assert any(k == "multi" and size > 1 for k, _, size in seen)
    with pytest.raises(TypeError):
        ZERO_COL[0] = field.one


@pytest.mark.parametrize("field", [QQ, PrimeField()], ids=["rational", "prime"])
def test_unit_columns_keep_one_copy_per_row_and_value(field):
    # the first {k: 1} or {k: -1} offered becomes the copy for (k, value);
    # every other column comes back as it is
    units = UnitColumns(field)
    one, minus = {3: field.one}, {3: field.minus_one}
    assert units.share(one) is one and units.share({3: field.one}) is one
    assert units.share(minus) is minus and units.share(dict(minus)) is minus
    assert units.unit(3) is one
    other, low = {3: field.of(2)}, {0: field.one}
    assert units.share(other) is other and units.share(low) is low
    assert units.unit(0) is low
    cols = [ZERO_COL, {3: field.one}, {0: field.one, 3: field.one}, {3: field.minus_one}, other]
    multi = cols[2]
    assert units.share_all(cols) is cols
    assert [c is w for c, w in zip(cols, [ZERO_COL, one, multi, minus, other])] == [True] * 5


@pytest.mark.parametrize("which", ["s4", "s4_prime"])
def test_structure_columns_are_canonical(which, request):
    # mat_col shares a stored column for a coefficient one without
    # renormalizing it, so every structure matrix must hold canonical
    # values: no zero, a residue in 1..p-1 over GF(p), and over Q an int
    # or a Fraction that is not integral
    state = request.getfixturevalue(which)
    field, sys = state.field, state.system
    if field.prime is None:
        def canonical(x):
            return type(x) is int and x != 0 or type(x) is Fraction and x.denominator != 1
    else:
        def canonical(x):
            return type(x) is int and 0 < x < field.prime
    movers = [sys.reflection(sys.simple_index[0]), sys.longest_element()]
    for n in range(1, state.finite_top + 1):
        mats = {"rho": state.rho_matrix(n), "antipode": state.antipode_matrix(n),
                "antipode_inv": state.antipode_inv_matrix(n), "gram": state.gram(n)}
        for a in range(sys.nroots):
            mats.update({("lmul", a): state.lmul(n, a), ("dleft", a): state.dleft(n, a),
                         ("dright", a): state.dright(n, a), ("rmul", a): state.rmul(n, a)})
        for w in movers:
            mats[("act", w.images)] = state.act_matrix(n, w)
        for key, mat in mats.items():
            bad = [x for col in mat for x in col.values() if not canonical(x)]
            assert bad == [], (n, key, bad[:3])


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


@pytest.mark.parametrize("prime", [False, True])
def test_right_multiplier_matches_multiply(s3, prime):
    # x -> x y from the per-degree basis products b_i y, on elements with
    # several components, products past the top degree included, and x
    # of any degree in any order against the same map.  The oracle is
    # independent of it: b_i b_k is the class of the concatenated word,
    # which ``word_column`` replays letter by letter through ``lmul``
    state = s3
    if prime:
        state = AlgebraState(s3.system, field=PrimeField())
        state.construct_all()

    def word_product(x, y):
        out = NicholsElement(state)
        for nx, vx in x.components.items():
            for ny, vy in y.components.items():
                for i, c in vx.items():
                    for k, d in vy.items():
                        word = state.bases[nx].words[i] + state.bases[ny].words[k]
                        out = out + NicholsElement.from_word(state, word).scale(c * d)
        return out

    rng = random.Random(21)
    for _ in range(15):
        y = random_element(state, rng, rng.randint(0, 4)) + random_element(state, rng, rng.randint(0, 4))
        times_y = right_multiplier(y)
        for _ in range(4):
            x = random_element(state, rng, rng.randint(0, 4)) + random_element(state, rng, rng.randint(0, 4))
            assert times_y(x) == multiply(x, y) == word_product(x, y)


@pytest.mark.parametrize("field", [QQ, PrimeField(), PrimeField(3)],
                         ids=["rational", "prime", "prime-3"])
def test_right_multiplier_sums_like_one_running_sum(s3, field):
    # each degree of x y is one running sum over the component pairs of
    # x_nx[j] * b_j y_ny, made canonical once: the same values, scalar
    # types and entry order, so a key that cancels part way keeps its
    # first place.  Over GF(3) partial sums cancel often
    state = s3
    if field is not QQ:
        state = AlgebraState(s3.system, field=field)
        state.construct_all()

    def entries(z):
        return [(n, list(v.items()), [type(x) for x in v.values()])
                for n, v in z.components.items()]

    rng = random.Random(8)
    for _ in range(40):
        x, y = (sum((random_element(state, rng, rng.randint(0, 3)) for _ in range(3)),
                    NicholsElement(state)) for _ in range(2))
        want = {}
        for nx, vx in x.components.items():
            for ny, vy in y.components.items():
                products = right_multiplier(NicholsElement(state, {ny: vy})).columns(nx)
                acc = want.setdefault(nx + ny, {})
                for j, c in vx.items():
                    for t, v in products[j].items():
                        acc[t] = acc.get(t, 0) + c * v
        want = NicholsElement(state, {n: field.canon(acc) for n, acc in want.items()})
        assert entries(right_multiplier(y)(x)) == entries(want)


@pytest.mark.parametrize("prime", [False, True])
def test_operator_columns_match_the_element_operations(s4, prime):
    # the columns b_i y and (b_i)D_y that the Leibniz-form checks compare
    # are, degree by degree, right_multiplier and right_derivative applied
    # to each basis element; y of degree 0 and of the top degree included,
    # and y = 0 gives zero columns
    state = s4
    if prime:
        state = AlgebraState(s4.system, field=PrimeField())
        state.construct_all()
    rng = random.Random(6)
    top = state.finite_top
    ys = [random_element(state, rng, d) for d in (0, 1, 2, 3, 6, top)]
    ys += [NicholsElement(state), NicholsElement.from_word(state, (0, 1, 0))]
    for y in ys:
        times, derive = right_multiplier(y), right_derivative_columns(y)
        m = max(y.degrees(), default=0)
        for n in range(top + 1):
            products, derivatives = times.columns(n), derive(n)
            assert len(products) == len(derivatives) == state.dim(n)
            for i, b in enumerate(basis_elements(state, n)):
                assert products[i] == times(b).components.get(n + m, {})
                assert derivatives[i] == right_derivative(b, y).components.get(n - m, {})
        assert derive(top) is derive(top)  # each degree is built once


def test_operator_columns_refuse_an_inhomogeneous_element(s3):
    y = NicholsElement.unit(s3) + NicholsElement.generator(s3, 0)
    with pytest.raises(ValueError, match="homogeneous"):
        right_derivative_columns(y)
    with pytest.raises(ValueError, match="homogeneous"):
        right_multiplier(y).columns(1)


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


def test_action_and_reversal_match_per_word_definition(s4):
    # act_matrix and rho_matrix recurse over the parents of each basis
    # word; the oracle applies their definitions word by word: w acts
    # letterwise, w(x_a) = sign * x_{|w(a)|}, and rho reverses the word
    sp = AlgebraState(s4.system, field=PrimeField())
    sp.construct_all()
    sys = s4.system
    s1, s2 = sys.simple_reflection(0), sys.simple_reflection(1)
    group = [sys.simple_reflection(i) for i in range(sys.rank)]
    group += [sys.longest_element(), s1 * s2]
    assert (s1 * s2) * (s1 * s2) != sys.identity()
    for state in (s4, sp):
        for n in range(state.finite_top + 1):
            words = state.basis(n).words
            for w in group:
                expected = []
                for word in words:
                    images = [w.act(a + 1) for a in word]
                    col = state.word_column(tuple(abs(s) - 1 for s in images))
                    if sum(s < 0 for s in images) % 2:
                        col = neg_col(col, state.field)
                    expected.append(col)
                assert state.act_matrix(n, w) == expected
            assert state.rho_matrix(n) == [state.word_column(word[::-1]) for word in words]


@pytest.mark.parametrize("which", ["s4", "s4_prime"])
def test_derivatives_match_the_per_word_composition(which, request):
    # right_derivative and left_derivative walk the words of each
    # component of y as one tree, by first letter for D right and by last
    # letter for D left; the oracle composes the letter maps word by word,
    # on y and z with several degrees each
    state = request.getfixturevalue(which)
    rng = random.Random(31)

    def several_degrees(high):
        out = NicholsElement(state)
        while len(out.degrees()) < 2:  # a degree-0 draw can be zero
            for d in rng.sample(range(high + 1), rng.randint(2, 3)):
                out = out + random_element(state, rng, d)
        return out

    for _ in range(6):
        y, z = several_degrees(4), several_degrees(state.finite_top)
        right = right_derivative(z, y)
        assert right == apply_words(y, z, state.dright, False)
        assert left_derivative(y, z) == apply_words(y, z, state.dleft, True)
        assert not right.is_zero()


def test_left_derivative_view_matches_word_recursion(s4):
    # dleft(n, g) is a view of the stored derivative vectors; the oracle
    # applies D_g(x_a z) = [g = a] z + sign * x_a D_{|s_a(g)|}(z) to each
    # basis word, letter by letter, and projects the words it gives
    sys = s4.system
    sp = AlgebraState(sys, field=PrimeField())
    sp.construct_all()
    memo = {}

    def d_word(g, word):
        """D_g of a word, as {word: integer coefficient}."""
        key = (g, word)
        if key not in memo:
            out = {}
            if word:
                a, rest = word[0], word[1:]
                if g == a:
                    out[rest] = 1
                s = sys.refl[a][g]
                for w, c in d_word(abs(s) - 1, rest).items():
                    w = (a,) + w
                    out[w] = out.get(w, 0) + (c if s > 0 else -c)
            memo[key] = {w: c for w, c in out.items() if c}
        return memo[key]

    for state in (s4, sp):
        field = state.field
        for n in range(1, state.finite_top + 1):
            words = state.basis(n).words
            for g in range(sys.nroots):
                expected = []
                for word in words:
                    acc = {}
                    for w, c in d_word(g, word).items():
                        for i, x in state.word_column(w).items():
                            acc[i] = acc.get(i, 0) + c * x
                    expected.append({i: y for i, x in acc.items() if (y := field.normalize(x))})
                assert state.dleft(n, g) == expected, (field, n, g)


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
                    assert g[i].get(j, 0) == g[j].get(i, 0)
            assert rank(g) == dim


def test_gram_inverse(s4):
    # the pairing is nondegenerate: gram(n) has full rank, so an inverse,
    # in every A3 degree, over Q and GF(p)
    sp = AlgebraState(s4.system, field=PrimeField())
    sp.construct_all()
    for state in (s4, sp):
        for n in range(state.finite_top + 1):
            assert rank(state.gram(n), state.field) == state.dim(n)


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
            assert d == (one if a == g else NicholsElement(s3))


def test_degree_zero_maps(s3):
    # the unit has no derivative, and x_a multiplies into degree 1 and up
    for g in range(s3.system.nroots):
        assert s3.dleft(0, g) == s3.dright(0, g) == [{}]
    for mul in (s3.lmul, s3.rmul):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"degree {n} has no degree {n - 1}"):
                mul(n, 0)
    assert s3.lmul(1, 2) == s3.rmul(1, 2) == [{2: 1}]


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
    legs = coproduct_legs(x, 1)
    assert legs == [(x, NicholsElement.unit(s3))]


def test_counit_law(s3):
    # the counit is the degree-0 coordinate
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(0, 4)
        z = random_element(s3, rng, n)
        acc = NicholsElement(s3)
        for left, right in coproduct_legs(z, n):
            acc = acc + left.scale(right.component(0).get(0, 0))
        assert acc == z


def test_coproduct_duality_axiom(s4):
    # the Gram recursion of the pairing against the braided word coproduct
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        phi = random_element(s4, rng, n - k)
        psi = random_element(s4, rng, k)
        z = random_element(s4, rng, n)
        total = s4.field.zero
        for left, right in coproduct_legs(z, k):
            total += pairing(phi, right) * pairing(psi, left)
        assert pairing(multiply(phi, psi), z) == total


def test_antipode_axiom_per_degree(s3, s4):
    # m (S x id) Delta = unit * counit, exactly, on every basis element
    for state, max_n in ((s3, 4), (s4, 5)):
        for n in range(1, max_n + 1):
            for z in basis_elements(state, n):
                acc = NicholsElement(state)
                for k in range(0, n + 1):
                    for left, right in coproduct_legs(z, k):
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


def test_antipode_inverse(s3, s4, s4_prime):
    # S and S^{-1} are two independent recursions, through lmul and rmul,
    # and S S^{-1} = I certifies them: a one-sided inverse of a square
    # matrix is its inverse
    capped = [AlgebraState(RootSystem(cartan_data(t, 4)), field=PrimeField(), degree_cap=5)
              for t in ("A", "D")]
    for state in (s3, s4, s4_prime, *capped):
        top = 5 if state.finite_top is None else min(6, state.finite_top)
        for n in range(top + 1):
            s = state.antipode_matrix(n)
            si = state.antipode_inv_matrix(n)
            assert mat_mul(s, si, state.field) == mat_identity(state.dim(n), state.field)


ANTIPODE_CASES = pytest.mark.parametrize("type_,rank_,prime", [
    ("A", 3, False), ("A", 3, True), ("A", 4, True), ("D", 4, True)])


def _antipode_state(s4, type_, rank_, prime):
    """A3 over Q and over GF(p) to the top, A4/GF(p) to degree 5 and
    D4/GF(p) to degree 4, built."""
    if (type_, rank_, prime) == ("A", 3, False):
        return s4
    cap = {"A3": None, "A4": 5, "D4": 4}[f"{type_}{rank_}"]
    state = AlgebraState(RootSystem(cartan_data(type_, rank_)),
                         field=PrimeField() if prime else QQ, degree_cap=cap)
    state.construct_all()
    return state


@ANTIPODE_CASES
def test_antipode_inverse_recursion_is_the_twisted_antipode(s4, type_, rank_, prime):
    # antipode_inv_matrix is the parents recursion S^{-1}(x_a z) =
    # -S^{-1}(z) (g^{-1} . x_a) through rmul; the oracle is the twist
    # (-1)^{l(g)} g^{-1} S on each column of class g, through the group
    # action's matrices
    state = _antipode_state(s4, type_, rank_, prime)
    field = state.field
    for n in range(len(state.bases)):
        s = state.antipode_matrix(n)
        expected = [None] * state.dim(n)
        for g, idx in state.basis(n).classes.items():
            act, odd = state.act_matrix(n, g.inverse()), g.length() % 2
            for i in idx:
                expected[i] = mat_col(act, neg_col(s[i], field) if odd else s[i], field)
        assert state.antipode_inv_matrix(n) == expected, n


@ANTIPODE_CASES
def test_antipode_prefix_recursion_matches_the_parents_formula(s4, type_, rank_, prime):
    # antipode_matrix is the prefix recursion S(z x_e) = -(g . x_e) S(z)
    # through lmul; the oracle is the parents recursion S(x_a z) =
    # -(s_a . S(z)) x_a, through the action of s_a and rmul.  The twisted
    # antipode sbar = (-1)^n rho S is an involution, so S^{-1} = rho S rho
    state = _antipode_state(s4, type_, rank_, prime)
    field, sys = state.field, state.system
    expected = mat_identity(1, field)
    assert state.antipode_matrix(0) == expected
    for n in range(1, len(state.bases)):
        expected = [mat_col(state.rmul(n, a),
                            mat_col(state.act_matrix(n - 1, sys.reflection(a)),
                                    neg_col(expected[j], field), field), field)
                    for a, j in state.basis(n).parents]
        assert state.antipode_matrix(n) == expected, n
    for n in range(len(state.bases)):
        r = state.rho_matrix(n)
        assert state.antipode_inv_matrix(n) == mat_mul(r, mat_mul(
            state.antipode_matrix(n), r, field), field), n


def test_state_is_freed_without_the_cycle_collector():
    # the lazily built action columns, the memoized maps and the operator
    # columns must not hold the state in a reference cycle: with the cyclic collector off, the
    # state goes as soon as the last reference to it does
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        sys_ = RootSystem(cartan_data("A", 2))
        state = AlgebraState(sys_)
        state.construct_all()
        x = NicholsElement(state, {2: {0: state.field.one, 2: state.field.of(3)}})
        y = group_act(sys_.longest_element(), x)
        z = state.antipode_inv_matrix(2)
        assert state.act_matrix(2, sys_.simple_reflection(0))[1]
        # and the operator columns the Leibniz-form checks read
        derive, times = right_derivative_columns(x), right_multiplier(x)
        assert derive(4)[0] and times.columns(1)[0]
        ref = weakref.ref(state)
        del state, x, y, z, derive, times
        assert ref() is None
        # a capped state, which stops short of the top
        capped = AlgebraState(RootSystem(cartan_data("A", 3)), degree_cap=4)
        capped.construct_all()
        ref = weakref.ref(capped)
        del capped
        assert ref() is None
    finally:
        gc.enable()


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
    # reversed representatives of kernel tensors stay in the kernel; a
    # tensor is a {word: coefficient} dict, projected word by word
    rng = random.Random(17)
    sys = s4.system

    def project(tensor):
        acc = {}
        for w, c in tensor.items():
            for i, v in s4.word_column(w).items():
                acc[i] = acc.get(i, 0) + c * v
        return s4.field.canon(acc)

    for _ in range(200):
        n = rng.randint(2, 4)
        kernel_tensor = {}
        for _ in range(4):
            w = tuple(rng.randrange(sys.nroots) for _ in range(n))
            kernel_tensor[w] = kernel_tensor.get(w, 0) + rng.randint(-2, 2)
        for i, c in project(kernel_tensor).items():
            w = s4.bases[n].words[i]
            kernel_tensor[w] = kernel_tensor.get(w, 0) - c
        assert not project(kernel_tensor)
        assert not project({w[::-1]: c for w, c in kernel_tensor.items()})


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
                assert starts_with_set(prod, {g})
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
        assert starts_with_set(prod, {g})
        assert ends_with(rho(prod), g)
        theta = {g, rng.randrange(s3.system.nroots)}
        if involves_only(prod, theta):
            assert involves_only(rho(prod), theta)


def test_product_vanishing_rules(s4):
    # derivative annihilation transported through products:
    # z touching only the complement of theta dies under theta-words,
    # and theta-killed left factors pass through theta-derivatives
    rng = random.Random(28)
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
        m = mat_stack([(s4.dleft(n, t), s4.dim(n - 1)) for t in theta], basis.dim)
        ker = kernel_basis([m[i] for i in idxs], field)
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_index_zero_element_is_nonzero(s3):
    # coordinates are {index: scalar} dicts: an element whose only entry
    # sits at index 0 is nonzero (any() on such a dict would read 0)
    gf = AlgebraState(s3.system, PrimeField())
    gf.construct_all()
    for state in (s3, gf):
        one = state.field.one
        zero = NicholsElement(state)
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


@pytest.mark.parametrize("field", [QQ, PrimeField()], ids=["rational", "prime"])
def test_construction_memory_bound(field):
    from nwalgebra.nichols_core import MemoryBoundExceeded

    st = AlgebraState(RootSystem(cartan_data("A", 3), memory_bound=10), field=field)
    with pytest.raises(MemoryBoundExceeded):
        st.construct_all()
    # the bound counts rows times candidates of a class block on either
    # field: degree 5 has blocks of more than eight candidates
    st = AlgebraState(RootSystem(cartan_data("A", 3), memory_bound=1000), field=field)
    with pytest.raises(MemoryBoundExceeded, match="^degree 5 class block needs 1444 entries$"):
        st.construct_all()
    assert st.dims() == [1, 6, 19, 42, 71]


def test_construction_peak_memory():
    # the construction keeps one derivative vector per basis element and
    # splits none of them: on Python 3.11, A4 to degree 5 over GF(p)
    # peaked at 12.5 MB of Python allocations while it also kept per-root
    # dleft columns and per-candidate tables, and at 6.6 MB without, the
    # right multiplications the fill files at the cap among it; 5.1 MB
    # since the maps share unit and zero columns instead of copying them
    import tracemalloc

    sys = RootSystem(cartan_data("A", 4))
    tracemalloc.start()
    try:
        st = AlgebraState(sys, field=PrimeField(), degree_cap=5)
        st.construct_all()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert st.dims() == [1, 10, 55, 220, 711, 1960]
    assert peak < 6_000_000, peak
    assert not any(key[0] == "dleft" for b in st.bases for key in b.cache)


def test_construction_held_memory():
    # what a build keeps once it returns: the bases, the right
    # multiplications the fill filed and the rmul columns it read one
    # degree down.  On Python 3.11, A4 to degree 6 over GF(p) held 15.3 MB
    # before the build filed its maps and 18.4 MB since, 3.1 MB of it the
    # cap's maps, which reversal and the antipode at the cap read; 13.9 MB
    # since the maps share unit and zero columns instead of copying them.
    # Python 3.11.7 reads 14.2 MB both before and since every structure
    # map stores one copy per state of each unit column {k: ±1}: the
    # build's own maps hold few such copies
    import gc
    import tracemalloc

    sys = RootSystem(cartan_data("A", 4))
    tracemalloc.start()
    try:
        st = AlgebraState(sys, field=PrimeField(), degree_cap=6)
        st.construct_all()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert st.dims() == [1, 10, 55, 220, 711, 1960, 4761]
    assert held < 16_000_000, held


@pytest.mark.parametrize("type_,rank_,top", [("A", 4, 5), ("D", 4, 4)])
def test_prime_construction_matches_dense_modp_oracle(monkeypatch, type_, rank_, top):
    # every class block solved a second time by a dense fill and
    # modp.greedy_solve gives the same basis and structure columns
    import numpy as np

    from nwalgebra import modp

    offered = {}  # degree -> vectors the dense solver reduced

    def dense_solve(self, vectors):
        n = len(self.bases)
        offered[n] = offered.get(n, 0) + len(vectors)
        rows = sorted({r for vec in vectors for r in vec})
        at = {r: i for i, r in enumerate(rows)}
        a = np.zeros((len(rows), len(vectors)), dtype=np.int64)
        for ci, vec in enumerate(vectors):
            for r, x in vec.items():
                a[at[r], ci] = x
        sel, coords = modp.greedy_solve(a, self.field.prime)
        out = [dict() for _ in vectors]
        for k, row in enumerate(coords.tolist()):
            for ci, x in enumerate(row):
                if x:
                    out[ci][k] = x
        return sel.tolist(), out

    sys = RootSystem(cartan_data(type_, rank_))
    sparse = AlgebraState(sys, field=PrimeField(), degree_cap=top)
    sparse.construct_all()
    monkeypatch.setattr(AlgebraState, "_solve_block", dense_solve)
    dense = AlgebraState(sys, field=PrimeField(), degree_cap=top)
    dense.construct_all()
    # the dense solver reduced the offered vectors of every degree
    assert sorted(offered) == list(range(2, top + 1)) and all(offered.values())
    assert sparse.dims() == dense.dims()
    for n in range(1, top + 1):
        got, want = sparse.bases[n], dense.bases[n]
        assert got.words == want.words and got.parents == want.parents
        assert got.lmul == want.lmul and got.derivs == want.derivs
        for g in range(sys.nroots):
            assert sparse.dleft(n, g) == dense.dleft(n, g)


@pytest.mark.parametrize("type_,rank_,field,cap",
                         [("A", 3, QQ, None), ("A", 3, PrimeField(), None),
                          ("A", 4, PrimeField(), 6), ("D", 4, PrimeField(), 5)],
                         ids=["A3-rational", "A3-prime", "A4-prime-6", "D4-prime-5"])
def test_every_lmul_column_certified_by_left_derivatives(type_, rank_, field, cap):
    # an element is zero exactly when all its left derivatives vanish, so
    # x_a b_j = sum_i lmul[a][j][i] b_i holds exactly when the joint
    # derivative vector of x_a b_j is sum_i lmul[a][j][i] derivs[i]; this
    # certifies every column, reduced or taken from the degree-2
    # relations, without any eliminator
    sys = RootSystem(cartan_data(type_, rank_))
    st = AlgebraState(sys, field=field, degree_cap=cap)
    st.construct_all()
    wrong = [(n, a, j) for n in range(2, len(st.bases))
             for a in range(sys.nroots)
             for j, col in enumerate(st.bases[n].lmul[a])
             if st._candidate_vector(a, j, st.bases[n - 1])
             != mat_col(st.bases[n].derivs, col, st.field)]
    assert wrong == []


@pytest.mark.parametrize("type_,rank_,field,cap",
                         [("A", 2, QQ, None), ("A", 2, PrimeField(), None),
                          ("A", 3, QQ, None), ("A", 3, PrimeField(), None),
                          ("A", 4, PrimeField(), 6), ("D", 4, PrimeField(), 5)],
                         ids=["A2-rational", "A2-prime", "A3-rational", "A3-prime",
                              "A4-prime-6", "D4-prime-5"])
def test_every_basis_word_has_a_basis_prefix(type_, rank_, field, cap):
    # the kept words are the lex-normal ones, which are closed under taking
    # prefixes, and the build derives every candidate with a non-basis
    # prefix on this: each word's prefix is the basis word its stored
    # prefix index names
    st = AlgebraState(RootSystem(cartan_data(type_, rank_)), field=field, degree_cap=cap)
    st.construct_all()
    for n in range(1, len(st.bases)):
        below, b = st.bases[n - 1].words, st.bases[n]
        assert [below[j2] for j2 in b.prefixes] == [w[:-1] for w in b.words]


@pytest.mark.parametrize("type_,rank_,field,cap",
                         [("A", 3, QQ, None), ("A", 3, PrimeField(), None),
                          ("A", 4, PrimeField(), 5), ("D", 4, PrimeField(), 4)],
                         ids=["A3-rational", "A3-prime", "A4-prime-5", "D4-prime-4"])
def test_word_build_files_its_right_multiplications(type_, rank_, field, cap):
    # the fill sums each prefix-derived column x_a b_j, b_j = b_j2 x_e,
    # through right multiplication by x_e into the new degree, and files
    # that map as rmul(n, e) for each e it used, at the cap too.  Degree
    # n + 1's fill also reads rmul(n, e) for letters degree n's fill did
    # not use, which files those on read
    sys = RootSystem(cartan_data(type_, rank_))
    st = AlgebraState(sys, field=field, degree_cap=cap)
    st.construct_all()
    top = len(st.bases) - 1
    used_any = False
    for n in range(2, top + 1):
        words = st.bases[n - 1].words
        below = set(words)
        used = {w[-1] for a in range(sys.nroots) for w in words if (a,) + w[:-1] not in below}
        filed = {key[1] for key in st.bases[n].cache if key[0] == "rmul"}
        assert used <= filed, n
        used_any |= bool(used)
    assert used_any
    # every column of every rmul, filed or built on read, against the
    # word's coordinates read through lmul alone
    for n in range(1, top + 1):
        words = st.bases[n - 1].words
        for e in range(sys.nroots):
            assert list(st.rmul(n, e)) == [st.word_column(w + (e,)) for w in words], (n, e)


@pytest.mark.parametrize("type_,rank_,field,cap",
                         [("A", 3, QQ, None), ("A", 4, PrimeField(), 5)],
                         ids=["A3-rational", "A4-prime-5"])
def test_right_products_derive_each_column_once(monkeypatch, type_, rank_, field, cap):
    # a build followed by rho_matrix, antipode_matrix and
    # antipode_inv_matrix at every degree, the cap's included, derives
    # column i of each rmul(n, e) once: the read path reuses the maps the
    # fill filed, and makes no lifted map that is not filed
    from nwalgebra import nichols_core

    cls = nichols_core.LazyColumns
    init, column = cls.__init__, cls._column
    made = []     # every lifted map, kept alive so that no id is reused
    derived = []  # (id of the map, i) per column built

    def tracking_init(self, *args):
        init(self, *args)
        made.append(self)

    def tracking_column(self, i):
        derived.append((id(self), i))
        return column(self, i)

    monkeypatch.setattr(cls, "__init__", tracking_init)
    monkeypatch.setattr(cls, "_column", tracking_column)
    st = AlgebraState(RootSystem(cartan_data(type_, rank_)), field=field, degree_cap=cap)
    st.construct_all()
    in_build = len(derived)
    for n in range(len(st.bases)):
        st.rho_matrix(n)
        st.antipode_matrix(n)
        st.antipode_inv_matrix(n)
    filed = {id(m): (b.degree, key[1]) for b in st.bases for key, m in b.cache.items()
             if key[0] == "rmul"}
    assert all(id(m) in filed for m in made)
    seen = [(filed[m], i) for m, i in derived]
    assert 0 < in_build < len(seen)
    assert len(seen) == len(set(seen))


def _prefix_derived(st, n):
    """How many columns of lmul at degree n have a prefix that is not a
    basis word, counted on the words."""
    words = st.bases[n - 1].words
    below = set(words)
    return sum((a,) + word[:-1] not in below for a in range(st.system.nroots) for word in words)


@pytest.mark.parametrize("type_,rank_,cap,offered,candidates",
                         [("A", 4, 5, 3054, 9960), ("A", 4, 6, 7827, 29560),
                          ("D", 4, 5, 9192, 27612)])
def test_construction_reduces_only_candidates_not_derived_from_relations(
        monkeypatch, type_, rank_, cap, offered, candidates):
    # the prefix-only rule: a candidate x_a b_j whose prefix is not a basis
    # word is expressed from earlier columns, never assembled or offered
    # to the eliminator, and every other candidate, all of degree 2, is
    # offered once.  The word build files no degree-2 relation table: from
    # degree 3 on, a candidate x_a x_c b_k whose x_a x_c is a sum of words
    # with smaller first letters has the non-basis prefix x_a x_c ...
    from nwalgebra import nichols_core

    calls, prefixed, vectors = [], [], []
    add = ColumnSolver.add
    mat_col = nichols_core.mat_col
    candidate_vector = AlgebraState._candidate_vector

    def counting_add(self, vec, express=False):
        calls.append(express)
        return add(self, vec, express)

    def counting_mat_col(mat, col, field, plus=None):
        # the build applies a right multiplication map (LazyColumns) to
        # a vector only to sum a prefix-derived candidate
        if isinstance(mat, nichols_core.LazyColumns):
            prefixed.append(col)
        return mat_col(mat, col, field, plus)

    def recording_vector(self, a, j, prev):
        vectors.append((prev.degree + 1, a, j))
        return candidate_vector(self, a, j, prev)

    monkeypatch.setattr(ColumnSolver, "add", counting_add)
    monkeypatch.setattr(nichols_core, "mat_col", counting_mat_col)
    monkeypatch.setattr(AlgebraState, "_candidate_vector", recording_vector)
    sys = RootSystem(cartan_data(type_, rank_))
    st = AlgebraState(sys, field=PrimeField(), degree_cap=cap)
    st.construct_all()
    assert not hasattr(st, "_relations") and not hasattr(st, "_degree_two_relations")
    assert sum(sys.nroots * b.dim for b in st.bases[1:-1]) == candidates
    # every solver add is the eliminator's, each offered candidate once
    assert calls.count(False) == 0
    assert calls.count(True) == len(vectors) == len(set(vectors)) == offered
    assert sum(n == 2 for n, _, _ in vectors) == sys.nroots ** 2
    # offered and prefix-derived candidates are all the candidates, each
    # prefix-derived one summed once
    counts = [_prefix_derived(st, n) for n in range(2, len(st.bases))]
    assert offered + sum(counts) == candidates
    assert len(prefixed) == sum(counts)
    assert counts[0] == 0  # every degree-1 word is a basis word
    # each offered candidate x_a b_j has a basis prefix (a,) + word_j[:-1]
    # and a basis suffix word_j
    words = [set(b.words) for b in st.bases]
    assert all((a,) + st.bases[n - 1].words[j][:-1] in words[n - 1]
               and st.bases[n - 1].words[j] in words[n - 1] for n, a, j in vectors)


def _entries(col, ordered):
    """A column's (index, value) pairs, in its order or sorted by index."""
    return list(col.items()) if ordered else sorted(col.items())


def structure_digest(state, ordered=True):
    """sha256 of the words, parents, wdegs, every lmul column's entries
    with their scalar types (``repr`` tells an int from a Fraction), and
    the joint derivative vectors, degree by degree.  The entries are
    hashed in their order, or sorted by index when not ``ordered``."""
    h = hashlib.sha256()
    for b in state.bases:
        h.update(repr((b.words, b.parents, [g.images for g in b.wdegs])).encode())
        for a in sorted(b.lmul):
            h.update(repr([_entries(col, ordered) for col in b.lmul[a]]).encode())
        h.update(repr([_entries(v, ordered) for v in b.derivs]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("type_,rank_,field,cap,digest,values", [
    ("A", 3, QQ, None, "783623cf8a96ba2230a71c08dad128a3ced0702f7d48ed064db5e4913fefd328",
     "40b1a97d3305a65a98432149aa9b625e4e36b097565321fe9c0bbf1092f32abc"),
    ("A", 3, PrimeField(), None,
     "b2316de25acdfa69bfcfa59b2a25fb64fed37e8c48b6337ee9f116339c0c1258",
     "a82984504b21ec6148dee7306fabc66bdea63efe8b29894492025f91fff8906a"),
    ("A", 4, PrimeField(), 5, "2cfdc9e32bf636c64fdd547ee959ad6bd5516b8d422eb334579f92f92fedbc76",
     "2276a8369efeed5f2f7583c7bef1f0cd6896300cefcca9548bd59c94e6a99388"),
    ("D", 4, PrimeField(), 4, "ff0ad7d92484db31f9b72c897f1edf4b88eb60c3df8d8e2534d145e84fa65760",
     "6ad7a6f41c13300ea93fde4fd1d92aa1cfb00c88c100558614b4e81f199cf66f"),
], ids=["A3-rational", "A3-prime", "A4-prime-5", "D4-prime-4"])
def test_structure_digest(type_, rank_, field, cap, digest, values):
    # the stored structure, byte for byte.  ``values`` sorts each column's
    # entries, and was recorded from an engine that offered every candidate
    # not paired with a degree-2 relation to the eliminator: the columns
    # summed for a non-basis prefix hold the values the eliminator gave.
    # ``digest`` keeps the entry order, which those sums set
    sys = RootSystem(cartan_data(type_, rank_))
    st = AlgebraState(sys, field=field, degree_cap=cap)
    st.construct_all()
    assert structure_digest(st, ordered=False) == values
    assert structure_digest(st) == digest
    # every class block is square: x_a b_j lies in class s_a wdeg(b_j), and
    # the rows (gamma, r) of class g run over the previous classes s_gamma g
    for n in range(2, len(st.bases)):
        prev = st.bases[n - 1]
        count = {}
        for a in range(sys.nroots):
            for h in prev.wdegs:
                g = sys.reflection(a) * h
                count[g] = count.get(g, 0) + 1
        assert all(c == sum(len(prev.classes.get(sys.reflection(gam) * g, ()))
                            for gam in range(sys.nroots))
                   for g, c in count.items())


def _sbar_matrix(state, n):
    """The twisted antipode (-1)^n rho S on degree n, as the product of the
    rho and antipode columns that the engine once stored."""
    field, r = state.field, state.rho_matrix(n)
    return [mat_col(r, neg_col(col, field) if n % 2 else col, field)
            for col in state.antipode_matrix(n)]


def read_path_digest(state, ordered=True):
    """sha256 of the column entries, with their scalar types, of rho, the
    antipode and its inverse, s-bar, the Gram matrix, every group
    element's action and every root's dright and rmul, degree by degree.
    The entries are hashed in their order, or sorted by index when not
    ``ordered``."""
    h = hashlib.sha256()
    elements = state.system.elements()
    for n in range(len(state.bases)):
        maps = [state.rho_matrix(n), state.antipode_matrix(n), state.antipode_inv_matrix(n),
                _sbar_matrix(state, n), state.gram(n)]
        maps += [state.act_matrix(n, w) for w in elements]
        if n:
            for g in range(state.system.nroots):
                maps += [state.dright(n, g), state.rmul(n, g)]
        for m in maps:
            h.update(repr([_entries(col, ordered) for col in m]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("field,digest,values", [
    (QQ, "6a760e7b2d0d9077e78d7601b969eef368d65055fea52e0efa5dd065394f9103",
     "228745fb29ba4e20170a5799bc29bbdb9ab9b271ba223bd711b700ba72f6f842"),
    (PrimeField(), "c04b4fae7f12ef94a57258f60c4fe208be0c7d031d8278484158f7eaab4908c1",
     "4de691dc27e470bde3fb79289d4d6da4f03e9e819313fd23e5c9c8e0320ce013"),
    (PrimeField(101), "02b297f4579ccb6fdeb7b0e29c32f422577d573d77bf0f40be500ad53b8d69fd",
     "a85fc1bbec08b97ff5c751050efad054f1c7b17c625792b3cfdb7872d8c146f2"),
], ids=["A3-rational", "A3-prime", "A3-prime-101"])
def test_read_path_digest(field, digest, values):
    # the derived structure maps, byte for byte.  ``values`` sorts each
    # column's entries and was recorded with ``test_structure_digest``'s,
    # before the build summed the columns with a non-basis prefix; the
    # scalar types must hold too.  ``digest`` keeps the entry order, which
    # the generator recursions of the antipode and its inverse set
    st = AlgebraState(RootSystem(cartan_data("A", 3)), field=field)
    st.construct_all()
    assert read_path_digest(st, ordered=False) == values
    assert read_path_digest(st) == digest


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


@pytest.mark.parametrize("rank_, dims", [(1, [1, 1, 0]), (2, [1, 3, 4, 3, 1, 0])],
                         ids=["A1", "A2"])
@pytest.mark.parametrize("field", [QQ, PrimeField()], ids=["rational", "prime"])
def test_a_word_past_the_top_grows_no_degree(rank_, dims, field):
    # a word longer than the top is zero, and reading it appends no empty
    # degree: not while the build finds the top, nor once it is known;
    # neither does building past the known top
    state = AlgebraState(RootSystem(cartan_data("A", rank_)), field=field)
    word = [k % state.system.nroots for k in range(7)]
    for _ in range(2):
        assert NicholsElement.from_word(state, word).is_zero()
        assert state.dims() == dims
        assert state.construct_all() == dims
    state.ensure_degree(len(dims) + 3)
    assert (state.dims(), state.dim(len(dims) + 3)) == (dims, 0)


def test_split_joint_round_trips_a_joint_vector():
    # each root's column keeps the vector's entry order, and the columns
    # give back the vector
    rng = random.Random(31)
    for _ in range(200):
        width = rng.randint(1, 6)
        keys = rng.sample(range(width * rng.randint(1, 5)), rng.randint(0, width))
        vec = {k: rng.choice([1, -1, 2, Fraction(1, 3)]) for k in keys}
        cols = split_joint(vec, width)
        assert all(cols.values())
        assert {g * width + i: x for g, col in cols.items() for i, x in col.items()} == vec
        for g, col in cols.items():
            assert list(col.items()) == [(k - g * width, x) for k, x in vec.items()
                                         if k // width == g]


@pytest.mark.parametrize("which", ["s4", "s4_prime"])
def test_dleft_matches_the_divmod_split(which, request):
    # every root's left derivative at every degree of A3 is the stored
    # joint vectors split entry by entry, in their entry order
    state = request.getfixturevalue(which)
    for n in range(state.finite_top + 2):
        basis = state.basis(n)
        prev_dim = state.dim(n - 1) if n else 0
        mats = [[{} for _ in range(basis.dim)] for _ in range(state.system.nroots)]
        for i, vec in enumerate(basis.derivs):
            for k, v in vec.items():
                gam, r = divmod(k, prev_dim)
                mats[gam][i][r] = v
        for g, want in enumerate(mats):
            assert [list(c.items()) for c in state.dleft(n, g)] == \
                [list(c.items()) for c in want]
