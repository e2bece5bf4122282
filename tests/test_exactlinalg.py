import random
from fractions import Fraction

import pytest

from nwalgebra.exactlinalg import (
    DEFAULT_PRIME,
    QQ,
    ColumnSolver,
    LinalgError,
    PrimeField,
    in_span,
    is_prime,
    kernel_basis,
    rank,
)


def dense(rows):
    """Row dicts of a dense matrix, and its column count."""
    return [{j: Fraction(v) for j, v in enumerate(row) if v} for row in rows], len(rows[0])


def transpose(rows, ncols):
    """Column dicts of a row-dict matrix."""
    out = [dict() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def test_kernel_zero_matrix():
    assert len(kernel_basis(transpose([{}, {}], 2))) == 2


def test_kernel_identity():
    assert kernel_basis(transpose(*dense([[1, 0], [0, 1]]))) == []


def test_kernel_rank_one():
    ker = kernel_basis(transpose(*dense([[1, 2], [2, 4]])))
    assert len(ker) == 1
    v = ker[0]
    # a column dict proportional to (-2, 1)
    assert set(v) == {0, 1}
    assert v[0] * 1 == v[1] * -2


def test_rank_examples():
    assert rank(transpose(*dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))) == 3
    assert rank(transpose([{} for _ in range(4)], 5)) == 0


def test_in_span_examples():
    b1 = {0: Fraction(1)}
    b2 = {1: Fraction(1)}
    ok, wit = in_span(b1, [b1, b2], 3)
    assert ok and wit == {0: Fraction(1)}
    ok, wit = in_span({1: Fraction(2)}, [b1, b1, b2], 3)
    assert ok and wit == {2: Fraction(2)}
    ok, wit = in_span({}, [b1, b2], 3)
    assert ok and wit == {}
    ok, wit = in_span({2: Fraction(1)}, [b1, b2], 3)
    assert not ok and wit is None
    # an index past the stated length
    with pytest.raises(LinalgError):
        in_span({0: Fraction(1)}, [b1, b2], 1)


def random_matrix(rng, nr, nc, density=0.5, lim=4):
    rows = [dict() for _ in range(nr)]
    for i in range(nr):
        for j in range(nc):
            if rng.random() < density:
                v = rng.randint(-lim, lim)
                if v:
                    rows[i][j] = Fraction(v)
    return rows, nc


def test_random_matrices_consistency():
    rng = random.Random(5)
    for _ in range(500):
        rows, ncols = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        cols = transpose(rows, ncols)
        r = rank(cols)
        ker = kernel_basis(cols)
        assert r + len(ker) == ncols
        assert r == rank(rows)
        for v in ker:
            assert all(x for x in v.values())
            assert all(sum((row[c] * v.get(c, 0) for c in row), Fraction(0)) == 0 for row in rows)
        # the kernel vectors, a column-dict matrix, are linearly independent
        assert rank(ker) == len(ker)


def test_rank_mod_p_bounded_by_rational():
    rng = random.Random(9)
    gf = PrimeField()
    for _ in range(50):
        m = transpose(*random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10), lim=6))
        assert rank(m, gf) <= rank(m, QQ)


def test_rank_agreement_random_50x50():
    rng = random.Random(3)
    m = transpose(*random_matrix(rng, 50, 50, density=0.2, lim=9))
    gf = PrimeField()
    assert rank(m, QQ) == rank(m, gf)


def test_prime_field_requires_odd_prime():
    # strong pseudoprimes to bases 2; 2, 3; 2, 3, 5; and moduli past 2**31
    for p in (2, 9, 15, 2047, 1373653, 25326001, 2 ** 31 + 11, 4294967311):
        with pytest.raises(LinalgError):
            PrimeField(p)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in list(range(3000)) + list(range(DEFAULT_PRIME - 300, DEFAULT_PRIME + 1)):
        assert is_prime(n) == trial(n), n


def test_fractional_entries():
    # [[1/2, 1/3], [3/2, 1]] is singular; [[1/2, 1/3], [1/5, 1]] is not
    singular = transpose(*dense([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]))
    assert rank(singular) == 1
    regular = transpose(*dense([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1)]]))
    assert rank(regular) == 2
    ker = kernel_basis(singular)
    assert len(ker) == 1
    assert ker[0][0] * Fraction(1, 2) == -ker[0][1] * Fraction(1, 3)


def test_rational_field_is_integer_first():
    # every operation agrees with Fraction arithmetic, and its result is
    # an int exactly when it is integral
    rng = random.Random(11)

    def sample():
        if rng.random() < 0.5:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def check(got, want):
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)

    for _ in range(2000):
        a, b = sample(), sample()
        fa, fb = Fraction(a), Fraction(b)
        check(QQ.of(a), fa)
        check(QQ.normalize(fa * fb + fa), fa * fb + fa)
        # plain operators on field values, then one canonicalization
        check(QQ.normalize(a + b), fa + fb)
        check(QQ.normalize(a - b), fa - fb)
        check(QQ.normalize(a * b), fa * fb)
        check(QQ.normalize(-QQ.of(a)), -fa)
        want = {0: fa + fb, 1: fa - fa, 2: fa * fb}
        got = QQ.canon({0: a + b, 1: a - a, 2: a * b})
        assert list(got) == [k for k, x in want.items() if x]
        for k, x in got.items():
            check(x, want[k])
        if b:
            check(QQ.normalize(a * QQ.inv(b)), fa / fb)
            check(QQ.inv(b), 1 / fb)
        else:
            with pytest.raises(ZeroDivisionError):
                QQ.inv(b)
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int
    assert type(QQ.of("4/2")) is int and QQ.of("3/6") == Fraction(1, 2)
    q = QQ.normalize(3 * QQ.inv(2))
    assert q == Fraction(3, 2) and type(q) is Fraction
    q = QQ.normalize(-6 * QQ.inv(3))
    assert type(q) is int and q == -2
    # the inverse of a unit is an int, never the float 1 / a
    assert [(QQ.inv(u), type(QQ.inv(u))) for u in (1, -1)] == [(1, int), (-1, int)]
    assert str(QQ.of(Fraction(6, 2))) == str(Fraction(3)) == "3"


@pytest.mark.parametrize("field", [QQ, PrimeField(), PrimeField(101)],
                         ids=["QQ", "GF(p)", "GF(101)"])
def test_field_facade(field):
    # arithmetic is plain operators plus these; no per-operation methods
    assert sorted(n for n in dir(field) if not n.startswith("_")) == [
        "canon", "inv", "minus_one", "normalize", "of", "one", "prime", "zero"]
    assert field.normalize(field.minus_one + field.one) == field.zero
    for a in (1, 2, 7, field.minus_one, field.of(Fraction(-3, 5))):
        assert field.normalize(a * field.inv(a)) == field.one
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero)


def linear_probe_echelon(cols, field):
    """Reference echelon: every column reduced by probing every earlier
    pivot in turn.  Returns (pivots, echelon vectors, kept positions,
    number of subtractions that created an entry at a later pivot)."""
    pivots, vectors, selected, created = [], [], [], 0
    for pos, col in enumerate(cols):
        v = dict(col)
        for k, (p, ev) in enumerate(zip(pivots, vectors)):
            f = v.get(p)
            if f:
                for c, x in ev.items():
                    created += c not in v and c in pivots[k + 1:]
                    y = field.normalize(v.get(c, 0) - f * x)
                    if y:
                        v[c] = y
                    else:
                        v.pop(c, None)
        if v:
            p = min(v)
            pinv = field.inv(v[p])
            pivots.append(p)
            vectors.append({c: field.normalize(x * pinv) for c, x in v.items()})
            selected.append(pos)
    return pivots, vectors, selected, created


def solver_matrices(rng, field):
    """Small random matrices, then ~40 x 60 sparse, low-rank and
    repeated-column ones, as lists of column dicts."""
    def col(entries):
        return {i: x for i, v in entries.items() if (x := field.of(v))}

    for _ in range(50):
        n = rng.randint(1, 6)
        yield [col({i: rng.randint(-3, 3) for i in range(n)})
               for _ in range(rng.randint(1, 8))]
    for _ in range(4):
        # sparse +-1 entries
        yield [col({i: rng.choice((-1, 1)) for i in range(40) if rng.random() < 0.08})
               for _ in range(60)]
        # a low-rank product: most columns are dependent
        k = rng.randint(3, 15)
        left = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(40)]
        right = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(60)]
        yield [col({i: sum(a * b for a, b in zip(left[i], r)) for i in range(40)})
               for r in right]
        # repeated columns and multiples of earlier ones
        cols = []
        for _ in range(60):
            if cols and rng.random() < 0.5:
                c, m = rng.choice(cols), rng.randint(-3, 3)
                cols.append(col({i: m * x for i, x in c.items()}))
            else:
                cols.append(col({i: rng.randint(-2, 2) for i in range(40)
                                 if rng.random() < 0.2}))
        yield cols


def test_column_solver_roundtrip():
    rng = random.Random(7)
    gf = PrimeField()
    for field in (QQ, gf):
        created = 0
        for cols in solver_matrices(rng, field):
            solver, expressing = ColumnSolver(field), ColumnSolver(field)
            kept = [solver.add(c) for c in cols]
            offered = [expressing.add(c, express=True) for c in cols]
            assert [pos for pos, k in enumerate(kept) if k] == solver.selected
            assert [k for k, _ in offered] == kept
            pivots, vectors, selected, made = linear_probe_echelon(cols, field)
            created += made
            for ech in (solver, expressing):
                assert ech.pivots == pivots and ech.selected == selected
                assert [list(v.items()) for v in ech.vectors] == \
                    [list(v.items()) for v in vectors]
            for pos, (c, (k, expressed)) in enumerate(zip(cols, offered)):
                coords = solver.coordinates(c)
                assert coords is not None and all(coords.values())
                # the single pass gives the coordinates a second reduction gives
                assert expressed == coords
                if k:
                    assert coords == {solver.selected.index(pos): field.one}
                got = {}
                for j, x in coords.items():
                    for i, y in cols[solver.selected[j]].items():
                        got[i] = field.normalize(got.get(i, field.zero) + x * y)
                assert {i: x for i, x in got.items() if x} == c
        # the larger matrices make reductions create entries at later
        # pivots, so the pivot heap takes pushes beyond the column's own
        assert created > 0


@pytest.mark.parametrize("field", [QQ, PrimeField()], ids=["QQ", "GF(p)"])
def test_column_solver_stores_no_offered_dict(field):
    # a dict that hits no pivot is not copied for the reduction, and one
    # whose pivot entry is one is not scaled; the solver still keeps its
    # own vectors, so changing the offered dicts afterwards changes nothing
    of = field.of
    first = {0: of(1), 2: of(3)}            # no pivot hit, unit pivot
    second = {1: of(2), 3: of(1)}           # no pivot hit, pivot scaled
    third = {0: of(1), 2: of(4), 3: of(1)}  # reduced by first to a unit pivot
    solver = ColumnSolver(field)
    assert all(solver.add(d) for d in (first, second, third))
    vectors = [list(v.items()) for v in solver.vectors]
    assert vectors == [[(0, 1), (2, 3)], [(1, 1), (3, field.inv(2))], [(2, 1), (3, 1)]]
    probe = {0: of(2), 2: of(7), 3: of(1)}  # first + third
    assert solver.coordinates(probe) == {0: 1, 2: 1}
    for d in (first, second, third):
        d.clear()
        d[1] = of(5)
    assert [list(v.items()) for v in solver.vectors] == vectors
    assert solver.coordinates(probe) == {0: 1, 2: 1}
    assert not solver.add({0: of(1), 2: of(3)})


def _express_reference(solver, factors):
    """sum f * exprs[k] over the factors {k: f}, in their order,
    accumulated in full and normalized entry by entry."""
    acc = {}
    for k, f in factors.items():
        for j, g in solver.exprs[k].items():
            acc[j] = acc.get(j, 0) + f * g
    return {j: y for j, x in acc.items() if (y := solver.field.normalize(x))}


@pytest.mark.parametrize("field", [QQ, PrimeField()], ids=["QQ", "GF(p)"])
def test_column_solver_coordinates_match_accumulate_reference(field):
    # add(..., express=True) and coordinates give the full accumulation's
    # values, scalar types and entry order; a one-term expression with
    # coefficient one is the stored expression itself, read and never
    # written
    rng = random.Random(29)
    shared = reordered = 0
    for cols in solver_matrices(rng, field):
        solver = ColumnSolver(field)
        for c in cols:
            rest, factors = solver._reduce(c)
            want = _express_reference(solver, factors)
            exprs = [list(e.items()) for e in solver.exprs]
            coords = solver.coordinates(c)
            kept, expressed = solver.add(c, express=True)
            if kept:
                assert rest and coords is None
                assert expressed == {solver.rank - 1: field.one}
                continue
            for got in (coords, expressed):
                assert list(got.items()) == list(want.items())
                assert [type(x) for x in got.values()] == [type(x) for x in want.values()]
            if list(factors.values()) == [field.one]:
                assert coords is expressed is solver.exprs[next(iter(factors))]
                shared += 1
            backward = _express_reference(solver, dict(reversed(factors.items())))
            reordered += list(backward) != list(want)
            assert [list(e.items()) for e in solver.exprs[:len(exprs)]] == exprs
    # the shared expression occurs, and so do sums whose entry order
    # depends on the order of the factors
    assert shared and reordered
