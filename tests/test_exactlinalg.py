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
    """Column dicts of a row-dict matrix, and its row count."""
    out = [dict() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out, len(rows)


def test_kernel_zero_matrix():
    assert len(kernel_basis(*transpose([{}, {}], 2))) == 2


def test_kernel_identity():
    assert kernel_basis(*transpose(*dense([[1, 0], [0, 1]]))) == []


def test_kernel_rank_one():
    ker = kernel_basis(*transpose(*dense([[1, 2], [2, 4]])))
    assert len(ker) == 1
    v = ker[0]
    # a column dict proportional to (-2, 1)
    assert set(v) == {0, 1}
    assert v[0] * 1 == v[1] * -2


def test_rank_examples():
    assert rank(*transpose(*dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))) == 3
    assert rank(*transpose([{} for _ in range(4)], 5)) == 0


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
        cols, nrows = transpose(rows, ncols)
        r = rank(cols, nrows)
        ker = kernel_basis(cols, nrows)
        assert r + len(ker) == ncols
        assert r == rank(rows, ncols)
        for v in ker:
            assert all(x for x in v.values())
            assert all(sum((row[c] * v.get(c, 0) for c in row), Fraction(0)) == 0 for row in rows)
        # the kernel vectors, a column-dict matrix, are linearly independent
        assert rank(ker, ncols) == len(ker)


def test_rank_mod_p_bounded_by_rational():
    rng = random.Random(9)
    gf = PrimeField()
    for _ in range(50):
        m = transpose(*random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10), lim=6))
        assert rank(*m, gf) <= rank(*m, QQ)


def test_rank_agreement_random_50x50():
    rng = random.Random(3)
    m = transpose(*random_matrix(rng, 50, 50, density=0.2, lim=9))
    gf = PrimeField()
    assert rank(*m, QQ) == rank(*m, gf)


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
    assert rank(*singular) == 1
    regular = transpose(*dense([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1)]]))
    assert rank(*regular) == 2
    ker = kernel_basis(*singular)
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
        check(QQ.add(a, b), fa + fb)
        check(QQ.sub(a, b), fa - fb)
        check(QQ.mul(a, b), fa * fb)
        check(QQ.neg(QQ.of(a)), -fa)
        if b:
            check(QQ.div(a, b), fa / fb)
            check(QQ.inv(b), 1 / fb)
        else:
            with pytest.raises(ZeroDivisionError):
                QQ.div(a, b)
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int
    assert type(QQ.of("4/2")) is int and QQ.of("3/6") == Fraction(1, 2)
    q = QQ.div(3, 2)
    assert q == Fraction(3, 2) and type(q) is Fraction
    assert type(QQ.div(-6, 3)) is int and QQ.div(-6, 3) == -2
    assert str(QQ.of(Fraction(6, 2))) == str(Fraction(3)) == "3"


def test_column_solver_roundtrip():
    rng = random.Random(7)
    gf = PrimeField()
    for field in (QQ, gf):
        for _ in range(50):
            n = rng.randint(1, 6)
            cols = []
            for _ in range(rng.randint(1, 8)):
                col = [field.of(rng.randint(-3, 3)) for _ in range(n)]
                cols.append({i: x for i, x in enumerate(col) if x})
            solver = ColumnSolver(n, field)
            kept = [solver.add(c) for c in cols]
            assert [pos for pos, k in enumerate(kept) if k] == solver.selected
            for c in cols:
                coords = solver.coordinates(c)
                assert coords is not None and all(coords.values())
                got = {}
                for k, x in coords.items():
                    for i, y in cols[solver.selected[k]].items():
                        got[i] = field.add(got.get(i, field.zero), field.mul(x, y))
                assert {i: x for i, x in got.items() if x} == c
