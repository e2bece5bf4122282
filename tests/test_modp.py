"""The dense reference solver against the sparse eliminator, and its
coordinates against the matrix they came from."""

import numpy as np

from nwalgebra import modp
from nwalgebra.exactlinalg import DEFAULT_PRIME, ColumnSolver, PrimeField


def random_matrices(seed, count=25):
    """Full-rank-ish, tall, wide, low-rank and sparse residue matrices."""
    p = DEFAULT_PRIME
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 30))
        c = int(rng.integers(1, 30))
        yield rng.integers(0, p, size=(m, c), dtype=np.int64)
    for m, c in ((40, 3), (3, 40), (1, 17), (17, 1)):
        yield rng.integers(0, p, size=(m, c), dtype=np.int64)
    for _ in range(count):
        # a product of rank k < min(m, c): most columns are dependent
        m = int(rng.integers(2, 30))
        c = int(rng.integers(2, 30))
        k = int(rng.integers(1, min(m, c)))
        left = rng.integers(0, p, size=(m, k)).astype(object)
        right = rng.integers(0, p, size=(k, c)).astype(object)
        yield ((left @ right) % p).astype(np.int64)
    for _ in range(count):
        # sparse +-1 entries, like the construction's candidate blocks
        m = int(rng.integers(1, 30))
        c = int(rng.integers(1, 30))
        yield rng.choice(np.array([0, 0, 0, 1, p - 1]), size=(m, c))


def test_greedy_solve_matches_column_solver():
    # the same greedy selection and coordinates as ColumnSolver, which
    # pivots sparse columns in its own order; it takes and gives symmetric
    # residues, the dense solver residues in [0, p), so its input goes
    # through the field and its coordinates are compared modulo p
    p = DEFAULT_PRIME
    field = PrimeField(p)
    for a in random_matrices(0):
        solver = ColumnSolver(field)
        want = np.zeros(a.shape, dtype=np.int64)
        for c in range(a.shape[1]):
            _, coords = solver.add({r: field.of(int(x)) for r, x in enumerate(a[:, c]) if x},
                                   express=True)
            for k, x in coords.items():
                want[k, c] = x % p
        sel, coords = modp.greedy_solve(a, p)
        assert sel.tolist() == solver.selected
        assert np.array_equal(coords, want[:solver.rank])


def test_greedy_solve_reconstructs_columns():
    p = DEFAULT_PRIME
    for a in random_matrices(1, count=10):
        a = a % p
        sel, coords = modp.greedy_solve(a, p)
        basis = a[:, sel]
        # every column is reproduced exactly from its coordinates
        rebuilt = np.zeros_like(a)
        for c in range(a.shape[1]):
            acc = np.zeros(a.shape[0], dtype=np.int64)
            for k in range(len(sel)):
                acc = (acc + coords[k, c] * basis[:, k]) % p
            rebuilt[:, c] = acc
        assert np.array_equal(rebuilt, a)
        # selected columns carry unit coordinates
        for k, c in enumerate(sel):
            unit = np.zeros(len(sel), dtype=np.int64)
            unit[k] = 1
            assert np.array_equal(coords[:, c], unit)


def test_empty_matrix():
    sel, coords = modp.greedy_solve(np.zeros((0, 3), dtype=np.int64), 7)
    assert len(sel) == 0 and coords.shape == (0, 3)
