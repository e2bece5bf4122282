"""A dense prime-field greedy solver, kept as a reference: the graded
construction uses ``exactlinalg.ColumnSolver``, and tests compare the
two on random matrices and block by block.

Everything here works on ``numpy`` int64 arrays holding residues in
``[0, p)`` with ``p < 2**31``, so a single product never overflows
int64 and every intermediate is reduced immediately.  ``python3
perfbench/run.py --workload a4_prime_cap6 --seed 1 --seconds 20 --trace
1`` times the solver alone in its ``modp.micro.*`` metrics.
"""

from __future__ import annotations

import numpy as np

#: read by the benchmark run record for ``kernel_path``; there is no compiled kernel
USE_NUMBA = False


def greedy_solve(a, p):
    """Select independent columns greedily and express every column.

    Returns (selected_indices, coords) with coords of shape
    (len(selected), ncols); column c of coords gives the exact
    coefficients of a[:, c] over the selected columns, all mod p.

    Reduces a copy of ``a`` to reduced row echelon form, column by column:
    each pivot row is scaled to 1 and then cleared from every other row
    by one rank-1 update.  The pivot columns are exactly the greedy
    selection, and column c of the reduced rows holds the coordinates of
    a[:, c] over them.
    """
    w = np.asarray(a, dtype=np.int64) % p
    m, ncols = w.shape
    sel = []
    for c in range(ncols):
        r = len(sel)
        if r == m:
            break
        nz = np.flatnonzero(w[r:, c])
        if nz.size == 0:
            continue
        q = r + int(nz[0])
        if q != r:
            w[[r, q]] = w[[q, r]]
        # the pivot row is zero left of c, so only columns c: change
        w[r, c:] = w[r, c:] * pow(int(w[r, c]), p - 2, p) % p
        f = w[:, c].copy()
        f[r] = 0
        hit = np.flatnonzero(f)
        if hit.size:
            w[hit, c:] = (w[hit, c:] - np.outer(f[hit], w[r, c:])) % p
        sel.append(c)
    return np.array(sel, dtype=np.int64), w[:len(sel)].copy()
