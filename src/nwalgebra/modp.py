"""Dense prime-field kernels used by the graded construction in fast mode.

Everything here works on ``numpy`` int64 arrays holding residues in
``[0, p)`` with ``p < 2**31``, so a single product never overflows int64
and every intermediate is reduced immediately.  The greedy kernel
compiles with numba when the optional dependency imports
(``USE_NUMBA``); otherwise the numpy fallback runs, with identical
semantics.  Results of both paths are bit-identical.  ``python3
perfbench/run.py --workload a4_prime_cap6 --seed 1 --seconds 20 --trace
1`` times the active path: its ``modp.micro.*`` metrics alone, and
``modp.greedy_solve.s`` inside the A4 build.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    USE_NUMBA = True
except ImportError:  # pragma: no cover
    USE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap


@njit(cache=True)
def _modinv(a, p):
    """Inverse of a mod p by Fermat exponentiation (p prime)."""
    r = np.int64(1)
    b = a % p
    e = p - 2
    while e > 0:
        if e & 1:
            r = (r * b) % p
        b = (b * b) % p
        e >>= 1
    return r


@njit(cache=True)
def _greedy_solve_kernel(a, p):
    """Greedy left-to-right column selection with full coordinates.

    Columns of ``a`` are offered in order; independent ones are selected.
    Returns (nsel, sel, coords) where sel[:nsel] are the selected column
    indices and coords[:nsel, c] are the coefficients of column c over
    the selected columns.
    """
    m, ncols = a.shape
    maxr = m if m < ncols else ncols
    ech = np.zeros((maxr, m), dtype=np.int64)
    expr = np.zeros((maxr, maxr), dtype=np.int64)
    piv = np.zeros(maxr, dtype=np.int64)
    sel = np.zeros(maxr, dtype=np.int64)
    coords = np.zeros((maxr, ncols), dtype=np.int64)
    cf = np.zeros(maxr, dtype=np.int64)
    r = 0
    for c in range(ncols):
        v = a[:, c] % p
        for k in range(r):
            f = v[piv[k]]
            cf[k] = f
            if f != 0:
                for i in range(m):
                    v[i] = (v[i] - f * ech[k, i]) % p
        q = -1
        for i in range(m):
            if v[i] != 0:
                q = i
                break
        if q < 0:
            for k in range(r):
                f = cf[k]
                if f != 0:
                    for j in range(r):
                        coords[j, c] = (coords[j, c] + f * expr[k, j]) % p
        else:
            pinv = _modinv(v[q], p)
            for i in range(m):
                ech[r, i] = (v[i] * pinv) % p
            # echelon row r = pinv * (column c - sum_k cf[k] * ech[k])
            expr[r, r] = pinv
            for k in range(r):
                f = (cf[k] * pinv) % p
                if f != 0:
                    for j in range(r):
                        expr[r, j] = (expr[r, j] - f * expr[k, j]) % p
            piv[r] = q
            sel[r] = c
            coords[r, c] = 1
            r += 1
    return r, sel, coords


def _greedy_solve_numpy(a, p):
    """Numpy fallback with the same contract as the kernel.

    Reduces a copy of ``a`` to reduced row echelon form, column by column:
    each pivot row is scaled to 1 and then cleared from every other row
    by one rank-1 update.  The pivot columns are exactly the greedy
    selection, and column c of the reduced rows holds the coordinates of
    a[:, c] over them.  Both are unique, so the result equals the
    kernel's.  Expects residues in [0, p), so no product leaves int64.
    """
    w = np.array(a, dtype=np.int64)
    m, ncols = w.shape
    sel = np.zeros(min(m, ncols), dtype=np.int64)
    r = 0
    for c in range(ncols):
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
        sel[r] = c
        r += 1
    return r, sel, w[:len(sel)]


def greedy_solve(a, p):
    """Select independent columns greedily and express every column.

    Returns (selected_indices, coords) with coords of shape
    (len(selected), ncols); column c of coords gives the exact
    coefficients of a[:, c] over the selected columns, all mod p.
    """
    a = np.ascontiguousarray(np.asarray(a, dtype=np.int64) % p)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, a.shape[1]), dtype=np.int64)
    if USE_NUMBA:
        r, sel, coords = _greedy_solve_kernel(a, np.int64(p))
    else:
        r, sel, coords = _greedy_solve_numpy(a, p)
    return sel[:r].copy(), coords[:r].copy()
