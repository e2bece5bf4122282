"""Exact linear algebra over the rationals and over prime fields.

Rank, kernel bases, span membership and an incremental column solver.
The rational path clears denominators and eliminates with integer
cross-multiplication (dividing rows by their content), so no floating
point and no rounding anywhere.  Elimination pivots are chosen by a
minimal-fill heuristic with lowest-index tie-break, which makes every
result reproducible across runs and platforms.
"""

from __future__ import annotations

from fractions import Fraction

#: fixed default prime for the fast mode (largest 31-bit prime)
DEFAULT_PRIME = 2147483647


class LinalgError(ValueError):
    pass


class RationalField:
    """Arithmetic facade for exact rationals."""

    prime = None

    @staticmethod
    def of(x):
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3215031751 (> 2**31)."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic facade for integers modulo a prime 2 < p < 2**31.

    The bound keeps every product of two residues inside int64, which the
    dense kernels of ``modp`` rely on.
    """

    def __init__(self, p: int = DEFAULT_PRIME):
        if not 2 < p < 2 ** 31:
            raise LinalgError(f"prime mode requires 2 < p < 2**31, got {p}")
        if not is_prime(p):
            raise LinalgError(f"prime mode requires a prime modulus, got {p}")
        self.prime = p
        self.zero = 0
        self.one = 1

    def of(self, x):
        if isinstance(x, Fraction):
            num = x.numerator % self.prime
            den = x.denominator % self.prime
            if den == 0:
                raise LinalgError("denominator vanishes modulo p")
            return num * pow(den, self.prime - 2, self.prime) % self.prime
        return x % self.prime

    def add(self, a, b):
        return (a + b) % self.prime

    def sub(self, a, b):
        return (a - b) % self.prime

    def mul(self, a, b):
        return (a * b) % self.prime

    def div(self, a, b):
        if b % self.prime == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return a * pow(b, self.prime - 2, self.prime) % self.prime

    def neg(self, a):
        return (-a) % self.prime

    def inv(self, a):
        return self.div(1, a)

    def __repr__(self):
        return f"GF({self.prime})"


QQ = RationalField()


class SparseMatrix:
    """A sparse matrix as a (row, col) -> scalar map with no stored zeros."""

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self[r, c] = v

    def __setitem__(self, key, value):
        r, c = key
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise LinalgError("index out of range")
        if value:
            self.entries[r, c] = value
        else:
            self.entries.pop((r, c), None)

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def rows(self):
        """Row-major sparse view: list of {col: value} dicts."""
        out = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def columns(self):
        out = [dict() for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            out[c][r] = v
        return out

    def transpose(self) -> "SparseMatrix":
        t = SparseMatrix(self.ncols, self.nrows)
        for (r, c), v in self.entries.items():
            t.entries[c, r] = v
        return t


def _normalize_int_row(row: dict) -> dict:
    """Divide an integer row by the gcd of its entries (sign-normalized)."""
    from math import gcd

    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    # make the lowest-index entry positive for determinism
    lead = min(row)
    if row[lead] < 0:
        row = {c: -v for c, v in row.items()}
    return row


def _rational_rows(m: SparseMatrix):
    """Rows rescaled to integers (denominators cleared, content divided out)."""
    from math import gcd, lcm

    rows = []
    for r in m.rows():
        if not r:
            continue
        den = 1
        for v in r.values():
            den = lcm(den, Fraction(v).denominator)
        ints = {c: int(Fraction(v) * den) for c, v in r.items()}
        rows.append(_normalize_int_row(ints))
    return rows


def _eliminate_int_rows(rows):
    """Fraction-free forward elimination on integer rows.

    Pivot selection: among remaining rows take (row, col) minimizing the
    Markowitz fill estimate (nnz_row - 1) * (nnz_col - 1); ties broken by
    lowest column then lowest row order.  Returns echelon rows as
    (pivot_col, row_dict) pairs in elimination order.
    """
    rows = [dict(r) for r in rows if r]
    echelon = []
    while rows:
        col_count = {}
        for r in rows:
            for c in r:
                col_count[c] = col_count.get(c, 0) + 1
        best = None
        for ri, r in enumerate(rows):
            rw = len(r) - 1
            for c in r:
                score = (rw * (col_count[c] - 1), c, ri)
                if best is None or score < best:
                    best = score
        _, pcol, pri = best
        prow = rows.pop(pri)
        pval = prow[pcol]
        nxt = []
        for r in rows:
            v = r.get(pcol)
            if v is None:
                nxt.append(r)
                continue
            new = {c: x * pval for c, x in r.items()}
            for c, pv in prow.items():
                y = new.get(c, 0) - pv * v
                if y:
                    new[c] = y
                else:
                    new.pop(c, None)
            if new:
                nxt.append(_normalize_int_row(new))
        rows = nxt
        echelon.append((pcol, prow))
    return echelon


def _eliminate_field_rows(rows, field):
    """Forward elimination over a prime field with the same pivot heuristic."""
    rows = [dict(r) for r in rows if r]
    echelon = []
    while rows:
        col_count = {}
        for r in rows:
            for c in r:
                col_count[c] = col_count.get(c, 0) + 1
        best = None
        for ri, r in enumerate(rows):
            rw = len(r) - 1
            for c in r:
                score = (rw * (col_count[c] - 1), c, ri)
                if best is None or score < best:
                    best = score
        _, pcol, pri = best
        prow = rows.pop(pri)
        pinv = field.inv(prow[pcol])
        prow = {c: field.mul(v, pinv) for c, v in prow.items()}
        nxt = []
        for r in rows:
            v = r.get(pcol)
            if v is None:
                nxt.append(r)
                continue
            new = dict(r)
            for c, pv in prow.items():
                y = field.sub(new.get(c, field.zero), field.mul(pv, v))
                if y:
                    new[c] = y
                else:
                    new.pop(c, None)
            if new:
                nxt.append(new)
        rows = nxt
        echelon.append((pcol, prow))
    return echelon


def _echelon(m: SparseMatrix, field):
    if field.prime is None:
        return _eliminate_int_rows(_rational_rows(m))
    rows = [{c: field.of(v) for c, v in r.items()} for r in m.rows()]
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    return _eliminate_field_rows(rows, field)


def rank(m: SparseMatrix, field=QQ) -> int:
    return len(_echelon(m, field))


def kernel_basis(m: SparseMatrix, field=QQ):
    """A deterministic basis of the right null space, as dense vectors.

    Free columns are processed in increasing index order; each basis
    vector has entry 1 at its free column.
    """
    ech = _echelon(m, field)
    # back-substitute to reduced form over the field
    one = field.one
    reduced = []  # (pivot_col, {col: val}) with val over the field
    for pcol, row in reversed(ech):
        if field.prime is None:
            rr = {c: Fraction(v, row[pcol]) for c, v in row.items()}
        else:
            pinv = field.inv(row[pcol])
            rr = {c: field.mul(v, pinv) for c, v in row.items()}
        for qcol, qrow in reduced:
            f = rr.pop(qcol, None)
            if f is not None:
                for c, v in qrow.items():
                    x = field.sub(rr.get(c, field.zero), field.mul(f, v))
                    if x:
                        rr[c] = x
                    else:
                        rr.pop(c, None)
        reduced.append((pcol, rr))
    reduced.sort()
    pivots = [p for p, _ in reduced]
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero] * m.ncols
        vec[fc] = one
        for pcol, row in reduced:
            v = row.get(fc)
            if v:
                vec[pcol] = field.neg(v)
        basis.append(vec)
    return basis


def in_span(v, basis, field=QQ):
    """Whether v is a linear combination of the basis vectors.

    Returns (True, coefficients) with an exact witness, or (False, None).
    """
    if not basis:
        return (not any(v), [] if not any(v) else None)
    n = len(v)
    if any(len(b) != n for b in basis):
        raise LinalgError("dimension mismatch")
    solver = ColumnSolver(n, field)
    for b in basis:
        solver.add(b)
    coeffs = solver.coordinates(v)
    if coeffs is None:
        return (False, None)
    # coordinates are against the independent subset; expand to all columns
    out = [field.zero] * len(basis)
    for pos, c in zip(solver.selected, coeffs):
        out[pos] = c
    return (True, out)


class ColumnSolver:
    """Incremental greedy column echelon with exact coordinates.

    Columns are offered in order via :meth:`add`; independent ones are
    kept (their positions recorded in ``selected``).  Any vector can then
    be expressed over the kept columns with :meth:`coordinates`.
    Pivot of a new echelon vector: its lowest nonzero index.
    """

    def __init__(self, n: int, field=QQ):
        self.n = n
        self.field = field
        self.pivots = []      # pivot index per echelon vector
        self.vectors = []     # echelon vectors, pivot entry normalized to 1
        self.exprs = []       # echelon vector = sum expr[k] * kept column k
        self.selected = []    # positions (in offer order) of kept columns
        self._count = 0

    def _reduce(self, vec):
        field = self.field
        v = {i: x for i, x in enumerate(vec) if x} if not isinstance(vec, dict) else dict(vec)
        coeffs = [field.zero] * len(self.vectors)
        for k, (p, ev) in enumerate(zip(self.pivots, self.vectors)):
            f = v.get(p)
            if f:
                coeffs[k] = f
                for c, x in ev.items():
                    y = field.sub(v.get(c, field.zero), field.mul(f, x))
                    if y:
                        v[c] = y
                    else:
                        v.pop(c, None)
        return v, coeffs

    def add(self, vec) -> bool:
        """Offer the next column; keep it iff independent.  Returns kept?"""
        field = self.field
        pos = self._count
        self._count += 1
        v, coeffs = self._reduce(vec)
        if not v:
            return False
        p = min(v)
        pinv = field.inv(v[p])
        ev = {c: field.mul(x, pinv) for c, x in v.items()}
        # expression of ev over kept columns: (column - sum coeffs*prior) * pinv
        expr = {len(self.selected): pinv}
        for k, f in enumerate(coeffs):
            if f:
                fv = field.mul(f, pinv)
                for j, g in self.exprs[k].items():
                    x = field.sub(expr.get(j, field.zero), field.mul(fv, g))
                    if x:
                        expr[j] = x
                    else:
                        expr.pop(j, None)
        self.pivots.append(p)
        self.vectors.append(ev)
        self.exprs.append(expr)
        self.selected.append(pos)
        return True

    def coordinates(self, vec):
        """Coefficients over the kept columns, or None if not in their span."""
        field = self.field
        v, coeffs = self._reduce(vec)
        if v:
            return None
        out = [field.zero] * len(self.selected)
        for k, f in enumerate(coeffs):
            if f:
                for j, g in self.exprs[k].items():
                    out[j] = field.add(out[j], field.mul(f, g))
        return out

    @property
    def rank(self) -> int:
        return len(self.selected)
