"""Exact linear algebra over the rationals and over prime fields.

One eliminator, :class:`ColumnSolver`, answers every exact question:
rank, kernel bases and span membership.  It keeps the greedy set of
independent columns in offer order, with the coordinates of each kept
echelon vector over them, so the result depends only on the column
order.  Matrices are lists of ``{col: value}`` row dicts; arithmetic
goes through a field facade (``Fraction`` over Q, residues modulo a
prime), so no floating point and no rounding enter anywhere.  The dense
prime-field kernel of the graded construction lives in ``modp``.
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


def _columns(rows, ncols, field):
    """Column dicts of a row-dict matrix, each entry passed through field.of once."""
    cols = [dict() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            x = field.of(v)
            if x:
                cols[c][r] = x
    return cols


def rank(rows, ncols, field=QQ) -> int:
    """Rank of a matrix given as a list of {col: value} row dicts."""
    solver = ColumnSolver(len(rows), field)
    for col in _columns(rows, ncols, field):
        solver.add(col)
    return solver.rank


def kernel_basis(rows, ncols, field=QQ):
    """A deterministic basis of the right null space, as dense vectors.

    Columns are offered to a :class:`ColumnSolver` in increasing index
    order.  Each dependent column c gives the basis vector
    e_c - sum coords * e_selected: entry 1 at c, zero at every other
    dependent column.
    """
    solver = ColumnSolver(len(rows), field)
    basis = []
    for c, col in enumerate(_columns(rows, ncols, field)):
        if solver.add(col):
            continue
        vec = [field.zero] * ncols
        vec[c] = field.one
        for pos, x in zip(solver.selected, solver.coordinates(col)):
            if x:
                vec[pos] = field.neg(x)
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
