"""Exact linear algebra over the rationals and over prime fields.

One eliminator, :class:`ColumnSolver`, answers every exact question:
rank, kernel bases and span membership.  It keeps the greedy set of
independent columns in offer order, with the coordinates of each kept
echelon vector over them, so the result depends only on the column
order.  There is one vector format: a ``{index: value}`` dict without
zeros.  Matrices are lists of such column dicts, the layout the graded
construction produces, and kernel bases and coordinates come back in
the same form.  Arithmetic goes through a field facade: residues modulo
a prime, or rationals kept integer first (a Python ``int`` whenever the
value is integral, a ``Fraction`` only otherwise), so no floating point
and no rounding enter anywhere.  The dense prime-field kernel of the
graded construction lives in ``modp``.
"""

from __future__ import annotations

from fractions import Fraction

#: fixed default prime for the fast mode (largest 31-bit prime)
DEFAULT_PRIME = 2147483647


class LinalgError(ValueError):
    pass


def _q(x):
    """The integer-first form of a rational: its numerator when integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class RationalField:
    """Arithmetic facade for exact rationals, integer first.

    Every result is an ``int`` when it is integral and a ``Fraction``
    otherwise, so integral matrices never pay for ``Fraction``.  Both
    print alike: ``str(3) == str(Fraction(3))``.
    """

    prime = None
    zero = 0
    one = 1

    @staticmethod
    def of(x):
        return x if type(x) is int else _q(Fraction(x))

    #: the canonical value of a raw sum of products of field values
    normalize = staticmethod(_q)

    @staticmethod
    def add(a, b):
        x = a + b
        return x if type(x) is int else _q(x)

    @staticmethod
    def sub(a, b):
        x = a - b
        return x if type(x) is int else _q(x)

    @staticmethod
    def mul(a, b):
        x = a * b
        return x if type(x) is int else _q(x)

    @staticmethod
    def div(a, b):
        # never a / b on two ints: that would be a float
        if type(a) is int and type(b) is int and b and not a % b:
            return a // b
        return _q(Fraction(a, b))

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return RationalField.div(1, a)

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
            return num * pow(den, -1, self.prime) % self.prime
        return x % self.prime

    def normalize(self, x):
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
        return a * pow(b, -1, self.prime) % self.prime

    def neg(self, a):
        return (-a) % self.prime

    def inv(self, a):
        return self.div(1, a)

    def __repr__(self):
        return f"GF({self.prime})"


QQ = RationalField()


def rank(cols, nrows, field=QQ) -> int:
    """Rank of a matrix given as a list of {row: value} column dicts."""
    solver = ColumnSolver(nrows, field)
    of = field.of
    for col in cols:
        solver.add({r: x for r, v in col.items() if (x := of(v))})
    return solver.rank


def kernel_basis(cols, nrows, field=QQ):
    """A deterministic basis of the right null space, as column dicts.

    The column dicts are offered to a :class:`ColumnSolver` in order,
    each entry passed through ``field.of`` once.  Each dependent column
    c gives the basis vector e_c - sum coords * e_selected: entry 1 at
    c, zero at every other dependent column.
    """
    solver = ColumnSolver(nrows, field)
    of = field.of
    basis = []
    for c, col in enumerate(cols):
        col = {r: x for r, v in col.items() if (x := of(v))}
        if solver.add(col):
            continue
        selected = solver.selected
        vec = {selected[k]: field.neg(x) for k, x in solver.coordinates(col).items()}
        vec[c] = field.one
        basis.append(vec)
    return basis


def in_span(v, basis, nrows, field=QQ):
    """Whether the column dict v is a linear combination of the basis
    column dicts, all of length nrows.

    Returns (True, {basis position: coefficient}) with an exact witness,
    or (False, None).
    """
    if any(not 0 <= r < nrows for b in [v, *basis] for r in b):
        raise LinalgError("dimension mismatch")
    solver = ColumnSolver(nrows, field)
    for b in basis:
        solver.add(b)
    coeffs = solver.coordinates(v)
    if coeffs is None:
        return (False, None)
    # coordinates are against the independent subset; map them back
    return (True, {solver.selected[k]: c for k, c in coeffs.items()})


class ColumnSolver:
    """Incremental greedy column echelon with exact coordinates.

    Columns, given as {row: value} dicts without zeros, are offered in
    order via :meth:`add`; independent ones are kept (their positions
    recorded in ``selected``).  Any such column can then be expressed
    over the kept columns with :meth:`coordinates`.  Pivot of a new
    echelon vector: its lowest nonzero index.
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
        norm = self.field.normalize
        v = dict(vec)
        coeffs = {}
        for k, (p, ev) in enumerate(zip(self.pivots, self.vectors)):
            f = v.get(p)
            if f:
                coeffs[k] = f
                for c, x in ev.items():
                    y = norm(v.get(c, 0) - f * x)
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
        acc = {}
        for k, f in coeffs.items():
            for j, g in self.exprs[k].items():
                acc[j] = acc.get(j, 0) - f * g
        norm = field.normalize
        expr = {j: y for j, x in acc.items() if (y := norm(x * pinv))}
        expr[len(self.selected)] = pinv
        self.pivots.append(p)
        self.vectors.append(ev)
        self.exprs.append(expr)
        self.selected.append(pos)
        return True

    def coordinates(self, vec):
        """Coefficients over the kept columns, as {kept position: value}
        without zeros, or None if vec is not in their span."""
        v, coeffs = self._reduce(vec)
        if v:
            return None
        out = {}
        for k, f in coeffs.items():
            for j, g in self.exprs[k].items():
                out[j] = out.get(j, 0) + f * g
        norm = self.field.normalize
        return {j: y for j, x in out.items() if (y := norm(x))}

    @property
    def rank(self) -> int:
        return len(self.selected)
