"""Exact linear algebra over the rationals and over prime fields.

One eliminator, :class:`ColumnSolver`, answers every exact question:
rank, kernel bases, span membership and every class block of the
graded construction, on both fields.  It keeps the greedy set of
independent columns in offer order, with the coordinates of each kept
echelon vector over them, so the result depends only on the column
order.  There is one vector format: a ``{index: value}`` dict without
zeros.  Matrices are lists of such column dicts, the layout the graded
construction produces, and kernel bases and coordinates come back in
the same form.  This module owns that format's helpers: the read-only
zero column ``ZERO_COL``, the negation ``neg_col`` and the one sparse
product ``mat_col``, which every product, derivative and elimination
step over stored columns goes through.  A column a matrix stores is
never changed in place, so matrices share columns, and every empty one
they store is ``ZERO_COL``.  The solver copies what it keeps, and the
coordinates it returns are values too: a one-term expression with
coefficient one is the solver's stored expression itself.  ``canon``
alone returns a new dict that its callers may fill.  Values are
canonical per field: residues modulo a prime, or rationals kept integer
first (a Python ``int`` whenever the value is integral, a ``Fraction``
only otherwise), so no floating point and no rounding enter anywhere.
Arithmetic is plain operators, then one step of a four-method field
facade: ``of`` (any exact input), ``normalize`` (a scalar), ``canon`` (a
vector, zeros dropped) and ``inv``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from types import MappingProxyType

#: fixed default prime for the fast mode (largest 31-bit prime)
DEFAULT_PRIME = 2147483647


class LinalgError(ValueError):
    pass


def _q(x):
    """The integer-first form of a rational: its numerator when integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class RationalField:
    """Field facade for exact rationals, integer first.

    ``of``, ``normalize``, ``canon`` and ``inv`` return an ``int`` when
    the value is integral and a ``Fraction`` otherwise, so integral
    matrices never pay for ``Fraction``; other arithmetic is plain
    operators.  Both print alike: ``str(3) == str(Fraction(3))``.
    """

    prime = None
    zero = 0
    one = 1
    minus_one = -1

    @staticmethod
    def of(x):
        return x if type(x) is int else _q(Fraction(x))

    #: the canonical value of a raw sum of products of field values
    normalize = staticmethod(_q)

    @staticmethod
    def canon(acc):
        """Raw sums {key: value} made canonical: zeros dropped, ints kept."""
        return {k: x if type(x) is int else _q(x) for k, x in acc.items() if x}

    @staticmethod
    def inv(a):
        # never 1 / a on an int: that would be a float
        return int(a) if a == 1 or a == -1 else _q(Fraction(1, a))

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
    """Field facade for integers modulo a prime 2 < p < 2**31.

    ``of``, ``normalize``, ``canon`` and ``inv`` return residues in
    [0, p); other arithmetic is plain operators.  The bound keeps every
    product of two residues inside int64, which ``modp`` relies on.
    """

    def __init__(self, p: int = DEFAULT_PRIME):
        if not 2 < p < 2 ** 31:
            raise LinalgError(f"prime mode requires 2 < p < 2**31, got {p}")
        if not is_prime(p):
            raise LinalgError(f"prime mode requires a prime modulus, got {p}")
        self.prime = p
        self.zero = 0
        self.one = 1
        self.minus_one = p - 1

    def of(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.prime == 0:
                raise LinalgError("denominator vanishes modulo p")
            return x.numerator * self.inv(x.denominator) % self.prime
        return x % self.prime

    def normalize(self, x):
        return x % self.prime

    def canon(self, acc):
        """Raw sums {key: value} made canonical: residues, zeros dropped."""
        p = self.prime
        return {k: y for k, x in acc.items() if (y := x % p)}

    def inv(self, a):
        if a % self.prime == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return pow(a, -1, self.prime)

    def __repr__(self):
        return f"GF({self.prime})"


QQ = RationalField()

#: the zero column, shared by every map; a write into it raises TypeError
ZERO_COL = MappingProxyType({})


def mat_col(mat, col, field, plus=None):
    """M c (+ plus) for sparse columns {index: scalar}, without zeros.

    M's columns must hold canonical values without zeros.  The raw sum
    of products is made canonical once (``field.canon``).  Without
    ``plus``, c = {j: x} gives column j of M itself for x one, shared,
    its negation for x minus one and its canonical x-multiple otherwise.
    Any other result is a new dict, and an empty one is ``ZERO_COL``, so
    the caller must not write into the result.
    """
    if not plus and len(col) < 2:
        if not col:
            return ZERO_COL
        (j, x), = col.items()
        if x == field.one:
            return mat[j] or ZERO_COL
        if x == field.minus_one:
            return neg_col(mat[j], field)
        return field.canon({i: v * x for i, v in mat[j].items()}) or ZERO_COL
    acc = dict(plus) if plus else {}
    get = acc.get
    for j, x in col.items():
        for i, v in mat[j].items():
            acc[i] = get(i, 0) + v * x
    return field.canon(acc) or ZERO_COL


def neg_col(col, field):
    """-c for a canonical column c (-v over Q, p - v over GF(p)): canonical
    in, canonical out, as no entry becomes zero and no scalar changes type.
    A new dict, or ``ZERO_COL`` for an empty c.  Structure maps fold a
    sign into ``mat_col``'s input with it."""
    z = field.prime or 0
    return {i: z - v for i, v in col.items()} if col else ZERO_COL


def rank(cols, field=QQ) -> int:
    """Rank of a matrix given as a list of {row: value} column dicts."""
    solver = ColumnSolver(field)
    of = field.of
    for col in cols:
        solver.add({r: x for r, v in col.items() if (x := of(v))})
    return solver.rank


def kernel_basis(cols, field=QQ):
    """A deterministic basis of the right null space, as column dicts.

    The column dicts are offered to a :class:`ColumnSolver` in order,
    each entry passed through ``field.of`` once and each column reduced
    once.  Each dependent column c gives the basis vector
    e_c - sum coords * e_selected: entry 1 at c, zero at every other
    dependent column.
    """
    solver = ColumnSolver(field)
    of = field.of
    basis = []
    for c, col in enumerate(cols):
        kept, coords = solver.add({r: x for r, v in col.items() if (x := of(v))},
                                  express=True)
        if kept:
            continue
        selected = solver.selected
        vec = field.canon({selected[k]: -x for k, x in coords.items()})
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
    solver = ColumnSolver(field)
    for b in basis:
        solver.add(b)
    coeffs = solver.coordinates(v)
    if coeffs is None:
        return (False, None)
    # coordinates are against the independent subset; map them back
    return (True, {solver.selected[k]: c for k, c in coeffs.items()})


class ColumnSolver:
    """Incremental greedy column echelon with exact coordinates.

    Columns, given as {row: value} dicts of canonical field values
    without zeros, are offered in order via :meth:`add`; independent
    ones are kept (their positions recorded in ``selected``).  Any such
    column can then be expressed over the kept columns with
    :meth:`coordinates`.  Pivot of a new echelon vector: its lowest
    nonzero index.  A column that meets no pivot is not copied, and one
    whose pivot entry is one is not scaled.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.pivots = []      # pivot index per echelon vector
        self.vectors = []     # echelon vectors, pivot entry normalized to 1
        self.exprs = []       # echelon vector = sum expr[k] * kept column k
        self.selected = []    # positions (in offer order) of kept columns
        self._position = {}   # pivot index -> echelon position
        self._count = 0

    def _reduce(self, vec):
        """The remainder of vec and {echelon position: factor} of the
        subtractions.  Echelon vector k is zero at every earlier pivot, so
        a min-heap visits, in echelon order, only the positions of the
        pivots vec holds or a subtraction creates."""
        position, pivots, vectors = self._position, self.pivots, self.vectors
        heap = [k for c in vec if (k := position.get(c)) is not None]
        if not heap:
            return vec, {}
        heapify(heap)
        norm = self.field.normalize
        v = dict(vec)
        coeffs = {}
        while heap:
            # a position pushed twice finds its pivot entry cleared
            k = heappop(heap)
            f = v.get(pivots[k])
            if not f:
                continue
            coeffs[k] = f
            for c, x in vectors[k].items():
                y = v.get(c)
                if y is None:
                    v[c] = norm(-f * x)
                    j = position.get(c)
                    if j is not None:
                        heappush(heap, j)
                elif y := norm(y - f * x):
                    v[c] = y
                else:
                    del v[c]
        return v, coeffs

    def _express(self, coeffs):
        """sum coeffs[k] * exprs[k] over the kept columns, without zeros: a
        value, which may be a stored expression itself."""
        return mat_col(self.exprs, coeffs, self.field)

    def add(self, vec, express=False):
        """Offer the next column; keep it iff independent.  Returns kept?

        With ``express``, returns (kept?, coordinates of the column over
        the kept columns) from the same reduction: {its own kept
        position: 1} for a kept column.  Coordinates are a value that
        callers read and never write: for a one-term expression with
        coefficient one they are the solver's stored expression itself.
        """
        field = self.field
        pos = self._count
        self._count += 1
        v, coeffs = self._reduce(vec)
        if not v:
            return (False, self._express(coeffs)) if express else False
        p = min(v)
        if v[p] == field.one:  # never store the caller's dict: it may change
            pinv, ev = field.one, dict(v) if v is vec else v
        else:
            pinv = field.inv(v[p])
            ev = field.canon({c: x * pinv for c, x in v.items()})
        # expression of ev over kept columns: (column - sum coeffs*prior) * pinv
        expr = field.canon({j: -x * pinv
                            for j, x in self._express(coeffs).items()}) if coeffs else {}
        k = len(self.selected)
        expr[k] = pinv
        self._position[p] = k
        self.pivots.append(p)
        self.vectors.append(ev)
        self.exprs.append(expr)
        self.selected.append(pos)
        return (True, {k: field.one}) if express else True

    def coordinates(self, vec):
        """Coefficients over the kept columns, as {kept position: value}
        without zeros, or None if vec is not in their span.  Like
        :meth:`add`'s, they are a value, never to be written."""
        v, coeffs = self._reduce(vec)
        return None if v else self._express(coeffs)

    @property
    def rank(self) -> int:
        return len(self.selected)
