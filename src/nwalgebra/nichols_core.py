"""Degree-by-degree construction of the Nichols-Woronowicz algebra B_W.

Words are tuples of positive-root indices; the class of the word
``(a_1, ..., a_n)`` is the product ``x_{a_1} ... x_{a_n}``.  Degree n is
built as the span of ``x_a * (degree n-1 basis)``, an element being zero
exactly when all its braided left derivatives vanish.  Everything is
graded by the group as well, and the construction eliminates per
group-degree block, which keeps the exact linear algebra small.

Each class block keeps its greedy basis in lex order, so the basis
words are the lex-normal words, which are closed under taking prefixes.
So from degree 3 on, a candidate x_a b_j whose prefix x_a b_j2, for
b_j = b_j2 x_e, is not a basis word is dependent, and its coordinates
are those of (x_a b_j2) x_e: right multiplication by x_e into degree n,
whose columns are built from earlier columns as the sums read them,
applied to the coordinates of x_a b_j2.  The build files that map as
``rmul``, at the cap too, so the next degree's sums and the structure
maps read through ``rmul`` reuse its columns: ``rmul`` derives no
product b_i x_e that the fill derived.  That covers every candidate
starting with a word x_a x_c that degree 2 already writes as a sum of
words with smaller first letters (x_a^2 = 0, the commuting pairs, and
the dependent word of each three-term relation).  Only the candidates
whose prefix is a basis word reach the eliminator
(:meth:`AlgebraState._build`).  Both builds take their degree step from
:meth:`AlgebraState.extend_degree`.

The braided derivative recursions used on words:

  left:   D_g(x_a z)  = d_{ga} z + sign * x_a D_{|s_a(g)|}(z)
  right:  (z x_b)D_g  = d_{gb} z + sign * ((z)D_g) x_{|s_g(b)|}

Derivatives by an element y, as elements or as columns, are one walk of
y's basis words as a tree, one letter's matrix per step
(:func:`_derive_along`).

and, the antipode being braided anti-multiplicative,
S(u v) = S(g_u . v) S(u) for u of group degree g_u, the antipode and
its inverse by one generator each, with no group action on a word:

  antipode:  S(z x_e)       = -(g_z . x_e) S(z)
  inverse:   S^{-1}(x_a z)  = -S^{-1}(z) (g_z^{-1} . x_a)

The Woronowicz symmetrizer on raw words is an independent construction
whose ranks the tests and the acceptance suite compare with this one;
it lives with the tests' other oracles, in ``tests/oracles.py``, as does
the braided word coproduct that the coproduct tests read.
``nwalg dims`` and ``nwalg hilbert`` read only dimensions, and build
them with one class block per conjugacy orbit
(:mod:`nwalgebra.orbits`); this word-basis build is the oracle that the
tests compare with it class by class.
"""

from __future__ import annotations

from .coxeter import GroupElement, RootSystem
from .exactlinalg import QQ, ZERO_COL, ColumnSolver, mat_col, neg_col

Word = tuple

#: known finite top degrees; everything else is built under a cap
KNOWN_TOP = {"A1": 1, "A2": 4, "A3": 12}

DEFAULT_DEGREE_CAP = 6


class DegreeCapExceeded(RuntimeError):
    pass


class MemoryBoundExceeded(RuntimeError):
    pass


class CheckFailed(RuntimeError):
    """An engine check failed or its precondition does not hold (CLI exit 1)."""


class TopDegreeMismatch(CheckFailed):
    """The built degrees disagree with the known top degree of the type."""


# ---------------------------------------------------------------------------
# sparse-matrix helpers: a vector is an {index: scalar} dict without zeros,
# and a matrix is a list of such column dicts, column j holding the image
# of basis vector j.  A stored column is a value: it is never changed in
# place, so maps share columns instead of copying them, and every empty
# column they store is the one read-only ``ZERO_COL``.  That column,
# ``neg_col`` and the one sparse product ``mat_col`` live in
# :mod:`nwalgebra.exactlinalg`, with the format they define.
# ---------------------------------------------------------------------------


class UnitColumns:
    """A state's one stored copy of each unit column {k: one} and
    {k: minus_one}: two lists indexed by the row k, one per value, grown
    to the largest row asked for.

    ``share(col)``, for a one-entry column ``col``, gives the list's copy
    when its value is one or minus one, and ``col`` itself otherwise.  The
    first column offered for a (k, value) becomes the copy.  A stored
    column is a value that is never written, so a map that stores the
    copy in place of its own changes no value, no entry order and no
    digest, and one copy serves every map and every degree of the state.
    Callers test ``len(col) == 1`` inline before they call ``share``.
    """

    __slots__ = ("ones", "negs", "one", "minus_one")

    def __init__(self, field):
        self.ones, self.negs = [], []
        self.one, self.minus_one = field.one, field.minus_one

    def share(self, col):
        (k, v), = col.items()
        if v == self.one:
            table = self.ones
        elif v == self.minus_one:
            table = self.negs
        else:
            return col
        if k >= len(table):
            table.extend([None] * (k + 1 - len(table)))
        got = table[k]
        if got is None:
            got = table[k] = col
        return got

    def share_all(self, cols):
        """The list ``cols`` with each unit column replaced by its copy,
        in place."""
        for i, col in enumerate(cols):
            if len(col) == 1:
                cols[i] = self.share(col)
        return cols

    def unit(self, k):
        """The copy of {k: one}."""
        return self.share({k: self.one})


def mat_mul(a, b, field):
    return [mat_col(a, col, field) for col in b]


def mat_identity(n, field):
    return [{i: field.one} for i in range(n)]


def mat_transpose(a, nrows):
    t = [dict() for _ in range(nrows)]
    for j, col in enumerate(a):
        for i, v in col.items():
            t[i][j] = v
    return t


def mat_stack(blocks, ncols):
    """The block rows (matrix, nrows) stacked in order, as columns."""
    cols = [dict() for _ in range(ncols)]
    off = 0
    for mat, nrows in blocks:
        for col, part in zip(cols, mat):
            for r, v in part.items():
                col[off + r] = v
        off += nrows
    return cols


def split_joint(vec, width):
    """{gamma: {i: x}} from a joint derivative vector keyed gamma * width + i:
    its per-root columns, each in the vector's entry order."""
    out = {}
    for k, x in vec.items():
        g, i = divmod(k, width)
        out.setdefault(g, {})[i] = x
    return out


class LazyColumns:
    """A structure map lifted from the map one degree down, its columns
    built on first read.

    Column i, for ``parents[i] = (a, j)``, is ``lmul[|w(a)|]`` applied to
    column j of ``prev``, negated when w(a) is negative, w the group
    element with signed images ``images``: a right product
    (x_a b_j) y = x_a (b_j y) for w the identity, and the group action
    w(x_a b_j) = w(x_a) w(b_j) otherwise.  ``lmul`` is left
    multiplication into this map's degree, and column i is made once.
    It reads like the list of column dicts it stands for (``[]``,
    ``len``, iteration, ``==`` against a list).  It holds no closure and
    no reference to the algebra state, only the state's
    :class:`UnitColumns`, so a map in the state's memo makes no reference
    cycle.  A column is ``mat_col``'s result: often a column of ``lmul``
    or ``prev`` itself, or ``ZERO_COL``, and a unit column {k: ±1} is
    stored as the state's one copy of it (``units``), so it is read,
    never written.
    """

    __slots__ = ("_cols", "_lmul", "_parents", "_prev", "_images", "_field", "_units")

    def __init__(self, lmul, parents, prev, images, field, units):
        self._cols = [None] * len(parents)
        self._lmul, self._parents, self._prev = lmul, parents, prev
        self._images, self._field, self._units = images, field, units

    def __len__(self):
        return len(self._cols)

    def __getitem__(self, i):
        col = self._cols[i]
        if col is None:
            col = self._cols[i] = self._column(i)
        return col

    def _column(self, i):
        a, j = self._parents[i]
        s = self._images[a]
        col = self._prev[j] if s > 0 else neg_col(self._prev[j], self._field)
        col = mat_col(self._lmul[abs(s) - 1], col, self._field)
        return self._units.share(col) if len(col) == 1 else col

    def __iter__(self):
        return (self[i] for i in range(len(self._cols)))

    def __eq__(self, other):
        if not isinstance(other, (list, LazyColumns)):
            return NotImplemented
        return list(self) == list(other)


def mat_pow(a, k, field):
    """a^k for k >= 0 by repeated squaring, with no product by the identity
    and no squaring past the top bit of k: bit_length(k) - 1 squarings
    and popcount(k) - 1 other products.  a^1 is a itself."""
    if not k:
        return mat_identity(len(a), field)
    result = None
    while True:
        if k & 1:
            result = a if result is None else mat_mul(result, a, field)
        k >>= 1
        if not k:
            return result
        a = mat_mul(a, a, field)


# ---------------------------------------------------------------------------
# graded basis data
# ---------------------------------------------------------------------------


def _check_product_degree(name, n):
    """x_a maps degree n - 1 to degree n: there is no degree below 0."""
    if n < 1:
        raise ValueError(f"{name}: degree {n} has no degree {n - 1} to multiply from; "
                         f"n must be at least 1")


class DegreeBasis:
    """Basis of one graded component with its stored structure.

    Word i is x_a b_j for ``parents[i] = (a, j)``, and b_j2 x_e for
    ``prefixes[i] = j2`` and e its last letter, b_j and b_j2 basis words
    of degree n - 1: the basis words are closed under taking prefixes
    (:meth:`AlgebraState._build`).  Degree 0 has no prefixes.
    ``lmul[a]`` is left multiplication by x_a, a matrix B^{n-1} -> B^n,
    which the construction fills for every root.  The left derivatives
    are stored once, jointly: ``derivs[i]`` is the vector the
    construction eliminated for b_i, entry gamma * dim(n-1) + r holding
    coordinate r of D_gamma(b_i).  The per-root matrices B^n -> B^{n-1}
    are views built from it on request (:meth:`AlgebraState.dleft`).
    ``cache`` holds the maps built at this degree, keyed (map, argument);
    the build files its right multiplications there as ``("rmul", e)``.
    """

    def __init__(self, degree, words, wdegs, parents, prefixes, derivs, lmul):
        self.degree = degree
        self.words = tuple(words)
        self.dim = len(self.words)
        self.wdegs = tuple(wdegs)
        self.parents = tuple(parents)  # (first letter, parent basis index) per word
        self.prefixes = tuple(prefixes)  # prefix basis index per word
        self.derivs = derivs           # joint left-derivative vector per word
        self.lmul = lmul               # a -> matrix B^{n-1} -> B^n
        self.classes = {}
        for i, g in enumerate(self.wdegs):
            self.classes.setdefault(g, []).append(i)
        self.cache = {}                # (map, key) -> lazily built matrix


class AlgebraState:
    """Memoized degree-by-degree state of B_W over an exact field."""

    def __init__(self, system: RootSystem, field=QQ, degree_cap=None):
        self.system = system
        self.field = field
        label = system.cartan.type_label
        self.predicted_top = KNOWN_TOP.get(label)
        if degree_cap is None:
            degree_cap = (DEFAULT_DEGREE_CAP if self.predicted_top is None
                          else self.predicted_top + 1)
        self.degree_cap = degree_cap
        self.finite_top = None
        self._prods = {}      # (root, class) -> s_root * class, over all degrees
        self.units = UnitColumns(field)  # the maps' one copy of each {k: ±1}
        base = DegreeBasis(0, [()], [system.identity()], [None], [], [ZERO_COL], {})
        self.bases = [base]
        self._ensure_degree_one()

    # -- construction ----------------------------------------------------

    def _ensure_degree_one(self):
        sys = self.system
        one = self.field.one
        words = [(a,) for a in range(sys.nroots)]
        wdegs = [sys.reflection(a) for a in range(sys.nroots)]
        parents = [(a, 0) for a in range(sys.nroots)]
        prefixes = [0] * sys.nroots  # the empty word
        derivs = [{a: one} for a in range(sys.nroots)]  # D_gamma(x_a) = [gamma = a]
        lmul = {a: [{a: one}] for a in range(sys.nroots)}
        self.bases.append(DegreeBasis(1, words, wdegs, parents, prefixes, derivs, lmul))

    @property
    def truncated(self) -> bool:
        return self.finite_top is None and len(self.bases) - 1 >= self.degree_cap

    def require_top(self, what):
        """The top degree, for a statement that reads the whole algebra;
        ``what`` names that statement in the refusal of a build that
        stopped at its cap before the top, or of one not yet built that
        far."""
        if self.finite_top is None:
            cap = self.degree_cap
            reached = (f"truncated at the degree cap {cap}" if self.truncated else
                       f"built only to degree {len(self.bases) - 1}, below its degree cap {cap}")
            raise DegreeCapExceeded(f"{what}: the algebra is {reached}; top component unknown")
        return self.finite_top

    def dims(self):
        return [b.dim for b in self.bases]

    def dim(self, n) -> int:
        if self.finite_top is not None and n > self.finite_top:
            return 0
        self.ensure_degree(n)
        return self.bases[n].dim

    def basis(self, n) -> DegreeBasis:
        self.ensure_degree(n)
        return self.bases[n]

    def ensure_degree(self, n):
        """Build through degree n, or up to the top: no degree past the
        empty degree top + 1 is stored, as every one is zero (``dim``
        answers 0 there)."""
        while self.finite_top is None and len(self.bases) <= n:
            self.extend_degree()

    def construct_all(self):
        """Build degrees until the algebra tops out or the cap is reached."""
        while self.finite_top is None and len(self.bases) <= self.degree_cap:
            self.extend_degree()
        return self.dims()

    def extend_degree(self):
        """Build the next graded component from the previous one."""
        n = len(self.bases)
        if self.finite_top is not None:
            raise DegreeCapExceeded("algebra is already complete")
        if n > self.degree_cap:
            raise DegreeCapExceeded(f"degree {n} exceeds cap {self.degree_cap}")
        self._build(n)

    def _times(self, a, g):
        """The class s_a g, memoized per (root, class) over all degrees."""
        h = self._prods.get((a, g))
        if h is None:
            h = self._prods[(a, g)] = self.system.reflection(a) * g
        return h

    def _build(self, n):
        """Build degree n of the word basis.

        The candidates are x_a b_j, in (a, j) order: the previous words
        are sorted, so that is the order of the words (a,) + word_j.
        Each class block keeps, greedily in that order, the candidates
        whose joint derivative vectors are independent.  A block is
        square: its rows (gamma, r) and its candidates x_gamma b_r both
        run over the previous classes s_gamma g.

        So the kept words are the normal words: those not in the span of
        the lex-smaller words of their degree.  A word (a,) + u with u not
        normal is a sum of x_a times lex-smaller normal words, so every
        word is in the span of the candidates that do not come after it.
        Normal words are closed under taking prefixes: if p is not
        normal, p is a sum of lex-smaller words p' of its length, and p s
        the sum of the lex-smaller words p' s.

        Every candidate whose prefix x_a b_j2, for b_j = b_j2 x_e, is a
        basis word is offered to the eliminator; at degree 2 that is every
        candidate, its prefix x_a being a degree-1 word.  Any other is
        dependent, and is never assembled or offered: its coordinates
        over the kept columns, which are unique, are a sum over earlier
        columns of its block instead, so the eliminator would have
        returned the same.  x_a b_j = sum mu_i * x_{a_i} (b_{k_i} x_e),
        mu the coordinates of x_a b_j2 and b_i = x_{a_i} b_{k_i}.
        x_a b_j2 is not normal, so each b_i is lex-smaller: a_i <= a, and
        for a_i = a, b_{k_i} < b_j2.
        b_{k_i} x_e is a sum of words b_c <= word_{k_i} + (e,) < word_j,
        so every x_{a_i} b_c comes earlier.  This covers every candidate
        x_a x_c b_k of degree 3 or more whose x_a x_c is a sum of words
        with smaller first letters, as its prefix starts with x_a x_c.

        The sums are taken once the kept columns have their global
        positions, root by root, so each column is filled before a sum
        reads it.  Each sum is right multiplication by x_e into degree n
        applied to mu (``mat_col``): its column i, b_i x_e = x_{a_i} (b_{k_i} x_e), is
        built from ``rmul(n - 1, e)`` and this degree's ``lmul`` when a
        sum first reads it (:class:`LazyColumns`).  The maps are
        filed as ``rmul(n, e)``, so degree n + 1's sums and the structure
        maps read through ``rmul`` reuse their columns; at the cap,
        reversal and the inverse antipode read them.  Each class block's
        candidates and each row of offers are dropped once used, so the
        cap's maps add little to the peak.
        The prefix test and the prefixes are integers: x_a b_j2 is a
        basis word exactly when (a, j2) is the parent pair of one, and
        that word is the prefix of a kept x_a b_j.
        """
        sys = self.system
        prev = self.bases[n - 1]
        parents, prefixes = prev.parents, prev.prefixes
        index = {p: i for i, p in enumerate(parents)}  # (a, j) -> index of x_a b_j

        # a root a meets a class g in one previous class, s_a g
        by_class = {}  # class element -> its candidates (a, j), in order
        for a in range(sys.nroots):
            for h, idx in prev.classes.items():
                by_class.setdefault(self._times(a, h), []).extend([(a, j) for j in idx])

        # column j of lmul[a]: None if a sum gives it, else its coordinates
        # over its class's kept candidates and their positions
        offers = [[None] * prev.dim for _ in range(sys.nroots)]
        classes = sorted(by_class, key=lambda e: e.images)
        pos_of = [[] for _ in classes]
        kept = []  # (a, j, class number, derivative vector) per kept candidate
        for k, g in enumerate(classes):
            block = by_class.pop(g)  # dropped once solved
            if len(block) ** 2 > self.system.memory_bound:
                raise MemoryBoundExceeded(
                    f"degree {n} class block needs {len(block) ** 2} entries")
            offered = [(a, j) for a, j in block if (a, prefixes[j]) in index]
            if offered:
                vectors = [self._candidate_vector(a, j, prev) for a, j in offered]
                sel, coords = self._solve_block(vectors)
                for (a, j), c in zip(offered, coords):
                    offers[a][j] = (c, pos_of[k])
                kept += [(*offered[s], k, vectors[s]) for s in sel]

        # a class's kept candidates are in (a, j) order, so their global
        # positions come out ascending in their local order
        kept.sort(key=lambda t: t[:2])
        for i, (_, _, k, _) in enumerate(kept):
            pos_of[k].append(i)
        field, ident = self.field, sys.identity().images
        rmuls = {}  # e -> right multiplication by x_e into degree n
        lmul = {}
        for a in range(sys.nroots):
            lmul[a] = cols = []
            col, offers[a] = offers[a], None  # free each row once it is read
            for j, offer in enumerate(col):
                if offer is not None:
                    coords, pos = offer
                    cols.append({pos[local]: x for local, x in coords.items()} or ZERO_COL)
                    continue
                e = prev.words[j][-1]
                if e not in rmuls:
                    rmuls[e] = LazyColumns(lmul, parents, self.rmul(n - 1, e), ident, field,
                                           self.units)
                cols.append(mat_col(rmuls[e], prev.lmul[a][prefixes[j]], field))

        self._append_built(DegreeBasis(
            n, [(a,) + prev.words[j] for a, j, _, _ in kept],
            [classes[k] for _, _, k, _ in kept],
            [(a, j) for a, j, _, _ in kept],
            [index[(a, prefixes[j])] for a, j, _, _ in kept],
            [vec for _, _, _, vec in kept], lmul))
        self.bases[n].cache.update((("rmul", e), m) for e, m in rmuls.items())

    def _append_built(self, basis):
        """Append a newly built degree, checked against the known top
        degree; an empty one marks the top."""
        n, dim, top = basis.degree, basis.dim, self.predicted_top
        if top is not None and (n <= top) == (dim == 0):
            what = "vanishes" if dim == 0 else "is nonzero"
            raise TopDegreeMismatch(
                f"degree {n} {what}, but the known top degree is {top}")
        self.bases.append(basis)
        if dim == 0:
            self.finite_top = n - 1

    def _candidate_vector(self, a, j, prev):
        """Joint left-derivative vector of x_a * b_j, entry gamma * prev.dim + r
        holding coordinate r of D_gamma(x_a b_j).

        D_gamma(x_a b_j) = [gamma = a] b_j + sign * L_a D_delta(b_j) with
        s_a(gamma) = sign * delta.  Entry delta * dim(n-2) + c of the
        stored vector ``prev.derivs[j]`` is coordinate c of D_delta(b_j),
        and s_a is an involution, so gamma = |s_a(delta)| with the same
        sign; the entries are scattered down the columns of L_a, gamma
        ascending.  Returns {position: value} without zeros.
        """
        field = self.field
        refl = self.system.refl[a]
        lm = prev.lmul[a]
        dim = prev.dim
        ddim = self.bases[prev.degree - 1].dim
        by_gamma = {}  # gamma -> (c, sign * coordinate c of D_delta(b_j))
        for k, x in prev.derivs[j].items():
            delta, c = divmod(k, ddim)
            s = refl[delta]
            by_gamma.setdefault(abs(s) - 1, []).append((c, x if s > 0 else -x))
        acc = {a * dim + j: field.one}
        for gam in sorted(by_gamma):
            base = gam * dim
            for c, x in by_gamma[gam]:
                for r, v in lm[c].items():
                    k = base + r
                    acc[k] = acc.get(k, 0) + v * x
        return field.canon(acc)

    def _solve_block(self, vectors):
        """Kept candidates and each candidate's {kept: coordinate} dict,
        each vector reduced once."""
        solver = ColumnSolver(self.field)
        offered = [solver.add(vec, express=True) for vec in vectors]
        return [ci for ci, (kept, _) in enumerate(offered) if kept], [c for _, c in offered]

    # -- lazily built structure matrices ----------------------------------

    def lmul(self, n, a):
        """Left multiplication by x_a as a matrix B^{n-1} -> B^n, n >= 1."""
        _check_product_degree("lmul", n)
        self.ensure_degree(n)
        return self.bases[n].lmul[a]

    def _cached(self, n, key, build):
        """The degree-n map ``key`` = (map name, argument), built once by
        ``build(basis)`` and kept in the degree's memo."""
        basis = self.basis(n)
        m = basis.cache.get(key)
        if m is None:
            m = basis.cache[key] = build(basis)
        return m

    def dleft(self, n, g):
        """Left derivative by gamma as a matrix B^n -> B^{n-1}: column i is
        block gamma of ``derivs[i]``.  The first request at a degree splits
        every stored vector once and files all the roots' matrices.  A
        block that splits off as a unit column {r: ±1} is stored as the
        state's one copy of it (:class:`UnitColumns`), shared with every
        other map and degree; the stored vectors keep their own dicts."""
        def build(basis):
            prev_dim = self.bases[n - 1].dim if n else 0
            mats = [[ZERO_COL] * basis.dim for _ in range(self.system.nroots)]
            for i, vec in enumerate(basis.derivs):
                for gam, col in split_joint(vec, prev_dim).items():
                    mats[gam][i] = col
            for gam, m in enumerate(mats):
                basis.cache[("dleft", gam)] = self.units.share_all(m)
            return mats[g]
        return self._cached(n, ("dleft", g), build)

    # Every map below is built column by column from ``parents`` (the
    # antipode from ``prefixes``): column i of degree n, for b_i = x_a b_j
    # (b_i = b_j x_e), comes from column j of a map at degree n - 1.

    def rmul(self, n, a):
        """Right multiplication by x_a as a matrix B^{n-1} -> B^n, n >= 1,
        via (x_b z) x_a = x_b (z x_a).  Its columns are built when first
        read.  The word build files the maps its fill summed through,
        with the columns it built, and reads others one degree down."""
        _check_product_degree("rmul", n)

        def build(basis):
            if n == 1:
                return [self.units.unit(a)]  # the word (a,) sits at index a
            return self.right_products(n - 1, self.rmul(n - 1, a), 1)
        return self._cached(n, ("rmul", a), build)

    def right_products(self, n, prev, ny):
        """The products b_i y, y of degree ny, for the degree-n basis, as
        columns of degree n + ny, via (x_a b_j) y = x_a (b_j y): column i,
        for b_i = x_a b_j, is x_a applied to column j of ``prev``, the
        products of degree n - 1, by the column rule the word build's
        right multiplications share (:class:`LazyColumns`, w the
        identity).  The columns are built when first read.  Past the known
        top they are zero."""
        if self.finite_top is not None and n + ny > self.finite_top:
            return [ZERO_COL] * self.dim(n)
        return LazyColumns(self.basis(n + ny).lmul, self.basis(n).parents, prev,
                           self.system.identity().images, self.field, self.units)

    def dright(self, n, g):
        """Right derivative by gamma as a matrix B^n -> B^{n-1}; zero on
        the unit."""
        def build(basis):
            field = self.field
            if n == 0:
                return [ZERO_COL]
            if n == 1:
                return [self.units.unit(0) if w[0] == g else ZERO_COL for w in basis.words]
            dr_prev = self.dright(n - 1, g)
            act_prev = self.act_matrix(n - 1, self.system.reflection(g))
            lmul = self.bases[n - 1].lmul
            return self.units.share_all([mat_col(lmul[beta], dr_prev[j], field,
                                                 act_prev[j] if beta == g else None)
                                         for beta, j in basis.parents])
        return self._cached(n, ("dright", g), build)

    def act_matrix(self, n, w: GroupElement):
        """Action of a group element on the degree-n component.  It is an
        algebra automorphism with w(x_a) = sign * x_c, so
        w(x_a z) = sign * x_c w(z).  The columns are built when first
        read (:class:`LazyColumns`): callers mostly read one class block.
        The antipode and its inverse do not read it."""
        def build(basis):
            if n == 0:
                return [self.units.unit(0)]
            return LazyColumns(basis.lmul, basis.parents, self.act_matrix(n - 1, w),
                               w.images, self.field, self.units)
        return self._cached(n, ("act", w.images), build)

    def word_column(self, word):
        """Coordinates of a word's class against the degree basis, as a
        {index: scalar} dict without zeros."""
        n = len(word)
        col = {0: self.field.one}
        for k in range(n - 1, -1, -1):
            # the top is tested before each read: a word past it is zero,
            # and no lmul past degree top + 1 is stored
            if self.finite_top is not None and n > self.finite_top:
                return {}
            col = mat_col(self.lmul(n - k, word[k]), col, self.field)
        return col

    def gram(self, n):
        """Gram matrix of the duality pairing on the degree-n basis.  It is
        symmetric, so its columns are also its rows.  For b_i = x_b b_j,
        entry k of column i is <b_k, x_b b_j> = <(b_k)D_b, b_j>, so
        column i is the transpose of ``dright(n, b)`` applied to Gram
        column j of degree n - 1."""
        def build(basis):
            field = self.field
            dim = basis.dim
            if dim * dim > self.system.memory_bound:
                raise MemoryBoundExceeded(
                    f"gram: the degree-{n} Gram matrix needs {dim * dim} entries")
            if n == 0:
                return [self.units.unit(0)]
            g_prev = self.gram(n - 1)
            dr_t = {}  # beta -> transpose of dright(n, beta)
            cols = []
            for beta, jp in basis.parents:
                if beta not in dr_t:
                    dr_t[beta] = mat_transpose(self.dright(n, beta), len(g_prev))
                cols.append(mat_col(dr_t[beta], g_prev[jp], field))
            return self.units.share_all(cols)
        return self._cached(n, ("gram", None), build)

    def rho_matrix(self, n):
        """Word reversal as a matrix on the degree-n component, via the
        anti-automorphism rule rho(x_a z) = rho(z) x_a."""
        def build(basis):
            if n == 0:
                return [self.units.unit(0)]
            r_prev = self.rho_matrix(n - 1)
            return self.units.share_all([mat_col(self.rmul(n, a), r_prev[j], self.field)
                                         for a, j in basis.parents])
        return self._cached(n, ("rho", None), build)

    def antipode_matrix(self, n):
        """Antipode on degree n by the prefix recursion
        S(b_j x_e) = -(g_j . x_e) S(b_j), g_j the group degree of b_j:
        column i, for b_i = b_j x_e and g_j(e) = sign * c, is
        -sign * ``lmul[c]`` of degree n applied to column j of degree
        n - 1."""
        def build(basis):
            field = self.field
            if n == 0:
                return [self.units.unit(0)]
            s_prev, wdegs = self.antipode_matrix(n - 1), self.bases[n - 1].wdegs
            lmul = basis.lmul
            cols = []
            for word, j in zip(basis.words, basis.prefixes):
                s = wdegs[j].act(word[-1] + 1)
                col = s_prev[j] if s < 0 else neg_col(s_prev[j], field)
                cols.append(mat_col(lmul[abs(s) - 1], col, field))
            return self.units.share_all(cols)
        return self._cached(n, ("antipode", None), build)

    def antipode_inv_matrix(self, n):
        """Inverse antipode on degree n by the parents recursion
        S^{-1}(x_a b_j) = -S^{-1}(b_j) (g_j^{-1} . x_a), g_j the group
        degree of b_j: column i, for b_i = x_a b_j and
        g_j^{-1}(a) = sign * c, is -sign * ``rmul(n, c)`` applied to
        column j of degree n - 1.  ``check_nz_antipode`` checks it against
        the antipode by S S^{-1} = I."""
        def build(basis):
            field = self.field
            if n == 0:
                return [self.units.unit(0)]
            t_prev, prev = self.antipode_inv_matrix(n - 1), self.bases[n - 1]
            inv = {g: g.inverse().images for g in prev.classes}
            cols = []
            for a, j in basis.parents:
                s = inv[prev.wdegs[j]][a]
                col = t_prev[j] if s < 0 else neg_col(t_prev[j], field)
                cols.append(mat_col(self.rmul(n, abs(s) - 1), col, field))
            return self.units.share_all(cols)
        return self._cached(n, ("antipode_inv", None), build)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class NicholsElement:
    """A graded element: per degree, its coordinates against the degree
    basis as an {index: scalar} dict without zeros."""

    __slots__ = ("state", "components")

    def __init__(self, state: AlgebraState, components=None):
        self.state = state
        self.components = {}
        if components:
            for n, vec in components.items():
                vec = {i: x for i, x in vec.items() if x}
                if vec:
                    self.components[n] = vec

    @classmethod
    def unit(cls, state):
        return cls(state, {0: {0: state.field.one}})

    @classmethod
    def generator(cls, state, a):
        return cls(state, {1: {a: state.field.one}})

    @classmethod
    def from_word(cls, state, word):
        return cls(state, {len(word): state.word_column(tuple(word))})

    def is_zero(self):
        return not self.components

    def degrees(self):
        return sorted(self.components)

    def component(self, n):
        """The degree-n coordinates, as a fresh {index: scalar} dict."""
        return dict(self.components.get(n, {}))

    def __add__(self, other):
        norm = self.state.field.normalize
        comps = {n: dict(v) for n, v in self.components.items()}
        for n, v in other.components.items():
            acc = comps.setdefault(n, {})
            for i, x in v.items():
                acc[i] = norm(acc[i] + x) if i in acc else x
        return NicholsElement(self.state, comps)

    def __sub__(self, other):
        return self + other.scale(self.state.field.minus_one)

    def scale(self, s):
        field = self.state.field
        s = field.of(s)
        return NicholsElement(self.state, {
            n: field.canon({i: x * s for i, x in v.items()})
            for n, v in self.components.items()})

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return isinstance(other, NicholsElement) and self.components == other.components

    def __repr__(self):
        parts = []
        for n in self.degrees():
            words = self.state.bases[n].words
            for i, c in sorted(self.components[n].items()):
                parts.append(f"{c}*x{list(words[i])}")
        return " + ".join(parts) if parts else "0"

    def proportional_to(self, other):
        """Scalar s with self = s * other, or None."""
        field = self.state.field
        if other.is_zero():
            return field.zero if self.is_zero() else None
        if self.is_zero():
            return field.zero
        n0 = other.degrees()[0]
        vo = other.components[n0]
        i0 = min(vo)
        x = self.components.get(n0, {}).get(i0)
        if x is None:
            return None
        s = field.normalize(x * field.inv(vo[i0]))
        return s if self == other.scale(s) else None


def _homogeneous_degree(y: NicholsElement, name):
    """The degree of a homogeneous y, None for y = 0; ValueError otherwise."""
    if len(y.components) > 1:
        raise ValueError(f"{name}: the element must be homogeneous, "
                         f"it has degrees {y.degrees()}")
    return next(iter(y.components), None)


def right_multiplier(y: NicholsElement):
    """The map x -> x y.  The products b_i y of each degree's basis with
    each component of y are built once, on first read, by
    :meth:`AlgebraState.right_products`; a product then costs one
    matrix-vector step per pair of components.  For homogeneous y,
    ``times.columns(n)`` reads those products of the degree-n basis as
    columns."""
    state = y.state
    # ny -> [the columns b_i y_ny of the degree-n basis, for n = 0, 1, ...]
    chains = {ny: [[vy]] for ny, vy in y.components.items()}

    def chain(ny, n):
        links = chains[ny]
        while len(links) <= n:
            links.append(state.right_products(len(links), links[-1], ny))
        return links[n]

    def times(x: NicholsElement) -> NicholsElement:
        # per degree of x y, the columns b_j y_ny and their coefficients
        # x_nx[j], summed in one mat_col in the order of one running sum
        terms = {}
        for nx, vx in x.components.items():
            for ny in chains:
                cols, coeffs = terms.setdefault(nx + ny, ([], {}))
                products = chain(ny, nx)
                for j, c in vx.items():
                    coeffs[len(cols)] = c
                    cols.append(products[j])
        return NicholsElement(state, {n: mat_col(cols, coeffs, state.field)
                                      for n, (cols, coeffs) in terms.items()})

    def columns(n):
        ny = _homogeneous_degree(y, "right_multiplier")
        return [ZERO_COL] * state.dim(n) if ny is None else chain(ny, n)

    times.columns = columns
    return times


def right_derivative_columns(y: NicholsElement):
    """The map n -> the columns (b_i)D_y of the degree-n basis, of degree
    n - m for y homogeneous of degree m (zero below degree m).  Each
    degree is built once, on first read, by the walk of
    :func:`right_derivative` applied to every basis element at once."""
    state = y.state
    field = state.field
    m = _homogeneous_degree(y, "right_derivative_columns")
    tree = _word_tree(state, m, y.components[m], False) if m is not None else []
    built = {}

    def columns(n):
        cols = built.get(n)
        if cols is None:
            accs = [{} for _ in range(state.dim(n))]
            if m is not None and n >= m:
                _derive_along(state, state.dright,
                              list(enumerate(mat_identity(len(accs), field))), n, tree, accs)
            cols = built[n] = [field.canon(acc) or ZERO_COL for acc in accs]
        return cols
    return columns


def _word_tree(state: AlgebraState, d, vec, left):
    """The basis words of the degree-d coordinates ``vec`` as a tree in
    the order a derivative by a word applies its letters: a list of
    (a, subtree) by first letter a (``parents``) for the right
    derivative, (z)D_{x_a b} = ((z)D_a)D_b, or by last letter a
    (``prefixes``) for the left one, D_{b x_a} = D_b o D_a; at d = 0,
    the coefficient of the empty word."""
    if d == 0:
        return vec[0]
    by_letter = {}
    basis = state.basis(d)
    for i, c in vec.items():
        a, j = (basis.words[i][-1], basis.prefixes[i]) if left else basis.parents[i]
        by_letter.setdefault(a, {})[j] = c
    return [(a, _word_tree(state, d - 1, sub, left)) for a, sub in by_letter.items()]


def _derive_along(state: AlgebraState, derivative, vecs, d, node, accs):
    """accs[k] += v derived along the words of ``node``, a
    :func:`_word_tree`, for each (k, v) in ``vecs``, v of degree d.
    ``derivative(d, a)`` is the letter's map out of degree d
    (``state.dright`` or ``state.dleft``).  The words that share a
    subtree share its steps, and a step that gives zero ends its branch."""
    if not isinstance(node, list):
        for k, v in vecs:
            acc = accs[k]
            for t, x in v.items():
                acc[t] = acc.get(t, 0) + node * x
        return
    for a, sub in node:
        dm = derivative(d, a)
        out = [(k, w) for k, v in vecs if (w := mat_col(dm, v, state.field))]
        if out:
            _derive_along(state, derivative, out, d - 1, sub, accs)


def multiply(a: NicholsElement, b: NicholsElement) -> NicholsElement:
    """The product a b, by the map x -> x b of :func:`right_multiplier`."""
    return right_multiplier(b)(a)


def ordered_product(elements, state: AlgebraState) -> NicholsElement:
    """z_1 z_2 ... z_k in the given order; the unit for no elements."""
    acc = NicholsElement.unit(state)
    for z in elements:
        acc = multiply(acc, z)
    return acc


def right_derivative(z: NicholsElement, y: NicholsElement) -> NicholsElement:
    """(z) <- D_y, the right derivative action of y on z: ``dright``
    along the words of y, first letter first (:func:`_derive_along`)."""
    return _derive(z, y, False)


def left_derivative(y: NicholsElement, z: NicholsElement) -> NicholsElement:
    """D_y (z), the left derivative action of y on z: ``dleft`` along
    the words of y, last letter first (:func:`_derive_along`)."""
    return _derive(z, y, True)


def _derive(z: NicholsElement, y: NicholsElement, left) -> NicholsElement:
    """D_y (z) for ``left``, else (z)D_y: each component of y walked as
    one :func:`_word_tree` over every component of z of its degree or
    more."""
    state = z.state
    derivative = state.dleft if left else state.dright
    out = {}
    for ny, vy in y.components.items():
        tree = _word_tree(state, ny, vy, left)
        for nz, vz in z.components.items():
            if nz >= ny:
                _derive_along(state, derivative, [(0, vz)], nz, tree,
                              [out.setdefault(nz - ny, {})])
    return NicholsElement(state, {n: state.field.canon(acc) for n, acc in out.items()})


def _apply_matrices(z: NicholsElement, matrix) -> NicholsElement:
    """The element with degree-n coordinates matrix(n) z_n."""
    state = z.state
    return NicholsElement(state, {
        n: mat_col(matrix(n), v, state.field) for n, v in z.components.items()})


def group_act(w: GroupElement, z: NicholsElement) -> NicholsElement:
    return _apply_matrices(z, lambda n: z.state.act_matrix(n, w))


def pairing(a: NicholsElement, b: NicholsElement):
    """The duality pairing <a, b>."""
    return pairing_with(b)(a)


def pairing_with(b: NicholsElement):
    """The functional a -> <a, b>.  Each component of b goes through its
    degree's Gram matrix on the first a that reads it, once, so pairing
    many elements with one b costs one Gram product per degree of b."""
    state, field = b.state, b.state.field
    images = {}  # degree -> Gram matrix applied to b's component

    def pair(a: NicholsElement):
        total = 0
        for n, va in a.components.items():
            vb = b.components.get(n)
            if vb is None:
                continue
            gb = images.get(n)
            if gb is None:
                gb = images[n] = mat_col(state.gram(n), vb, field)
            total += sum(x * gb[i] for i, x in va.items() if i in gb)
        return field.normalize(total)
    return pair


def antipode(z: NicholsElement) -> NicholsElement:
    return _apply_matrices(z, z.state.antipode_matrix)


def rho(z: NicholsElement) -> NicholsElement:
    return _apply_matrices(z, z.state.rho_matrix)


def s_bar(z: NicholsElement) -> NicholsElement:
    """The twisted antipode: (-1)^n rho S on the degree-n component."""
    field = z.state.field
    return NicholsElement(z.state, {n: neg_col(v, field) if n % 2 else v
                                    for n, v in rho(antipode(z)).components.items()})


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def element_to_json(z: NicholsElement):
    comps = []
    for n in z.degrees():
        basis = z.state.basis(n)
        terms = [{"word": list(basis.words[i]), "coeff": str(c)}
                 for i, c in sorted(z.components[n].items())]
        comps.append({"degree": n, "terms": terms})
    return {"degree_components": comps}
