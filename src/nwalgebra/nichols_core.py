"""Degree-by-degree construction of the Nichols-Woronowicz algebra B_W.

Words are tuples of positive-root indices; the class of the word
``(a_1, ..., a_n)`` is the product ``x_{a_1} ... x_{a_n}``.  Degree n is
built as the span of ``x_a * (degree n-1 basis)``, an element being zero
exactly when all its braided left derivatives vanish.  Everything is
graded by the group as well, and the construction eliminates per
group-degree block, which keeps the exact linear algebra small.

The braided derivative recursions used on words:

  left:   D_g(x_a z)  = d_{ga} z + sign * x_a D_{|s_a(g)|}(z)
  right:  (z x_b)D_g  = d_{gb} z + sign * ((z)D_g) x_{|s_g(b)|}

Two independent construction paths exist: this incremental one, and the
Woronowicz symmetrizer on raw words; their ranks are compared in tests
and in the acceptance suite.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .coxeter import GroupElement, RootSystem
from .exactlinalg import QQ, ColumnSolver

Word = tuple

#: known finite top degrees; everything else is built under a cap
KNOWN_TOP = {"A1": 1, "A2": 4, "A3": 12}

DEFAULT_DEGREE_CAP = 6
DEFAULT_MEMORY_BOUND = 50_000_000


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
# of basis vector j
# ---------------------------------------------------------------------------


def mat_col(mat, col, field, plus=None):
    """M c (+ plus) for sparse columns {index: scalar}, without zeros.

    Walks only the entries of c down their columns, accumulates raw
    products and reduces each output entry once (``field.normalize``).
    """
    acc = dict(plus) if plus else {}
    get = acc.get
    for j, x in col.items():
        for i, v in mat[j].items():
            acc[i] = get(i, 0) + v * x
    norm = field.normalize
    return {i: y for i, x in acc.items() if (y := norm(x))}


def mat_mul(a, b, field):
    return [mat_col(a, col, field) for col in b]


def mat_identity(n, field):
    return [{i: field.one} for i in range(n)]


def mat_stack(blocks, ncols):
    """The block rows (matrix, nrows) stacked in order: (columns, nrows)."""
    cols = [dict() for _ in range(ncols)]
    off = 0
    for mat, nrows in blocks:
        for col, part in zip(cols, mat):
            for r, v in part.items():
                col[off + r] = v
        off += nrows
    return cols, off


def mat_eq(a, b):
    return all(ra == rb for ra, rb in zip(a, b)) and len(a) == len(b)


def mat_scale(a, s, field):
    if not s:
        return [dict() for _ in a]
    return [{i: field.mul(v, s) for i, v in col.items()} for col in a]


def mat_pow(a, k, field):
    n = len(a)
    result = mat_identity(n, field)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base, field)
        base = mat_mul(base, base, field)
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# words and braiding
# ---------------------------------------------------------------------------


def word_wdeg(sys: RootSystem, word) -> GroupElement:
    w = sys.identity()
    for a in word:
        w = w * sys.reflection(a)
    return w


def braid_apply(sys: RootSystem, word, i, inverse=False):
    """One braiding at position i: (sign, new_word).

    Forward: (a, b) -> (s_a(b), a).  Inverse: (a, b) -> (b, s_b(a)).
    """
    if not 0 <= i < len(word) - 1:
        raise IndexError("braiding position out of range")
    a, b = word[i], word[i + 1]
    if inverse:
        s = sys.refl[b][a]
        pair = (b, abs(s) - 1)
    else:
        s = sys.refl[a][b]
        pair = (abs(s) - 1, a)
    sign = 1 if s > 0 else -1
    return sign, word[:i] + pair + word[i + 2:]


def braid_transposition(sys: RootSystem, word, i, inverse=False) -> "TensorElement":
    sign, w = braid_apply(sys, word, i, inverse)
    return TensorElement(len(word), {w: Fraction(sign)})


def act_on_word(w: GroupElement, word):
    """(sign, word) for the letterwise group action."""
    sign = 1
    out = []
    for a in word:
        s = w.act(a + 1)
        if s < 0:
            sign = -sign
        out.append(abs(s) - 1)
    return sign, tuple(out)


class TensorElement:
    """An element of the free braided algebra: a word -> scalar map."""

    def __init__(self, degree, terms=None):
        self.degree = degree
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if len(w) != degree:
                    raise ValueError("word of wrong length")
                if c:
                    self.terms[w] = c

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        t = dict(self.terms)
        for w, c in other.terms.items():
            x = t.get(w, 0) + c
            if x:
                t[w] = x
            else:
                t.pop(w, None)
        return TensorElement(self.degree, t)

    def scale(self, s):
        return TensorElement(self.degree, {w: c * s for w, c in self.terms.items()})

    def reversed_words(self):
        return TensorElement(self.degree, {w[::-1]: c for w, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.degree == other.degree and self.terms == other.terms

    def __repr__(self):
        return f"TensorElement({self.degree}, {self.terms})"

    def involves_only(self, theta) -> bool:
        theta = set(theta)
        return all(set(w) <= theta for w in self.terms)

    def starts_with(self, g) -> bool:
        """Syntactic check on representatives: every word begins with g."""
        return all(w and w[0] == g for w in self.terms)

    def ends_with(self, g) -> bool:
        return all(w and w[-1] == g for w in self.terms)


# ---------------------------------------------------------------------------
# graded basis data
# ---------------------------------------------------------------------------


class DegreeBasis:
    """Basis of one graded component with its structure matrices."""

    def __init__(self, degree, words, wdegs, parents):
        self.degree = degree
        self.words = tuple(words)
        self.dim = len(self.words)
        self.index = {w: i for i, w in enumerate(self.words)}
        self.wdegs = tuple(wdegs)
        self.parents = tuple(parents)  # (first letter, parent basis index) per word
        self.classes = {}
        for i, g in enumerate(self.wdegs):
            self.classes.setdefault(g, []).append(i)
        self.lmul = {}    # a -> matrix B^{n-1} -> B^n
        self.dleft = {}   # g -> matrix B^n -> B^{n-1}
        self._rmul = {}
        self._dright = {}
        self._act = {}
        self._gram = None
        self._gram_inv = None
        self._rho = None
        self._antipode = None
        self._antipode_inv = None


class AlgebraState:
    """Memoized degree-by-degree state of B_W over an exact field."""

    def __init__(self, system: RootSystem, field=QQ, degree_cap=None,
                 memory_bound=DEFAULT_MEMORY_BOUND):
        self.system = system
        self.field = field
        label = system.cartan.type_label
        self.predicted_top = KNOWN_TOP.get(label)
        if degree_cap is None:
            degree_cap = (DEFAULT_DEGREE_CAP if self.predicted_top is None
                          else self.predicted_top + 1)
        self.degree_cap = degree_cap
        self.memory_bound = memory_bound
        self.finite_top = None
        base = DegreeBasis(0, [()], [system.identity()], [None])
        self.bases = [base]
        self._ensure_degree_one()

    # -- construction ----------------------------------------------------

    def _ensure_degree_one(self):
        sys = self.system
        words = [(a,) for a in range(sys.nroots)]
        wdegs = [sys.reflection(a) for a in range(sys.nroots)]
        parents = [(a, 0) for a in range(sys.nroots)]
        basis = DegreeBasis(1, words, wdegs, parents)
        one = self.field.one
        for a in range(sys.nroots):
            basis.lmul[a] = [{a: one}]
            basis.dleft[a] = [{0: one} if i == a else {} for i in range(sys.nroots)]
        self.bases.append(basis)

    @property
    def truncated(self) -> bool:
        return self.finite_top is None and len(self.bases) - 1 >= self.degree_cap

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
        while len(self.bases) <= n:
            if self.finite_top is not None:
                self._append_empty()
                continue
            if len(self.bases) > self.degree_cap:
                raise DegreeCapExceeded(
                    f"degree {len(self.bases)} exceeds cap {self.degree_cap}")
            self.extend_degree()

    def _append_empty(self):
        n = len(self.bases)
        prev_dim = self.bases[n - 1].dim
        basis = DegreeBasis(n, [], [], [])
        for a in range(self.system.nroots):
            basis.lmul[a] = [dict() for _ in range(prev_dim)]
            basis.dleft[a] = []
        self.bases.append(basis)

    def construct_all(self):
        """Build degrees until the algebra tops out or the cap is reached."""
        while self.finite_top is None and len(self.bases) <= self.degree_cap:
            self.extend_degree()
        return self.dims()

    def extend_degree(self):
        """Build the next graded component from the previous one."""
        sys = self.system
        field = self.field
        n = len(self.bases)
        if self.finite_top is not None:
            raise DegreeCapExceeded("algebra is already complete")
        if n > self.degree_cap:
            raise DegreeCapExceeded(f"degree {n} exceeds cap {self.degree_cap}")
        prev = self.bases[n - 1]
        prods = {}  # (root, class) -> s_root * class, for this degree

        def times(a, g):
            h = prods.get((a, g))
            if h is None:
                h = prods[(a, g)] = sys.reflection(a) * g
            return h

        # candidates x_a * b_j grouped by group degree, in canonical word order
        cands = []  # (word, a, j, class element)
        for a in range(sys.nroots):
            for j, wj in enumerate(prev.words):
                cands.append(((a,) + wj, a, j, times(a, prev.wdegs[j])))
        cands.sort(key=lambda t: t[0])

        by_class = {}
        for cand in cands:
            by_class.setdefault(cand[3], []).append(cand)

        pos_in_class = [0] * prev.dim
        for idxs in prev.classes.values():
            for k, i in enumerate(idxs):
                pos_in_class[i] = k

        coords_of = {}    # candidate word -> (class number, sparse coordinates)
        vector_of = {}    # kept word -> (sparse vector, (gamma, row) per position)
        chosen_of = []    # class number -> kept words of the class
        for g in sorted(by_class, key=lambda e: e.images):
            block = by_class[g]
            rows, offsets = self._class_rows(prev, g, times)
            nrows = offsets[-1] + len(rows[-1])
            if nrows * len(block) > self.memory_bound:
                raise MemoryBoundExceeded(
                    f"degree {n} class block needs {nrows * len(block)} entries")
            vectors = [self._candidate_vector(cand, offsets, prev, pos_in_class)
                       for cand in block]
            if field.prime is not None and len(block) > 8:
                sel, coords = self._solve_block_modp(vectors, nrows)
            else:
                sel, coords = self._solve_block_generic(vectors, nrows)
            chosen_of.append([block[s][0] for s in sel])
            row_ids = [(gam, glob) for gam, idxs in enumerate(rows) for glob in idxs]
            for s in sel:
                vector_of[block[s][0]] = (vectors[s], row_ids)
            for ci, cand in enumerate(block):
                coords_of[cand[0]] = (len(chosen_of) - 1, coords[ci])

        kept_words = sorted(w for chosen in chosen_of for w in chosen)
        word_pos = {w: i for i, w in enumerate(kept_words)}
        pos_of = [[word_pos[w] for w in chosen] for chosen in chosen_of]
        cand_info = {c[0]: c for c in cands}
        wdegs = [cand_info[w][3] for w in kept_words]
        parents = [(cand_info[w][1], cand_info[w][2]) for w in kept_words]
        basis = DegreeBasis(n, kept_words, wdegs, parents)

        # column j of lmul[a]: the coordinates of the candidate x_a b_j
        dim = len(kept_words)
        for a in range(sys.nroots):
            basis.lmul[a] = [None] * prev.dim
        for (w, a, j, g) in cands:
            k, coords = coords_of[w]
            pos = pos_of[k]
            basis.lmul[a][j] = {pos[local]: c for local, c in coords.items()}

        # column i of dleft[gamma]: block gamma of the vector of kept word i
        for gam in range(sys.nroots):
            basis.dleft[gam] = [dict() for _ in range(dim)]
        for i, w in enumerate(kept_words):
            vec, row_ids = vector_of[w]
            for k, v in vec.items():
                gam, glob = row_ids[k]
                basis.dleft[gam][i][glob] = v

        top = self.predicted_top
        if top is not None and (n <= top) == (dim == 0):
            what = "vanishes" if dim == 0 else "is nonzero"
            raise TopDegreeMismatch(
                f"degree {n} {what}, but the known top degree is {top}")
        self.bases.append(basis)
        if dim == 0:
            self.finite_top = n - 1

    def _class_rows(self, prev: DegreeBasis, g: GroupElement, times):
        """Per-derivative-index row layout of the class-g derivative space."""
        rows = []
        offsets = []
        pos = 0
        for gam in range(self.system.nroots):
            idxs = prev.classes.get(times(gam, g), [])
            rows.append(idxs)
            offsets.append(pos)
            pos += len(idxs)
        return rows, offsets

    def _candidate_vector(self, cand, offsets, prev, pos_in_class):
        """Joint left-derivative vector of x_a * b_j in class-row layout.

        Block gamma holds D_gamma(x_a b_j) = [gamma = a] b_j
        + sign * L_a D_delta(b_j) with s_a(gamma) = sign * delta.  Every
        term of L_a D_delta(b_j) lies in the class of block gamma, so it
        is scattered from column j of D_delta and the columns of L_a.
        Returns {position: value} without zeros.
        """
        field = self.field
        _, a, j, _ = cand
        refl = self.system.refl[a]
        lm = prev.lmul[a]
        acc = {offsets[a] + pos_in_class[j]: field.one}
        for gam, base in enumerate(offsets):
            s = refl[gam]
            for c, x in prev.dleft[abs(s) - 1][j].items():
                if s < 0:
                    x = -x
                for r, v in lm[c].items():
                    k = base + pos_in_class[r]
                    acc[k] = acc.get(k, 0) + v * x
        norm = field.normalize
        return {k: y for k, x in acc.items() if (y := norm(x))}

    def _solve_block_generic(self, vectors, nrows):
        """Kept candidates and each candidate's {kept: coordinate} dict."""
        solver = ColumnSolver(nrows, self.field)
        sel = [ci for ci, v in enumerate(vectors) if solver.add(v)]
        return sel, [solver.coordinates(v) for v in vectors]

    def _solve_block_modp(self, vectors, nrows):
        import numpy as np

        from . import modp

        rows, cols, vals = [], [], []
        for ci, vec in enumerate(vectors):
            rows.extend(vec)
            cols.extend([ci] * len(vec))
            vals.extend(vec.values())
        a = np.zeros((nrows, len(vectors)), dtype=np.int64)
        a[rows, cols] = vals
        sel, coords = modp.greedy_solve(a, self.field.prime)
        out = [dict() for _ in vectors]
        ks, cis = np.nonzero(coords)
        for k, ci, x in zip(ks.tolist(), cis.tolist(), coords[ks, cis].tolist()):
            out[ci][k] = x
        return sel.tolist(), out

    # -- lazily built structure matrices ----------------------------------

    def lmul(self, n, a):
        """Left multiplication by x_a as a matrix B^{n-1} -> B^n."""
        self.ensure_degree(n)
        return self.bases[n].lmul[a]

    def dleft(self, n, g):
        """Left derivative by gamma as a matrix B^n -> B^{n-1}."""
        self.ensure_degree(n)
        return self.bases[n].dleft[g]

    def rmul(self, n, a):
        """Right multiplication by x_a as a matrix B^{n-1} -> B^n."""
        self.ensure_degree(n)
        basis = self.bases[n]
        if a not in basis._rmul:
            field = self.field
            if n == 1:
                cols = [{basis.index[(a,)]: field.one}]
            else:
                r_prev = self.rmul(n - 1, a)
                cols = [mat_col(self.lmul(n, beta), r_prev[jp], field)
                        for beta, jp in self.bases[n - 1].parents]
            basis._rmul[a] = cols
        return basis._rmul[a]

    def dright(self, n, g):
        """Right derivative by gamma as a matrix B^n -> B^{n-1}."""
        self.ensure_degree(n)
        basis = self.bases[n]
        if g not in basis._dright:
            field = self.field
            if n == 1:
                cols = [{0: field.one} if w[0] == g else {} for w in basis.words]
            else:
                dr_prev = self.dright(n - 1, g)
                act_prev = self.act_matrix(n - 1, self.system.reflection(g))
                cols = [mat_col(self.lmul(n - 1, beta), dr_prev[j], field,
                                act_prev[j] if beta == g else None)
                        for beta, j in basis.parents]
            basis._dright[g] = cols
        return basis._dright[g]

    def act_matrix(self, n, w: GroupElement):
        """Action of a group element on the degree-n component."""
        self.ensure_degree(n)
        basis = self.bases[n]
        key = w.images
        if key not in basis._act:
            field = self.field
            cols = []
            for word in basis.words:
                sign, img = act_on_word(w, word)
                col = self.word_column(img)
                if sign < 0:
                    col = {i: field.neg(x) for i, x in col.items()}
                cols.append(col)
            basis._act[key] = cols
        return basis._act[key]

    def word_column(self, word):
        """Coordinates of a word's class against the degree basis, as a
        {index: scalar} dict without zeros."""
        n = len(word)
        self.ensure_degree(n)
        if self.finite_top is not None and n > self.finite_top:
            return {}
        col = {0: self.field.one}
        for k in range(n - 1, -1, -1):
            col = mat_col(self.lmul(n - k, word[k]), col, self.field)
        return col

    def project_tensor(self, t: TensorElement):
        """Coordinates of a tensor's class, as an {index: scalar} dict."""
        field = self.field
        acc = {}
        for w, c in t.terms.items():
            fc = field.of(c)
            for i, v in self.word_column(w).items():
                acc[i] = acc.get(i, 0) + fc * v
        norm = field.normalize
        return {i: y for i, x in acc.items() if (y := norm(x))}

    def gram(self, n):
        """Gram matrix of the duality pairing on the degree-n basis, as
        dense rows."""
        self.ensure_degree(n)
        basis = self.bases[n]
        if basis._gram is None:
            field = self.field
            dim = basis.dim
            if dim * dim > self.memory_bound:
                raise MemoryBoundExceeded(
                    f"gram: the degree-{n} Gram matrix needs {dim * dim} entries")
            if n == 0:
                basis._gram = [[field.one]]
            else:
                g_prev = self.gram(n - 1)
                norm = field.normalize
                rows = [[field.zero] * dim for _ in range(dim)]
                for jcol, (beta, jp) in enumerate(basis.parents):
                    dr = self.dright(n, beta)
                    for i in range(dim):
                        acc = 0
                        for l, v in dr[i].items():
                            acc += v * g_prev[l][jp]
                        rows[i][jcol] = norm(acc)
                basis._gram = rows
        return basis._gram

    def gram_inv(self, n):
        """Inverse Gram matrix: column i is the coordinate vector of e_i
        over the Gram columns.  Raises ValueError if the Gram matrix is
        singular."""
        basis = self.basis(n)
        if basis._gram_inv is None:
            field = self.field
            g = self.gram(n)
            solver = ColumnSolver(basis.dim, field)
            for j in range(basis.dim):
                solver.add({i: x for i, row in enumerate(g) if (x := row[j])})
            if solver.rank < basis.dim:
                raise ValueError("matrix is singular")
            # full rank: the kept positions are the column indices
            basis._gram_inv = [solver.coordinates({i: field.one})
                               for i in range(basis.dim)]
        return basis._gram_inv

    def rho_matrix(self, n):
        """Word reversal as a matrix on the degree-n component."""
        basis = self.basis(n)
        if basis._rho is None:
            basis._rho = [self.word_column(w[::-1]) for w in basis.words]
        return basis._rho

    def antipode_matrix(self, n):
        """Antipode on degree n via S(x_a z) = -(s_a . S(z)) x_a."""
        basis = self.basis(n)
        if basis._antipode is None:
            field = self.field
            if n == 0:
                basis._antipode = mat_identity(1, field)
            else:
                s_prev = self.antipode_matrix(n - 1)
                cols = []
                for a, j in basis.parents:
                    col = mat_col(self.act_matrix(n - 1, self.system.reflection(a)),
                                  s_prev[j], field)
                    col = mat_col(self.rmul(n, a), col, field)
                    cols.append({i: field.neg(x) for i, x in col.items()})
                basis._antipode = cols
        return basis._antipode

    def antipode_inv_matrix(self, n):
        """Inverse antipode, columnwise via S^{-1} = (-1)^{l(g)} g^{-1} S."""
        basis = self.basis(n)
        if basis._antipode_inv is None:
            field = self.field
            s = self.antipode_matrix(n)
            cols = []
            for i, g in enumerate(basis.wdegs):
                col = mat_col(self.act_matrix(n, g.inverse()), s[i], field)
                if g.length() % 2:
                    col = {r: field.neg(x) for r, x in col.items()}
                cols.append(col)
            basis._antipode_inv = cols
        return basis._antipode_inv

    def sbar_matrix(self, n):
        m = mat_mul(self.rho_matrix(n), self.antipode_matrix(n), self.field)
        if n % 2:
            m = mat_scale(m, self.field.neg(self.field.one), self.field)
        return m


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
    def zero(cls, state):
        return cls(state)

    @classmethod
    def unit(cls, state):
        return cls(state, {0: {0: state.field.one}})

    @classmethod
    def generator(cls, state, a):
        return cls(state, {1: {a: state.field.one}})

    @classmethod
    def from_word(cls, state, word, coeff=1):
        col = state.word_column(tuple(word))
        c = state.field.of(coeff)
        return cls(state, {len(word): {i: state.field.mul(c, v) for i, v in col.items()}})

    @classmethod
    def from_tensor(cls, state, t: TensorElement):
        return cls(state, {t.degree: state.project_tensor(t)})

    def is_zero(self):
        return not self.components

    def degrees(self):
        return sorted(self.components)

    def component(self, n):
        """The degree-n coordinates, as a fresh {index: scalar} dict."""
        return dict(self.components.get(n, {}))

    def homogeneous_part(self, n):
        return NicholsElement(self.state, {n: self.component(n)})

    def __add__(self, other):
        add = self.state.field.add
        comps = {n: dict(v) for n, v in self.components.items()}
        for n, v in other.components.items():
            acc = comps.setdefault(n, {})
            for i, x in v.items():
                acc[i] = add(acc[i], x) if i in acc else x
        return NicholsElement(self.state, comps)

    def __sub__(self, other):
        return self + other.scale(self.state.field.neg(self.state.field.one))

    def scale(self, s):
        mul = self.state.field.mul
        s = self.state.field.of(s)
        return NicholsElement(self.state, {
            n: {i: mul(x, s) for i, x in v.items()} for n, v in self.components.items()})

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
        s = field.div(x, vo[i0])
        return s if self == other.scale(s) else None


def _apply_words(y: NicholsElement, z: NicholsElement, matrix, step, reverse):
    """The sum of c * M(w) z over the basis words w of y, c their coefficients.

    M(w) applies ``matrix(d, g)`` for each letter g of w (last letter
    first when ``reverse``) to the running vector of degree d, and moves
    d by ``step``: +1 for products, -1 for derivatives.  Degrees past the
    known top are skipped.
    """
    state = z.state
    field = state.field
    top = state.finite_top
    out = {}
    for ny, vy in y.components.items():
        words = state.basis(ny).words
        for nz, vz in z.components.items():
            n = nz + step * ny
            if n < 0 or (top is not None and n > top):
                continue
            state.ensure_degree(n)
            acc = out.setdefault(n, {})
            for i, c in vy.items():
                vec, d = vz, nz
                word = words[i]
                for g in (reversed(word) if reverse else word):
                    vec = mat_col(matrix(d, g), vec, field)
                    if not vec:
                        break
                    d += step
                for t, x in vec.items():
                    acc[t] = acc.get(t, 0) + c * x
    norm = field.normalize
    return NicholsElement(state, {
        n: {t: v for t, x in acc.items() if (v := norm(x))} for n, acc in out.items()})


def multiply(a: NicholsElement, b: NicholsElement) -> NicholsElement:
    state = a.state
    return _apply_words(a, b, lambda d, g: state.lmul(d + 1, g), 1, True)


def right_derivative(z: NicholsElement, y: NicholsElement) -> NicholsElement:
    """(z) <- D_y, the right derivative action of y on z."""
    return _apply_words(y, z, z.state.dright, -1, False)


def left_derivative(y: NicholsElement, z: NicholsElement) -> NicholsElement:
    """D_y (z), the left derivative action of y on z."""
    return _apply_words(y, z, z.state.dleft, -1, True)


def _apply_matrices(z: NicholsElement, matrix) -> NicholsElement:
    """The element with degree-n coordinates matrix(n) z_n."""
    state = z.state
    return NicholsElement(state, {
        n: mat_col(matrix(n), v, state.field) for n, v in z.components.items()})


def group_act(w: GroupElement, z: NicholsElement) -> NicholsElement:
    return _apply_matrices(z, lambda n: z.state.act_matrix(n, w))


def pairing(a: NicholsElement, b: NicholsElement):
    state = a.state
    total = 0
    for n, va in a.components.items():
        vb = b.components.get(n)
        if vb is None:
            continue
        g = state.gram(n)
        for i, x in va.items():
            row = g[i]
            total += x * sum(row[j] * y for j, y in vb.items())
    return state.field.normalize(total)


def derivative_by_root(z: NicholsElement, g: int, side="right") -> NicholsElement:
    state = z.state
    y = NicholsElement.generator(state, g)
    return right_derivative(z, y) if side == "right" else left_derivative(y, z)


def antipode(z: NicholsElement) -> NicholsElement:
    return _apply_matrices(z, z.state.antipode_matrix)


def antipode_inv(z: NicholsElement) -> NicholsElement:
    return _apply_matrices(z, z.state.antipode_inv_matrix)


def rho(z: NicholsElement) -> NicholsElement:
    return _apply_matrices(z, z.state.rho_matrix)


def s_bar(z: NicholsElement) -> NicholsElement:
    return _apply_matrices(z, z.state.sbar_matrix)


def counit(z: NicholsElement):
    return z.components.get(0, {}).get(0, z.state.field.zero)


def coproduct_split(z: NicholsElement, k: int):
    """The (k, n-k) coproduct legs of each component, as element pairs.

    Returns a list of (left, right) pairs whose sum of tensors is the
    degree-(k, n-k) part of the coproduct.
    """
    state = z.state
    one = state.field.one
    out = []
    for n, v in z.components.items():
        if k > n:
            continue
        ginv = state.gram_inv(k)
        comp = NicholsElement(state, {n: v})
        for i, dual in enumerate(ginv):
            t = left_derivative(NicholsElement(state, {k: dual}), comp)
            if not t.is_zero():
                out.append((NicholsElement(state, {k: {i: one}}), t))
    return out


def coproduct_word_expansion(sys: RootSystem, word):
    """Full braided coproduct of a word on tensor representatives.

    Returns {(left_word, right_word): integer coefficient}.
    """
    terms = {((), ()): 1}
    wdeg_cache = {(): sys.identity()}
    for a in word:
        new = {}
        for (w1, w2), c in terms.items():
            g = wdeg_cache.get(w2)
            if g is None:
                g = word_wdeg(sys, w2)
                wdeg_cache[w2] = g
            s = g.act(a + 1)
            key1 = (w1 + (abs(s) - 1,), w2)
            val = c if s > 0 else -c
            new[key1] = new.get(key1, 0) + val
            key2 = (w1, w2 + (a,))
            new[key2] = new.get(key2, 0) + c
        terms = {k: v for k, v in new.items() if v}
    return terms


# ---------------------------------------------------------------------------
# monomial predicates and group-degree decomposition
# ---------------------------------------------------------------------------


def _span_solver(state: AlgebraState, columns, n):
    solver = ColumnSolver(state.dim(n), state.field)
    for col in columns:
        solver.add(col)
    return solver


def starts_with(z: NicholsElement, g: int) -> bool:
    """Whether z can be written as x_g * z' (per nonzero component)."""
    state = z.state
    for n, v in z.components.items():
        if n == 0:
            return False
        if _span_solver(state, state.lmul(n, g), n).coordinates(v) is None:
            return False
    return True


def ends_with(z: NicholsElement, g: int) -> bool:
    state = z.state
    for n, v in z.components.items():
        if n == 0:
            return False
        if _span_solver(state, state.rmul(n, g), n).coordinates(v) is None:
            return False
    return True


def starts_with_set(z: NicholsElement, theta) -> bool:
    """Whether z is a sum of monomials starting with letters from theta."""
    state = z.state
    for n, v in z.components.items():
        if n == 0:
            return False
        cols = []
        for g in sorted(theta):
            cols.extend(state.lmul(n, g))
        if _span_solver(state, cols, n).coordinates(v) is None:
            return False
    return True


def theta_span(state: AlgebraState, theta, n):
    """Basis (as coordinate dicts) of the degree-n span of words over theta."""
    key = (tuple(sorted(theta)), n)
    cache = getattr(state, "_theta_span_cache", None)
    if cache is None:
        cache = state._theta_span_cache = {}
    if key not in cache:
        field = state.field
        if n == 0:
            vecs = [{0: field.one}]
        else:
            prev = theta_span(state, theta, n - 1)
            solver = ColumnSolver(state.dim(n), field)
            vecs = []
            for g in sorted(theta):
                lm = state.lmul(n, g)
                for b in prev:
                    col = mat_col(lm, b, field)
                    if solver.add(col):
                        vecs.append(col)
        cache[key] = vecs
    return cache[key]


def involves_only(z: NicholsElement, theta) -> bool:
    state = z.state
    for n, v in z.components.items():
        span = theta_span(state, theta, n)
        solver = _span_solver(state, span, n)
        if solver.coordinates(v) is None:
            return False
    return True


def w_degree_decompose(z: NicholsElement):
    """Split into group-homogeneous summands, keyed by group element."""
    state = z.state
    out = {}
    for n, v in z.components.items():
        for g, idxs in state.basis(n).classes.items():
            part = {i: v[i] for i in idxs if i in v}
            if part:
                out.setdefault(g, {})[n] = part
    return {g: NicholsElement(state, comps) for g, comps in out.items()}


def w_degree(z: NicholsElement):
    """The group degree of a homogeneous element (None if mixed or zero)."""
    d = w_degree_decompose(z)
    if len(d) != 1:
        return None
    return next(iter(d))


# ---------------------------------------------------------------------------
# the symmetrizer oracle
# ---------------------------------------------------------------------------


def _permutation_words(n):
    """A reduced word for every permutation of n letters, by BFS."""
    ident = tuple(range(n))
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(n - 1):
                q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
                if q not in words:
                    words[q] = words[p] + (i,)
                    nxt.append(q)
        frontier = nxt
    return words


def _braid_lift_terms(sys, word, braid_word):
    """Apply a sequence of forward braidings (rightmost first) to a word."""
    sign, w = 1, word
    for i in reversed(braid_word):
        s, w = braid_apply(sys, w, i)
        sign *= s
    return sign, w


def symmetrizer_rank(sys: RootSystem, n: int, field=QQ,
                     memory_bound=DEFAULT_MEMORY_BOUND) -> int:
    """Rank of the degree-n symmetrizer, computed per group-degree class."""
    nwords = sys.nroots ** n
    if nwords * n > memory_bound:
        raise MemoryBoundExceeded(f"{nwords} words exceed the memory bound")
    perm_words = _permutation_words(n)
    by_class = {}
    for w in itertools.product(range(sys.nroots), repeat=n):
        by_class.setdefault(word_wdeg(sys, w).images, []).append(w)
    total = 0
    for key in sorted(by_class):
        words = by_class[key]
        index = {w: i for i, w in enumerate(words)}
        solver = ColumnSolver(len(words), field)
        for w in words:
            acc = {}
            for bw in perm_words.values():
                sign, img = _braid_lift_terms(sys, w, bw)
                acc[img] = acc.get(img, 0) + sign
            solver.add({index[img]: x for img, c in acc.items() if (x := field.of(c))})
        total += solver.rank
    return total


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


def element_from_json(state: AlgebraState, data) -> NicholsElement:
    out = NicholsElement.zero(state)
    for comp in data["degree_components"]:
        for term in comp["terms"]:
            c = Fraction(term["coeff"])
            out = out + NicholsElement.from_word(state, tuple(term["word"]), c)
    return out
