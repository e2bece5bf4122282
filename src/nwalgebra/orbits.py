"""The graded dimensions of B_W, with one class block per conjugacy orbit.

Every u in W acts on B_W as an algebra automorphism with
u(x_a) = sign * x_{|u(a)|}, and it maps the class block B_g onto
B_{u g u^-1}.  So one elimination per conjugacy orbit finds every class
dimension.  :class:`OrbitState` fixes a representative r of each orbit
and a transporter u_k with k = u_k r u_k^-1 for every class k of it,
found by a search under conjugation by the simple reflections, which
never enumerates W.  Only r's block is eliminated.  The basis of B_k is
u_k applied to r's kept basis, a set of words up to sign, so a vector
has the same coordinates over both.

Moving class k by w lands in class k' = w k w^-1, and there
w u_k = u_{k'} t, where t = u_{k'}^-1 w u_k centralizes r.  So the
coordinates change by the matrix of t on B_r.  Its columns are built
on first read and kept per (degree, r, t).  With these moves the word
build's candidate vectors transport:

  D_delta(u z) = sigma * u D_{delta'}(z)   with u(delta') = sigma * delta
  u(x_a z)     = sigma * x_{|u(a)|} u(z)   with u(a) = sigma * |u(a)|

At every degree from 2 on, a candidate x_a (x_c ...) whose pair (a, c),
with c the first letter after transport, is in the degree-2 relation
table is never assembled or reduced: x_a x_c = sum lam * x_d x_e with
every d < a puts it in the span of the candidates x_d (...) that precede
it in its block.  Below the cap its coordinates are that sum, as in the
word build.  The last degree a build can make, the cap, is rank only: it
skips those candidates and keeps no coordinates and no derivative
vectors.

``nwalg dims`` and ``nwalg hilbert`` build this state.  Every other
command reads words and keeps the word-basis :class:`AlgebraState`,
which is the oracle the tests compare this construction with.
"""

from __future__ import annotations

from .exactlinalg import QQ, ColumnSolver
from .nichols_core import (
    DEFAULT_MEMORY_BOUND,
    AlgebraState,
    MemoryBoundExceeded,
    _derived_column,
    mat_col,
)


class WordBasisUnavailable(AttributeError):
    """A word-basis read on an :class:`OrbitState`, which keeps no words."""


def _no_words(what):
    return WordBasisUnavailable(
        f"{what}: an OrbitState builds dimensions only and has no word basis; "
        f"use AlgebraState")


class OrbitDegree:
    """One graded component: its dimension and, per orbit representative
    r, the data of r's block.

    ``ranks[r]`` is dim B_r, for every r with B_r nonzero.  Below the cap
    the degree also keeps, per such r:

    - ``parents[r][i] = (a, j)``: kept basis element i is x_a times
      element j of class s_a r;
    - ``derivs[r][i]``: {gamma: coordinates of D_gamma(b_i)} over the
      basis of class s_gamma r at the degree below;
    - ``express[r][a][j]``: the coordinates over the kept basis of every
      candidate x_a (element j of class s_a r), that is left
      multiplication into B_r.

    ``tmats[(r, t)]`` holds the columns read so far of the matrix of a
    centralizer element t on B_r.
    """

    __slots__ = ("degree", "dim", "ranks", "parents", "derivs", "express", "tmats")

    def __init__(self, degree, dim, ranks, parents=None, derivs=None, express=None):
        self.degree = degree
        self.dim = dim
        self.ranks = ranks
        self.parents = parents
        self.derivs = derivs
        self.express = express
        self.tmats = {}

    def __getattr__(self, name):
        # reached only for a name outside the slots, such as words or lmul
        raise _no_words(f"bases[{self.degree}].{name}")


class OrbitState(AlgebraState):
    """The graded dimensions of B_W, one class block per conjugacy orbit.

    ``bases[n]`` is an :class:`OrbitDegree`.  ``construct_all``, ``dims``,
    ``truncated``, ``ensure_degree``, the degree step ``extend_degree``
    with its degree-2 relation table, the (root, class) product memo, the
    known-top check and the memory bound are the word build's; the
    per-degree :meth:`_build` is this state's own.  The bound is checked
    on each representative's block, which is as large as every block of
    its orbit.  A word-basis read raises :class:`WordBasisUnavailable`.
    """

    def __init__(self, system, field=QQ, degree_cap=None,
                 memory_bound=DEFAULT_MEMORY_BOUND):
        self._orbits = {}  # class -> (representative, u, u^-1), u None for 1
        self._sizes = {}   # representative -> orbit size
        self._moves = {}   # (w, class) -> its move plan (:meth:`_move`)
        self._lplans = {}  # (root, class) -> its left-multiplication plan
        self._simple = [system.simple_reflection(i) for i in range(system.rank)]
        super().__init__(system, field, degree_cap, memory_bound)

    def _ensure_degree_one(self):
        """Degree 0 is the unit, in the class of 1; degree 1 is built from
        it like every later degree."""
        e = self.system.identity()
        self._orbit(e)
        self.bases = [OrbitDegree(0, 1, {e: 1}, {e: [None]}, {e: [{}]}, {e: {}})]
        self._build(1)

    def _append_empty(self):
        self.bases.append(OrbitDegree(len(self.bases), 0, {}))

    def basis(self, n):
        raise _no_words("basis")

    def lmul(self, n, a):
        raise _no_words("lmul")

    def class_dims(self, n):
        """{class: dim} for every class of nonzero dimension at degree n."""
        self.ensure_degree(n)
        ranks = self.bases[n].ranks
        return {k: ranks[r] for k, (r, _, _) in self._orbits.items() if r in ranks}

    # -- the group side ---------------------------------------------------

    def _orbit(self, g):
        """(representative r, u, u^-1) with g = u r u^-1, u None for 1.

        The first sight of an orbit files all its classes: a breadth-first
        search from g under conjugation by the simple reflections finds
        each class k with a v_k, k = v_k g v_k^-1; r is the least class,
        and u_k = v_k v_r^-1."""
        hit = self._orbits.get(g)
        if hit is not None:
            return hit
        found = {g: self.system.identity()}
        frontier = [g]
        while frontier:
            nxt = []
            for k in frontier:
                for s in self._simple:
                    c = s * k * s
                    if c not in found:
                        found[c] = s * found[k]
                        nxt.append(c)
            frontier = nxt
        r = min(found)
        back = found[r].inverse()
        for k, v in found.items():
            u = v * back
            self._orbits[k] = (r, None, None) if k == r else (r, u, u.inverse())
        self._sizes[r] = len(found)
        return self._orbits[g]

    def _move(self, w, k):
        """(k' = w k w^-1, the representative r of k, t): w maps class
        k's basis element i to t applied to r's element i, transported to
        class k'.  t = u_k'^-1 w u_k centralizes r; it is None for 1."""
        plan = self._moves.get((w, k))
        if plan is None:
            r, uk, _ = self._orbit(k)
            k2 = w * k * w.inverse()
            t = w if uk is None else w * uk
            uinv2 = self._orbit(k2)[2]
            if uinv2 is not None:
                t = uinv2 * t
            plan = self._moves[(w, k)] = (k2, r, None if t.is_identity() else t)
        return plan

    def _moved(self, m, r, t, vec):
        """The coordinates of t(y), for y in B^m_r with coordinates vec."""
        if t is None or not m:
            return vec
        cols = self.bases[m].tmats.get((r, t))
        if cols is None:
            cols = self.bases[m].tmats[(r, t)] = {}
        for j in vec:
            if j not in cols:
                cols[j] = self._tcol(m, r, t, j)
        return mat_col(cols, vec, self.field)

    def _tcol(self, m, r, t, i):
        """Column i of t on B^m_r: for b_i = x_a y,
        t(b_i) = sigma * x_{|t(a)|} t(y), which t maps back into B_r."""
        a, j = self.bases[m].parents[r][i]
        s = t.act(a + 1)
        h2, rh, t2 = self._move(t, self._times(a, r))
        acc = {}
        self._lmul_into(acc, m, abs(s) - 1, h2,
                        self._moved(m - 1, rh, t2, {j: self.field.one}), 1 if s > 0 else -1)
        return self.field.canon(acc)

    def _lmul_into(self, acc, m, c, h, vec, f, offset=0):
        """acc += f * x_c y, over the basis of class s_c h at degree m, for
        y of class h at degree m - 1 with coordinates vec; f is a sign.
        Coordinate i goes to key offset + i.

        Into a representative r this reads ``express``.  Into another
        class g = u r u^-1 it is x_c y = sigma * u(x_{c'} u^-1(y)), with
        u^-1(c) = sigma * c'."""
        plan = self._lplans.get((c, h))
        if plan is None:
            r, u, uinv = self._orbit(self._times(c, h))
            if u is None:
                plan = (r, c, 1, None, None)
            else:
                s = uinv.act(c + 1)
                _, rh, t = self._move(uinv, h)
                plan = (r, abs(s) - 1, s, rh, t)
            self._lplans[(c, h)] = plan
        r, c2, s, rh, t = plan
        block = self.bases[m].express.get(r)
        if block is None:  # B^m_r = 0
            return
        cols = block[c2]
        if t is not None:
            vec = self._moved(m - 1, rh, t, vec)
        if s < 0:
            f = -f
        get = acc.get
        for j, x in vec.items():
            fx = f * x
            for i, v in cols[j].items():
                i += offset
                acc[i] = get(i, 0) + fx * v

    # -- construction -----------------------------------------------------

    def _build(self, n):
        """Eliminate the representative blocks of degree n.

        A block's candidates are x_a z for z element j of class s_a r, in
        (a, j) order, as in the word build.  Its representatives are those
        of the classes s_a h over the representatives h of degree n - 1:
        the classes s_b (u h u^-1) = u (s_{|u^-1(b)|} h) u^-1 add no orbit.

        A candidate whose z = sigma * x_c y has a pair (a, c) in the
        degree-2 relation table is never assembled or offered to the
        eliminator: x_a z = sigma * sum lam * x_d (x_e y), every d < a, so
        it lies in the span of the candidates x_d (...) before it in its
        block.  The cap skips it; below the cap its coordinates are that
        sum over the block's earlier columns, which are unique over the
        kept columns: the eliminator would have returned the same."""
        sys, field = self.system, self.field
        relations = self._relations
        prev = self.bases[n - 1]
        rank_only = n >= self.degree_cap
        reps = sorted({self._orbit(self._times(a, h))[0]
                       for h in prev.ranks for a in range(sys.nroots)})
        width = max(prev.ranks.values())  # derivative entry (gamma, i) at gamma * width + i
        ranks, parents, derivs, express = {}, {}, {}, {}
        for r in reps:
            block = []  # (a, representative and transporter of s_a r, its dim)
            for a in range(sys.nroots):
                rh, uh, _ = self._orbit(self._times(a, r))
                if rh in prev.ranks:
                    block.append((a, rh, uh, prev.ranks[rh]))
            size = sum(b[3] for b in block)
            if size ** 2 > self.memory_bound:
                raise MemoryBoundExceeded(f"degree {n} class block needs {size ** 2} entries")
            solver = ColumnSolver(field)
            kept, vectors, coords = [], [], {}
            for a, rh, uh, dim in block:
                cols = coords[a] = []
                for j in range(dim):
                    if relations:
                        c, jp = prev.parents[rh][j]
                        s = c + 1 if uh is None else uh.act(c + 1)
                        rel = relations.get((a, abs(s) - 1))
                        if rel is not None:
                            if not rank_only:
                                cols.append(self._derived(n, rel, rh, uh, c, jp, s, coords))
                            continue
                    vec = self._candidate(n, a, rh, uh, j, width)
                    if rank_only:
                        solver.add(vec)
                        continue
                    new, x = solver.add(vec, express=True)
                    cols.append(x)
                    if new:
                        kept.append((a, j))
                        vectors.append(vec)
            if solver.rank:
                ranks[r] = solver.rank
                if not rank_only:
                    parents[r], express[r] = kept, coords
                    derivs[r] = [_split(vec, width) for vec in vectors]
        dim = sum(rank * self._sizes[r] for r, rank in ranks.items())
        if rank_only:
            parents = derivs = express = None
        self._append_built(OrbitDegree(n, dim, ranks, parents, derivs, express))

    def _candidate(self, n, a, rh, uh, j, width):
        """The joint derivative vector of x_a z, for z element j of class
        h = s_a r: entry gamma * width + i holds coordinate i of
        D_gamma(x_a z) over the basis of class s_gamma r.

        D_gamma(x_a z) = [gamma = a] z + sign * x_a D_delta(z), with
        s_a(delta) = sign * gamma, and z = u_h z' for z' element j of
        h's representative, so D_delta(z) = sigma * u_h D_delta'(z')."""
        field = self.field
        refl = self.system.refl[a]
        acc = {a * width + j: field.one}
        for d1, dv in self.bases[n - 1].derivs[rh][j].items():
            k = self._times(d1, rh)
            if uh is None:
                s1, y = d1 + 1, dv
            else:
                s1 = uh.act(d1 + 1)
                k, rk, t = self._move(uh, k)
                y = self._moved(n - 2, rk, t, dv)
            s2 = refl[abs(s1) - 1]
            self._lmul_into(acc, n - 1, a, k, y, 1 if (s1 > 0) == (s2 > 0) else -1,
                            (abs(s2) - 1) * width)
        return field.canon(acc)

    def _derived(self, n, rel, rh, uh, c, jp, s, coords):
        """The coordinates over the block's kept basis of a candidate x_a z
        whose z = u_h(x_c y'), y' element jp of class s_c rh, pairs with a
        by the relation rel.  With s = u_h(c) = sigma * |s| and y = u_h(y'),
        x_a z = sigma * sum lam * x_d (x_e y), and coords[d][i] holds the
        coordinates of x_d b_i for every d < a."""
        k, y = self._times(c, rh), {jp: self.field.one}
        if uh is not None:
            k, rk, t = self._move(uh, k)
            y = self._moved(n - 2, rk, t, y)
        f = 1 if s > 0 else -1
        # x_e on the span of y, one column each: e -> [coordinates of sigma x_e y]
        mus = {}
        for _, e, _ in rel:
            acc = {}
            self._lmul_into(acc, n - 1, e, k, y, f)
            mus[e] = [self.field.canon(acc)]
        # a zero x_e y may lie in a class with no candidates, missing from coords
        return _derived_column([t for t in rel if mus[t[1]][0]], mus, 0, coords, self.field.canon)


def _split(vec, width):
    """{gamma: {i: x}} from a joint vector keyed gamma * width + i."""
    out = {}
    for k, x in vec.items():
        g, i = divmod(k, width)
        out.setdefault(g, {})[i] = x
    return out
