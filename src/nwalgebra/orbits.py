"""The graded dimensions of B_W, with one class block per conjugacy orbit.

Every u in W acts on B_W as an algebra automorphism with
u(x_a) = sign * x_{|u(a)|}, and it maps the class block B_g onto
B_{u g u^-1}.  So one elimination per conjugacy orbit finds every class
dimension.  :class:`OrbitState` fixes a representative r of each orbit
and a transporter u_k with k = u_k r u_k^-1 for every class k of it,
found by a search under conjugation by the simple reflections, which
never enumerates W.  The search runs on images tuples and keeps each
class's transporter as a tuple; u_k and u_k^-1 are made as group
elements only when the build first reads class k, a few hundred of the
tens of thousands of classes an E6 orbit holds.  Elements are interned
per root system (:mod:`nwalgebra.coxeter`), so the memos keyed by
classes hash and compare by identity, and the system's table holds at
most |W| elements.  Only r's block is eliminated.  The basis of B_k is
u_k applied to r's kept basis, a set of words up to sign, so a vector
has the same coordinates over both.

Moving class k by w lands in class k' = w k w^-1, and there
w u_k = u_{k'} t, where t = u_{k'}^-1 w u_k centralizes r.  So the
coordinates change by the matrix of t on B_r.  Its columns are built
on first read and kept per (degree, r, t).  Every move knows k' from
the (root, class) product memo, as w s_d g w^-1 = s_{|w(d)|} w g w^-1,
so no move conjugates.  With these moves the word build's candidate
vectors transport:

  D_delta(u z) = sigma * u D_{delta'}(z)   with u(delta') = sigma * delta
  u(x_a z)     = sigma * x_{|u(a)|} u(z)   with u(a) = sigma * |u(a)|

A derivative entry D_delta'(z') of a candidate x_a u_h(z') moves into
the class of D_delta(u_h z'), and x_a's left multiplication, kept in the
frame of its target's representative, moves it again.  Both moves
centralize the same representative and W acts by algebra
automorphisms, so the matrix of their composite t = t2 t1 is the
product of theirs: one move by t gives what the two would.  t, the
target columns, the sign and the offset depend only on the block, a
and delta', never on z', so each block keeps them as a plan per
(a, delta'), and an entry costs at most one move and one scatter.

Degree 2 files a relation table: every x_a x_c = sum lam * x_d x_e
with all d < a (x_a^2 = 0, the commuting pairs, and the dependent word
of each three-term relation).  At every degree from 2 on, a candidate
x_a (x_c ...) whose pair (a, c), with c the first letter after
transport, is in the table is never assembled or reduced: it lies in the
span of the candidates x_d (...) that precede it in its block.  Below
the cap its coordinates are that sum.  The word build needs no table, as
its prefix rule covers these candidates, but the orbit build keeps no
words and no prefixes.  The last degree a build can make, the cap, is
rank only: it skips those candidates and keeps no coordinates and no
derivative vectors.

Every sum over stored columns here is the one sparse product
:func:`nwalgebra.exactlinalg.mat_col`, a relation's terms too (one call
over all their columns, so the entries keep one accumulator's order).
Two sites scatter by hand: the candidate vector, whose
per-root offset and sign ``mat_col`` cannot take, and degree 2's
two-entry relation vectors.  A kept joint derivative vector splits into
its per-root columns by :func:`nwalgebra.nichols_core.split_joint`, as
the word build's ``dleft`` does.

``nwalg dims`` and ``nwalg hilbert`` build this state.  Every other
command reads words and keeps the word-basis :class:`AlgebraState`,
which is the oracle the tests compare this construction with.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .coxeter import GroupElement
from .exactlinalg import QQ, ColumnSolver, mat_col, neg_col
from .nichols_core import AlgebraState, MemoryBoundExceeded, split_joint


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
    ``truncated``, ``ensure_degree``, the degree step ``extend_degree``,
    the (root, class) product memo, the known-top check and the memory
    bound are the word build's; the per-degree :meth:`_build` and the
    degree-2 relation table it files are this state's own.  The bound is
    checked on each representative's block, which is as large as every
    block of its orbit.  A word-basis read raises
    :class:`WordBasisUnavailable`.
    """

    def __init__(self, system, field=QQ, degree_cap=None):
        self._orbits = {}  # class -> (representative, u, u^-1), u None for 1, once read
        self._filed = {}   # class images -> (representative, v_r^-1), every class searched
        self._transporters = {}  # class images -> the images of its BFS transporter v
        self._sizes = {}   # representative -> orbit size
        # per simple reflection s: s(x) at index x of a signed-index
        # lookup, the positive root s(b_j) up to sign for each j, and the
        # index of the simple root itself, which s negates.  W(A1) is
        # abelian, so conjugation moves no class there (and an itemgetter
        # of one index returns no tuple)
        self._conjugators = []
        for i in range(system.rank if system.nroots > 1 else 0):
            images = system.refl[system.simple_index[i]]
            self._conjugators.append(((0,) + images + tuple(-x for x in reversed(images)),
                                      itemgetter(*(abs(x) - 1 for x in images)),
                                      system.simple_index[i]))
        self._relations = {}  # the degree-2 relation table, filed as degree 2 is built
        super().__init__(system, field, degree_cap)

    def _ensure_degree_one(self):
        """Degree 0 is the unit, in the class of 1; degree 1 is built from
        it like every later degree."""
        e = self.system.identity()
        self._orbit(e)
        self.bases = [OrbitDegree(0, 1, {e: 1}, {e: [None]}, {e: [{}]}, {e: {}})]
        self._build(1)

    def basis(self, n):
        raise _no_words("basis")

    def lmul(self, n, a):
        raise _no_words("lmul")

    # -- the group side ---------------------------------------------------

    def _orbit(self, g):
        """(representative r, u, u^-1) with g = u r u^-1, u None for 1.

        The first sight of an orbit files all its classes
        (:meth:`_search`); u and u^-1 are made when a class is first read,
        as u_g = v_g v_r^-1 from the BFS transporters."""
        hit = self._orbits.get(g)
        if hit is not None:
            return hit
        k = g.images
        r, back = self._filed.get(k) or self._search(k)
        if g is r:
            hit = (r, None, None)
        else:
            u = GroupElement(self.system, self._transporters[k]) * back
            hit = (r, u, u.inverse())
        self._orbits[g] = hit
        return hit

    def _search(self, g):
        """File the orbit of the class with images g and return its
        (representative r, v_r^-1): a breadth-first search from g under
        conjugation by the simple reflections finds each class k with a
        transporter v_k, k = v_k g v_k^-1, and keeps v_k's images; r is
        the least class.

        The search runs on images tuples, one pass per step:
        (s k s)(b_j) = s(k(s(b_j))), where s(b_j) is the positive root
        b_{p(j)} for every j but the simple root of s, which s negates;
        s v_k is s applied to v_k's images.  The BFS order, and so every
        transporter, is that of a search over elements.  One table holds
        the transporters of every orbit: orbits are disjoint, so a class
        an earlier search filed never meets this one."""
        found = self._transporters
        found[g] = tuple(range(1, self.system.nroots + 1))
        members = [g]
        frontier = [g]
        while frontier:
            nxt = []
            for k in frontier:
                for signed, take, simple in self._conjugators:
                    kp = list(take(k))
                    kp[simple] = -kp[simple]
                    c = itemgetter(*kp)(signed)
                    if c not in found:
                        found[c] = itemgetter(*found[k])(signed)
                        nxt.append(c)
            members += nxt
            frontier = nxt
        r = min(members)
        orbit = (GroupElement(self.system, r),
                 GroupElement(self.system, found[r]).inverse())
        self._filed.update(dict.fromkeys(members, orbit))
        self._sizes[orbit[0]] = len(members)
        return orbit

    def _move(self, w, k, k2):
        """t = u_k2^-1 w u_k, None for 1, for classes k and k2 = w k w^-1 of
        one orbit (w None for 1): w maps class k's basis element i to t
        applied to their representative's element i, transported to class
        k2.  t centralizes the representative.  Every caller knows k2 from
        the product memo, so nothing is conjugated here."""
        if w is None:
            return None
        uk = self._orbit(k)[1]
        t = w if uk is None else w * uk
        uinv = self._orbit(k2)[2]
        if uinv is not None:
            t = uinv * t
        return None if t.is_identity() else t

    def _mover(self, m, r, t):
        """The move by t on B^m_r: (m, r, t, the columns of t's matrix read
        so far), kept per (degree, r, t); None for t None or degree 0."""
        if t is None or not m:
            return None
        cols = self.bases[m].tmats.get((r, t))
        if cols is None:
            cols = self.bases[m].tmats[(r, t)] = {}
        return m, r, t, cols

    def _moved(self, move, vec):
        """The coordinates of t(y), for y in B^m_r with coordinates vec and
        move (m, r, t, cols) from :meth:`_mover`; None moves nothing.
        Columns are built on first read."""
        if move is None:
            return vec
        m, r, t, cols = move
        for j in vec:
            if j not in cols:
                cols[j] = self._tcol(m, r, t, j)
        return mat_col(cols, vec, self.field)

    def _tcol(self, m, r, t, i):
        """Column i of t on B^m_r: for b_i = x_a y with y of class h = s_a r,
        t(b_i) = sigma * x_c t(y) with t(a) = sigma * c, and t(y) lies in
        class s_c r, as t centralizes r.  So x_c maps it back into B_r,
        which ``express`` holds."""
        a, j = self.bases[m].parents[r][i]
        s = t.act(a + 1)
        c = abs(s) - 1
        h = self._times(a, r)
        move = self._mover(m - 1, self._orbit(h)[0], self._move(t, h, self._times(c, r)))
        y = self._moved(move, {j: self.field.one})
        return mat_col(self.bases[m].express[r][c], y if s > 0 else neg_col(y), self.field)

    def _plan(self, n, rh, uh, h, e, d):
        """The plan of sigma * x_e u_h(y) at degree n - 1, for y of class
        k = s_d rh at degree n - 2, h = u_h rh u_h^-1 and
        u_h(d) = sigma * delta: (move, cols, f, delta) such that its
        coordinates over the basis of its class g = s_e s_delta h are f
        times cols applied to y's coordinates moved by ``move``; None if
        B_g is zero.

        With g = u_g r_g u_g^-1 and u_g^-1(e) = sigma' * c, x_e u_h(y) =
        sigma' * u_g(x_c u_g^-1 u_h(y)), and u_g^-1 u_h(y) lies in class
        k'' = s_c r_g.  So y moves by the one centralizer
        t = u_k''^-1 (u_g^-1 u_h) u_k of its representative r_k, and cols
        are x_c's ``express`` columns into B_{r_g}.  t is the product
        t2 t1 of the move t1 = u_{s_delta h}^-1 u_h u_k into class
        s_delta h and the move t2 = u_k''^-1 u_g^-1 u_{s_delta h} back into
        r_g's frame: W acts by algebra automorphisms, so t's matrix on
        B_{r_k} is t2's times t1's, and one move gives what two would."""
        s1 = d + 1 if uh is None else uh.act(d + 1)
        delta = abs(s1) - 1
        rg, ug, ugi = self._orbit(self._times(e, self._times(delta, h)))
        block = self.bases[n - 1].express.get(rg)
        if block is None:
            return None
        f, c, w = 1 if s1 > 0 else -1, e, uh
        if ug is not None:
            s = ugi.act(e + 1)
            c = abs(s) - 1
            if s < 0:
                f = -f
            w = ugi if uh is None else ugi * uh
        k = self._times(d, rh)
        move = self._mover(n - 2, self._orbit(k)[0], self._move(w, k, self._times(c, rg)))
        return move, block[c], f, delta

    # -- construction -----------------------------------------------------

    def _degree_two_relations(self):
        """The degree-2 relation table: (a, c) -> [(d, e, lam)] whenever
        x_a x_c = sum lam * x_d x_e over the kept degree-2 basis with
        every d < a.  Each class block keeps its x_a x_c greedily in
        (a, c) order, and x_a x_c is tested against those kept with a
        smaller first letter.  The derivative vector of x_a x_c has entry
        1 at (a, c) and entry sign at (|s_a(c)|, a), with s_a(c) =
        sign * |s_a(c)|."""
        sys, field = self.system, self.field
        nroots = sys.nroots
        by_class = {}
        for a in range(nroots):
            for c in range(nroots):
                g = self._times(a, sys.reflection(c))
                by_class.setdefault(g, []).append((a, c))
        relations = {}
        for block in by_class.values():
            solver = ColumnSolver(field)
            for a, group in itertools.groupby(block, key=lambda p: p[0]):
                vectors = []
                for _, c in group:
                    s = sys.refl[a][c]
                    vec = {a * nroots + c: 1}
                    key = (abs(s) - 1) * nroots + a
                    vec[key] = vec.get(key, 0) + (1 if s > 0 else -1)
                    vec = field.canon(vec)
                    lams = solver.coordinates(vec)
                    if lams is not None:
                        # every candidate is offered, so offer position = block index
                        relations[(a, c)] = [(*block[solver.selected[k]], lam)
                                             for k, lam in lams.items()]
                    vectors.append(vec)
                for vec in vectors:
                    solver.add(vec)
        return relations

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
        kept columns: the eliminator would have returned the same
        (:meth:`_derived`).  Degree 2 first files the relation table
        (:meth:`_degree_two_relations`), which every degree from 2 on
        reads."""
        sys, field = self.system, self.field
        if n == 2:
            self._relations = self._degree_two_relations()
        relations = self._relations
        prev = self.bases[n - 1]
        rank_only = n >= self.degree_cap
        reps = sorted({self._orbit(self._times(a, h))[0]
                       for h in prev.ranks for a in range(sys.nroots)})
        width = max(prev.ranks.values())  # derivative entry (gamma, i) at gamma * width + i
        ranks, parents, derivs, express = {}, {}, {}, {}
        for r in reps:
            block = []  # (a, class h = s_a r, its representative, transporter and dim)
            for a in range(sys.nroots):
                h = self._times(a, r)
                rh, uh, _ = self._orbit(h)
                if rh in prev.ranks:
                    block.append((a, h, rh, uh, prev.ranks[rh]))
            size = sum(b[4] for b in block)
            if size ** 2 > self.system.memory_bound:
                raise MemoryBoundExceeded(f"degree {n} class block needs {size ** 2} entries")
            solver = ColumnSolver(field)
            kept, vectors, coords = [], [], {}
            for a, h, rh, uh, dim in block:
                cols = coords[a] = []
                plans, rplans = {}, {}  # delta' -> candidate plan, (e, c) -> relation plan
                for j in range(dim):
                    if relations:
                        c, jp = prev.parents[rh][j]
                        s = c + 1 if uh is None else uh.act(c + 1)
                        rel = relations.get((a, abs(s) - 1))
                        if rel is not None:
                            if not rank_only:
                                cols.append(self._derived(n, rel, rh, uh, h, c, jp, rplans,
                                                          coords))
                            continue
                    vec = self._candidate(n, a, rh, uh, j, width, h, plans)
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
                    derivs[r] = [split_joint(vec, width) for vec in vectors]
        dim = sum(rank * self._sizes[r] for r, rank in ranks.items())
        if rank_only:
            parents = derivs = express = None
        self._append_built(OrbitDegree(n, dim, ranks, parents, derivs, express))

    def _candidate(self, n, a, rh, uh, j, width, h, plans):
        """The joint derivative vector of x_a z, for z element j of class
        h = s_a r: entry gamma * width + i holds coordinate i of
        D_gamma(x_a z) over the basis of class s_gamma r.

        D_gamma(x_a z) = [gamma = a] z + sign * x_a D_delta(z), with
        s_a(delta) = sign * gamma, and z = u_h z' for z' element j of
        h's representative, so D_delta(z) = sigma * u_h D_delta'(z').
        Everything but D_delta'(z') depends only on the block, a and
        delta', never on j, so ``plans`` keeps it per block and a, keyed
        by the int delta': the representative r_k of D_delta'(z') and the
        one move t = t2 t1 that stands for the move into the class of
        D_delta(z) and the move back into the frame of x_a's target (exact,
        as W acts by automorphisms: :meth:`_plan`), x_a's ``express``
        columns, the sign and the offset gamma * width; None for a zero
        block.  An entry costs at most one move and one scatter."""
        field = self.field
        acc = {a * width + j: field.one}
        get = acc.get
        for d, dv in self.bases[n - 1].derivs[rh][j].items():
            plan = plans.get(d, False)
            if plan is False:
                plan = self._plan(n, rh, uh, h, a, d)
                if plan is not None:
                    move, cols, f, delta = plan
                    s2 = self.system.refl[a][delta]
                    plan = move, cols, f if s2 > 0 else -f, (abs(s2) - 1) * width
                plans[d] = plan
            if plan is None:
                continue
            move, cols, f, offset = plan
            if move is not None:
                dv = self._moved(move, dv)
            for i, x in dv.items():
                fx = f * x
                for k, v in cols[i].items():
                    k += offset
                    acc[k] = get(k, 0) + fx * v
        return field.canon(acc)

    def _derived(self, n, rel, rh, uh, h, c, jp, plans, coords):
        """The coordinates over the block's kept basis of a candidate x_a z
        whose z = u_h(x_c y'), y' element jp of class s_c rh, pairs with a
        by the relation rel.  With u_h(c) = sigma * c' and z'' = u_h(y'),
        x_a z = sigma * sum lam * x_d (x_e z''), every d < a, and
        coords[d][i] holds the coordinates of x_d b_i.  ``plans`` keeps,
        per (e, c), the plan of sigma * x_e z'' (:meth:`_plan`).  The
        terms are summed in one ``mat_col``, over the columns coords[d][i]
        with coefficients lam * mu_e[i] in term order, so the result's
        entries come in the order of one running sum: a key that cancels
        part way keeps its first place."""
        field = self.field
        y = {jp: field.one}
        mus = {}  # e -> the coordinates of sigma x_e z''
        for _, e, _ in rel:
            plan = plans.get((e, c), False)
            if plan is False:
                plan = plans[(e, c)] = self._plan(n, rh, uh, h, e, c)
            if plan is None:
                mus[e] = {}
                continue
            move, cols, f, _ = plan
            z = self._moved(move, y)
            mus[e] = mat_col(cols, z if f > 0 else neg_col(z), field)
        # a zero x_e z'' may lie in a class with no candidates, missing from coords
        cols, coeffs = [], {}
        for d, e, lam in rel:
            for i, y in mus[e].items():
                coeffs[len(cols)] = lam * y
                cols.append(coords[d][i])
        return mat_col(cols, coeffs, field)
