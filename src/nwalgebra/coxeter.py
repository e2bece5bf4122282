"""Simply-laced crystallographic root systems and finite Weyl group arithmetic.

A root system is named by its type and rank, a :data:`CartanData` such as
(4, "D4"), and its Dynkin diagram follows from the type.  The type gives
|R+| in closed form, so the bound on the reflection table is checked
before anything is built, the Cartan form included.

Roots are integer coefficient vectors over the simple roots, so every
computation here is exact integer arithmetic.  Positive roots get a fixed
canonical order (by height, then lexicographically on coefficients) and a
signed index encoding: the integer ``+(i+1)`` denotes the i-th positive
root, ``-(i+1)`` its negative.

Group elements are stored as the full signed permutation they induce on
the positive roots; this makes length and conjugation of reflections
O(|R+|).  Elements are interned: each :class:`RootSystem` keeps a table
from images tuple to the one :class:`GroupElement` with those images, so
equal images in one system give the same object, ``==`` and ``hash`` are
the object's identity, and a dict keyed by elements hashes no tuple.  The
table holds every element the system has made, at most |W| of them, for
the system's lifetime (a system and its elements form a reference cycle,
which the cycle collector frees).  Elements of two systems never compare
equal, even with equal images.  With identity hashing a set's iteration
order follows memory addresses, so nothing that reaches output iterates
a set of elements; everything that orders elements sorts them by
``images``.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import lcm, prod

#: bound on the size of any enumerated group, W or a subgroup
ENUMERATION_BOUND = 3628800  # 10!

#: default bound on the scalar entries any one allocation may hold; an
#: enumeration of W holds |W| x |R+| image entries
DEFAULT_MEMORY_BOUND = 50_000_000


class CoxeterError(ValueError):
    pass


class EnumerationBoundExceeded(RuntimeError):
    pass


#: a simply-laced Dynkin type, such as (4, "D4"): its rank and its label,
#: the letter A, D or E followed by the rank.  The diagram follows from
#: the type; :func:`positive_root_count` says which values name one.
CartanData = namedtuple("CartanData", ("rank", "type_label"))


def cartan_data(type_label: str, rank: int) -> CartanData:
    """The Cartan datum of type A_n, D_n or E6/E7/E8."""
    t = type_label.upper()
    if t not in ("A", "D", "E"):
        raise CoxeterError(f"not a simply-laced type: {type_label!r}")
    cartan = CartanData(rank, f"{t}{rank}")
    positive_root_count(cartan)
    return cartan


def positive_root_count(cartan: CartanData) -> int:
    """|R+| of the type, from its closed form.  Raises CoxeterError on a
    value that names no type: a letter other than A, D or E, a rank out
    of the letter's range, or a label other than the letter and the
    rank."""
    n, label = cartan
    t = label[:1]
    if t not in ("A", "D", "E"):
        raise CoxeterError(f"not a simply-laced type: {label!r}")
    if label != f"{t}{n}":
        raise CoxeterError(f"{label!r} names no type of rank {n}")
    if t == "A":
        if n < 1:
            raise CoxeterError("type A needs rank >= 1")
        return n * (n + 1) // 2
    if t == "D":
        if n < 3:
            raise CoxeterError("type D needs rank >= 3")
        return n * (n - 1)
    if n not in (6, 7, 8):
        raise CoxeterError("type E needs rank in {6, 7, 8}")
    return {6: 36, 7: 63, 8: 120}[n]


class RootSystem:
    """Positive roots, reflection table and bilinear form of a Weyl group.

    ``degrees`` are the degrees d_i = m_i + 1 of W, ascending, and
    ``group_order`` = |W| is their product: the exponents m_i are the
    partition dual to the number of positive roots of each height
    (Shapiro, Steinberg, Kostant).  The exponent of W is lcm(d_i) and
    |C_W(w_o)| the product of the even d_i, so a closure of either group
    is refused before it starts when its size passes ``ENUMERATION_BOUND``
    or its size x |R+| image entries pass ``memory_bound``, the one
    memory bound of the system, which its algebra states read too."""

    def __init__(self, cartan: CartanData, memory_bound=DEFAULT_MEMORY_BOUND):
        # the nroots x nroots reflection table, O(rank) per entry, is
        # bounded before anything is built, the Cartan form included
        nroots = positive_root_count(cartan)
        if nroots * nroots * cartan.rank > ENUMERATION_BOUND:
            raise EnumerationBoundExceeded(
                f"{cartan.type_label} has {nroots} positive roots; its reflection "
                f"table needs {nroots * nroots} entries of {cartan.rank} steps each, "
                f"{nroots * nroots * cartan.rank} in all, over the bound {ENUMERATION_BOUND}")
        self.cartan = cartan
        self.memory_bound = memory_bound
        self.rank = n = cartan.rank
        t = cartan.type_label[0]
        # the diagram: a path, whose last node D and E fork off node
        # rank - 3 (D) or node 2 (E) instead
        edges = [(i, i + 1) for i in range(n - 1)]
        if t != "A":
            edges[-1] = (n - 3 if t == "D" else 2, n - 1)
        bonds = set(edges) | {(j, i) for i, j in edges}
        # symmetrized Cartan matrix: (b_i, b_j) = 2 d_ij - adjacency
        self.gram = tuple(
            tuple(2 if i == j else -1 if (i, j) in bonds else 0 for j in range(n))
            for i in range(n)
        )
        self.roots = self._generate_positive_roots()
        self.nroots = len(self.roots)
        self.index = {r: i for i, r in enumerate(self.roots)}
        self.heights = tuple(sum(r) for r in self.roots)
        per_height = Counter(self.heights).values()
        self.degrees = tuple(sorted(sum(1 for c in per_height if c >= i) + 1
                                    for i in range(1, self.rank + 1)))
        self.group_order = prod(self.degrees)
        # simple root i (unit vector e_i) in the canonical order
        self.simple_index = tuple(
            self.index[tuple(1 if k == i else 0 for k in range(self.rank))]
            for i in range(self.rank)
        )
        self.refl = self._reflection_table()
        self._table = {}  # images -> the one GroupElement with those images
        self._elements = None
        self._longest = None
        self._identity = None
        self._is_type_a = t == "A"
        if self._is_type_a:
            self._init_type_a_pairs()

    def __reduce__(self):
        # pickle rebuilds the tables through the constructor; the element
        # table is never pickled, each element re-interns in the new system
        return RootSystem, (self.cartan, self.memory_bound)

    # -- construction -------------------------------------------------

    def _generate_positive_roots(self):
        simples = [tuple(1 if k == i else 0 for k in range(self.rank)) for i in range(self.rank)]
        seen = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for r in frontier:
                for i in range(self.rank):
                    s = self.reflect_coeffs(r, simples[i])
                    if all(c >= 0 for c in s) and s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        return tuple(sorted(seen, key=lambda r: (sum(r), r)))

    def _reflection_table(self):
        table = []
        for rt in self.roots:
            # (x, rt) is x . (G rt): G rt once per row, O(rank) per entry
            g_rt = tuple(sum(gi[j] * rt[j] for j in range(self.rank)) for gi in self.gram)
            row = []
            for x in self.roots:
                c = sum(xk * gk for xk, gk in zip(x, g_rt))
                row.append(self._signed_index(tuple(xk - c * rk for xk, rk in zip(x, rt))))
            table.append(tuple(row))
        return tuple(table)

    def _init_type_a_pairs(self):
        m = self.rank + 1
        pair_of = []
        of_pair = {}
        for idx, r in enumerate(self.roots):
            support = [k for k, c in enumerate(r) if c]
            a, b = support[0], support[-1]
            pair = (a + 1, b + 2)
            pair_of.append(pair)
            of_pair[pair] = idx
        self.pair_of_root = tuple(pair_of)
        self.root_of_pair = of_pair
        self.sym_m = m

    def require_type_a(self, what):
        """Refuse a system outside type A for ``what``, a statement or
        algorithm whose theory covers type A only, as a usage error."""
        if not self._is_type_a:
            raise CoxeterError(f"{what} is type A only, not {self.cartan.type_label}")

    # -- root arithmetic ----------------------------------------------

    def ip(self, x, y) -> int:
        """W-invariant product normalized so (a, a) = 2 on roots."""
        g = self.gram
        return sum(x[i] * sum(g[i][j] * y[j] for j in range(self.rank)) for i in range(self.rank))

    def reflect_coeffs(self, x, alpha):
        c = self.ip(x, alpha)
        return tuple(x[k] - c * alpha[k] for k in range(self.rank))

    def _signed_index(self, coeffs) -> int:
        if coeffs in self.index:
            return self.index[coeffs] + 1
        neg = tuple(-c for c in coeffs)
        if neg in self.index:
            return -(self.index[neg] + 1)
        raise CoxeterError(f"not a root: {coeffs}")

    # -- distinguished elements ----------------------------------------

    def identity(self) -> "GroupElement":
        if self._identity is None:
            self._identity = GroupElement(self, tuple(range(1, self.nroots + 1)))
        return self._identity

    def simple_reflection(self, i: int) -> "GroupElement":
        return GroupElement(self, self.refl[self.simple_index[i]])

    def reflection(self, root_index: int) -> "GroupElement":
        return GroupElement(self, self.refl[root_index])

    def from_word(self, word) -> "GroupElement":
        """The product s_{i_1} ... s_{i_k} of simple reflections, 0 <= i < rank."""
        if not isinstance(word, (list, tuple)) or any(
                type(i) is not int or not 0 <= i < self.rank for i in word):
            raise CoxeterError(f"not a word in simple reflections 0..{self.rank - 1}: {word!r}")
        w = self.identity()
        for i in word:
            w = w * self.simple_reflection(i)
        return w

    def longest_element(self) -> "GroupElement":
        if self._longest is None:
            w = self.identity()
            while True:
                for i in range(self.rank):
                    if w.images[self.simple_index[i]] > 0:
                        w = w * self.simple_reflection(i)
                        break
                else:
                    break
            self._longest = w
        return self._longest

    def _closure(self, gens):
        """The subgroup that ``gens`` generate, by breadth-first closure from
        the identity, sorted by ``images``.  Its elements are the interned
        ones, so the closure holds each element once, in the system's
        table.  Every caller knows the subgroup's order in advance and
        passes it to :meth:`_refuse_closure` first."""
        e = self.identity()
        seen = {e}
        frontier = [e]
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    u = w * g
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return tuple(sorted(seen))

    def _refuse_closure(self, group, size):
        """Raise before a closure of the ``size`` elements of ``group`` when
        ``size`` passes ``ENUMERATION_BOUND`` or its size x |R+| image
        entries pass ``memory_bound``."""
        if size > ENUMERATION_BOUND:
            raise EnumerationBoundExceeded(
                f"{group} has {size} elements, over the enumeration bound {ENUMERATION_BOUND}")
        if size * self.nroots > self.memory_bound:
            raise EnumerationBoundExceeded(
                f"{group} has {size} elements of {self.nroots} images each, "
                f"{size * self.nroots} entries, over the memory bound {self.memory_bound}")

    def elements(self):
        """All group elements, the closure of the simple reflections."""
        if self._elements is None:
            self._refuse_closure(f"W({self.cartan.type_label})", self.group_order)
            self._elements = self._closure(
                [self.simple_reflection(i) for i in range(self.rank)])
        return self._elements

    def exponent(self) -> int:
        """Least N > 0 with w^N = 1 for every group element: lcm(d_i).

        W acts faithfully on V, and each w diagonalizably (it has finite
        order), so the order of w is the lcm of the orders of its
        eigenvalues.  A primitive d-th root of unity is an eigenvalue of
        some w in W exactly when d divides some degree d_i (Springer,
        *Regular elements of finite reflection groups*, 1974, Thm 3.4).
        The lcm over all w is therefore the lcm of the divisors of the
        degrees, lcm(d_i)."""
        return lcm(*self.degrees)

    def from_permutation(self, perm) -> "GroupElement":
        """Type A only: build the element from a one-line permutation of 1..m."""
        self.require_type_a("a one-line permutation")
        m = self.sym_m
        if not isinstance(perm, (list, tuple)) or any(type(i) is not int for i in perm) \
                or sorted(perm) != list(range(1, m + 1)):
            raise CoxeterError(f"not a permutation of 1..{m}: {perm}")
        images = []
        for i, j in self.pair_of_root:
            a, b = perm[i - 1], perm[j - 1]
            if a < b:
                images.append(self.root_of_pair[(a, b)] + 1)
            else:
                images.append(-(self.root_of_pair[(b, a)] + 1))
        return GroupElement(self, tuple(images))


class GroupElement:
    """A Weyl group element as the signed permutation of the positive roots.

    Interned per :class:`RootSystem`: constructing an element with images
    already in the system's table returns that element.  So ``==`` and
    ``hash`` are the object's identity, ``<`` compares images, copy and
    deepcopy return the element itself, and pickle re-interns it in the
    unpickled system."""

    __slots__ = ("system", "images")

    def __new__(cls, system: RootSystem, images):
        images = tuple(images)
        w = system._table.get(images)
        if w is None:
            w = system._table[images] = object.__new__(cls)
            w.system = system
            w.images = images
        return w

    def __reduce__(self):
        return GroupElement, (self.system, self.images)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        if self.system._is_type_a:
            return "".join(str(k) for k in self.perm()) if self.system.sym_m < 10 else str(self.perm())
        return f"GroupElement{self.images}"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.system is not other.system:
            raise CoxeterError("elements of different root systems")
        mine = self.images
        return GroupElement(self.system,
                            [mine[s - 1] if s > 0 else -mine[-s - 1] for s in other.images])

    def inverse(self) -> "GroupElement":
        out = [0] * len(self.images)
        for i, s in enumerate(self.images):
            if s > 0:
                out[s - 1] = i + 1
            else:
                out[-s - 1] = -(i + 1)
        return GroupElement(self.system, out)

    def length(self) -> int:
        return sum(1 for s in self.images if s < 0)

    def is_identity(self) -> bool:
        return self is self.system.identity()

    def act(self, signed: int) -> int:
        """Image of a signed positive-root index."""
        if signed > 0:
            return self.images[signed - 1]
        return -self.images[-signed - 1]

    # -- descents, words, Bruhat order ---------------------------------

    def right_descents(self):
        sys = self.system
        return [i for i in range(sys.rank) if self.images[sys.simple_index[i]] < 0]

    def reduced_word(self):
        """A fixed reduced word (smallest descent first when read right to left)."""
        sys = self.system
        w = self
        rev = []
        while True:
            ds = w.right_descents()
            if not ds:
                break
            i = ds[0]
            rev.append(i)
            w = w * sys.simple_reflection(i)
        return tuple(reversed(rev))

    def bruhat_leq(self, other: "GroupElement") -> bool:
        """Strong Bruhat order: self <= other."""
        sys = self.system
        u, w = self, other
        if u.length() > w.length():
            return False
        word = w.reduced_word()
        for i in reversed(word):
            s = sys.simple_reflection(i)
            if u.images[sys.simple_index[i]] < 0:
                u = u * s
            w = w * s
        # w is now the identity
        return u.is_identity()

    def t_set(self) -> frozenset:
        """Positive-root indices a with s_a in w S w^-1."""
        sys = self.system
        return frozenset(abs(self.images[sys.simple_index[i]]) - 1 for i in range(sys.rank))

    # -- type A ---------------------------------------------------------

    def perm(self):
        """One-line permutation of 1..m (type A only)."""
        sys = self.system
        sys.require_type_a("a one-line permutation")
        m = sys.sym_m
        out = []
        for k in range(m - 1):
            s = self.images[sys.simple_index[k]]
            p, q = sys.pair_of_root[abs(s) - 1]
            a, b = (p, q) if s > 0 else (q, p)
            if not out:
                out.append(a)
            out.append(b)
        if m == 1:
            out = [1]
        return tuple(out)

    def to_json(self):
        if self.system._is_type_a:
            return {"perm": list(self.perm())}
        return {"word": list(self.reduced_word())}


def element_from_json(system: RootSystem, data) -> GroupElement:
    """The element of {"perm": one-line permutation} or {"word": simple
    reflection indices}; raises CoxeterError on any other input, one
    holding both keys included."""
    if not isinstance(data, dict) or len(data.keys() & {"perm", "word"}) != 1:
        raise CoxeterError(f'not a {{"perm": ...}} or {{"word": ...}} element: {data!r}')
    if "perm" in data:
        return system.from_permutation(data["perm"])
    return system.from_word(data["word"])


def centralizer_of_longest(system: RootSystem):
    """All elements commuting with the longest element, in canonical order.

    w_o sends each simple root a_i to -a_{sigma(i)}, where sigma is the
    diagram involution, so w_o s_i w_o = s_{sigma(i)} and the centralizer
    is the fixed-point group W^sigma.  That group is generated by the
    longest element of each sigma-orbit of simple reflections (Steinberg,
    1968): s_i for a fixed node, s_i s_j for an orbit of two non-adjacent
    nodes, s_i s_j s_i for an adjacent pair (the middle of A_{2k}).  Its
    order is the product of the even degrees, as w_o is regular of order 2
    (Springer 1974, Thm 4.2), so the closure is refused before it starts
    past the bounds of :meth:`RootSystem._refuse_closure`.  When sigma is
    trivial the centralizer is W, and the system's cached ``elements()``
    are returned: W is closed once per system.
    """
    node = {r: i for i, r in enumerate(system.simple_index)}
    wo = system.longest_element()
    gens = []
    for i in range(system.rank):
        j = node[-wo.images[system.simple_index[i]] - 1]
        if j < i:
            continue
        word = (i,) if j == i else (i, j, i) if system.gram[i][j] else (i, j)
        gens.append(system.from_word(word))
    if len(gens) == system.rank:
        return system.elements()
    system._refuse_closure(f"C_W(w_o) in W({system.cartan.type_label})",
                           prod(d for d in system.degrees if d % 2 == 0))
    return system._closure(gens)
