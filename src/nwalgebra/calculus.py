"""Executable verification of the operator identities of the braided
differential calculus.

Each check evaluates both sides of an identity exactly, exhaustively per
graded component where the statement quantifies over all elements, and
on seeded random samples where it quantifies over homogeneous elements.
Reports carry the seed, the trial count and the first counterexample.

The Leibniz-form checks (generalized Leibniz rule, tower invariance and
skew commutation) compare operator identities column by column, degree
by degree: each side of the identity is, per degree, the list of its
columns on the basis elements, made from the product columns b_i y of
:func:`right_multiplier` and the derivative columns (b_i)D_xi of
:func:`right_derivative_columns`, composed by :func:`_then` with one
matrix-vector step per map, none for a zero column.  The derivative
columns of a fixed xi are built once per degree and shared across the
trials.
"""

from __future__ import annotations

import random
from itertools import islice

from .coxeter import GroupElement
from .exactlinalg import kernel_basis, scalar_str
from .nichols_core import (
    AlgebraState,
    CheckFailed,
    NicholsElement,
    antipode,
    element_to_json,
    group_act,
    left_derivative,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_col,
    mat_stack,
    multiply,
    ordered_product,
    pairing,
    rho,
    right_derivative,
    right_derivative_columns,
    right_multiplier,
    s_bar,
)
from .nilcoxeter import embed_element, reduced_word_roots, skew_element, y_element


class IdentityReport:
    __slots__ = ("name", "parameters", "trials", "status", "counterexample", "seed", "notes")

    def __init__(self, name, parameters, trials, status, counterexample=None, seed=None,
                 notes=None):
        self.name, self.parameters, self.trials = name, parameters, trials
        self.status = status  # "pass" | "fail" | "skipped"
        self.counterexample, self.seed = counterexample, seed
        self.notes = [] if notes is None else notes

    @property
    def passed(self):
        return self.status == "pass"

    def to_json(self):
        return {
            "identity": self.name,
            "parameters": self.parameters,
            "trials": self.trials,
            "status": self.status,
            "seed": self.seed,
            "counterexample": self.counterexample,
            "notes": list(self.notes),
        }


def _fail(name, params, trials, seed, **ce):
    example = {}
    for k, v in ce.items():
        if isinstance(v, NicholsElement):
            example[k] = element_to_json(v)
        elif isinstance(v, GroupElement):
            example[k] = v.to_json()
        else:
            example[k] = v
    return IdentityReport(name, params, trials, "fail", example, seed)


def random_element(state: AlgebraState, rng, degree) -> NicholsElement:
    of = state.field.of
    vec = {i: of(rng.randint(-3, 3)) for i in range(state.dim(degree))}
    return NicholsElement(state, {degree: vec})


def random_homogeneous(state: AlgebraState, rng, top) -> NicholsElement:
    """A random element of degree at most top, homogeneous in both gradings."""
    field_ = state.field
    for _ in range(100):
        n = rng.randint(0, top)
        basis = state.basis(n)
        if basis.dim == 0:
            continue
        classes = sorted(basis.classes, key=lambda g: g.images)
        g = classes[rng.randrange(len(classes))]
        vec = {}
        nonzero = False
        for i in basis.classes[g]:
            c = rng.randint(-3, 3)
            if c:
                nonzero = True
                vec[i] = field_.of(c)
        if nonzero:
            return NicholsElement(state, {n: vec})
    raise CheckFailed("could not sample a homogeneous element")


def basis_element(state: AlgebraState, n, i) -> NicholsElement:
    """Basis element i of degree n."""
    return NicholsElement(state, {n: {i: state.field.one}})


def _max_constructed(state: AlgebraState):
    if state.finite_top is not None:
        return state.finite_top
    return min(state.degree_cap, len(state.bases) - 1)


# ---------------------------------------------------------------------------
# inversion identities
# ---------------------------------------------------------------------------


def check_rhoD(state: AlgebraState, trials: int = 200, seed: int = 0) -> IdentityReport:
    """Commutation of word reversal with braided derivatives.

    Checks the single-generator case (rho b)D_a = s_a rho((b)D_a)
    exhaustively per degree, and the two twist formulas S.D and rho.D on
    seeded homogeneous samples xi of group degree g.  The kernel
    equivalence (b)D_a = 0 iff (rho b)D_a = 0 needs no check of its own:
    s_a and rho are invertible, so it follows from the single-generator
    case.

    Nor does the inverse-antipode formula D_xi(S^{-1} z) =
    g S^{-1}((z)D_{S^{-1} xi}): it is S.D, (S z)D_xi = g^{-1} S(D_{S xi}(z)),
    taken at (S^{-1} xi, S^{-1} z) and multiplied by g S^{-1}.  That step
    uses three facts.  S S^{-1} = I, which ``nz-antipode`` checks.  S
    keeps group degrees, since the recursion S(b_j x_e) =
    -(g_j . x_e) S(b_j) has degree g_j s_e; so S^{-1} does, and S^{-1} xi
    has degree g.  And S commutes with the action of W, by induction on
    that recursion, so S^{-1} does.
    """
    name = "rhoD"
    top = _max_constructed(state)
    params = {"max_degree": top}
    rng = random.Random(seed)
    sys = state.system

    # exhaustive single-generator case per degree: rho D_a = D_a rho s_a,
    # on each basis vector e_i as columns of the structure matrices
    field_ = state.field
    for n in range(1, top + 1):
        rho_n, rho_prev = state.rho_matrix(n), state.rho_matrix(n - 1)
        for a in range(sys.nroots):
            dr = state.dright(n, a)
            act = state.act_matrix(n - 1, sys.reflection(a))
            for i in range(state.dim(n)):
                lhs = mat_col(dr, rho_n[i], field_)
                rhs = mat_col(act, mat_col(rho_prev, dr[i], field_), field_)
                if lhs != rhs:
                    return _fail(name, params, 0, seed, degree=n, root=a,
                                 z=basis_element(state, n, i))

    # random homogeneous xi, both formulas
    for t in range(trials):
        xi = random_homogeneous(state, rng, min(top, 3))
        # xi lies in one class, that of any basis word it holds; it is zero
        # when every drawn coefficient vanishes in the field (c = +-3 mod 3)
        g = sys.identity()
        if not xi.is_zero():
            (nxi, vxi), = xi.components.items()
            g = state.basis(nxi).wdegs[next(iter(vxi))]
        nz = rng.randint(0, top)
        z = random_element(state, rng, nz)
        sxi = antipode(xi)
        # (S z) D_xi = g^{-1} S D_{S xi} (z)
        lhs = right_derivative(antipode(z), xi)
        rhs = group_act(g.inverse(), antipode(left_derivative(sxi, z)))
        if lhs != rhs:
            return _fail(name, params, t, seed, formula="S.D", xi=xi, z=z)
        # (rho z) D_xi = g^{-1} rho((z) D_{sbar xi})
        lhs = right_derivative(rho(z), xi)
        rhs = group_act(g.inverse(), rho(right_derivative(z, s_bar(xi))))
        if lhs != rhs:
            return _fail(name, params, t, seed, formula="rho.D", xi=xi, z=z)
    return IdentityReport(name, params, trials, "pass", None, seed)


def check_nz_antipode(state: AlgebraState) -> IdentityReport:
    """The antipode and its order: S S^{-1} = I exactly, and S^{2e} = I
    in each degree.  S is built by the prefix recursion
    S(z x_e) = -(g_z . x_e) S(z) through left multiplication, and S^{-1}
    by the parents recursion S^{-1}(x_a z) = -S^{-1}(z) (g_z^{-1} . x_a)
    through right multiplication, so S S^{-1} = I certifies the two
    independent recursions against each other: S and S^{-1} are square
    over a field, where a one-sided inverse is the inverse, and a wrong
    column of either fails it at its degree."""
    name = "nz-antipode"
    top = _max_constructed(state)
    e = state.system.exponent()
    params = {"max_degree": top, "exponent": e}
    field_ = state.field
    for n in range(0, top + 1):
        s = state.antipode_matrix(n)
        sinv = state.antipode_inv_matrix(n)
        dim = state.dim(n)
        if mat_mul(s, sinv, field_) != mat_identity(dim, field_):
            return _fail(name, params, 0, None, degree=n, note="S S^{-1} is not the identity")
        s2e = mat_pow(mat_mul(s, s, field_), e, field_)
        if s2e != mat_identity(dim, field_):
            return _fail(name, params, 0, None, degree=n, note="S^{2e} is not the identity")
    return IdentityReport(name, params, 0, "pass")


# ---------------------------------------------------------------------------
# generalized Leibniz rule and its consequences
# ---------------------------------------------------------------------------


def _interval(state, v, w):
    return [u for u in state.system.elements() if v.bruhat_leq(u) and u.bruhat_leq(w)]


def check_gen_leibniz(state: AlgebraState, v: GroupElement, w: GroupElement,
                      wp: GroupElement, trials: int = 20, seed: int = 0) -> IdentityReport:
    """The generalized braided Leibniz rule as an operator identity.

    For sampled z, both sides are applied to every basis element of every
    constructed degree (exact, exhaustive in b).
    """
    name = "gen-leibniz"
    top = _max_constructed(state)
    params = {"v": v.to_json(), "w": w.to_json(), "w'": wp.to_json(),
              "max_degree": top}
    rng = random.Random(seed)
    field_ = state.field
    interval = _interval(state, v, w)
    derive = right_derivative_columns(group_act(wp, skew_element(w, v, state)))
    # per u with xi_u nonzero: (the columns of D_{xi_u}, deg xi_u, w' x_{w/u},
    # the twist h); the derivative columns are shared across trials
    parts = []
    for u in interval:
        xi_u = group_act(wp, skew_element(u, v, state))
        if not xi_u.is_zero():
            parts.append((right_derivative_columns(xi_u), xi_u.degrees()[0],
                          group_act(wp, skew_element(w, u, state)),
                          wp * v * u.inverse() * wp.inverse()))
    for t in range(trials):
        nz = rng.randint(0, top)
        z = random_element(state, rng, nz)
        times_z = right_multiplier(z).columns
        # (b) D_{xi_u} times h((z) D_{w' x_{w/u}}), per part with a nonzero factor
        rhs_parts = []
        for derive_u, m_u, eta_u, h in parts:
            e_u = right_derivative(z, eta_u)
            if not e_u.is_zero():
                times_e = right_multiplier(group_act(h, e_u)).columns
                rhs_parts.append(_then(derive_u, times_e, -m_u, field_))
        ones = dict.fromkeys(range(len(rhs_parts)), field_.one)

        def rhs(nb):
            # per basis element, the sum of the parts' columns
            cols = [part(nb) for part in rhs_parts]
            return (mat_col([next(c) for c in cols], ones, field_) for _ in range(state.dim(nb)))

        bad = _first_mismatch(_compared_degrees(state, top, nz),
                              _then(times_z, derive, nz, field_), rhs)
        if bad:
            return _fail(name, params, t, seed, degree=bad[0], z=z,
                         b=basis_element(state, *bad))
    return IdentityReport(name, params, trials, "pass", None, seed)


def check_tower_invariance(state: AlgebraState, w: GroupElement, v: GroupElement,
                           trials: int = 20, seed: int = 0) -> IdentityReport:
    """D_y z D_{w x_v} = D_y ((z) D_{w x_v}) with y = w x_{w_o}: for u the
    column (b)D_y of each basis element b, (u z)D_{w x_v} = u (z)D_{w x_v}.
    On a truncated build only b with u z in a built degree are compared
    (:func:`_compared_degrees`)."""
    name = "tower-invariance"
    top = _max_constructed(state)
    params = {"w": w.to_json(), "v": v.to_json(), "max_degree": top}
    rng = random.Random(seed)
    field_ = state.field
    y = y_element(w, state)
    wxv = group_act(w, embed_element(state, v))
    # the columns of D_y and D_{w x_v}, shared across trials
    derive_y, derive = right_derivative_columns(y), right_derivative_columns(wxv)
    my, mx = y.degrees()[0], wxv.degrees()[0]
    for t in range(trials):
        nz = rng.randint(0, top)
        z = random_element(state, rng, nz)
        times_z = right_multiplier(z).columns
        zdx = NicholsElement(state, {nz - mx: mat_col(derive(nz), z.component(nz), field_)})
        times_zdx = right_multiplier(zdx).columns

        lhs = _then(_then(derive_y, times_z, -my, field_), derive, nz - my, field_)
        rhs = _then(derive_y, times_zdx, -my, field_)
        bad = _first_mismatch(_compared_degrees(state, top, nz - my), lhs, rhs)
        if bad:
            return _fail(name, params, t, seed, degree=bad[0], z=z,
                         b=basis_element(state, *bad))
    return IdentityReport(name, params, trials, "pass", None, seed)


def _t_blocks(state: AlgebraState, w: GroupElement):
    """The right derivatives by the roots of T_w, per degree, as blocks
    (matrix, nrows) for :func:`_joint_kernels`."""
    tw = sorted(w.t_set())

    def blocks(n):
        return [(state.dright(n, a), state.dim(n - 1)) for a in tw] if n >= 1 else []

    return blocks


def check_skew_commutation(state: AlgebraState, w: GroupElement, v: GroupElement,
                           trials: int = 10, seed: int = 0) -> IdentityReport:
    """b D_{w x_{w_o/v}} = D_{w x_{w_o/v}} (w v w_o w^{-1} b) for b killed
    by the T_w right derivatives, applied to every basis element.  b is
    sampled from the kernel degrees 1 and up: for a scalar b, fixed by
    the group, both sides read the same derivative columns, and the
    identity holds whatever they are.

    The order-two statement y_1 D_{y_2} = D_{y_2} y_1 (-1)^{l(w_o)}, for
    a disjoint system {w_1, w_2} and y_i = w_i x_{w_o}, is the instance
    (w, v) = (w_2, e), b = y_1, which ``verify skew-commutation`` runs
    with b sampled instead:

    - w_2 centralizes w_o, so xi = w_2 x_{w_o/e} = y_2 and
      g = w_2 w_o w_2^{-1} = w_o.
    - y_1 lies in the sample space.  (x_{w_o})D_c = 0 for every
      non-simple c: the right-derivative recursion never changes the
      letter c, and x_{w_o} is a word in simple letters.  So
      (w_1 x_{w_o})D_a vanishes unless a is in T_{w_1}, and T_{w_1} and
      T_{w_2} are disjoint.
    - w_o y_1 = w_1 (w_o x_{w_o}) = (-1)^{l(w_o)} y_1, as w_1 centralizes
      w_o too, and w_o(alpha_i) = -alpha_{sigma(i)} maps a reduced word
      of w_o to another reduced word of w_o.
    """
    name = "skew-commutation"
    top = _max_constructed(state)
    params = {"w": w.to_json(), "v": v.to_json(), "max_degree": top}
    rng = random.Random(seed)
    sys = state.system
    wo = sys.longest_element()
    xi = group_act(w, skew_element(wo, v, state))
    g = w * v * wo * w.inverse()
    # one sample shows the sample space is not empty; no kernel past the
    # degree of the last kept sample is computed
    kernels = _joint_kernels(state, _t_blocks(state, w), range(1, top + 1))
    samples = list(islice(_kernel_samples(state, kernels, rng, max(1, trials // 3)),
                          max(1, trials)))
    if not samples:
        return IdentityReport(name, params, 0, "skipped", None, seed,
                              ["empty kernel sample space"])
    derive = right_derivative_columns(xi)  # shared across samples
    for b in samples[:trials]:
        bad = _right_leibniz_mismatch(state, top, right_multiplier(b).columns, b.degrees()[0],
                                      derive, xi.degrees()[0],
                                      right_multiplier(group_act(g, b)).columns)
        if bad:
            return _fail(name, params, trials, seed, degree=bad[0], b=b,
                         z=basis_element(state, *bad))
    return IdentityReport(name, params, len(samples[:trials]), "pass", None, seed)


def _right_leibniz_mismatch(state, top, times, ny, derive, m, times_after):
    """The first basis element z, as (degree, index), of degree 0..top at
    which (z y)D_xi != ((z)D_xi) y', or None.  ``times`` and
    ``times_after`` are the product columns of y (of degree ny) and y',
    ``derive`` the derivative columns of xi (of degree m).  On a
    truncated build only z with z y in a built degree are compared
    (:func:`_compared_degrees`)."""
    field_ = state.field
    return _first_mismatch(_compared_degrees(state, top, ny), _then(times, derive, ny, field_),
                           _then(derive, times_after, -m, field_))


def _then(first, second, lift, field):
    """The operator second o first, column by column: n -> the columns
    ``second(n + lift)`` applied to ``first(n)``, first mapping degree n
    to degree n + lift.  A zero column of first gives the zero column
    without a read of second."""
    def columns(n):
        return (mat_col(second(n + lift), c, field) if c else {} for c in first(n))
    return columns


def _compared_degrees(state, top, lift):
    """The degrees n of 0..top at which a check that reads degree
    n + lift compares its two sides: all of them on a complete build,
    where a product past the top is zero, and on a truncated build those
    with n + lift <= top, the degrees built."""
    return [n for n in range(0, top + 1) if state.finite_top is not None or n + lift <= top]


def _first_mismatch(degrees, lhs, rhs):
    """The first (degree, index) at which the columns ``lhs(n)`` and
    ``rhs(n)`` of the two sides of an operator identity differ, over the
    given degrees in order, or None.  The sides map a zero input column
    to the zero column without reading a map, so a basis element whose
    two inputs are zero costs no matrix-vector step."""
    for n in degrees:
        for i, (left, right) in enumerate(zip(lhs(n), rhs(n))):
            if left != right:
                return n, i
    return None


def _joint_kernels(state: AlgebraState, blocks_by_degree, degrees):
    """(degree, basis) of the joint kernel of the given maps, each given
    as a block (matrix, nrows), per nonzero component of the given
    degrees, in order, each computed when it is read."""
    return ((n, kernel_basis(mat_stack(blocks_by_degree(n), dim), state.field))
            for n in degrees if (dim := state.dim(n)))


def _kernel_samples(state: AlgebraState, kernels, rng, count):
    """Random elements of the kernels of :func:`_joint_kernels`, count per
    degree, each drawn when it is read."""
    field_ = state.field
    for n, ker in kernels:
        for _ in range(count):
            if not ker:
                break
            coeffs = {k: c for k in range(len(ker)) if (c := field_.of(rng.randint(-2, 2)))}
            z = NicholsElement(state, {n: mat_col(ker, coeffs, field_)})
            if not z.is_zero():
                yield z


def check_prep_abstr_comm(state: AlgebraState, w: GroupElement, trials: int = 10,
                          seed: int = 0) -> IdentityReport:
    """The general commutation preparation for any w: with h = w w_o w^{-1},
    (x1 y x2 x3) D_y = (x1 (h x2) y x3) D_y = x1 (h (x2 x3)) whenever the
    T_w right derivatives kill x1, x3, x2 and h x2.  The condition on h x2
    follows from the one on x2: h w = w w_o maps the simple roots to minus
    simple roots, so h permutes the roots of T_w = |w(Delta)| up to sign.
    All three factors are therefore sampled from the T_w kernel."""
    name = "prep-abstr-comm"
    top = _max_constructed(state)
    params = {"w": w.to_json(), "max_degree": top}
    rng = random.Random(seed)
    sys = state.system
    wo = sys.longest_element()
    h = w * wo * w.inverse()
    y = y_element(w, state)
    lwo = wo.length()
    if top < lwo:
        return IdentityReport(name, params, 0, "skipped", None, seed,
                              ["top word does not fit under the degree bound"])
    kernels = list(_joint_kernels(state, _t_blocks(state, w), range(top - lwo + 1)))
    s13 = list(_kernel_samples(state, kernels, rng, 3))
    s2 = list(_kernel_samples(state, kernels, rng, 3))
    if not s13 or not s2:
        return IdentityReport(name, params, 0, "skipped", None, seed,
                              ["empty kernel sample space"])
    done = 0
    for _ in range(trials):
        x1 = s13[rng.randrange(len(s13))]
        x3 = s13[rng.randrange(len(s13))]
        x2 = s2[rng.randrange(len(s2))]
        degs = [max(x.degrees(), default=0) for x in (x1, x2, x3)]
        if sum(degs) + lwo > top:
            continue
        lhs1 = right_derivative(multiply(multiply(multiply(x1, y), x2), x3), y)
        mid = multiply(multiply(multiply(x1, group_act(h, x2)), y), x3)
        lhs2 = right_derivative(mid, y)
        rhs = multiply(x1, group_act(h, multiply(x2, x3)))
        if lhs1 != rhs or lhs2 != rhs:
            return _fail(name, params, done, seed, x1=x1, x2=x2, x3=x3)
        done += 1
    status = "pass" if done else "skipped"
    return IdentityReport(name, params, done, status, None, seed)


def check_basic_rev(state: AlgebraState, trials: int = 50, seed: int = 0) -> IdentityReport:
    """Start/end annihilation: xi z = 0 when z starts with every root of a
    set that xi ends with (checked on constructed witnesses), the witness
    y = w . x_{w_o} being plus or minus a word over T_w.  On a
    truncated build a trial whose products lie past the top is not run;
    with none run the report is skipped."""
    name = "basic-rev"
    top = _max_constructed(state)
    params = {"max_degree": top}
    rng = random.Random(seed)
    sys = state.system
    wo = sys.longest_element()
    wo_word = reduced_word_roots(sys, wo)
    done = 0
    for _ in range(trials):
        w = rng.choice(sys.elements())
        theta = sorted(w.t_set())
        y = y_element(w, state)  # starts with every root in T_w
        k = rng.randint(1, 3)
        word = tuple(rng.choice(theta) for _ in range(k))
        if state.finite_top is None and k + wo.length() > top:
            continue
        xi = NicholsElement.from_word(state, word)  # involves only T_w; ends with T_w
        # y also ends with all of T_w, and xi starts with T_w
        for extra, u, v in (({}, xi, y), ({"side": "right"}, y, xi)):
            if not multiply(u, v).is_zero():
                return _fail(name, params, done, seed, w=w, word=list(word), **extra)
        # w acts letter by letter with signs, so y = w . x_{w_o} is a signed
        # word over T_w = {|w(a)| : a simple}: the letters |w(a_i)| for the
        # simple roots a_i of the reduced word of w_o
        y_word = tuple(abs(w.images[a]) - 1 for a in wo_word)
        if y.proportional_to(NicholsElement.from_word(state, y_word)) not in (
                state.field.one, state.field.minus_one):
            return _fail(name, params, done, seed, w=w, note="y must be a signed word over T_w")
        done += 1
    if not done:
        return IdentityReport(name, params, 0, "skipped", None, seed,
                              ["no product fits under the degree bound"])
    return IdentityReport(name, params, done, "pass", None, seed)


# ---------------------------------------------------------------------------
# bracket matrices and concrete commutativity
# ---------------------------------------------------------------------------


def bracket_matrix(ordering, state: AlgebraState):
    """Pairing matrix of the ordered products of the y's of a disjoint
    system against the closed sign formula.

    Returns (matrix, report); the matrix rows/columns run over all
    orderings (permutations) in lexicographic order.
    """
    import itertools as it

    name = "bracket"
    sys = state.system
    wo = sys.longest_element()
    r = len(ordering)
    lwo = wo.length()
    params = {"order": r, "elements": [w.to_json() for w in ordering]}
    if r * lwo > state.require_top("bracket_matrix"):
        raise CheckFailed("bracket products exceed the constructed degrees")
    ys = [y_element(w, state) for w in ordering]
    perms = sorted(it.permutations(range(r)))
    prods = {p: ordered_product([ys[i] for i in p], state) for p in perms}
    matrix = []
    ok = True
    bad = None
    field_ = state.field
    for pi in perms:
        row = []
        for sg in perms:
            val = pairing(prods[pi], prods[sg])
            # l(sigma pi^{-1}) as permutations of the index set
            inv_pi = [0] * r
            for k, x in enumerate(pi):
                inv_pi[x] = k
            comp = [sg[inv_pi[k]] for k in range(r)]
            inversions = sum(1 for i in range(r) for j in range(i + 1, r)
                             if comp[i] > comp[j])
            exponent = (((r - 1) * r // 2) + inversions) * lwo
            expected = field_.of(-1 if exponent % 2 else 1)
            if val != expected:
                ok = False
                if bad is None:
                    bad = {"pi": list(pi), "sigma": list(sg),
                           "value": scalar_str(val, field_),
                           "expected": scalar_str(expected, field_)}
            row.append(val)
        matrix.append(row)
    status = "pass" if ok else "fail"
    report = IdentityReport(name, params, len(perms) ** 2, status, bad)
    return matrix, report


def find_commuting_cofactors(y1_word, y2_word, theta1, theta2,
                             degree_cap: int, state: AlgebraState):
    """Search for monomials y, ybar over theta1 | theta2 with
    k (y y1 y2) = k (ybar y2 y1) nonzero.

    Ascends by total cofactor degree deg(y) + deg(ybar), each leg
    enumerated in lexicographic word order; returns (y_word, ybar_word,
    scalar) with y*y1*y2 = scalar * ybar*y2*y1, or None when the cap is
    exhausted (a valid outcome for truncated algebras)."""
    theta = sorted(set(theta1) | set(theta2))
    a = multiply(NicholsElement.from_word(state, tuple(y1_word)),
                 NicholsElement.from_word(state, tuple(y2_word)))
    b = multiply(NicholsElement.from_word(state, tuple(y2_word)),
                 NicholsElement.from_word(state, tuple(y1_word)))
    if a.is_zero() or b.is_zero():
        raise ValueError("both ordered products must be nonzero")

    def extend(products):
        out = {}
        for word, el in products.items():
            for g in theta:
                cand = multiply(NicholsElement.generator(state, g), el)
                if not cand.is_zero():
                    out[(g,) + word] = cand
        return out

    left = {(): a}    # word -> word * y1 * y2
    right = {(): b}
    lefts = [left]
    rights = [right]
    for total in range(0, degree_cap + 1):
        while len(lefts) <= total:
            lefts.append(extend(lefts[-1]))
            rights.append(extend(rights[-1]))
        for d1 in range(0, total + 1):
            d2 = total - d1
            for yw in sorted(lefts[d1]):
                u = lefts[d1][yw]
                for bw in sorted(rights[d2]):
                    s = u.proportional_to(rights[d2][bw])
                    if s:
                        return (yw, bw, s)
    return None
