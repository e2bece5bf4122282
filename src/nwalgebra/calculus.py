"""Executable verification of the operator identities of the braided
differential calculus.

Each check evaluates both sides of an identity exactly, exhaustively per
graded component where the statement quantifies over all elements, and
on seeded random samples where it quantifies over homogeneous elements.
Reports carry the seed, the trial count and the first counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .coxeter import GroupElement
from .exactlinalg import kernel_basis, rank
from .nichols_core import (
    AlgebraState,
    CheckFailed,
    NicholsElement,
    antipode,
    antipode_inv,
    element_to_json,
    group_act,
    involves_only,
    left_derivative,
    mat_identity,
    mat_mul,
    mat_eq,
    mat_pow,
    mat_col,
    mat_stack,
    multiply,
    pairing,
    rho,
    right_derivative,
    s_bar,
    w_degree_decompose,
)
from .nilcoxeter import embed_element, skew_element, y_element


@dataclass
class IdentityReport:
    name: str
    parameters: dict
    trials: int
    status: str                 # "pass" | "fail" | "skipped"
    counterexample: dict | None = None
    seed: int | None = None
    notes: list = field(default_factory=list)

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


def random_homogeneous(state: AlgebraState, rng, max_degree) -> NicholsElement:
    """A random element homogeneous in both gradings (possibly retried)."""
    field_ = state.field
    for _ in range(100):
        n = rng.randint(0, max_degree)
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


def basis_elements(state: AlgebraState, n):
    one = state.field.one
    for i in range(state.dim(n)):
        yield NicholsElement(state, {n: {i: one}})


def _max_constructed(state: AlgebraState):
    if state.finite_top is not None:
        return state.finite_top
    return min(state.degree_cap, len(state.bases) - 1)


# ---------------------------------------------------------------------------
# inversion identities
# ---------------------------------------------------------------------------


def check_rhoD(state: AlgebraState, trials: int = 200, seed: int = 0,
               max_degree: int | None = None) -> IdentityReport:
    """Commutation of word reversal with braided derivatives.

    Checks the three twist formulas on seeded homogeneous samples, the
    single-generator case exhaustively per degree, and the kernel
    equivalence (b)D_a = 0 iff (rho b)D_a = 0 as a subspace identity.
    """
    name = "rhoD"
    top = _max_constructed(state) if max_degree is None else max_degree
    params = {"max_degree": top}
    rng = random.Random(seed)
    sys = state.system

    # exhaustive single-generator case per degree: rho D_a = D_a rho s_a
    for n in range(1, top + 1):
        for a in range(sys.nroots):
            xa = NicholsElement.generator(state, a)
            for z in basis_elements(state, n):
                lhs = right_derivative(rho(z), xa)
                rhs = group_act(sys.reflection(a), rho(right_derivative(z, xa)))
                if lhs != rhs:
                    return _fail(name, params, 0, seed, degree=n, root=a, z=z)

    # random homogeneous xi, all three formulas
    for t in range(trials):
        xi = random_homogeneous(state, rng, min(top, 3))
        g = next(iter(w_degree_decompose(xi))) if not xi.is_zero() else sys.identity()
        nz = rng.randint(0, top)
        z = random_element(state, rng, nz)
        sxi = antipode(xi)
        # (S z) D_xi = g^{-1} S D_{S xi} (z)
        lhs = right_derivative(antipode(z), xi)
        rhs = group_act(g.inverse(), antipode(left_derivative(sxi, z)))
        if lhs != rhs:
            return _fail(name, params, t, seed, formula="S.D", xi=xi, z=z)
        # D_xi S^{-1}(z) = g S^{-1}((z) D_{S^{-1} xi})
        lhs = left_derivative(xi, antipode_inv(z))
        rhs = group_act(g, antipode_inv(right_derivative(z, antipode_inv(xi))))
        if lhs != rhs:
            return _fail(name, params, t, seed, formula="D.Sinv", xi=xi, z=z)
        # (rho z) D_xi = g^{-1} rho((z) D_{sbar xi})
        lhs = right_derivative(rho(z), xi)
        rhs = group_act(g.inverse(), rho(right_derivative(z, s_bar(xi))))
        if lhs != rhs:
            return _fail(name, params, t, seed, formula="rho.D", xi=xi, z=z)

    # kernel equivalence per degree and generator: rho maps the kernel
    # into itself iff the kernel and its image span no more than the kernel
    for n in range(1, top + 1):
        dim = state.dim(n)
        rm = state.rho_matrix(n)
        for a in range(sys.nroots):
            ker = kernel_basis(state.dright(n, a), state.dim(n - 1), state.field)
            image = [mat_col(rm, vec, state.field) for vec in ker]
            if rank(ker + image, dim, state.field) != len(ker):
                return _fail(name, params, trials, seed, degree=n, root=a,
                             note="rho does not preserve the derivative kernel")
    return IdentityReport(name, params, trials, "pass", None, seed)


def check_nz_antipode(state: AlgebraState, max_degree: int | None = None) -> IdentityReport:
    """The antipode twist: S^{-1} = (-1)^{l(g)} g^{-1} S columnwise, S
    inverts S^{-1} exactly, and S^{2e} is the identity in each degree."""
    name = "nz-antipode"
    top = _max_constructed(state) if max_degree is None else max_degree
    e = state.system.exponent()
    params = {"max_degree": top, "exponent": e}
    field_ = state.field
    for n in range(0, top + 1):
        s = state.antipode_matrix(n)
        sinv = state.antipode_inv_matrix(n)
        dim = state.dim(n)
        if not mat_eq(mat_mul(s, sinv, field_), mat_identity(dim, field_)):
            return _fail(name, params, 0, None, degree=n, note="S S^{-1} is not the identity")
        if not mat_eq(mat_mul(sinv, s, field_), mat_identity(dim, field_)):
            return _fail(name, params, 0, None, degree=n, note="S^{-1} S is not the identity")
        s2e = mat_pow(mat_mul(s, s, field_), e, field_)
        if not mat_eq(s2e, mat_identity(dim, field_)):
            return _fail(name, params, 0, None, degree=n, note="S^{2e} is not the identity")
    return IdentityReport(name, params, 0, "pass")


# ---------------------------------------------------------------------------
# generalized Leibniz rule and its consequences
# ---------------------------------------------------------------------------


def _interval(state, v, w):
    return [u for u in state.system.elements() if v.bruhat_leq(u) and u.bruhat_leq(w)]


def check_gen_leibniz(state: AlgebraState, v: GroupElement, w: GroupElement,
                      wp: GroupElement, trials: int = 20, seed: int = 0,
                      max_degree: int | None = None) -> IdentityReport:
    """The generalized braided Leibniz rule as an operator identity.

    For sampled z, both sides are applied to every basis element of every
    constructed degree (exact, exhaustive in b).
    """
    name = "gen-leibniz"
    top = _max_constructed(state) if max_degree is None else max_degree
    params = {"v": v.to_json(), "w": w.to_json(), "w'": wp.to_json(),
              "max_degree": top}
    rng = random.Random(seed)
    interval = _interval(state, v, w)
    xi = group_act(wp, skew_element(w, v, state))
    for t in range(trials):
        nz = rng.randint(0, top)
        z = random_element(state, rng, nz)
        rhs_parts = []
        for u in interval:
            xi_u = group_act(wp, skew_element(u, v, state))
            if xi_u.is_zero():
                continue
            e_u = right_derivative(z, group_act(wp, skew_element(w, u, state)))
            if e_u.is_zero():
                continue
            h = wp * v * u.inverse() * wp.inverse()
            rhs_parts.append((xi_u, group_act(h, e_u)))
        for nb in range(0, top + 1):
            if state.finite_top is None and nb + nz > top:
                continue
            for b in basis_elements(state, nb):
                lhs = right_derivative(multiply(b, z), xi)
                rhs = NicholsElement.zero(state)
                for xi_u, m_u in rhs_parts:
                    rhs = rhs + multiply(right_derivative(b, xi_u), m_u)
                if lhs != rhs:
                    return _fail(name, params, t, seed, degree=nb, z=z, b=b)
    return IdentityReport(name, params, trials, "pass", None, seed)


def check_tower_invariance(state: AlgebraState, w: GroupElement, v: GroupElement,
                           trials: int = 20, seed: int = 0,
                           max_degree: int | None = None) -> IdentityReport:
    """D_y z D_{w x_v} = D_y ((z) D_{w x_v}) with y = w x_{w_o}."""
    name = "tower-invariance"
    top = _max_constructed(state) if max_degree is None else max_degree
    params = {"w": w.to_json(), "v": v.to_json(), "max_degree": top}
    rng = random.Random(seed)
    y = y_element(w, state)
    wxv = group_act(w, embed_element(state, v))
    for t in range(trials):
        z = random_element(state, rng, rng.randint(0, top))
        for nb in range(0, top + 1):
            for b in basis_elements(state, nb):
                lhs = right_derivative(multiply(right_derivative(b, y), z), wxv)
                rhs = right_derivative(b, y)
                rhs = multiply(rhs, right_derivative(z, wxv))
                if lhs != rhs:
                    return _fail(name, params, t, seed, degree=nb, z=z, b=b)
    return IdentityReport(name, params, trials, "pass", None, seed)


def _t_blocks(state: AlgebraState, w: GroupElement):
    """The right derivatives by the roots of T_w, per degree, as blocks
    (matrix, nrows) for :func:`_joint_kernel_samples`."""
    tw = sorted(w.t_set())

    def blocks(n):
        return [(state.dright(n, a), state.dim(n - 1)) for a in tw] if n >= 1 else []

    return blocks


def check_skew_commutation(state: AlgebraState, w: GroupElement, v: GroupElement,
                           trials: int = 10, seed: int = 0,
                           max_degree: int | None = None) -> IdentityReport:
    """b D_{w x_{w_o/v}} = D_{w x_{w_o/v}} (w v w_o w^{-1} b) for b killed
    by the T_w right derivatives, applied to every basis element."""
    name = "skew-commutation"
    top = _max_constructed(state) if max_degree is None else max_degree
    params = {"w": w.to_json(), "v": v.to_json(), "max_degree": top}
    rng = random.Random(seed)
    sys = state.system
    wo = sys.longest_element()
    xi = group_act(w, skew_element(wo, v, state))
    g = w * v * wo * w.inverse()
    samples = _joint_kernel_samples(state, _t_blocks(state, w), rng, max(1, trials // 3), top)
    if not samples:
        return IdentityReport(name, params, 0, "skipped", None, seed,
                              ["empty kernel sample space"])
    for b in samples[:trials]:
        gb = group_act(g, b)
        for nz in range(0, top + 1):
            for z in basis_elements(state, nz):
                lhs = right_derivative(multiply(z, b), xi)
                rhs = multiply(right_derivative(z, xi), gb)
                if lhs != rhs:
                    return _fail(name, params, trials, seed, degree=nz, b=b, z=z)
    return IdentityReport(name, params, len(samples[:trials]), "pass", None, seed)


def check_ofbskew(state: AlgebraState, d, trials: int = 5, seed: int = 0,
                  max_degree: int | None = None) -> IdentityReport:
    """y_1 D_{y_2} = D_{y_2} y_1 (-1)^{l(w_o)} for an order-two system."""
    name = "ofbskew"
    top = _max_constructed(state) if max_degree is None else max_degree
    wo = state.system.longest_element()
    sign = -1 if wo.length() % 2 else 1
    w1, w2 = d.elements[:2] if len(d.elements) == 2 else d.elements[1:3]
    params = {"w1": w1.to_json(), "w2": w2.to_json(), "max_degree": top}
    y1 = y_element(w1, state)
    y2 = y_element(w2, state)
    for nz in range(0, top + 1):
        for z in basis_elements(state, nz):
            lhs = right_derivative(multiply(z, y1), y2)
            rhs = multiply(right_derivative(z, y2), y1).scale(sign)
            if lhs != rhs:
                return _fail(name, params, 0, seed, degree=nz, z=z)
    return IdentityReport(name, params, 0, "pass", None, seed)


def _joint_kernel_samples(state: AlgebraState, blocks_by_degree, rng, count, max_degree):
    """Random elements of the per-degree joint kernel of the given maps,
    each given as a block (matrix, nrows)."""
    out = []
    field_ = state.field
    for n in range(0, max_degree + 1):
        dim = state.dim(n)
        if dim == 0:
            continue
        ker = kernel_basis(*mat_stack(blocks_by_degree(n), dim), field_)
        for _ in range(count):
            if not ker:
                break
            acc = {}
            for kv in ker:
                c = field_.of(rng.randint(-2, 2))
                if c:
                    for i, x in kv.items():
                        acc[i] = acc.get(i, 0) + c * x
            z = NicholsElement(state, {n: {i: field_.normalize(x) for i, x in acc.items()}})
            if not z.is_zero():
                out.append(z)
    return out


def check_prep_abstr_comm(state: AlgebraState, w: GroupElement, trials: int = 10,
                          seed: int = 0, max_degree: int | None = None) -> IdentityReport:
    """The general commutation preparation for any w: with h = w w_o w^{-1},
    (x1 y x2 x3) D_y = (x1 (h x2) y x3) D_y = x1 (h (x2 x3)) whenever the
    T_w right derivatives kill x1, x3, x2 and h x2."""
    name = "prep-abstr-comm"
    top = _max_constructed(state) if max_degree is None else max_degree
    params = {"w": w.to_json(), "max_degree": top}
    rng = random.Random(seed)
    sys = state.system
    wo = sys.longest_element()
    h = w * wo * w.inverse()
    y = y_element(w, state)
    lwo = wo.length()
    budget = (state.finite_top - lwo) if state.finite_top is not None else top - lwo
    if budget < 0:
        return IdentityReport(name, params, 0, "skipped", None, seed,
                              ["top word does not fit under the degree bound"])
    tw = sorted(w.t_set())
    x13_blocks = _t_blocks(state, w)

    def x2_blocks(n):
        blocks = x13_blocks(n)
        if n >= 1:
            ah = state.act_matrix(n, h)
            blocks += [(mat_mul(state.dright(n, a), ah, state.field), state.dim(n - 1))
                       for a in tw]
        return blocks

    cap = min(top, max(0, budget))
    s13 = _joint_kernel_samples(state, x13_blocks, rng, 3, cap)
    s2 = _joint_kernel_samples(state, x2_blocks, rng, 3, cap)
    if not s13 or not s2:
        return IdentityReport(name, params, 0, "skipped", None, seed,
                              ["empty kernel sample space"])
    done = 0
    for _ in range(trials):
        x1 = s13[rng.randrange(len(s13))]
        x3 = s13[rng.randrange(len(s13))]
        x2 = s2[rng.randrange(len(s2))]
        degs = [max(x.degrees(), default=0) for x in (x1, x2, x3)]
        if sum(degs) + lwo > (state.finite_top if state.finite_top is not None else top):
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


def check_prep_abstr_comm2(state: AlgebraState, w: GroupElement, trials: int = 10,
                           seed: int = 0, max_degree: int | None = None) -> IdentityReport:
    """(x1 y x2 x3) D_y = (x1 (w_o x2) y x3) D_y = x1 (w_o (x2 x3)) for
    T_w-killed x_i and a centralizer element w."""
    name = "prep-abstr-comm2"
    top = _max_constructed(state) if max_degree is None else max_degree
    params = {"w": w.to_json(), "max_degree": top}
    rng = random.Random(seed)
    sys = state.system
    wo = sys.longest_element()
    y = y_element(w, state)
    lwo = wo.length()
    budget = (state.finite_top - lwo) if state.finite_top is not None else top - lwo
    if budget < 0:
        return IdentityReport(name, params, 0, "skipped", None, seed,
                              ["top word does not fit under the degree bound"])
    samples = _joint_kernel_samples(state, _t_blocks(state, w), rng, 3,
                                    min(top, max(0, budget)))
    done = 0
    for _ in range(trials):
        if len(samples) < 3:
            break
        x1, x2, x3 = (samples[rng.randrange(len(samples))] for _ in range(3))
        degs = [max(x.degrees(), default=0) for x in (x1, x2, x3)]
        if sum(degs) + lwo > (state.finite_top if state.finite_top is not None else top):
            continue
        lhs1 = right_derivative(multiply(multiply(multiply(x1, y), x2), x3), y)
        mid = multiply(multiply(multiply(x1, group_act(wo, x2)), y), x3)
        lhs2 = right_derivative(mid, y)
        rhs = multiply(x1, group_act(wo, multiply(x2, x3)))
        if lhs1 != rhs or lhs2 != rhs:
            return _fail(name, params, done, seed, x1=x1, x2=x2, x3=x3)
        done += 1
    status = "pass" if done else "skipped"
    return IdentityReport(name, params, done, status, None, seed)


def check_basic_rev(state: AlgebraState, trials: int = 50, seed: int = 0,
                    max_degree: int | None = None) -> IdentityReport:
    """Start/end annihilation: xi z = 0 when z starts with every root of a
    set that xi ends with (checked on constructed witnesses)."""
    name = "basic-rev"
    top = _max_constructed(state) if max_degree is None else max_degree
    params = {"max_degree": top}
    rng = random.Random(seed)
    sys = state.system
    wo = sys.longest_element()
    done = 0
    for _ in range(trials):
        w = rng.choice(sys.elements())
        theta = sorted(w.t_set())
        y = y_element(w, state)  # starts with every root in T_w
        k = rng.randint(1, 3)
        word = tuple(rng.choice(theta) for _ in range(k))
        xi = NicholsElement.from_word(state, word)  # involves only T_w; ends with T_w
        prod = multiply(xi, y)
        if not prod.is_zero():
            return _fail(name, params, done, seed, w=w, word=list(word))
        prod2 = multiply(y, xi)  # y also ends with all of T_w; xi starts with T_w
        if not prod2.is_zero():
            return _fail(name, params, done, seed, w=w, word=list(word), side="right")
        if not involves_only(y, theta):
            return _fail(name, params, done, seed, w=w, note="y must involve only T_w")
        done += 1
    return IdentityReport(name, params, done, "pass", None, seed)


# ---------------------------------------------------------------------------
# bracket matrices and concrete commutativity
# ---------------------------------------------------------------------------


def bracket_matrix(d, ordering, state: AlgebraState):
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
    if state.finite_top is None or r * lwo > state.finite_top:
        raise CheckFailed("bracket products exceed the constructed degrees")
    ys = [y_element(w, state) for w in ordering]
    perms = sorted(it.permutations(range(r)))
    prods = {}
    for p in perms:
        acc = NicholsElement.unit(state)
        for i in p:
            acc = multiply(acc, ys[i])
        prods[p] = acc
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
                           "value": str(val), "expected": str(expected)}
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
