"""The dims-only construction with one class block per conjugacy orbit,
against the word-basis construction it transports."""

import gc
import hashlib
import weakref

import pytest

from nwalgebra import cli
from nwalgebra.coxeter import GroupElement, RootSystem, cartan_data
from nwalgebra.exactlinalg import QQ, PrimeField
from nwalgebra.nichols_core import (
    AlgebraState,
    MemoryBoundExceeded,
    NicholsElement,
    mat_col,
    multiply,
)
from nwalgebra.orbits import OrbitState, WordBasisUnavailable
from oracles import orbit_class_dims

# (type, rank, field, degree cap): the word build reaches the top of A2
# and A3 on both fields; A4 and D4 are capped
CASES = [("A", 2, "rational", None), ("A", 2, "prime", None),
         ("A", 3, "rational", None), ("A", 3, "prime", None),
         ("A", 4, "prime", 6), ("D", 4, "prime", 5)]
FIELDS = {"rational": QQ, "prime": PrimeField()}
_built = {}


def _word_state(type_, rank_, field, cap):
    key = (type_, rank_, field, cap)
    if key not in _built:
        state = AlgebraState(RootSystem(cartan_data(type_, rank_)), field=FIELDS[field],
                             degree_cap=cap)
        state.construct_all()
        _built[key] = state
    return _built[key]


def _class_dims(state, n):
    return {g: len(idx) for g, idx in state.bases[n].classes.items()}


@pytest.mark.parametrize("type_,rank_,field,cap",
                         [c for c in CASES if c[:2] != ("A", 2) and c[:3] != ("A", 3, "prime")])
def test_word_build_class_dims_are_constant_on_conjugacy_orbits(type_, rank_, field, cap):
    # every u in W maps B_g onto B_{u g u^-1}; the simple reflections
    # generate W, so conjugating by them walks every orbit
    state = _word_state(type_, rank_, field, cap)
    simple = [state.system.simple_reflection(i) for i in range(state.system.rank)]
    for n in range(len(state.bases)):
        dims = _class_dims(state, n)
        for g, d in dims.items():
            for s in simple:
                assert dims.get(s * g * s, 0) == d, (n, g, s)


@pytest.mark.parametrize("type_,rank_,field,cap", CASES)
def test_orbit_build_matches_the_word_build_class_by_class(type_, rank_, field, cap):
    word = _word_state(type_, rank_, field, cap)
    orbit = OrbitState(word.system, field=FIELDS[field], degree_cap=cap)
    assert orbit.construct_all() == word.dims()
    assert (orbit.finite_top, orbit.truncated) == (word.finite_top, word.truncated)
    for n in range(len(word.bases)):
        assert orbit_class_dims(orbit, n) == _class_dims(word, n), n


@pytest.mark.parametrize("type_,rank_,field,cap", [("A", 3, "rational", None),
                                                   ("A", 3, "prime", None),
                                                   ("A", 4, "prime", 6),
                                                   ("D", 4, "prime", 5)])
def test_transported_data_matches_the_word_build(type_, rank_, field, cap):
    # every stored derivative vector and left-multiplication column, below
    # the cap, read in the word basis: class k's element i is u_k applied
    # to its representative's element i = x_a (element j of class s_a r)
    word = _word_state(type_, rank_, field, cap)
    orbit = OrbitState(word.system, field=FIELDS[field], degree_cap=cap)
    orbit.construct_all()
    fld, reflection = word.field, word.system.reflection
    elements = {}

    def element(m, k, i):
        if (m, k, i) not in elements:
            r, u, _ = orbit._orbit(k)
            if not m:
                vec = {0: fld.one}
            elif u is not None:
                vec = mat_col(word.act_matrix(m, u), element(m, r, i), fld)
            else:
                a, j = orbit.bases[m].parents[r][i]
                vec = mat_col(word.lmul(m, a), element(m - 1, reflection(a) * r, j), fld)
            elements[(m, k, i)] = vec
        return elements[(m, k, i)]

    def combination(m, k, coords):
        acc = {}
        for i, c in coords.items():
            for t, x in element(m, k, i).items():
                acc[t] = acc.get(t, 0) + c * x
        return {t: y for t, x in acc.items() if (y := fld.normalize(x))}

    for m in range(1, len(orbit.bases) - 1):
        basis = orbit.bases[m]
        for r, derivs in basis.derivs.items():
            for i, vec in enumerate(derivs):
                for g in range(word.system.nroots):
                    assert (mat_col(word.dleft(m, g), element(m, r, i), fld)
                            == combination(m - 1, reflection(g) * r, vec.get(g, {})))
            for a, cols in basis.express[r].items():
                for j, coords in enumerate(cols):
                    assert (mat_col(word.lmul(m, a), element(m - 1, reflection(a) * r, j), fld)
                            == combination(m, r, coords))


def test_relation_paired_candidates_are_never_assembled(monkeypatch):
    # x_a (sigma * x_c y) with (a, c) in the degree-2 relation table is a
    # sum over earlier candidates of its block at every degree from 2 on:
    # below the cap its coordinates are derived, at the cap it is skipped.
    # Degrees 2-5 assemble 251 of their 533 candidates.
    assembled, paired = {}, []
    candidate = OrbitState._candidate

    def counting(self, n, a, rh, uh, j, *rest):
        assembled[n] = assembled.get(n, 0) + 1
        if n > 1:
            c = self.bases[n - 1].parents[rh][j][0]
            if uh is not None:
                c = abs(uh.act(c + 1)) - 1
            if (a, c) in self._relations:
                paired.append((n, a, j))
        return candidate(self, n, a, rh, uh, j, *rest)

    monkeypatch.setattr(OrbitState, "_candidate", counting)
    state = OrbitState(RootSystem(cartan_data("A", 4)), field=FIELDS["prime"], degree_cap=6)
    assert state.construct_all() == [1, 10, 55, 220, 711, 1960, 4761]
    assert paired == []
    assert assembled == {1: 1, 2: 3, 3: 16, 4: 75, 5: 157, 6: 608}


@pytest.mark.parametrize("field", ["rational", "prime"])
def test_orbit_build_memory_bound_and_top(field):
    # as in the word build: degree 5 has blocks of more than 31 candidates
    state = OrbitState(RootSystem(cartan_data("A", 3), memory_bound=1000), field=FIELDS[field])
    with pytest.raises(MemoryBoundExceeded, match="^degree 5 class block needs"):
        state.construct_all()
    assert state.dims() == [1, 6, 19, 42, 71]
    # the empty degree past the known top; a read past it stores no degree
    state = OrbitState(RootSystem(cartan_data("A", 3)), field=FIELDS[field])
    state.construct_all()
    assert (state.finite_top, state.dims()[-2:]) == (12, [1, 0])
    state.ensure_degree(15)
    assert (len(state.bases), state.dim(15)) == (14, 0)


def test_orbit_state_has_no_word_basis():
    state = OrbitState(RootSystem(cartan_data("A", 3)), degree_cap=3)
    state.construct_all()
    assert state.truncated
    for read in (lambda: state.basis(2), lambda: state.lmul(2, 0),
                 lambda: state.bases[2].words, lambda: state.dleft(2, 0),
                 lambda: state.rmul(2, 0), lambda: state.act_matrix(2, state.system.identity()),
                 lambda: multiply(NicholsElement.generator(state, 0),
                                  NicholsElement.generator(state, 1))):
        with pytest.raises(WordBasisUnavailable, match="no word basis"):
            read()


def test_cli_dims_reports_a_truncated_build(capsys):
    assert cli.main(["dims", "--rank", "3", "--degree-cap", "3", "--format", "json"]) == 0
    assert '"truncated": true' in capsys.readouterr().out


def test_orbit_state_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        state = OrbitState(RootSystem(cartan_data("A", 3)), degree_cap=6)
        state.construct_all()
        ref = weakref.ref(state)
        del state
        assert ref() is None
    finally:
        gc.enable()


def orbit_digest(state, ordered=False):
    """sha256 of every degree's ``ranks``, ``parents``, ``derivs`` and
    ``express``, insensitive to the order of representatives, and to the
    order of the entries of a vector unless ``ordered``; scalars are
    hashed with their types, a GF(p) value as its residue in [0, p)."""
    p = state.field.prime

    def entries(vec):
        vec = [(i, type(x).__name__, str(x % p if p else x)) for i, x in vec.items()]
        return vec if ordered else sorted(vec)

    h = hashlib.sha256()
    for basis in state.bases:
        items = [("rank", r.images, rank) for r, rank in basis.ranks.items()]
        if basis.parents is not None:
            for r in basis.ranks:
                items.append(("parents", r.images, tuple(basis.parents[r])))
                for i, vec in enumerate(basis.derivs[r]):
                    items += [("deriv", r.images, i, g, entries(v)) for g, v in vec.items()]
                for a, cols in basis.express[r].items():
                    items += [("express", r.images, a, j, entries(c)) for j, c in enumerate(cols)]
        h.update(repr((basis.degree, sorted(items))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("type_,rank_,field,cap,digest", [
    ("A", 3, "rational", None,
     "1b75ec42f4dce9a9bf84a44f3f7b25d243033093dca6502d26c779e961ba0452"),
    ("A", 4, "prime", 6,
     "a4d791bf42f479f15eaec2f104366a6459636a226fcf33c142d590f58a2bd4e1"),
    ("D", 4, "prime", 5,
     "cb3db8c5c12a53a12feea424dd3f045a8b823dd8097fa8b025a3cbafac62dc0d"),
    ("D", 5, "prime", 4,
     "466b39bda44321a14bb6611f9bf6beabb3e9387ffe6d736713755c1e14f0e82d"),
    ("E", 6, "prime", 3,
     "ac14ef7241faaf5a32fcaba036d45c7d8c75c621946c05ad315ff345fa6420ca"),
], ids=["A3-rational", "A4-prime-6", "D4-prime-5", "D5-prime-4", "E6-prime-3"])
def test_orbit_digest(type_, rank_, field, cap, digest):
    # the stored orbit data, value for value: A3 over Q to its top, and
    # every degree below the cap of A4/GF(p) to 6, D4/GF(p) to 5, D5/GF(p)
    # to 4 and E6/GF(p) to 3.  The D5 and E6 digests were recorded from
    # the search that conjugated elements and made every transporter
    state = OrbitState(RootSystem(cartan_data(type_, rank_)), field=FIELDS[field],
                       degree_cap=cap)
    state.construct_all()
    assert orbit_digest(state) == digest


@pytest.mark.parametrize("field,digest", [
    ("rational", "ed07b27bdd6f2197d80667c52a72cb67a03062228c8ee3ae4e49937443cfe746"),
    ("prime", "0f290022b7e380e9f4676fe3aaf46de627988f4b57818ea0c4e06f5a8fe4d592"),
], ids=["A3-rational", "A3-prime"])
def test_orbit_build_keeps_the_entry_order(field, digest):
    # the stored orbit data of A3 with each vector's entries in their
    # order, recorded from the build that summed a relation's terms in
    # one accumulator (OrbitState._derived): a key that cancels part way
    # through the sum keeps its first place
    state = OrbitState(RootSystem(cartan_data("A", 3)), field=FIELDS[field])
    state.construct_all()
    assert orbit_digest(state, ordered=True) == digest


def _group_arithmetic(monkeypatch, type_, rank_, cap):
    """[GroupElement products, inverses] of one fresh orbit build."""
    counts = [0, 0]
    mul, inverse = GroupElement.__mul__, GroupElement.inverse

    def counted_mul(u, v):
        counts[0] += 1
        return mul(u, v)

    def counted_inverse(u):
        counts[1] += 1
        return inverse(u)

    with monkeypatch.context() as patch:
        patch.setattr(GroupElement, "__mul__", counted_mul)
        patch.setattr(GroupElement, "inverse", counted_inverse)
        state = OrbitState(RootSystem(cartan_data(type_, rank_)), field=FIELDS["prime"],
                           degree_cap=cap)
        state.construct_all()
    return counts


@pytest.mark.parametrize("type_,rank_,cap,products,inverses", [
    ("A", 4, 6, 3967, 121), ("E", 6, 3, 5000, 500)], ids=["A4-prime-6", "E6-prime-3"])
def test_orbit_search_makes_few_group_elements(type_, rank_, cap, products, inverses,
                                               monkeypatch):
    # the search runs on images tuples; an element product and inverse is
    # made only for a class the build reads.  The E6 build reads 237 of
    # the 17 236 classes the search files; the search over elements made
    # 242 959 products and 17 236 inverses there, and 3 966 and 120 on A4
    counts = _group_arithmetic(monkeypatch, type_, rank_, cap)
    assert counts[0] < products and counts[1] < inverses
    assert _group_arithmetic(monkeypatch, type_, rank_, cap) == counts
