"""Spectral presheaf restrictions, clopen sub-objects, and approximation."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from toposkms.algebra import Context
from toposkms.errors import (
    DomainMismatch,
    EnumerationTooLarge,
    NotClosedUnderRestriction,
    NotProjection,
)
from toposkms.numerics import frob, proj_join, proj_leq
from toposkms.presheaf import (
    ClopenSubobject,
    complete_downward,
    daseinisation_subobject,
    empty_subobject,
    enumerate_subobjects,
    full_subobject,
    heyting_negation,
    outer_daseinisation,
    outer_daseinisation_bruteforce,
    pullback,
    s_inverse,
    s_map,
    subobject_join,
    subobject_meet,
)

from toposkms.tolerances import DEFAULT_TOL

from conftest import P12SYM, random_projection


def test_spectrum_sizes(c3_gibbs):
    psh = c3_gibbs.presheaf
    assert psh.spectrum_size("Vdiag") == 3
    assert psh.spectrum_size("Vex") == 2


def test_restriction_collapses_characters(c3_gibbs):
    psh = c3_gibbs.presheaf
    poset = c3_gibbs.poset
    coarse = [cid for cid in poset.lower_set("Vdiag") if cid != "Vdiag"]
    for cid in coarse:
        # full spectrum restricts onto the full coarse spectrum
        full = frozenset(range(3))
        image = psh.restrict("Vdiag", cid, full)
        assert image == frozenset(range(psh.spectrum_size(cid)))


def test_restriction_is_functorial(c3_gibbs, diag4):
    for psh in (c3_gibbs.presheaf, diag4.presheaf):
        poset = psh.poset
        ids = [c.id for c in poset.contexts]
        for large in ids:
            k = psh.spectrum_size(large)
            below = [cid for cid in poset.lower_set(large) if cid != large]
            for mid in below:
                for small in [cid for cid in poset.lower_set(mid)
                              if cid != mid]:
                    for index in range(k):
                        via = psh.restrict_character(
                            mid, small,
                            psh.restrict_character(large, mid, index))
                        direct = psh.restrict_character(large, small, index)
                        assert via == direct


def test_s_map_s_inverse_roundtrip(c3_gibbs):
    poset = c3_gibbs.poset
    for v in poset.contexts:
        for bits in range(2 ** v.k):
            idx = frozenset(i for i in range(v.k) if bits >> i & 1)
            p = s_inverse(idx, v)
            assert s_map(p.matrix, v) == idx


def test_s_map_requires_lattice_membership(c3_gibbs):
    from toposkms.errors import NotInLattice

    vex = c3_gibbs.vex
    with pytest.raises(NotInLattice):
        s_map(np.diag([1.0, 0.0, 0.0]), vex)


def test_daseinisation_of_member_is_identity_map(c3_gibbs):
    vex = c3_gibbs.vex
    d = outer_daseinisation(P12SYM, vex)
    assert frob(d.matrix - P12SYM) < 1e-12


def test_daseinisation_coarsens_strictly(c3_gibbs):
    # e_1 is not below the rank-one block of the example context, so its
    # approximation there collapses to the identity
    vex = c3_gibbs.vex
    d = outer_daseinisation(np.diag([1.0, 0.0, 0.0]), vex)
    assert frob(d.matrix - np.eye(3)) < 1e-12


def test_daseinisation_fast_equals_bruteforce(diag4, rng):
    poset = diag4.poset
    for _ in range(12):
        p = random_projection(rng, 4)
        for v in poset.contexts:
            fast = outer_daseinisation(p, v)
            brute = outer_daseinisation_bruteforce(p, v)
            assert s_map(fast.matrix, v) == s_map(brute.matrix, v)


def test_daseinisation_is_smallest_dominating_member(diag4, rng):
    poset = diag4.poset
    p = random_projection(rng, 4)
    for v in poset.contexts:
        d = outer_daseinisation(p, v)
        assert proj_leq(p, d.matrix)
        # any lattice member strictly below the approximation fails to
        # dominate p
        idx = s_map(d.matrix, v)
        for drop in idx:
            q = s_inverse(idx - {drop}, v)
            assert not proj_leq(p, q.matrix)


@given(seed=st.integers(0, 2**31 - 1))
def test_daseinisation_join_identity(seed, diag4):
    # approximation distributes over joins exactly on every stage
    rng = np.random.default_rng(seed)
    p = random_projection(rng, 4)
    q = random_projection(rng, 4)
    j = proj_join(p, q).matrix
    for v in diag4.poset.contexts:
        lhs = s_map(outer_daseinisation(j, v).matrix, v)
        rhs = s_map(proj_join(outer_daseinisation(p, v),
                              outer_daseinisation(q, v)).matrix, v)
        assert lhs == rhs


def test_daseinisation_subobject_is_closed(c3_gibbs):
    sub = daseinisation_subobject(np.diag([1.0, 0.0, 0.0]),
                                  c3_gibbs.presheaf, "D1")
    sub.validate_closure()
    assert sub.domain == frozenset(c.id for c in c3_gibbs.poset.contexts)
    # the component at the diagonal context is the generating projection
    assert sub.component("Vdiag") == s_map(np.diag([1.0, 0.0, 0.0]),
                                           c3_gibbs.vdiag)
    # at the example context it coarsens to the top element
    assert sub.component("Vex") == frozenset({0, 1})


def test_subobject_closure_validation(c3_gibbs):
    psh = c3_gibbs.presheaf
    # a non-empty component whose restriction image is missing below
    # breaks closure under restriction
    comps = {cid: frozenset() for cid in (c.id for c in psh.poset.contexts)}
    comps["Vdiag"] = frozenset({0})
    with pytest.raises(NotClosedUnderRestriction):
        ClopenSubobject(psh, comps, "bad")


def test_complete_downward_minimal(c3_gibbs):
    psh = c3_gibbs.presheaf
    sub = complete_downward(psh, {"Vdiag": frozenset({0})}, "C")
    sub.validate_closure()
    assert sub.domain == frozenset(psh.poset.lower_set("Vdiag"))
    # coarse stages receive exactly the restriction image
    for cid in sub.domain:
        if cid != "Vdiag":
            assert sub.component(cid) == psh.restrict(
                "Vdiag", cid, frozenset({0}))


def test_meet_join_are_componentwise(c3_gibbs):
    subs = c3_gibbs.subs
    m = subobject_meet(subs["S1"], subs["S12"])
    j = subobject_join(subs["S1"], subs["S2"])
    for cid in subs["S1"].domain:
        assert m.component(cid) == (subs["S1"].component(cid)
                                    & subs["S12"].component(cid))
        assert j.component(cid) == (subs["S1"].component(cid)
                                    | subs["S2"].component(cid))


def test_meet_requires_equal_domains(c3_gibbs):
    s1 = c3_gibbs.subs["S1"]
    with pytest.raises(DomainMismatch):
        subobject_meet(s1, s1.restricted_to("Vex"))


def test_heyting_negation_laws(c3_gibbs):
    psh = c3_gibbs.presheaf
    assert heyting_negation(empty_subobject(psh)).canonical_key() == \
        full_subobject(psh).canonical_key()
    assert heyting_negation(full_subobject(psh)).canonical_key() == \
        empty_subobject(psh).canonical_key()
    s1 = c3_gibbs.subs["S1"]
    neg = heyting_negation(s1)
    # intuitionistic: S meet (not S) is empty, but the join may fall short
    m = subobject_meet(s1, neg)
    assert all(len(m.component(cid)) == 0 for cid in m.domain)


def test_enumerate_subobjects_counts(c3_gibbs):
    subs = list(enumerate_subobjects(c3_gibbs.presheaf, "Vex"))
    assert len(subs) == 4  # single two-point stage
    subs = list(enumerate_subobjects(c3_gibbs.presheaf, "Vdiag"))
    assert len(subs) == 95
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_subobjects(c3_gibbs.presheaf, "Vdiag", cap=10))


def test_pullback_along_flow_unitary(c3_gibbs):
    import math

    flow = c3_gibbs.flow
    s1 = c3_gibbs.subs["S1"]
    u = flow.unitary(math.pi / 2)
    moved = pullback(u, s1)
    moved.validate_closure()
    # the saturated family is carried onto itself by design
    assert moved.canonical_key() == s1.canonical_key()


def test_restricted_to_shrinks_domain(c3_gibbs):
    # the saturated family lives on the four-context orbit of the example
    # context, not on the whole poset
    s1 = c3_gibbs.subs["S1"]
    assert len(s1.domain) == 4
    assert "Vdiag" not in s1.domain
    cut = s1.restricted_to("Vex")
    assert cut.domain == frozenset({"Vex"})
    assert cut.component("Vex") == s1.component("Vex")


def test_lattice_sums_honour_the_scenario_tolerance():
    # a block 1e-9 away from Hermitian passes the input boundary only
    # under a loosened policy; the context keeps the block's range as its
    # frame, so the lattice sums over it are projections under either one
    loose = DEFAULT_TOL.override(eps_herm=1e-8, eps_idem=1e-8)
    q = np.diag([1.0, 0.0, 0.0])
    q[0, 1] = 1e-9
    blocks = [q, np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    with pytest.raises(NotProjection):
        Context(blocks, "V")
    v = Context(blocks, "V", tol=loose)
    p = np.diag([1.0, 0.0, 0.0])
    fast = outer_daseinisation(p, v, loose)
    for d in (outer_daseinisation(p, v), fast,
              outer_daseinisation_bruteforce(p, v, loose),
              s_inverse(s_map(fast.matrix, v, loose), v, loose)):
        assert d.rank == 1
