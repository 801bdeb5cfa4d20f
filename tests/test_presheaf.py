"""Spectral presheaf restrictions, clopen sub-objects, and approximation."""
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toposkms import algebra
from toposkms.algebra import (
    Context,
    ContextPoset,
    block_map,
    build_poset,
    includes,
    lattice_projection,
    tiles,
)
from toposkms.errors import (
    DimMismatch,
    DomainMismatch,
    EnumerationTooLarge,
    NotClosedUnderRestriction,
    NotProjection,
    PosetNotClosed,
)
from toposkms.kms_external import AutomorphismFlow, check_C1, gibbs_state
from toposkms.numerics import frob, proj_leq
from toposkms import presheaf as presheaf_module
from toposkms.presheaf import (
    ClopenSubobject,
    SpectralPresheaf,
    complete_downward,
    daseinisation_subobject,
    empty_subobject,
    enumerate_subobjects,
    full_subobject,
    heyting_negation,
    outer_daseinisation,
    outer_daseinisation_bruteforce,
    pullback,
    subobject_join,
    subobject_meet,
)
from toposkms.reports import FAIL, Report
from toposkms.suites import SUITES
from toposkms.tolerances import DEFAULT_TOL

from conftest import (
    P12SYM,
    diagonal_context,
    random_projection,
    random_unitary,
)
from oracles import all_subobjects, dense_image, lower_set, proj_join, s_map


def _characters(psh, cid):
    i = psh.poset.index_of(cid)
    return set(range(psh.offsets[i], psh.offsets[i + 1]))


def test_spectrum_sizes(c3_gibbs):
    psh = c3_gibbs.presheaf
    assert len(_characters(psh, "Vdiag")) == 3
    assert len(_characters(psh, "Vex")) == 2
    assert psh.offsets[-1] == sum(v.k for v in psh.poset.contexts)


def test_restriction_collapses_characters(c3_gibbs):
    psh = c3_gibbs.presheaf
    poset = c3_gibbs.poset
    top = _characters(psh, "Vdiag")
    coarse = [cid for cid in lower_set(poset, "Vdiag") if cid != "Vdiag"]
    for cid in coarse:
        # full spectrum restricts onto the full coarse spectrum
        into = _characters(psh, cid)
        image = {y for x, y in zip(psh.src.tolist(), psh.dst.tolist())
                 if x in top and y in into}
        assert image == into


def test_restriction_is_functorial(c3_gibbs, diag4):
    for psh in (c3_gibbs.presheaf, diag4.presheaf):
        poset = psh.poset
        maps = poset.block_maps
        chains = 0
        for small, mid in maps:
            for large in range(len(poset)):
                if (mid, large) not in maps:
                    continue
                chains += 1
                for index in range(poset.contexts[large].k):
                    via = maps[small, mid][maps[mid, large][index]]
                    assert via == maps[small, large][index]
        assert psh.broken_chains() == (chains, 0)


@given(seed=st.integers(0, 2**32 - 1))
def test_broken_chains_counts_like_the_tables(seed):
    """The edge-key lookup of broken_chains against a chain-by-chain,
    character-by-character reading of randomly corrupted tables."""
    rng = np.random.default_rng(seed)
    poset = build_poset([diagonal_context(4, "D4")], downward_closure=True)
    maps = poset.block_maps
    for pair in rng.permutation(sorted(maps))[:3].tolist():
        k = poset.contexts[pair[0]].k
        maps[tuple(pair)] = tuple(rng.integers(k, size=len(maps[tuple(pair)]))
                                  .tolist())
    chains = broken = 0
    for small, mid in maps:
        for large in range(len(poset)):
            if (mid, large) in maps:
                chains += 1
                broken += any(maps[small, mid][maps[mid, large][b]]
                              != maps[small, large][b]
                              for b in range(poset.contexts[large].k))
    assert SpectralPresheaf(poset).broken_chains() == (chains, broken)


def test_s_map_s_inverse_roundtrip(c3_gibbs):
    poset = c3_gibbs.poset
    for v in poset.contexts:
        for bits in range(2 ** v.k):
            idx = frozenset(i for i in range(v.k) if bits >> i & 1)
            p = lattice_projection(v, idx)
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
    ps = np.stack([random_projection(rng, 4) for _ in range(12)])
    for v in diag4.poset.contexts:
        brute = outer_daseinisation_bruteforce(ps, v)
        assert len(brute) == len(ps)
        for p, indices in zip(ps, brute):
            fast = outer_daseinisation(p, v)
            assert s_map(fast.matrix, v) == frozenset(indices)


def lattice_minimum_by_loop(p, v, tol=DEFAULT_TOL):
    """Reference for the batched oracle: one dense subset sum and one
    proj_leq per lattice element, by subset bitmask; the minimum above p
    by (number of blocks, sorted indices)."""
    best = None
    for mask in range(1 << v.k):
        indices = tuple(i for i in range(v.k) if mask & (1 << i))
        if proj_leq(p, v.block_sum(indices), tol):
            key = (len(indices), indices)
            if best is None or key < best:
                best = key
    return best[1]


def _projection_under(rng, v, indices, angle):
    """A random projection of random rank inside the lattice element of V
    summing the given blocks (that element itself when the rank is full),
    then turned by exp(i angle H) for a random unit-norm Hermitian H."""
    y = v.frame[:, np.isin(v.labels, indices)]
    r = y.shape[1]
    g = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    cols = y @ np.linalg.qr(g)[0][:, :int(rng.integers(1, r + 1))]
    h = rng.normal(size=(v.dim, v.dim)) + 1j * rng.normal(size=(v.dim, v.dim))
    w, q = np.linalg.eigh(h + h.conj().T)
    cols = (q * np.exp(1j * angle * w / np.linalg.norm(w))) @ q.conj().T @ cols
    return cols @ cols.conj().T


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6),
       tilt=st.sampled_from([0.0, 0.5, 0.99, 1.01, 2.0]))
def test_batched_oracle_matches_the_loop(diag4, c3_gibbs, seed, m, tilt):
    """The stacked scan against the per-element loop, on the diagonal C^4
    poset and the C^3 example contexts.  Each projection lies under a
    random lattice element of a random context, so its minimum is rarely
    the identity, and is turned by about tilt * eps_order out of that
    range, next to proj_leq's threshold."""
    rng = np.random.default_rng(seed)
    for poset in (diag4.poset, c3_gibbs.poset):
        ps = []
        for _ in range(m):
            w = poset.contexts[int(rng.integers(len(poset)))]
            some = rng.permutation(w.k)[:int(rng.integers(1, w.k + 1))]
            ps.append(_projection_under(rng, w, some,
                                        tilt * DEFAULT_TOL.eps_order))
        ps = np.stack(ps)
        for v in poset.contexts:
            assert (outer_daseinisation_bruteforce(ps, v)
                    == [lattice_minimum_by_loop(p, v) for p in ps])


def test_batched_oracle_breaks_ties_by_smallest_indices():
    # under a loose eps_order both blocks the vector spans dominate it on
    # their own; the lower index wins although block 1 is the closer one
    loose = DEFAULT_TOL.override(eps_order=0.9)
    v = diagonal_context(3, "V")
    psi = 0.6 * v.frame[:, 0] + 0.8 * v.frame[:, 1]
    p = np.outer(psi, psi.conj())
    assert proj_leq(p, v.block(0), loose) and proj_leq(p, v.block(1), loose)
    assert lattice_minimum_by_loop(p, v, loose) == (0,)
    assert outer_daseinisation_bruteforce(p[None], v, loose) == [(0,)]
    assert outer_daseinisation_bruteforce(p[None], v) == [(0, 1)]
    # {2} and {0, 1} dominate, no single block of 0 and 1 does: fewer
    # blocks win over smaller indices (and over the smaller bitmask)
    psi = v.frame @ np.sqrt([0.15, 0.15, 0.7])
    p = np.outer(psi, psi.conj())
    assert lattice_minimum_by_loop(p, v, loose) == (2,)
    assert outer_daseinisation_bruteforce(p[None], v, loose) == [(2,)]


def test_batched_oracle_slices_a_large_product(diag4):
    # 4,200 projections against the 16 elements of the top context take
    # two slices of the lattice; twelve at a time take one
    rng = np.random.default_rng(11)
    v = max(diag4.poset.contexts, key=lambda c: c.k)
    ps = np.stack([_projection_under(rng, v, rng.permutation(4)[:2], 0.0)
                   for _ in range(4200)])
    assert (outer_daseinisation_bruteforce(ps, v)
            == [b for lo in range(0, len(ps), 12)
                for b in outer_daseinisation_bruteforce(ps[lo:lo + 12], v)])


def test_batched_oracle_checks_its_stack():
    v = diagonal_context(3, "V")
    with pytest.raises(DimMismatch):
        outer_daseinisation_bruteforce(np.eye(3), v)
    with pytest.raises(DimMismatch):
        outer_daseinisation_bruteforce(np.eye(4)[None], v)
    bad = np.eye(3)[None].copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        outer_daseinisation_bruteforce(bad, v)


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
            q = lattice_projection(v, idx - {drop})
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
    assert sub.domain.all()
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
        ClopenSubobject.from_components(psh, comps, "bad")


def test_complete_downward_minimal(c3_gibbs):
    psh = c3_gibbs.presheaf
    poset = psh.poset
    sub = complete_downward(psh, {"Vdiag": frozenset({0})}, "C")
    assert poset.ids(sub.domain) == lower_set(poset, "Vdiag")
    # coarse stages receive exactly the restriction image
    top = poset.index_of("Vdiag")
    for cid in poset.ids(sub.domain):
        if cid != "Vdiag":
            table = poset.block_maps[poset.index_of(cid), top]
            assert sub.component(cid) == {table[0]}


def test_meet_join_are_componentwise(c3_gibbs):
    subs = c3_gibbs.subs
    m = subobject_meet(subs["S1"], subs["S12"])
    j = subobject_join(subs["S1"], subs["S2"])
    for cid in c3_gibbs.poset.ids(subs["S1"].domain):
        assert m.component(cid) == (subs["S1"].component(cid)
                                    & subs["S12"].component(cid))
        assert j.component(cid) == (subs["S1"].component(cid)
                                    | subs["S2"].component(cid))


def _restricted(sub, context_id):
    """The sub-object cut to its contexts below context_id."""
    psh = sub.presheaf
    keep = sub.domain & psh.poset.leq[:, psh.poset.index_of(context_id)]
    return ClopenSubobject(psh, sub.mask & keep[psh.owner], keep)


def _same(s, t):
    return (np.array_equal(s.mask, t.mask)
            and np.array_equal(s.domain, t.domain))


def test_meet_requires_equal_domains(c3_gibbs):
    s1 = c3_gibbs.subs["S1"]
    with pytest.raises(DomainMismatch):
        subobject_meet(s1, _restricted(s1, "Vex"))


def test_heyting_negation_laws(c3_gibbs):
    psh = c3_gibbs.presheaf
    assert _same(heyting_negation(empty_subobject(psh)), full_subobject(psh))
    assert _same(heyting_negation(full_subobject(psh)), empty_subobject(psh))
    s1 = c3_gibbs.subs["S1"]
    neg = heyting_negation(s1)
    # intuitionistic: S meet (not S) is empty, but the join may fall short
    m = subobject_meet(s1, neg)
    assert all(len(m.component(cid)) == 0 for cid in psh.poset.ids(m.domain))


def test_enumerate_subobjects_counts(c3_gibbs, monkeypatch):
    psh = c3_gibbs.presheaf
    weights = psh.weights(c3_gibbs.state.matrix)
    # with no threshold every sub-object is a member
    assert enumerate_subobjects(psh, "Vex", weights, -np.inf).shape == (
        4, psh.offsets[-1])  # single two-point stage
    every = enumerate_subobjects(psh, "Vdiag", weights, -np.inf)
    assert len(every) == len({row.tobytes() for row in every}) == 95
    # the empty component at Vex is cut, and with it one sub-object
    assert len(enumerate_subobjects(psh, "Vex", weights, 0.3)) == 3
    monkeypatch.setattr(presheaf_module, "ENUMERATION_NODE_CAP", 10)
    with pytest.raises(EnumerationTooLarge, match="nodes visited"):
        enumerate_subobjects(psh, "Vdiag", weights, -np.inf)


def test_pullback_along_flow_unitary(c3_gibbs):
    import math

    psh = c3_gibbs.presheaf
    s1, s2 = c3_gibbs.subs["S1"], c3_gibbs.subs["S2"]
    u = c3_gibbs.flow.unitary(math.pi / 2)
    # the saturated families are carried onto themselves by design, and a
    # stack is pulled back row by row
    assert np.array_equal(pullback(psh, u, s1.mask, s1.domain, s1.domain),
                          s1.mask)
    stack = np.stack([s1.mask, s2.mask, s1.mask & s2.mask])
    assert np.array_equal(pullback(psh, u, stack, s1.domain, s1.domain),
                          stack)


def test_pullback_out_of_the_domain_raises(c3_gibbs):
    # S1 lives on the orbit of the example context; the identity carries
    # Vdiag to itself, outside that domain
    psh = c3_gibbs.presheaf
    s1 = c3_gibbs.subs["S1"]
    everywhere = np.ones(len(c3_gibbs.poset), dtype=bool)
    with pytest.raises(PosetNotClosed, match="Vdiag"):
        pullback(psh, np.eye(3), s1.mask, s1.domain, everywhere)


def test_restricted_to_shrinks_domain(c3_gibbs):
    # the saturated family lives on the four-context orbit of the example
    # context, not on the whole poset; cut to the lower set of Vex, its
    # mask is still a sub-object
    poset = c3_gibbs.poset
    s1 = c3_gibbs.subs["S1"]
    assert s1.domain.sum() == 4
    assert "Vdiag" not in poset.ids(s1.domain)
    cut = _restricted(s1, "Vex")
    assert poset.ids(cut.domain) == ["Vex"]
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
              lattice_projection(v, s_map(fast.matrix, v, loose), loose)):
        assert d.rank == 1
    [brute] = outer_daseinisation_bruteforce(p[None], v, loose)
    assert brute == lattice_minimum_by_loop(p, v, loose)
    assert frozenset(brute) == s_map(fast.matrix, v, loose)
    assert sum(v.ranks[i] for i in brute) == 1


def test_presheaf_suite_flags_a_corrupted_restriction_table():
    # swapping the two targets of a 3-block -> 2-block table keeps it onto,
    # so only a per-character comparison of the chains through it sees it
    poset = build_poset([diagonal_context(4, "D4")], downward_closure=True)
    i, j = next((i, j) for i, j in poset.block_maps
                if (poset.contexts[i].k, poset.contexts[j].k) == (2, 3))
    poset.block_maps[i, j] = tuple(1 - b for b in poset.block_maps[i, j])
    scn = SimpleNamespace(poset=poset, presheaf=SpectralPresheaf(poset),
                          seed=0, dim=4, tol=DEFAULT_TOL)
    rep = Report()
    assert SUITES["presheaf"](scn, rep) is False
    row = rep.entries[0]
    assert row.location.startswith("restriction functoriality on ")
    assert row.verdict == FAIL and row.residual >= 1


def _closure(poset, assigned):
    """Reference: the assigned characters and their restrictions, table
    by table, until nothing changes."""
    comp = {i: set() for i in range(len(poset))
            if any(poset.leq[i, poset.index_of(c)] for c in assigned)}
    for cid, blocks in assigned.items():
        comp[poset.index_of(cid)] |= set(blocks)
    changed = True
    while changed:
        changed = False
        for (i, j), table in poset.block_maps.items():
            if j in comp and not {table[b] for b in comp[j]} <= comp[i]:
                comp[i] |= {table[b] for b in comp[j]}
                changed = True
    return comp


@given(seed=st.integers(0, 2**32 - 1))
def test_mask_operations_match_the_definitions(seed, diag4):
    """Closure check, Heyting negation, downward completion and pullback
    against a per-character reading of the restriction tables, on random
    sub-objects of the 14-context poset."""
    rng = np.random.default_rng(seed)
    psh, poset = diag4.presheaf, diag4.poset
    maps = poset.block_maps
    assigned = {v.id: {b for b in range(v.k) if rng.random() < 0.3}
                for v in poset.contexts if rng.random() < 0.3}
    sub = complete_downward(psh, assigned)
    comp = {poset.index_of(c): set(sub.component(c))
            for c in poset.ids(sub.domain)}
    assert comp == _closure(poset, assigned)

    # dropping one restricted image of a member breaks closure
    images = [(i, table[b]) for (i, j), table in maps.items()
              if j in comp for b in comp[j]]
    if images:
        i, c = images[int(rng.integers(len(images)))]
        mask = sub.mask.copy()
        mask[psh.offsets[i] + c] = False
        with pytest.raises(NotClosedUnderRestriction):
            ClopenSubobject(psh, mask, sub.domain)

    # no restriction of a surviving character, at W itself or below,
    # lies in S
    neg = heyting_negation(sub)
    for j in comp:
        v = poset.contexts[j]
        keep = {b for b in range(v.k) if b not in comp[j]
                and all(maps[i, j][b] not in comp[i]
                        for i in comp if (i, j) in maps)}
        assert neg.component(v.id) == keep

    assert np.array_equal(
        pullback(psh, np.eye(4), sub.mask, sub.domain, sub.domain), sub.mask)


def test_action_is_kept_per_unitary_and_domain(c3_gibbs):
    psh = c3_gibbs.presheaf
    u = c3_gibbs.flow.unitary(0.7)
    domain = c3_gibbs.subs["S1"].domain
    target, to = psh.action(u, domain)
    again = psh.action(u.copy(), domain.copy())
    assert again[0] is target and again[1] is to
    fresh = SpectralPresheaf(c3_gibbs.poset).action(u, domain)
    assert np.array_equal(target, fresh[0]) and np.array_equal(to, fresh[1])
    for a in (target, to):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    everywhere = np.ones(len(c3_gibbs.poset), dtype=bool)
    assert not np.array_equal(psh.action(u, everywhere)[1], to)


def test_check_c1_moves_each_context_once_per_t(monkeypatch):
    poset = build_poset([diagonal_context(4, "D4")], downward_closure=True)
    psh = SpectralPresheaf(poset)
    rng = np.random.default_rng(5)
    subs = [daseinisation_subobject(random_projection(rng, 4), psh, name)
            for name in ("DA", "DB")]
    h = np.diag([0.0, 1.0, 2.0, 3.0])
    calls = Counter()
    images = ContextPoset.images

    def counted(self, u, inside):
        calls[np.asarray(u).tobytes(), np.asarray(inside).tobytes()] += 1
        return images(self, u, inside)

    monkeypatch.setattr(ContextPoset, "images", counted)
    t_grid = (0.0, 0.5, 1.3)
    state, flow = gibbs_state(h, 1.0), AutomorphismFlow(h)
    reps = [check_C1(state, flow, sub, t_grid) for sub in subs]
    assert sum(rep.residuals.size for rep in reps) == (
        2 * len(t_grid) * len(poset))
    # one batched call per t for the one domain the two sub-objects share,
    # and each call moves every context of that domain once
    assert np.array_equal(subs[0].domain, subs[1].domain)
    assert len(calls) == len(t_grid)
    assert set(calls.values()) == {1}
    assert {inside for _, inside in calls} == {subs[0].domain.tobytes()}


def _check_rotated_c4(seed):
    """The batched frame paths on the downward-closed C^4 poset of a
    basis rotated by a random unitary W, against the dense oracles: the
    order against includes / block_map, the presheaf action against
    dense_image, and the daseinisation masks against the brute-force
    lattice scan."""
    rng = np.random.default_rng(seed)
    n = 4
    w = random_unitary(rng, n)
    poset = build_poset([Context([np.outer(c, c.conj()) for c in w.T], "W")],
                        downward_closure=True)
    psh = SpectralPresheaf(poset)
    contexts = poset.contexts
    assert len(contexts) == 14
    for i, small in enumerate(contexts):
        for j, large in enumerate(contexts):
            assert poset.leq[i, j] == (i == j or includes(small, large))
            if i != j and poset.leq[i, j]:
                assert poset.block_maps[i, j] == block_map(small, large)

    # a basis permutation and diagonal phases in the rotated basis map the
    # poset onto itself; a random unitary moves nearly every context off it
    perm = np.eye(n)[rng.permutation(n)]
    phases = np.diag(np.exp(2j * np.pi * rng.random(n)))
    everywhere = np.ones(len(poset), dtype=bool)
    for u in (w @ perm @ w.conj().T, w @ phases @ w.conj().T,
              random_unitary(rng, n)):
        target, to = psh.action(u, everywhere)
        for i, v in enumerate(contexts):
            t, relabel = dense_image(u, v, contexts)
            assert target[i] == (-1 if t is None else t)
            expected = ([-1] * v.k if t is None
                        else [psh.offsets[t] + b for b in relabel])
            assert to[psh.offsets[i]:psh.offsets[i + 1]].tolist() == expected

    # random projections, and lattice elements of the rotated basis
    ps = [random_projection(rng, n) for _ in range(5)]
    ps += [w @ np.diag(rng.integers(0, 2, n)) @ w.conj().T for _ in range(3)]
    masks = psh.dasein_masks(ps)
    for i, v in enumerate(contexts):
        rows = masks[:, psh.offsets[i]:psh.offsets[i + 1]]
        assert ([tuple(np.flatnonzero(r).tolist()) for r in rows]
                == outer_daseinisation_bruteforce(np.stack(ps), v))


@given(seed=st.integers(0, 2**32 - 1))
def test_batched_frame_paths_on_a_rotated_c4_poset(seed):
    _check_rotated_c4(seed)


def test_batched_frame_paths_across_slices(monkeypatch):
    # 48 entries hold three 4 x 4 products, so the 6-context bucket of C^4
    # is taken in several slices against every stack it meets
    monkeypatch.setattr(algebra, "PRODUCT_ENTRIES", 48)
    assert len(list(tiles(6, 6, 16))) > 2
    _check_rotated_c4(7)


def test_enumeration_lists_each_subobject_once(diag4):
    # with no threshold the rows are every sub-object on the lower set of
    # a three-block context, once each, in the order of the unpruned walk
    psh, poset = diag4.presheaf, diag4.poset
    top = next(v.id for v in poset.contexts if v.k == 3)
    weights = np.full(psh.offsets[-1], 0.25)
    rows = enumerate_subobjects(psh, top, weights, -np.inf)
    reference = all_subobjects(psh, top)
    assert len({row.tobytes() for row in rows}) == len(rows) == 95
    assert np.array_equal(rows, [s.mask for s in reference])
    domain = poset.leq[:, poset.index_of(top)]
    for row in rows:
        ClopenSubobject(psh, row, domain)
