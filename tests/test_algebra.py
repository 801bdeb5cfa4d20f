"""Contexts, the poset of abelian subalgebras, and its closure operations."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toposkms import index as context_index
from toposkms.algebra import (
    Context,
    ContextIndex,
    ContextPoset,
    apply_automorphism,
    build_poset,
    context_from_operators,
    contexts_equal,
    includes,
    lattice_projection,
)
from toposkms.errors import (
    ContextMissing,
    DimMismatch,
    DomainMismatch,
    NotInAlgebra,
    NotUnitary,
    PosetTooLarge,
    TrivialAlgebra,
)
from toposkms.kms_external import AutomorphismFlow
from toposkms.numerics import frob
from toposkms.presheaf import SpectralPresheaf, check_masks
from toposkms.scenario import load_scenario
from toposkms.tolerances import DEFAULT_TOL

from conftest import P12SYM, diagonal_context, random_unitary
from oracles import (
    coarse_graining_map,
    dense_image,
    lower_set,
    meet_context,
    projection_lattice,
)


def test_blocks_must_partition_identity():
    with pytest.raises(NotInAlgebra):
        Context([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])])
    with pytest.raises(NotInAlgebra):
        Context([np.diag([1.0, 1, 0]), np.diag([0, 1.0, 1])])


def test_trivial_algebra_is_excluded():
    with pytest.raises(TrivialAlgebra):
        Context([np.eye(3)])


def test_blocks_sort_rank_first():
    # the example context lists its rank-one block before the rank-two one
    vex = context_from_operators([P12SYM], "Vex")
    assert vex.k == 2
    ranks = [int(round(np.trace(vex.block(i)).real)) for i in range(vex.k)]
    assert ranks == [1, 2]
    assert frob(vex.block(0) - P12SYM) < 1e-12


def test_block_order_is_input_independent():
    a = Context([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1])], "A")
    b = Context([np.diag([0, 1.0, 1]), np.diag([1.0, 0, 0])], "B")
    assert contexts_equal(a, b)
    assert a.signature() == b.signature()
    for i in range(a.k):
        assert np.array_equal(a.block(i), b.block(i))


def test_context_from_operators_recovers_eigenblocks():
    v = context_from_operators([np.diag([3.0, 3.0, 7.0])], "V")
    assert v.k == 2
    w = diagonal_context(3, "W")
    assert includes(v, w)  # the coarse context sits inside the fine one
    assert not includes(w, v)


def test_meet_of_incomparable_contexts():
    vdiag = diagonal_context(3, "Vdiag")
    vex = context_from_operators([P12SYM], "Vex")
    # common subalgebra is the scalars only, which is not a context
    assert meet_context(vdiag, vex) is None
    two = Context([np.diag([1.0, 1, 0]), np.diag([0, 0, 1.0])], "T")
    m = meet_context(vdiag, two)
    assert m is not None and contexts_equal(m, two)


def test_projection_lattice_size():
    v = diagonal_context(3, "V")
    bits, stack = projection_lattice(v)
    assert bits.shape == (2 ** 3, 3) and stack.shape == (2 ** 3, 3, 3)
    for row, m in zip(bits, stack):
        assert frob(m - v.block_sum(np.flatnonzero(row))) < 1e-12
    assert not bits[0].any() and bits[-1].all()


def test_lattice_projection_sums_blocks():
    v = diagonal_context(3, "V")
    p = lattice_projection(v, {0, 2})
    expected = v.block(0) + v.block(2)
    assert frob(p.matrix - expected) < 1e-12


def test_coarse_graining_map_is_surjective():
    vdiag = diagonal_context(3, "Vdiag")
    coarse = Context([np.diag([1.0, 1, 0]), np.diag([0, 0, 1.0])], "C")
    mapping = coarse_graining_map(vdiag, coarse)
    assert len(mapping) == 3  # one target block per fine block
    assert set(mapping) == {0, 1}
    # the fine block below the rank-one coarse block maps alone
    counts = [mapping.count(j) for j in (0, 1)]
    assert sorted(counts) == [1, 2]


def test_apply_automorphism_preserves_structure():
    flow = AutomorphismFlow(np.diag([0.0, 1.0, 2.0]))
    vex = context_from_operators([P12SYM], "Vex")
    moved = apply_automorphism(flow.unitary(0.7), vex)
    assert moved.k == vex.k
    ranks = [int(round(np.trace(moved.block(i)).real)) for i in range(moved.k)]
    assert ranks == [1, 2]
    assert not contexts_equal(moved, vex)
    # t = 2*pi returns to the start for integer spectrum
    back = apply_automorphism(flow.unitary(2 * math.pi), vex)
    assert contexts_equal(back, vex)


def test_unitarity_is_checked_against_the_policy():
    # ||U* U - 1||_F is about 2e-9: refused at the default eps_herm of
    # 1e-10, accepted at 1e-8, wherever a context is moved
    u = np.diag([1.0 + 1e-9, 1.0, 1.0])
    loose = DEFAULT_TOL.override(eps_herm=1e-8)
    vex = context_from_operators([P12SYM], "Vex")
    with pytest.raises(NotUnitary):
        apply_automorphism(u, vex)
    assert contexts_equal(apply_automorphism(u, vex, tol=loose), vex)
    with pytest.raises(NotUnitary):
        build_poset([vex]).index.images(u, [True])
    assert build_poset([vex], tol=loose).index.images(u, [True])[0][0] == 0
    with pytest.raises(NotUnitary):
        build_poset([vex], unitaries=[[u]], group_depth=1)
    poset = build_poset([vex], unitaries=[[u]], group_depth=1, tol=loose)
    assert [v.id for v in poset.contexts] == ["Vex"]


def test_c3_poset_closure_shape(c3_gibbs):
    poset = c3_gibbs.poset
    ids = sorted(c.id for c in poset.contexts)
    assert len(ids) == 8
    assert {"Vdiag", "Vex"} <= set(ids)
    # maximal elements: the diagonal context plus the four orbit images
    assert len(poset.maximal_ids()) == 5
    # three proper coarse-grainings sit below the diagonal context
    below_diag = [cid for cid in lower_set(poset, "Vdiag") if cid != "Vdiag"]
    assert len(below_diag) == 3
    # the example context has no proper subcontexts
    assert lower_set(poset, "Vex") == ["Vex"]


def _is_lower_set(presheaf, inside) -> bool:
    """The lower-set test of check_masks, on the empty mask."""
    try:
        check_masks(presheaf, np.zeros(len(presheaf.owner), dtype=bool),
                    inside)
    except DomainMismatch as exc:
        assert str(exc) == "sub-object domain is not a lower set"
        return False
    return True


def test_lower_sets_are_downward_closed(c3_gibbs):
    poset = c3_gibbs.poset
    ids = [v.id for v in poset.contexts]
    for v in poset.contexts:
        assert _is_lower_set(c3_gibbs.presheaf,
                             np.isin(ids, lower_set(poset, v.id)))


def test_lower_set_test_matches_the_dense_formula(scenario_dir):
    # seeded random masks, and lower sets with one context added or
    # removed, over the corpus posets and the diagonal C^5 poset
    posets = [load_scenario(path).poset
              for path in sorted(scenario_dir.glob("*.json"))]
    posets.append(build_poset([diagonal_context(5, "D5")],
                              downward_closure=True))
    rng = np.random.default_rng(5)
    verdicts = set()
    for poset in posets:
        psh = SpectralPresheaf(poset)
        n = len(poset)
        masks = [rng.random(n) < p for p in (0.1, 0.5, 0.9) for _ in range(20)]
        for _ in range(20):
            lower = poset.leq[:, rng.random(n) < 0.3].any(axis=1)
            flipped = lower.copy()
            flipped[rng.integers(n)] ^= True
            masks += [lower, flipped]
        for inside in masks:
            dense = not (poset.leq[:, inside].any(axis=1) & ~inside).any()
            assert _is_lower_set(psh, inside) == dense
            verdicts.add(dense)
    assert verdicts == {True, False}


def test_poset_order_axioms(diag4):
    poset = diag4.poset
    n = len(poset.contexts)
    assert n == 14  # partitions of a 4-set into >= 2 parts
    leq = poset.leq
    for i in range(n):
        assert leq[i, i]
        for j in range(n):
            if leq[i, j] and leq[j, i]:
                assert i == j
            for k in range(n):
                if leq[i, j] and leq[j, k]:
                    assert leq[i, k]


def test_poset_context_lookup(c3_gibbs):
    poset = c3_gibbs.poset
    assert poset.context("Vex").k == 2
    with pytest.raises(ContextMissing):
        poset.context("no-such-context")
    with pytest.raises(ContextMissing):
        poset.index_of("no-such-context")


def test_find_equal_matches_up_to_tolerance(c3_gibbs):
    poset = c3_gibbs.poset
    vex2 = context_from_operators([P12SYM + 1e-13], "renamed")
    assert poset.find_equal(vex2) == "Vex"
    p13 = np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.5]])
    absent = context_from_operators([p13], "absent")
    assert poset.find_equal(absent) is None
    # Vex with its rank-one block tilted towards e3, so both blocks move by
    # d in Frobenius norm; far below the 6-decimal fingerprint rounding, so
    # the fingerprint cannot tell 5 eps_order from 0.5 eps_order
    eps = poset.tol.eps_order
    for d, want in ((5 * eps, None), (0.5 * eps, "Vex")):
        s = d / math.sqrt(2)
        c = math.sqrt((1 - s * s) / 2)
        p = np.outer([c, c, s], [c, c, s])
        moved = Context([p, np.eye(3) - p], "moved")
        assert moved.fingerprint == poset.context("Vex").fingerprint
        assert poset.find_equal(moved) == want, d


def test_poset_size_cap():
    with pytest.raises(PosetTooLarge):
        build_poset([diagonal_context(4, "D4")], downward_closure=True,
                    max_contexts=5)


def test_group_closure_adds_orbit_images():
    flow = AutomorphismFlow(np.diag([0.0, 1.0, 2.0]))
    unitaries = [flow.unitary(t) for t in (math.pi / 2, math.pi,
                                           3 * math.pi / 2, 2 * math.pi)]
    vex = context_from_operators([P12SYM], "Vex")
    poset = build_poset([vex], unitaries=[unitaries], group_depth=1)
    assert len(poset.contexts) == 4  # t = 0 and t = 2*pi coincide


def test_closure_phases_run_in_turn(c3_gibbs):
    # the second phase starts on the closed result of the first, so one
    # phased call lists the contexts of two chained calls in their order
    group = [u for t, u in c3_gibbs.group.real_unitaries() if t != 0.0]
    grid = [c3_gibbs.flow.unitary(t) for t in (-1.0, 1.0)]
    seeds = [c3_gibbs.vdiag, c3_gibbs.vex]
    flags = dict(downward_closure=True, meet_closure=True, group_depth=1)
    first = build_poset(seeds, unitaries=[group], **flags)
    chained = build_poset(list(first.contexts), unitaries=[grid], **flags)
    phased = build_poset(seeds, unitaries=[group, grid], **flags)
    assert len(chained) > len(first)
    assert ([v.id for v in phased.contexts]
            == [v.id for v in chained.contexts])
    assert np.array_equal(phased.leq, chained.leq)


@given(seed=st.integers(0, 2**31 - 1))
def test_random_two_block_contexts_compare_consistently(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    p = q[:, :1] @ q[:, :1].conj().T
    v = context_from_operators([p], "V")
    w = diagonal_context(3, "W")
    # a random rank-one context is almost surely incomparable with the
    # diagonal one, but both relations can never hold simultaneously
    assert not (includes(w, v) and includes(v, w))
    assert contexts_equal(v, v)


def _rotated_partition(u, groups, context_id, tol):
    """Context whose blocks are U diag(1_g) U* for the index groups g."""
    n = u.shape[0]
    blocks = []
    for g in groups:
        cols = u[:, sorted(g)]
        blocks.append(cols @ cols.conj().T)
    return Context(blocks, context_id, tol)


def _nudged(v, rng, distance, context_id, tol):
    """Copy of v rotated by exp(i s K), s chosen so that the largest block
    moves by `distance` in Frobenius norm (first order in s)."""
    k = rng.normal(size=(v.dim, v.dim)) + 1j * rng.normal(size=(v.dim, v.dim))
    w, vecs = np.linalg.eigh((k + k.conj().T) / 2)

    def moved(s):
        u = (vecs * np.exp(1j * s * w)) @ vecs.conj().T
        return [u @ v.block(i) @ u.conj().T for i in range(v.k)]

    unit = max(frob(m - v.block(i)) for i, m in enumerate(moved(1e-4))) / 1e-4
    return Context(moved(distance / unit), context_id, tol)


def _block_swap(u, groups, rng):
    """U P U* for a column permutation P that sends each group of
    `groups` onto a group of the same size: it maps the rotated partition
    onto itself and permutes its blocks."""
    by_size = {}
    for g in groups:
        by_size.setdefault(len(g), []).append(sorted(g))
    p = np.zeros((u.shape[0], u.shape[0]))
    for same in by_size.values():
        for src, j in zip(same, rng.permutation(len(same))):
            p[same[j], src] = 1.0
    return u @ p @ u.conj().T


@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       eps_order=st.sampled_from([DEFAULT_TOL.eps_order, 1e-3]))
def test_filtered_order_matches_all_pairs_includes(n, seed, eps_order):
    """The frame path against the dense oracles.  leq, block_maps and the
    restriction tables equal all-pairs includes / coarse_graining_map;
    lookup equals a linear contexts_equal scan; images equals that scan on
    the dense U Q_i U* plus the nearest dense block.  The contexts are
    rotated partitions, their coarse-grainings, a boundary-built image,
    and copies moved by 0.5, 1.2 and 5 eps_order (1.2 eps_order is within
    the order's bound on off-home mass, eps_order^2, but not within
    equality's, eps_order^2 / 2)."""
    tol = DEFAULT_TOL.override(eps_order=eps_order)
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    labels = rng.integers(0, n, size=n)
    labels[:2] = [0, 1]  # at least two blocks
    fine = [set(np.flatnonzero(labels == c)) for c in np.unique(labels)]
    contexts = [_rotated_partition(u, fine, "F", tol)]
    for c in range(3):
        merge = rng.integers(0, 2, size=len(fine))
        merge[:2] = [0, 1]
        coarse = [set().union(*(f for f, m in zip(fine, merge) if m == side))
                  for side in (0, 1)]
        contexts.append(_rotated_partition(u, coarse, f"C{c}", tol))
    other = random_unitary(rng, n)
    contexts.append(_rotated_partition(other, fine, "G", tol))
    for tag, factor in (("half", 0.5), ("over", 1.2), ("five", 5.0)):
        base = contexts[int(rng.integers(0, len(contexts)))]
        contexts.append(_nudged(base, rng, factor * eps_order,
                                f"{base.id}-{tag}-copy", tol))
        contexts.append(_nudged(contexts[0], rng, factor * eps_order,
                                f"F-{tag}", tol))
    rot = random_unitary(rng, n)
    f = contexts[0]
    contexts.append(Context([rot @ f.block(i) @ rot.conj().T
                             for i in range(f.k)], "rotF", tol))

    poset = ContextPoset(contexts, tol)
    m = len(contexts)
    expected = np.array([[includes(a, b, tol) for b in contexts]
                         for a in contexts])
    assert np.array_equal(poset.leq, expected | np.eye(m, dtype=bool))
    strict = {(i, j) for i in range(m) for j in range(m)
              if i != j and expected[i, j]}
    assert set(poset.block_maps) == strict
    assert [tuple(p) for p in poset.strict_pairs.tolist()] == sorted(strict)
    presheaf = SpectralPresheaf(poset)
    edges = set()
    for i, j in strict:
        table = coarse_graining_map(contexts[j], contexts[i], tol)
        assert poset.block_maps[i, j] == table
        edges |= {(int(presheaf.offsets[j]) + b, int(presheaf.offsets[i]) + home)
                  for b, home in enumerate(table)}
    assert set(zip(presheaf.src.tolist(), presheaf.dst.tolist())) == edges
    assert len(presheaf.src) == len(edges)

    def linear(pool, candidate):
        return next((i for i, v in enumerate(pool)
                     if contexts_equal(v, candidate, tol)), None)

    candidates = contexts + [_nudged(v, rng, 0.5 * eps_order, f"probe{i}", tol)
                             for i, v in enumerate(contexts[:3])]
    index = ContextIndex(tol, contexts)
    for c in candidates:
        i = linear(contexts, c)
        assert index.lookup(c)[0] == i
        assert poset.find_equal(c) == (None if i is None else contexts[i].id)
    # build_poset's add keeps the first of each equal run, as a scan would
    kept = []
    for c in candidates:
        if linear(kept, c) is None:
            kept.append(c)
    built = build_poset(candidates, tol=tol)
    assert [v.id for v in built.contexts] == [v.id for v in kept]

    for w in (_block_swap(u, fine, rng), rot):
        target, homes = poset.index.images(w, np.ones(m, dtype=bool))
        for i, v in enumerate(contexts):
            batched = (None, None) if target[i] < 0 else (
                int(target[i]), tuple(homes[i, :v.k].tolist()))
            assert batched == dense_image(w, v, contexts, tol), v.id

    # a meet merges labels along the overlap graph: F and a
    # coarse-graining of F meet in the coarse-graining
    for c in contexts[1:4]:
        assert contexts_equal(meet_context(f, c, tol), c, tol)
        assert contexts_equal(meet_context(c, f, tol), c, tol)
    # downward closure merges labels on F's frame: Bell(k) - 1 contexts,
    # the coarse contexts among them, ordered as includes orders them
    closed = build_poset([f], downward_closure=True, tol=tol)
    bell = [1, 1, 2, 5, 15]
    assert len(closed) == bell[f.k] - 1
    assert all(closed.find_equal(c) is not None for c in contexts[1:4])
    assert np.array_equal(closed.leq, [[includes(a, b, tol) for b in closed.contexts]
                                       for a in closed.contexts])


@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       eps_order=st.sampled_from([DEFAULT_TOL.eps_order, 1e-3]),
       entries=st.sampled_from([context_index.PRODUCT_ENTRIES, 48]))
def test_table_prefilter_keeps_every_frame_test_pair(n, seed, eps_order,
                                                      entries):
    """Blocks within 0.5, 1.2, 2 and 5 eps_order of one another: copies of
    a rotated partition and of its coarse-grainings.  The table keeps a
    moved block against several of them (at eps_order 1e-3 they have ids
    of their own; at 1e-8 they share ids), and the frame test picks the
    first.  lookup equals the linear contexts_equal scan, images equals
    dense_image, and leq and block_maps equal all-pairs includes and
    coarse_graining_map, whether the index is built by build_poset or
    from a list, and with the products cut into slices of 48 entries."""
    tol = DEFAULT_TOL.override(eps_order=eps_order)
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    fine = [{i} for i in range(n)]
    base = [_rotated_partition(u, fine, "F", tol)]
    if n > 2:
        base.append(_rotated_partition(u, [{0}, set(range(1, n))], "C", tol))
    contexts = list(base)
    for v in base:
        for factor in (0.5, 1.2, 2.0, 5.0):
            contexts.append(_nudged(v, rng, factor * eps_order,
                                    f"{v.id}{factor}", tol))
    order = rng.permutation(len(contexts))
    contexts = [contexts[i] for i in order]
    swap = _block_swap(u, fine, rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(context_index, "PRODUCT_ENTRIES", entries)
        for poset in (ContextPoset(contexts, tol),
                      build_poset(contexts, tol=tol)):
            pool = poset.contexts
            m = len(pool)
            expected = np.array([[includes(a, b, tol) for b in pool]
                                 for a in pool]) | np.eye(m, dtype=bool)
            assert np.array_equal(poset.leq, expected)
            assert poset.block_maps == {
                (i, j): coarse_graining_map(pool[j], pool[i], tol)
                for i, j in zip(*np.nonzero(expected & ~np.eye(m, dtype=bool)))}
            for c in contexts:
                assert poset.index.lookup(c)[0] == next(
                    (i for i, v in enumerate(pool)
                     if contexts_equal(v, c, tol)), None)
            for w in (swap, u @ swap @ u.conj().T, random_unitary(rng, n)):
                target, homes = poset.index.images(w, np.ones(m, dtype=bool))
                for i, v in enumerate(pool):
                    got = (None, None) if target[i] < 0 else (
                        int(target[i]), tuple(homes[i, :v.k].tolist()))
                    assert got == dense_image(w, v, pool, tol), v.id
            if eps_order == 1e-3:
                every = np.arange(len(poset.index.ranks))
                assert poset.index._moves(swap, every)[1]


def _table_state(index):
    """What an index holds: its context count, table and keys."""
    return (len(index.contexts), index.ranks.tolist(), index.rows.tobytes(),
            {key: list(found) for key, found in index.keys.items()})


def test_mixed_dimensions_fail_closed(monkeypatch):
    """An index holds one dimension, fixed by its first context: a context
    on C^4 after one on C^3 raises DimMismatch at its lookup or append,
    and the index still holds the C^3 context alone."""
    v3, v4 = diagonal_context(3, "V3"), diagonal_context(4, "V4")
    alone = _table_state(ContextIndex(DEFAULT_TOL, [v3]))
    seen = []
    match = ContextIndex._match

    def recorded(self, v, rows=None):
        seen.append(self)
        return match(self, v, rows)

    monkeypatch.setattr(ContextIndex, "_match", recorded)
    for build in (lambda: build_poset([v3, v4]),
                  lambda: build_poset([v3, v4], meet_closure=True),
                  lambda: ContextPoset([v3, v4]),
                  lambda: ContextIndex(DEFAULT_TOL, [v3, v4])):
        seen.clear()
        with pytest.raises(DimMismatch):
            build()
        assert len({id(index) for index in seen}) == 1
        assert _table_state(seen[0]) == alone
    index = ContextIndex(DEFAULT_TOL, [v3])
    assert index.dim == 3
    for step in (index.lookup, index.append):
        with pytest.raises(DimMismatch):
            step(v4)
        assert _table_state(index) == alone
    with pytest.raises(DimMismatch):
        ContextPoset([v3]).find_equal(v4)


@pytest.fixture(scope="module")
def table_posets(scenario_dir):
    """The corpus posets, the diagonal C^4 and C^5 posets and the C^4
    poset of a rotated basis."""
    w = random_unitary(np.random.default_rng(7), 4)
    return ([load_scenario(path).poset
             for path in sorted(scenario_dir.glob("*.json"))]
            + [build_poset([seed], downward_closure=True) for seed in (
                diagonal_context(4, "D4"), diagonal_context(5, "D5"),
                Context([np.outer(c, c.conj()) for c in w.T], "W"))])


def test_a_table_id_is_its_row(table_posets):
    """Table id t is row t of ranks and rows, ids first occur in
    increasing order, and appending the contexts again, with and without
    a lookup's match, gives the same ids and the same table bytes."""
    for poset in table_posets:
        index = poset.index
        assert len(index.ranks) == len(index.rows)
        assert index.rows.shape[1:] == (index.dim ** 2,)
        for v, ids in zip(index.contexts, index.block_ids):
            assert v.dim == index.dim
            assert [index.ranks[t] for t in ids] == list(v.ranks)
        firsts = list(dict.fromkeys(itertools.chain(*index.block_ids)))
        assert firsts == list(range(len(index.ranks)))
        matched = ContextIndex(poset.tol)
        for v in poset.contexts:
            matched.append(v, matched.lookup(v)[1])
        for again in (ContextIndex(poset.tol, poset.contexts), matched):
            assert again.block_ids == index.block_ids
            assert np.array_equal(again.ranks, index.ranks)
            assert again.rows.tobytes() == index.rows.tobytes()


def test_an_empty_index_holds_nothing():
    """An empty poset has no pairs and no characters; the first lookup on
    a fresh index finds nothing and its match appends the context."""
    empty = ContextPoset([])
    assert empty.strict_pairs.shape == (0, 2)
    assert SpectralPresheaf(empty).offsets.tolist() == [0]
    index = ContextIndex()
    v = diagonal_context(3, "V3")
    found, match = index.lookup(v)
    assert found is None
    assert match[1].shape == (3, 0)
    assert index.append(v, match) == 0
    assert (index.dim, index.ranks.tolist()) == (3, [1, 1, 1])
    assert index.lookup(v)[0] == 0


def _supports(v):
    """Diagonal support of each block; the entries are exactly 0 or 1."""
    return [frozenset(np.flatnonzero(np.diag(v.block(i)) != 0).tolist())
            for i in range(v.k)]


@pytest.mark.parametrize("n, count", [(4, 14), (5, 51)])
def test_diagonal_poset_is_set_partition_refinement(n, count):
    """Downward-closed diagonal C^n: Bell(n) - 1 contexts, ordered exactly
    by refinement of the blocks' supports."""
    poset = build_poset([diagonal_context(n, "D")], downward_closure=True)
    assert len(poset) == count
    parts = [_supports(v) for v in poset.contexts]
    for p in parts:
        assert sorted(x for block in p for x in block) == list(range(n))
    for i, coarse in enumerate(parts):
        for j, fine in enumerate(parts):
            homes = [[c for c, big in enumerate(coarse) if small <= big]
                     for small in fine]
            refines = all(len(h) == 1 for h in homes)
            assert poset.leq[i, j] == refines
            if refines and i != j:
                assert poset.block_maps[i, j] == tuple(h[0] for h in homes)
