"""Test-side references for truth objects, their equivalences and
measure tables.

Every clopen sub-object on a lower set is built and validated one at a
time, with no pruning, then filtered by tau; members are listed in the
order of their sorted components; pullback reads ContextIndex.images
block by block; and the weak and strong matchings compare members
one pair at a time.  The package reads the same definitions off one mask
stack per stage (kms_external.TruthObject, TwistedTruthObject,
mu_equivalent, strong_mu_equivalence).

A measure table is also kept in its dict form, (context id, character
set) -> value, validated row by row and pair by pair (check_table); the
package validates the three arrays of measure.AbstractMeasure.

The dense references that only tests read live here too: the image of
a context under a unitary read off its dense blocks, the meet of two
contexts one pair at a time, the projection meet and join, the lattice
isomorphism s_map read off dense blocks, the coarse-graining map, left
and right multiplication as n^2 x n^2 matrices, the tensor-factor
swap, the 2^k dense lattice elements of a context, the daseinisation
minimum one lattice element at a time, the functoriality count one
middle context at a time, the Tomita closed forms one matrix unit at
a time (closed_forms_by_unit), the lower-set test read off the dense
order (is_lower_set), the full and empty sub-objects, and the meet,
join and Heyting negation of sub-objects, each built and validated on
its own, with the measure axioms checked on them one pair at a time
(measure_properties_by_pair); stack_pairs lays sub-object pairs out as
the mask arrays the package's check takes.  conjugation_map checks
acceptance criterion 9 on the package's frame primitives.

The canonical form of a context is also built one block at a time, each
dense block a product of its own frame columns (canonical_by_block), and
the closure of build_poset one candidate at a time, each looked up and
appended on its own (build_poset_one_at_a_time); the package takes the
coarse-grainings of a context in chunks, canonicalised and looked up in
one batch each.

A flow acts one point at a time here: flow_apply and flow_apply_complex
conjugate one matrix at one t or z, check_C2_by_point evaluates F and
its eigenfrequency series one strip point at a time and the boundary
one t at a time (boundary_residuals_by_point), and
consistency_gap_by_point forms both dense components afresh for every
(t, V).  kms_external evaluates all the points of a check in one stacked
product (AutomorphismFlow.conjugators, correlations) and forms each
component once.
"""
import functools
import hashlib
import itertools

import numpy as np

from toposkms.algebra import (
    Context,
    ContextIndex,
    ContextPoset,
    _overlaps,
    _set_partitions,
    _unitary,
    block_map,
    contexts_equal,
)
from toposkms.errors import (
    AmbiguousMatch,
    ContextMissing,
    DimMismatch,
    DomainMismatch,
    NotAdditive,
    NotInLattice,
    PosetTooLarge,
)
from toposkms.measure import AbstractMeasure, MeasurePropertyReport, _worst
from toposkms.numerics import (
    Projection,
    as_complex_matrix,
    as_matrix,
    dagger,
    frob,
    hermitian_eig,
    proj_leq,
    vec,
)
from toposkms.presheaf import ClopenSubobject
from toposkms.tolerances import DEFAULT_TOL, TolerancePolicy


@functools.lru_cache(maxsize=64)
def all_subobjects(presheaf, top_context_id):
    """Every clopen sub-object on the lower set of a context: contexts
    from the top down, every superset of the forced restrictions.  Kept
    per (presheaf, context); the sub-objects are read-only."""
    poset = presheaf.poset
    domain = poset.leq[:, poset.index_of(top_context_id)]
    height = poset.leq[domain].sum(axis=0)
    order = sorted(np.flatnonzero(domain),
                   key=lambda i: (-height[i], poset.contexts[i].id))
    landing = {i: np.flatnonzero(presheaf.owner[presheaf.dst] == i)
               for i in order}
    mask = np.zeros(presheaf.offsets[-1], dtype=bool)
    results = []

    def rec(pos):
        if pos == len(order):
            results.append(ClopenSubobject(presheaf, mask, domain))
            return
        i = order[pos]
        lo, hi = presheaf.offsets[i:i + 2]
        edges = landing[i]
        forced = np.zeros(hi - lo, dtype=bool)
        forced[presheaf.dst[edges[mask[presheaf.src[edges]]]] - lo] = True
        free = np.flatnonzero(~forced)
        for bits in range(1 << len(free)):
            mask[lo:hi] = forced
            mask[lo + free[(bits >> np.arange(free.size)) & 1 == 1]] = True
            rec(pos + 1)
        mask[lo:hi] = False

    rec(0)
    return tuple(results)


def sorted_components(sub):
    """The components of a sub-object, context id -> sorted indices,
    in id order: the order members are listed in."""
    poset = sub.presheaf.poset
    return tuple((cid, tuple(sorted(sub.component(cid))))
                 for cid in sorted(poset.ids(sub.domain)))


def tau(sub, weights, context_id):
    poset = sub.presheaf.poset
    below = poset.leq[:, poset.index_of(context_id)]
    return float(sub.measure(weights)[below].min())


def members(state, presheaf, stage):
    """The members of T^{rho,r}_V, filtered from all sub-objects."""
    weights = presheaf.weights(state.matrix)
    subs = [s for s in all_subobjects(presheaf, stage.context_id)
            if tau(s, weights, stage.context_id) >= stage.r]
    return sorted(subs, key=sorted_components)


def pulled_back(u, subs, context_id):
    """Each sub-object on the lower set of the image of a context,
    pulled back onto the lower set of the context: the component at V
    holds block b iff the image context's component holds the block
    that U Q_b U* lies in."""
    out = []
    for s in subs:
        poset = s.presheaf.poset
        below = poset.leq[:, poset.index_of(context_id)]
        target, homes = _images(poset, u, below)
        parts = {}
        for i in np.flatnonzero(below):
            have = s.component(poset.contexts[target[i]].id)
            parts[poset.contexts[i].id] = {
                b for b, c in enumerate(homes[i, :poset.contexts[i].k])
                if c in have}
        out.append(ClopenSubobject.from_components(s.presheaf, parts))
    return sorted(out, key=sorted_components)


def lower_set(poset, context_id):
    """Ids of the contexts below a context, in index order."""
    return poset.ids(poset.leq[:, poset.index_of(context_id)])


def _images(poset, u, inside):
    """ContextIndex.images, with ContextMissing where a context of the
    mask moves off the poset."""
    target, homes = poset.index.images(u, inside)
    off = inside & (target < 0)
    if off.any():
        raise ContextMissing(
            f"{poset.contexts[off.argmax()].id} moves off the poset")
    return target, homes


def dense_image(w, v, pool, tol: TolerancePolicy = DEFAULT_TOL):
    """(index, relabel) of W V W* from the dense blocks W Q_b W*: the
    first context of the pool equal to it (contexts_equal), and for each
    block b the nearest block of that context in Frobenius distance;
    (None, None) when no context is equal, relabel None when some block
    is farther than 10 eps_order from its nearest block."""
    moved = [w @ v.block(i) @ dagger(w) for i in range(v.k)]
    candidate = Context(moved, "moved", tol)
    i = next((i for i, c in enumerate(pool)
              if contexts_equal(c, candidate, tol)), None)
    if i is None:
        return None, None
    t = pool[i]
    dists = np.array([[frob(q - t.block(j)) for j in range(t.k)]
                      for q in moved])
    relabel = dists.argmin(axis=1)
    if dists[np.arange(v.k), relabel].max() > 10 * tol.eps_order:
        return i, None
    return i, tuple(relabel.tolist())


def meet_context(v1, v2, tol: TolerancePolicy = DEFAULT_TOL):
    """Intersection algebra V1 ∧ V2, or None when it is trivial, one pair
    at a time: its blocks are the components of the block-overlap graph
    (an edge where ||Q R||_F^2 = tr(Q R) > eps_order^2), merged as labels
    on V1's frame.  ContextIndex.meets takes a whole meet pass at once."""
    if v1.dim != v2.dim:
        raise DimMismatch("contexts live in different dimensions")
    edges = meet_edges(v1, v2, tol)
    linked = edges @ edges.T  # V1 blocks that overlap a common V2 block
    group = np.arange(v1.k)
    for _ in range(v1.k):  # each block takes the least label it is linked to
        group = np.where(linked, group, v1.k).min(axis=1)
    if len(set(group.tolist())) < 2:
        return None
    return Context.on_frame(v1.frame, group[v1.labels])


def meet_edges(v1, v2, tol: TolerancePolicy = DEFAULT_TOL):
    """The (k1, k2) block-overlap graph of one pair of contexts."""
    over = _overlaps(v1.frame, v1.starts, v2.frame, v2.starts)
    return over > tol.eps_order ** 2


def twisted_members(state, presheaf, u, stage, source=members):
    """Members of the twisted truth object at a stage: the members at
    the moved stage context, pulled back."""
    poset = presheaf.poset
    i = poset.index_of(stage.context_id)
    target = _images(poset, u, np.arange(len(poset)) == i)[0][i]
    moved = type(stage)(poset.contexts[target].id, stage.r)
    return pulled_back(u, source(state, presheaf, moved), stage.context_id)


def section_gap(a, b):
    inside = ~np.isnan(a)
    if not np.array_equal(inside, ~np.isnan(b)):
        return float("inf")
    return float(np.abs(a - b)[inside].max())


def _key(sub):
    return sub.domain.tobytes(), sub.mask.tobytes()


def _restricted(sub, context_id):
    poset = sub.presheaf.poset
    keep = sub.domain & poset.leq[:, poset.index_of(context_id)]
    return ClopenSubobject(sub.presheaf, sub.mask & keep[sub.presheaf.owner],
                           keep)


def weak(state, presheaf, members_a, members_b):
    """(equivalent, max_gap, size_a, size_b) of the greedy matching."""
    eps = state.tol.eps_measure
    sizes = len(members_a), len(members_b)
    if sizes[0] != sizes[1]:
        return False, float("inf"), *sizes
    weights = presheaf.weights(state.matrix)
    secs_a = [s.measure(weights) for s in members_a]
    secs_b = [s.measure(weights) for s in members_b]
    used = [False] * len(secs_b)
    worst = 0.0
    for sa in secs_a:
        best_j, best_gap = None, None
        for j, sb in enumerate(secs_b):
            if used[j]:
                continue
            g = section_gap(sa, sb)
            if best_gap is None or g < best_gap:
                best_j, best_gap = j, g
        if best_gap is None or best_gap > eps:
            return (False, float("inf") if best_gap is None else best_gap,
                    *sizes)
        used[best_j] = True
        worst = max(worst, best_gap)
    return True, worst, *sizes


def strong(state, presheaf, by_stage_a, by_stage_b, stages):
    """(equivalent, naturality_gap) of the pairwise hit lists, or
    AmbiguousMatch; by_stage_* map each stage to its member list."""
    eps = state.tol.eps_measure
    weights = presheaf.weights(state.matrix)
    matchings = {}
    for stage in stages:
        ma, mb = by_stage_a[stage], by_stage_b[stage]
        if len(ma) != len(mb):
            return False, 0
        secs_b = [s.measure(weights) for s in mb]
        pairing, taken = [], set()
        for i, s in enumerate(ma):
            sa = s.measure(weights)
            hits = [j for j, sb in enumerate(secs_b)
                    if section_gap(sa, sb) <= eps]
            if not hits:
                return False, 0
            if len({_key(mb[j]) for j in hits}) > 1:
                raise AmbiguousMatch("ambiguous", stage=stage,
                                     candidates=[mb[j] for j in hits])
            if hits[0] in taken:
                return False, 0
            taken.add(hits[0])
            pairing.append((i, hits[0]))
        matchings[stage] = pairing
    poset = presheaf.poset
    bad = 0
    for big in stages:
        for small in stages:
            if big == small or big.r != small.r:
                continue
            if not poset.leq[poset.index_of(small.context_id),
                             poset.index_of(big.context_id)]:
                continue
            keys_a = [_key(s) for s in by_stage_a[small]]
            keys_b = [_key(s) for s in by_stage_b[small]]
            match_small = dict(matchings[small])
            for i, j in matchings[big]:
                ra = _key(_restricted(by_stage_a[big][i], small.context_id))
                rb = _key(_restricted(by_stage_b[big][j], small.context_id))
                ia = keys_a.index(ra) if ra in keys_a else None
                if (ia is None or match_small.get(ia) is None
                        or keys_b[match_small[ia]] != rb):
                    bad += 1
    return bad == 0, bad


def check_table(poset, table):
    """Validate a dict table (context id, character set) -> value in
    [0, 1], as AbstractMeasure validates its arrays: every row's context
    (ContextMissing), character indices and value range in row order,
    then the full and empty sets, then additivity over the disjoint pairs
    of one context whose union is in the table, contexts in the order of
    their first row.  Returns the table with int indices and float
    values."""
    eps = poset.tol.eps_measure
    cleaned = {}
    for (cid, subset), value in table.items():
        v = poset.context(cid)  # raises ContextMissing
        subset = frozenset(int(i) for i in subset)
        if subset and (min(subset) < 0 or max(subset) >= v.k):
            raise DimMismatch(f"character index out of range for {cid}")
        value = float(value)
        if value < -eps or value > 1 + eps:
            raise NotAdditive(f"value {value!r} outside [0, 1]")
        cleaned[(cid, subset)] = value
    for (cid, subset), value in cleaned.items():
        v = poset.context(cid)
        if len(subset) == v.k and abs(value - 1.0) > eps:
            raise NotAdditive(f"full set at {cid} has value {value!r}")
        if not subset and abs(value) > eps:
            raise NotAdditive(f"empty set at {cid} has value {value!r}")
    by_context = {}
    for (cid, subset), value in cleaned.items():
        by_context.setdefault(cid, {})[subset] = value
    for cid, rows in by_context.items():
        subsets = list(rows)
        for i, a in enumerate(subsets):
            for b in subsets[i + 1:]:
                if a & b:
                    continue
                union = a | b
                if union in rows:
                    gap = abs(rows[union] - rows[a] - rows[b])
                    if gap > 10 * eps:
                        raise NotAdditive(
                            f"additivity fails at {cid}: "
                            f"{sorted(a)} + {sorted(b)}"
                        )
    return cleaned


def table_of(presheaf, table):
    """The AbstractMeasure of a dict table, rows in the dict's order."""
    rows = [(presheaf.poset.index_of(cid), sum(1 << int(i) for i in subset),
             value) for (cid, subset), value in table.items()]
    return AbstractMeasure(presheaf, *(zip(*rows) if rows else ((), (), ())))


def dict_of(measure):
    """The dict form of an AbstractMeasure, (context id, character set)
    -> value, in row order."""
    contexts = measure.presheaf.poset.contexts
    return {(contexts[c].id,
             frozenset(i for i in range(contexts[c].k) if s >> i & 1)): v
            for c, s, v in zip(measure.contexts.tolist(),
                               measure.subsets.tolist(),
                               measure.values.tolist())}


# --------------------------------------------------------------------------
# dense references


def zero_projection(n: int) -> Projection:
    return Projection(np.zeros((n, n), dtype=np.complex128))


def proj_meet(p, q, tol: TolerancePolicy = DEFAULT_TOL) -> Projection:
    """Greatest lower bound of two projections (intersection of ranges).

    range(P) ∩ range(Q) = null((1-P) + (1-Q)); the null space is read off
    the eigendecomposition of that positive semi-definite sum.
    """
    pm, qm = as_matrix(p), as_matrix(q)
    if pm.shape != qm.shape:
        raise DimMismatch(f"projection shapes differ: {pm.shape} vs {qm.shape}")
    n = pm.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    gap = (eye - pm) + (eye - qm)
    w, u = hermitian_eig(gap, tol)
    cols = u[:, w <= tol.eps_eig]
    if cols.shape[1] == 0:
        return zero_projection(n)
    return Projection(cols @ dagger(cols), tol)


def proj_join(p, q, tol: TolerancePolicy = DEFAULT_TOL) -> Projection:
    """Least upper bound, via De Morgan: P v Q = 1 - ((1-P) ^ (1-Q))."""
    pm, qm = as_matrix(p), as_matrix(q)
    n = pm.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    comp = proj_meet(eye - pm, eye - qm, tol)
    return Projection(eye - comp.matrix, tol)


def s_map(p, v: Context, tol: TolerancePolicy = DEFAULT_TOL) -> frozenset:
    """Lattice isomorphism P(V) -> clopen subsets: indices of blocks under P.

    NotInLattice if p is not a subset sum of the blocks.
    """
    pm = as_matrix(p)
    # ||(1 - P) Q_i||_F^2 = ||(1 - P) Y_i||_F^2, summed over block i's columns
    outside = np.add.reduceat(np.linalg.norm(v.frame - pm @ v.frame, axis=0) ** 2,
                              v.starts)
    indices = frozenset(np.flatnonzero(outside <= tol.eps_order ** 2).tolist())
    gap = frob(v.block_sum(indices) - pm)
    if gap > max(tol.eps_order * max(1, v.k), tol.eps_order):
        raise NotInLattice("projection is not an element of the context lattice")
    return indices


def coarse_graining_map(v: Context, v_prime: Context,
                        tol: TolerancePolicy = DEFAULT_TOL):
    """Map block-index of V -> block-index of V' (V' <= V).
    ValueError if the contexts are not comparable."""
    out = block_map(v_prime, v, tol)
    if out is None:
        raise ValueError(f"{v_prime.id} is not a coarse-graining of {v.id}")
    return out


def pi_matrix(a, n: int) -> np.ndarray:
    """Left multiplication x -> a x as an n^2 x n^2 matrix (row-major:
    a (x) 1)."""
    return np.kron(as_complex_matrix(a), np.eye(n, dtype=np.complex128))


def right_matrix(b, n: int) -> np.ndarray:
    """Right multiplication x -> x b (row-major: 1 (x) b^T)."""
    return np.kron(np.eye(n, dtype=np.complex128), as_complex_matrix(b).T)


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    """The inverse of numerics.vec: a vector of n^2 entries as an n x n
    matrix, row-major."""
    return np.asarray(v, dtype=np.complex128).reshape(n, n)


def closed_forms_by_unit(gns, delta, m_j, m_s):
    """The Tomita closed-form residuals one matrix unit at a time: the
    largest Frobenius distance of Delta(E_ij), J(E_ij) and S(E_ij), each
    applied to vec(E_ij) as a matrix-vector product (J and S through the
    conjugate), from rho E_ij rho^(-1), E_ij* and
    rho^(-1/2) E_ij* rho^(1/2), each formed as a product of matrices."""
    n = gns.n
    rho = gns.state.matrix
    u, wr = gns._u, gns.rho_eigvals
    rho_inv = (u * (1.0 / wr)) @ dagger(u)
    rho_sqrt = gns.omega
    rho_inv_sqrt = (u * (1.0 / np.sqrt(wr))) @ dagger(u)
    cf_delta = cf_j = cf_s = 0.0
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = 1.0
            cf_delta = max(cf_delta, frob(
                unvec(delta @ vec(e), n) - rho @ e @ rho_inv))
            cf_j = max(cf_j, frob(
                unvec(m_j @ np.conj(vec(e)), n) - dagger(e)))
            cf_s = max(cf_s, frob(unvec(m_s @ np.conj(vec(e)), n)
                                  - rho_inv_sqrt @ dagger(e) @ rho_sqrt))
    return cf_delta, cf_j, cf_s


def swap_unitary(n_a: int, n_b: int) -> np.ndarray:
    """The tensor-factor swap on C^(n_a) (x) C^(n_b)."""
    w = np.zeros((n_a * n_b, n_a * n_b), dtype=np.complex128)
    for i in range(n_a):
        for j in range(n_b):
            w[j * n_a + i, i * n_b + j] = 1.0
    return w


def is_lower_set(poset, inside) -> bool:
    """True iff the contexts of a boolean mask form a lower set: every
    context below one of them is one of them."""
    return not (poset.leq[:, inside].any(axis=1) & ~inside).any()


def conjugation_map(w, poset):
    """The map V -> J V J of the antiunitary J = W conj(.) on a context
    poset, with its two readings of 'J respects coarse-graining':
    (images, order_preserving, continuous, lower_sets).  images[i] is the
    id of the poset context equal to (W conj(Y), labels), or None; the
    verdicts need every image and are None otherwise.  Continuity is for
    the lower-set topology: the preimage of every lower set, enumerated
    as masks adding contexts by increasing height, is a lower set."""
    images = [poset.find_equal(Context.on_frame(w @ v.frame.conj(), v.labels))
              for v in poset.contexts]
    if None in images:
        return images, None, None, None
    m = np.array([poset.index_of(cid) for cid in images])
    leq = poset.leq
    preserving = bool((leq <= leq[np.ix_(m, m)]).all())
    eye = np.eye(len(m), dtype=bool)
    ideals = [np.zeros(len(m), dtype=bool)]
    for i in sorted(range(len(m)), key=lambda i: int(leq[:, i].sum())):
        below = leq[:, i] & ~eye[i]
        ideals += [s | eye[i] for s in ideals if not (below & ~s).any()]
    continuous = all(is_lower_set(poset, s[m]) for s in ideals)
    return images, preserving, continuous, len(ideals)


def projection_lattice(v: Context):
    """(bits, stack): all 2^k subset sums of the blocks of the context.
    Row s of the (2^k, k) boolean subset matrix holds the bits of s, and
    stack[s] is the dense sum of the blocks Q_i with bits[s, i]."""
    bits = (np.arange(1 << v.k)[:, None] >> np.arange(v.k)) & 1 == 1
    blocks = np.stack([v.block(i) for i in range(v.k)])
    return bits, np.tensordot(bits.astype(float), blocks, axes=1)


def lattice_minimum_by_loop(p, v, tol: TolerancePolicy = DEFAULT_TOL):
    """Reference for the bucket oracle: one dense subset sum and one
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


def broken_chains_per_middle(presheaf):
    """SpectralPresheaf.broken_chains one middle context at a time: the
    edges into mid against every context below it, reduced per larger
    context."""
    ph = presheaf
    n = len(ph.poset)
    strict = ph.poset.leq & ~np.eye(n, dtype=bool)
    into = ph.owner[ph.dst]
    keys = ph.src * n + into
    order = np.argsort(keys)

    def image(x, c):
        return ph.dst[order[np.searchsorted(keys, x * n + c, sorter=order)]]

    by_mid = np.lexsort((ph.src, into))
    bounds = np.searchsorted(into[by_mid], np.arange(n + 1))
    broken = 0
    for mid in range(n):
        edges = by_mid[bounds[mid]:bounds[mid + 1]]
        above = ph.src[edges]
        below = np.flatnonzero(strict[:, mid])
        if not (above.size and below.size):
            continue
        wrong = (image(ph.dst[edges][:, None], below)
                 != image(above[:, None], below))
        # characters of one context are adjacent on the axis
        first = np.flatnonzero(np.diff(ph.owner[above], prepend=-1))
        broken += int(np.logical_or.reduceat(wrong, first, axis=0).sum())
    return int(strict.sum(axis=0) @ strict.sum(axis=1)), broken


# --------------------------------------------------------------------------
# the sub-object lattice one object at a time, and the measure axioms one
# pair at a time


def full_subobject(presheaf):
    return ClopenSubobject(presheaf, np.ones(presheaf.offsets[-1], dtype=bool),
                           np.ones(len(presheaf.poset), dtype=bool), name="Sigma")


def empty_subobject(presheaf):
    return ClopenSubobject(presheaf, np.zeros(presheaf.offsets[-1], dtype=bool),
                           np.ones(len(presheaf.poset), dtype=bool), name="0")


def stack_pairs(presheaf, pairs):
    """(masks, domains) of a list of sub-object pairs (S, T), the arrays
    (pairs, 2, characters) and (pairs, 2, contexts) that
    measure.verify_measure_properties takes."""
    pairs = list(pairs)
    masks = np.array([(s.mask, t.mask) for s, t in pairs], dtype=bool)
    domains = np.array([(s.domain, t.domain) for s, t in pairs], dtype=bool)
    return (masks.reshape(-1, 2, len(presheaf.owner)),
            domains.reshape(-1, 2, len(presheaf.poset)))


def subobject_meet(s, t):
    if not np.array_equal(s.domain, t.domain):
        raise DomainMismatch("meet needs equal domains")
    return ClopenSubobject(s.presheaf, s.mask & t.mask, s.domain,
                           name=f"({s.name}^{t.name})" if s.name or t.name else "")


def subobject_join(s, t):
    if not np.array_equal(s.domain, t.domain):
        raise DomainMismatch("join needs equal domains")
    return ClopenSubobject(s.presheaf, s.mask | t.mask, s.domain,
                           name=f"({s.name}v{t.name})" if s.name or t.name else "")


def heyting_negation(s):
    """Heyting complement: a character survives at W iff none of its
    restrictions (including at W itself) lies in the sub-object."""
    ph = s.presheaf
    hit = s.mask.copy()
    hit[ph.src[s.mask[ph.dst]]] = True
    return ClopenSubobject(ph, s.domain[ph.owner] & ~hit, s.domain,
                           name=f"(~{s.name})" if s.name else "")


def on_common_domain(a, b):
    """Both sub-objects restricted to the intersection of their domains
    (an intersection of lower sets is a lower set), None where it is
    empty."""
    common = a.domain & b.domain
    if not common.any():
        return None
    keep = common[a.presheaf.owner]
    return tuple(ClopenSubobject(s.presheaf, s.mask & keep, common,
                                 name=s.name) for s in (a, b))


def measure_properties_by_pair(state, presheaf, pairs):
    """measure.verify_measure_properties one pair at a time: the meet,
    join and Heyting negation built and validated as sub-objects, each
    measured on its own, and every residual a running maximum."""
    eps = presheaf.tol.eps_measure
    res_mono = res_mod = res_rev = res_cmeet = 0.0
    cjoin_max = 0.0
    strict = 0.0
    weights = presheaf.weights(state.matrix)
    small, large = presheaf.poset.strict_pairs.T

    res_norm = _worst(np.abs(full_subobject(presheaf).measure(weights) - 1.0),
                      0.0)
    res_empty = _worst(np.abs(empty_subobject(presheaf).measure(weights)),
                       0.0)

    n_pairs = 0
    for s, t in pairs:
        n_pairs += 1
        ms, mt, mmeet, mjoin = (x.measure(weights) for x in (
            s, t, subobject_meet(s, t), subobject_join(s, t)))
        res_mono = _worst([mmeet - ms, mmeet - mt, ms - mjoin, mt - mjoin],
                          res_mono)
        res_mod = _worst(np.abs(mjoin + mmeet - ms - mt), res_mod)
        for mu in (ms, mt, mmeet, mjoin):
            res_rev = _worst(mu[large] - mu[small], res_rev)
        neg = heyting_negation(s)
        mneg_meet = subobject_meet(s, neg).measure(weights)
        mneg_join = subobject_join(s, neg).measure(weights)
        res_cmeet = _worst(np.abs(mneg_meet), res_cmeet)
        cjoin_max = _worst(mneg_join, cjoin_max)
        strict = _worst(1.0 - mneg_join, strict)
        if (mneg_join > 1.0 + eps).any():
            res_norm = max(res_norm, cjoin_max - 1.0)

    passed = max(res_norm, res_empty, res_mono, res_mod, res_rev,
                 res_cmeet) <= eps
    return MeasurePropertyReport(
        normalization=res_norm, empty=res_empty, monotonicity=res_mono,
        modularity=res_mod, order_reversal=res_rev,
        complement_meet=res_cmeet,
        strictness_witness=strict, pairs_checked=n_pairs, passed=passed,
    )


def canonical_by_block(frame, labels, context_id=None) -> Context:
    """Context.on_frame one block at a time: block g's dense projection
    is the product of its frame columns, rounded to 6 decimals, and the
    blocks are sorted by (rank, bytes) with Python's stable sort."""
    labels = np.asarray(labels)
    groups = []
    for g in sorted(set(labels.tolist())):
        cols = np.flatnonzero(labels == g)
        q = frame[:, cols] @ dagger(frame[:, cols])
        rounded = [np.round(part, 6) + 0.0 for part in (q.real, q.imag)]
        groups.append(((cols.size, b"".join(r.tobytes() for r in rounded)),
                       cols))
    groups.sort(key=lambda group: group[0])
    v = Context.__new__(Context)
    v.frame = frame[:, np.concatenate([cols for _, cols in groups])]
    v.frame.flags.writeable = False
    v.ranks = tuple(rank for (rank, _), _ in groups)
    v.labels = np.repeat(np.arange(len(groups)), v.ranks)
    v.starts = np.flatnonzero(np.diff(v.labels, prepend=-1))
    v.dim = frame.shape[0]
    h = hashlib.sha1()
    h.update(f"{v.dim}:{len(groups)}".encode())
    for (rank, rounded), _ in groups:
        h.update(str(rank).encode())
        h.update(rounded)
    v.fingerprint = h.hexdigest()
    v.id = context_id if context_id is not None else "V" + v.fingerprint[:10]
    return v


def build_poset_one_at_a_time(seeds, *, downward_closure=False,
                              meet_closure=False, unitaries=(),
                              group_depth=1, max_contexts=500,
                              tol: TolerancePolicy = DEFAULT_TOL):
    """build_poset with every candidate canonicalised by canonical_by_block
    and looked up and appended on its own: the downward closure takes one
    coarse-graining at a time, in _set_partitions order."""
    index = ContextIndex(tol)
    contexts = index.contexts

    def add(candidate) -> bool:
        found, match = index.lookup(candidate)
        if found is not None:
            return False
        if len(contexts) >= max_contexts:
            raise PosetTooLarge(
                f"poset exceeded max_contexts={max_contexts} during closure")
        index.append(candidate, match)
        return True

    for s in seeds:
        add(s)
    cursor, closed, paired = 0, set(), 0
    for phase in list(unitaries) or [()]:
        changed, sweeps = True, 0
        while changed:
            changed = False
            sweeps += 1
            if downward_closure:
                end = len(contexts)
                for idx in range(cursor, end):
                    if idx in closed:
                        continue
                    before, v = len(contexts), contexts[idx]
                    for rgs in _set_partitions(v.k):
                        if max(rgs) + 1 not in (1, v.k):
                            add(canonical_by_block(
                                v.frame, np.array(rgs)[v.labels]))
                    closed.update(range(before, len(contexts)))
                    changed = changed or len(contexts) > before
                cursor = end
            if meet_closure:
                meets = index.meets(paired)
                paired = len(contexts)
                for i, _, labels in meets:
                    if add(canonical_by_block(contexts[i].frame, labels)):
                        changed = True
            if phase and sweeps <= group_depth:
                snapshot = list(contexts)
                for v, u in itertools.product(snapshot, phase):
                    if add(canonical_by_block(_unitary(u, tol) @ v.frame,
                                              v.labels)):
                        changed = True
            if phase and sweeps >= group_depth \
                    and not downward_closure and not meet_closure:
                break
    return ContextPoset(index, tol)


def flow_apply(flow, t, a):
    """alpha_t(a) = U_t a U_t* at one real t."""
    u = flow.unitary(t)
    return u @ as_complex_matrix(a) @ dagger(u)


def flow_apply_complex(flow, z, a):
    """The entire continuation at one complex z: exp(izH) a exp(-izH),
    each factor formed on its own in the eigenbasis of the generator."""
    u = flow._eigvecs
    left = (u * np.exp(1j * complex(z) * flow._eigvals)) @ dagger(u)
    right = (u * np.exp(-1j * complex(z) * flow._eigvals)) @ dagger(u)
    return left @ as_complex_matrix(a) @ right


def f_by_point(state, flow, ps, pt, z) -> complex:
    """F(z) = tr(rho P_T alpha_z(P_S)) at one z."""
    return complex(np.trace(state.matrix @ pt
                            @ flow_apply_complex(flow, z, ps)))


def boundary_residuals_by_point(state, flow, ps, pt, t_samples) -> list:
    """|F(t + i beta) - tr(rho alpha_t(P_S) P_T)| one real t at a time."""
    rho = state.matrix
    return [abs(f_by_point(state, flow, ps, pt, float(t) + 1j * flow.beta)
                - complex(np.trace(rho @ flow_apply(flow, t, ps) @ pt)))
            for t in t_samples]


def series_by_point(coeffs, freqs, z) -> complex:
    """The eigenfrequency series sum_kl c_kl exp(i z (lam_k - lam_l)) at
    one z."""
    return complex(np.sum(coeffs * np.exp(1j * complex(z) * freqs)))


def check_C2_by_point(state, flow, sub_s, sub_t, context_id, t_samples):
    """kms_external.check_C2 with F and its series evaluated one point
    at a time, the boundary one t at a time."""
    from toposkms.errors import NotFaithful
    from toposkms.kms_external import (
        C2_STRIP_POINTS,
        C2Report,
        _eigenseries_coefficients,
    )

    if not state.is_faithful():
        raise NotFaithful("boundary comparison requires a faithful state")
    v = sub_s.presheaf.poset.context(context_id)
    ps = v.block_sum(sub_s.component(context_id))
    pt = v.block_sum(sub_t.component(context_id))
    boundary = boundary_residuals_by_point(state, flow, ps, pt, t_samples)
    beta = flow.beta
    freqs, coeffs = _eigenseries_coefficients(state, flow, ps, pt)
    ts = [float(t) for t in t_samples] or [0.0]
    t_lo, t_hi = min(ts), max(ts)
    if t_hi - t_lo < 1e-12:
        t_lo, t_hi = t_lo - 1.0, t_hi + 1.0
    gap = 0.0
    half = C2_STRIP_POINTS // 2
    for i in range(C2_STRIP_POINTS):
        if i < half:
            frac = i / max(half - 1, 1)
            z = complex(t_lo + (t_hi - t_lo) * frac, beta * frac)
        else:
            frac = (i - half) / max(C2_STRIP_POINTS - half - 1, 1)
            z = complex(t_lo + (t_hi - t_lo) * frac, beta / 2.0)
        gap = max(gap, abs(f_by_point(state, flow, ps, pt, z)
                           - series_by_point(coeffs, freqs, z)))
    return C2Report(context_id=context_id, beta=beta,
                    convention=flow.convention,
                    max_boundary_residual=max(boundary, default=0.0),
                    max_strip_gap=gap,
                    f_at_zero=f_by_point(state, flow, ps, pt, 0.0))


def consistency_gap_by_point(state, flow, sub, t_grid) -> float:
    """The C1 consistency gap one (t, V) at a time: where the moved
    context is read off the poset, the Frobenius distance between its
    dense component and U_t P_{S_V} U_t*, both formed afresh."""
    ph = sub.presheaf
    poset = ph.poset
    unitaries = [flow.unitary(t) for t in t_grid]
    _, _, on_poset = sub.orbit(state.matrix, unitaries)

    def dense(j):
        return poset.contexts[j].block_sum(
            sub.component(poset.contexts[j].id))

    gap = 0.0
    inside = np.flatnonzero(sub.domain)
    for u, hits in zip(unitaries, on_poset & sub.flow_equivariant):
        target = ph.action(u, sub.domain)[0]
        for i in inside[hits]:
            gap = max(gap, frob(dense(target[i]) - u @ dense(i) @ dagger(u)))
    return gap
