"""Test-side references for truth objects, their equivalences and
measure tables.

Every clopen sub-object on a lower set is built and validated one at a
time, with no pruning, then filtered by tau; members are listed in the
order of their sorted components; pullback reads ContextPoset.images
block by block; and the weak and strong matchings compare members
one pair at a time.  The package reads the same definitions off one mask
stack per stage (kms_external.TruthObject, TwistedTruthObject,
mu_equivalent, strong_mu_equivalence).

A measure table is also kept in its dict form, (context id, character
set) -> value, validated row by row and pair by pair (check_table); the
package validates the three arrays of measure.AbstractMeasure.

The dense references that only tests read live here too: the image of
a context under a unitary read off its dense blocks, the
projection meet and join, the lattice isomorphism s_map read off dense
blocks, the coarse-graining map, left and right multiplication as
n^2 x n^2 matrices, and the tensor-factor swap.  conjugation_map checks
acceptance criterion 9 on the package's frame primitives.
"""
import functools

import numpy as np

from toposkms.algebra import Context, block_map, contexts_equal
from toposkms.errors import (
    AmbiguousMatch,
    ContextMissing,
    DimMismatch,
    NotAdditive,
    NotInLattice,
)
from toposkms.measure import AbstractMeasure
from toposkms.numerics import (
    Projection,
    as_complex_matrix,
    as_matrix,
    dagger,
    frob,
    hermitian_eig,
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
    """ContextPoset.images, with ContextMissing where a context of the
    mask moves off the poset."""
    target, homes = poset.images(u, inside)
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


def swap_unitary(n_a: int, n_b: int) -> np.ndarray:
    """The tensor-factor swap on C^(n_a) (x) C^(n_b)."""
    w = np.zeros((n_a * n_b, n_a * n_b), dtype=np.complex128)
    for i in range(n_a):
        for j in range(n_b):
            w[j * n_a + i, i * n_b + j] = 1.0
    return w


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
    continuous = all(poset.is_lower_set(s[m]) for s in ideals)
    return images, preserving, continuous, len(ideals)
