"""Abelian von Neumann sub-algebras of M_n and the poset they form.

A context is a finite-dimensional abelian *-algebra given by its minimal
projections: a partition of the identity into k >= 2 orthogonal blocks
(the trivial algebra C.1 is excluded).  Contexts are ordered by algebra
inclusion, which for partitions means coarse-graining: V' <= V iff every
block of V' is a sum of blocks of V.

build_poset grows a finite poset from seed contexts by three optional
closures: downward closure (all coarse-grainings), meet closure (pairwise
algebra intersections) and group closure (images under a sampled
one-parameter unitary group).  Candidates are deduplicated through a
ContextIndex, which compares a candidate only with the contexts of the
same signature (dimension, block count, ranks), in index order.

ContextPoset computes the order and the restriction tables once.  For
each context V, one matrix product of V's flattened blocks with every
block of its dimension gives tr Q - Re<Q, Q'>, which equals
||(1 - Q')Q||_F^2 for projections; a pair of blocks where it exceeds
eps_order^2 by more than a slack measured on the blocks cannot pass
proj_leq.  Only contexts V' in which every block of V keeps
a candidate home get the exact test, block_map, which is also behind
includes and coarse_graining_map; its block maps are stored as
ContextPoset.block_maps and read by the spectral presheaf.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import (
    ContextMissing,
    DimMismatch,
    LatticeTooLarge,
    NonCommuting,
    NotInAlgebra,
    NotIncluded,
    NotUnitary,
    PosetTooLarge,
    TrivialAlgebra,
)
from .numerics import (
    Projection,
    as_complex_matrix,
    dagger,
    frob,
    hermitian_eig,
    is_unitary,
    proj_leq,
)
from .tolerances import DEFAULT_TOL, TolerancePolicy

#: hard cap on the number of blocks for 2^k lattice enumerations
MAX_LATTICE_BLOCKS = 20


def _rounded_bytes(m: np.ndarray, decimals: int = 6) -> bytes:
    r = np.round(m.real, decimals) + 0.0  # +0.0 normalizes -0.0
    i = np.round(m.imag, decimals) + 0.0
    return r.tobytes() + i.tobytes()


class Context:
    """An abelian sub-algebra of M_n, stored as its minimal projections.

    blocks are kept in a canonical order (rank, then rounded entries) so
    that fingerprints and character indexing are deterministic.
    """

    __slots__ = ("blocks", "dim", "id", "fingerprint")

    def __init__(self, blocks, context_id: str | None = None,
                 tol: TolerancePolicy = DEFAULT_TOL):
        blocks = [b if isinstance(b, Projection) else Projection(b, tol) for b in blocks]
        if len(blocks) < 2:
            raise TrivialAlgebra("a context needs at least two blocks; C.1 is excluded")
        dim = blocks[0].dim
        if any(b.dim != dim for b in blocks):
            raise DimMismatch("blocks have inconsistent dimensions")
        total = np.zeros((dim, dim), dtype=np.complex128)
        for a in blocks:
            total += a.matrix
        if frob(total - np.eye(dim)) > max(tol.eps_idem * 10 * len(blocks), 1e-9):
            raise NotInAlgebra("blocks do not sum to the identity")
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if frob(blocks[i].matrix @ blocks[j].matrix) > tol.eps_order:
                    raise NotInAlgebra("blocks are not pairwise orthogonal")
        blocks.sort(key=lambda b: (b.rank, _rounded_bytes(b.matrix)))
        self.blocks = tuple(blocks)
        self.dim = dim
        h = hashlib.sha1()
        h.update(f"{dim}:{len(blocks)}".encode())
        for b in self.blocks:
            h.update(str(b.rank).encode())
            h.update(_rounded_bytes(b.matrix))
        self.fingerprint = h.hexdigest()
        self.id = context_id if context_id is not None else "V" + self.fingerprint[:10]

    @property
    def k(self) -> int:
        return len(self.blocks)

    def signature(self):
        """Cheap invariant used to bucket candidates for equality tests."""
        return (self.dim, self.k, tuple(b.rank for b in self.blocks))

    def span_basis(self):
        return [b.matrix for b in self.blocks]

    def block_sum(self, indices) -> np.ndarray:
        """Dense sum of the blocks with the given indices, in their order."""
        m = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for i in indices:
            m = m + self.blocks[i].matrix
        return m

    def weights(self, m) -> np.ndarray:
        """Block weights Re tr(m Q_i); for a density matrix, the state on
        this context (Q_i is Hermitian, so tr(m Q_i) = <Q_i, m>_HS)."""
        return np.array([np.vdot(b.matrix, m).real for b in self.blocks])

    def __repr__(self):
        return f"Context(id={self.id!r}, dim={self.dim}, k={self.k})"


def contexts_equal(v1: Context, v2: Context, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Equality up to eps_order: fingerprint fast path, then greedy block
    matching by minimal Frobenius distance.

    The fingerprint rounds entries to 6 decimals, so equal fingerprints
    only say which blocks to pair: the fast path still checks each pair
    (same canonical index) against eps_order."""
    if v1.signature() != v2.signature():
        return False
    if v1.fingerprint == v2.fingerprint and all(
            frob(b.matrix - c.matrix) <= tol.eps_order
            for b, c in zip(v1.blocks, v2.blocks)):
        return True
    unused = list(range(v2.k))
    for b in v1.blocks:
        best, best_d = None, None
        for j in unused:
            c = v2.blocks[j]
            if c.rank != b.rank:
                continue
            d = frob(b.matrix - c.matrix)
            if best_d is None or d < best_d:
                best, best_d = j, d
        if best is None or best_d > tol.eps_order:
            return False
        unused.remove(best)
    return True


def _hermitian_parts(a: np.ndarray):
    return (a + dagger(a)) / 2.0, (a - dagger(a)) / 2.0j


def _cluster(values: np.ndarray, width: float):
    """Group sorted real values into clusters separated by more than width."""
    order = np.argsort(values, kind="stable")
    clusters, current = [], [order[0]]
    for idx in order[1:]:
        if values[idx] - values[current[-1]] <= width:
            current.append(idx)
        else:
            clusters.append(current)
            current = [idx]
    clusters.append(current)
    return clusters


def context_from_operators(ops, context_id: str | None = None,
                           tol: TolerancePolicy = DEFAULT_TOL) -> Context:
    """Smallest context containing the given pairwise-commuting normal
    matrices, by sequential partition refinement of eigenspaces.

    Each operator is split into commuting Hermitian real/imaginary parts;
    each part refines the current joint eigenspace partition.  Degenerate
    eigenvalues are clustered at eps_eig * max(1, ||A||_F).
    """
    mats = [as_complex_matrix(a) for a in ops]
    if not mats:
        raise TrivialAlgebra("no operators given")
    n = mats[0].shape[0]
    for a in mats:
        if a.shape[0] != n:
            raise DimMismatch("operators have inconsistent dimensions")
    for i in range(len(mats)):
        hi = mats[i] @ dagger(mats[i]) - dagger(mats[i]) @ mats[i]
        if frob(hi) > tol.eps_order * max(1.0, frob(mats[i]) ** 2):
            raise NonCommuting(f"operator {i} is not normal")
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            if frob(comm) > tol.eps_order * max(1.0, frob(mats[i]) * frob(mats[j])):
                raise NonCommuting(f"operators {i} and {j} do not commute")

    # each subspace is carried as an n x r matrix of orthonormal columns
    subspaces = [np.eye(n, dtype=np.complex128)]
    parts = []
    for a in mats:
        h, s = _hermitian_parts(a)
        parts.extend([h, s])
    for part in parts:
        scale = tol.eps_eig * max(1.0, frob(part))
        refined = []
        for y in subspaces:
            if y.shape[1] == 1:
                refined.append(y)
                continue
            compressed = dagger(y) @ part @ y
            w, u = hermitian_eig(compressed, tol)
            for cluster in _cluster(w, scale):
                refined.append(y @ u[:, cluster])
        subspaces = refined

    if len(subspaces) < 2:
        raise TrivialAlgebra("operators generate only the trivial algebra C.1")
    blocks = [Projection(y @ dagger(y), tol) for y in subspaces]
    ctx = Context(blocks, context_id, tol)
    # every input operator must be recovered from the block expansion
    for a in mats:
        coeffs = [np.trace(b.matrix @ a) / b.rank for b in ctx.blocks]
        resid = a - sum(c * b.matrix for c, b in zip(coeffs, ctx.blocks))
        if frob(resid) > max(tol.eps_eig * max(1.0, frob(a)) * n, 1e-8):
            raise NonCommuting("refinement failed to diagonalize an operator")
    return ctx


def projection_lattice(v: Context):
    """All 2^k subset-sum projections of the context, as (indices, matrix).

    Ordered by subset bitmask; guarded against k > MAX_LATTICE_BLOCKS.
    """
    if v.k > MAX_LATTICE_BLOCKS:
        raise LatticeTooLarge(f"2^{v.k} lattice elements exceed the enumeration guard")
    out = []
    for mask in range(1 << v.k):
        indices = frozenset(i for i in range(v.k) if mask & (1 << i))
        out.append((indices, v.block_sum(indices)))
    return out


def lattice_projection(v: Context, indices,
                       tol: TolerancePolicy = DEFAULT_TOL) -> Projection:
    return Projection(v.block_sum(indices), tol)


def block_map(v_prime: Context, v: Context, tol: TolerancePolicy = DEFAULT_TOL):
    """Map block-index of V -> block-index of V' when V' <= V, else None.

    Exact: every V-block needs exactly one V'-block above it (proj_leq),
    and every V'-block must equal the sum of the V-blocks sent to it.
    """
    if v_prime.dim != v.dim:
        raise DimMismatch("contexts live in different dimensions")
    out = []
    for q in v.blocks:
        homes = [j for j, qp in enumerate(v_prime.blocks) if proj_leq(q, qp, tol)]
        if len(homes) != 1:
            return None
        out.append(homes[0])
    for j, qp in enumerate(v_prime.blocks):
        total = v.block_sum([i for i, home in enumerate(out) if home == j])
        if frob(total - qp.matrix) > max(tol.eps_order * v.k, tol.eps_order):
            return None
    return tuple(out)


def includes(v_prime: Context, v: Context, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True iff V' is a sub-algebra of V (every V'-block sums V-blocks).

    With coarse_graining_map, the per-pair form of the order that
    ContextPoset computes in bulk; tests compare the two.
    """
    return block_map(v_prime, v, tol) is not None


def coarse_graining_map(v: Context, v_prime: Context,
                        tol: TolerancePolicy = DEFAULT_TOL):
    """Map block-index of V -> block-index of V' (V' <= V). NotIncluded if
    the contexts are not comparable."""
    out = block_map(v_prime, v, tol)
    if out is None:
        raise NotIncluded(f"{v_prime.id} is not a coarse-graining of {v.id}")
    return out


def apply_automorphism(u, v: Context, tol: TolerancePolicy = DEFAULT_TOL,
                       context_id: str | None = None) -> Context:
    """Image context with blocks U Q_i U*; U must be unitary within 1e-10."""
    um = as_complex_matrix(u)
    if not is_unitary(um, 1e-10):
        raise NotUnitary("automorphism matrix is not unitary within 1e-10")
    blocks = [Projection(um @ b.matrix @ dagger(um), tol) for b in v.blocks]
    return Context(blocks, context_id, tol)


def _set_partitions(k: int):
    """All partitions of {0..k-1} via restricted growth strings, in a
    deterministic order; excludes nothing (caller filters)."""
    rgs = [0] * k

    def gen(i, max_used):
        if i == k:
            yield tuple(rgs)
            return
        for c in range(max_used + 2):
            rgs[i] = c
            yield from gen(i + 1, max(max_used, c))

    yield from gen(1, 0) if k > 0 else iter(())


class ContextIndex:
    """Contexts in insertion order, bucketed by Context.signature().

    find scans only the candidate's bucket, in index order, so it returns
    the first index a linear contexts_equal scan would (contexts with
    different signatures are never equal).
    """

    def __init__(self, tol: TolerancePolicy = DEFAULT_TOL, contexts=()):
        self.tol = tol
        self.contexts = []
        self.buckets = {}
        for v in contexts:
            self.append(v)

    def find(self, candidate: Context) -> int | None:
        for i in self.buckets.get(candidate.signature(), ()):
            if contexts_equal(self.contexts[i], candidate, self.tol):
                return i
        return None

    def append(self, v: Context) -> int:
        self.buckets.setdefault(v.signature(), []).append(len(self.contexts))
        self.contexts.append(v)
        return len(self.contexts) - 1


def _order_slack(mats) -> float:
    """Bound on |(tr Q - Re<Q, Q'>) - ||(1 - Q')Q||_F^2| over all pairs of
    the given n x n blocks.

    The two sides are equal for exact projections.  With h and e the
    largest ||Q - Q*||_F and ||Q^2 - Q||_F among the blocks, expanding
    ||(1 - Q')Q||^2 leaves four remainder traces, at most sqrt(n) h,
    sqrt(n) e, sqrt(n) h and sqrt(n) (h + e).  The bound doubles their
    sum (norm factors of 1 + O(h + e)) and adds n^2 1e-14 for rounding.
    """
    n = mats[0].shape[0]
    h = max(frob(m - dagger(m)) for m in mats)
    e = max(frob(m @ m - m) for m in mats)
    return 2.0 * np.sqrt(n) * (3.0 * h + 2.0 * e) + n * n * 1e-14


class ContextPoset:
    """A finite poset of contexts with the inclusion order precomputed.

    leq[i, j] is True iff contexts[i] <= contexts[j] (i is a
    coarse-graining of j); block_maps[i, j] is then the map from block
    indices of j to block indices of i (the restriction table).
    strict_pairs is the (m, 2) array of the pairs (i, j), i != j, with
    leq[i, j], in row-major order.  orbit_provenance maps a context index
    added by group closure to (t, base_index).  leq and the tables are
    fixed at construction.

    The order is computed per context V: one product of V's flattened
    blocks with the blocks of every context of V's dimension gives
    d = tr Q - Re<Q, Q'> for each pair of blocks.  For projections d is
    ||(1 - Q')Q||_F^2 up to a slack measured on the blocks (_order_slack),
    so a pair with d > eps_order^2 + slack fails proj_leq and Q' cannot
    be Q's home.  Only contexts V' in which every block of V keeps a
    candidate home go to the exact check (block_map), so leq equals
    all-pairs includes.
    """

    def __init__(self, contexts, tol: TolerancePolicy = DEFAULT_TOL,
                 closure_flags=None, orbit_provenance=None):
        self._index = ContextIndex(tol, contexts)
        self.contexts = self._index.contexts
        self.tol = tol
        self.by_id = {v.id: i for i, v in enumerate(self.contexts)}
        if len(self.by_id) != len(self.contexts):
            raise ContextMissing("duplicate context ids in poset")
        self.closure_flags = dict(closure_flags or {})
        self.orbit_provenance = dict(orbit_provenance or {})
        n = len(self.contexts)
        self.leq = np.eye(n, dtype=bool)
        self.block_maps = {}
        by_dim = {}
        for i, v in enumerate(self.contexts):
            by_dim.setdefault(v.dim, []).append(i)
        for members in by_dim.values():
            self._order_within(members)
        self.strict_pairs = np.argwhere(self.leq & ~np.eye(n, dtype=bool))

    def _order_within(self, members) -> None:
        """Fill leq and block_maps among the contexts of one dimension."""
        ctxs = [self.contexts[i] for i in members]
        ks = np.array([v.k for v in ctxs])
        starts = np.concatenate(([0], np.cumsum(ks)[:-1]))
        mats = [b.matrix for v in ctxs for b in v.blocks]
        traces = np.array([m.trace().real for m in mats])
        bound = self.tol.eps_order ** 2 + _order_slack(mats)
        # real and imaginary parts side by side: Re<Q, Q'> is a real dot
        flat = np.array([m.reshape(-1) for m in mats]).view(np.float64)
        for b, j in enumerate(members):
            rows = slice(starts[b], starts[b] + ks[b])
            d = traces[rows, None] - flat[rows] @ flat.T
            homes = np.logical_or.reduceat(d <= bound, starts, axis=1)
            cand = homes.all(axis=0) & (ks <= ks[b])
            cand[b] = False
            for a in np.flatnonzero(cand):
                i = members[a]
                m = block_map(self.contexts[i], self.contexts[j], self.tol)
                if m is not None:
                    self.leq[i, j] = True
                    self.block_maps[i, j] = m

    def __len__(self):
        return len(self.contexts)

    def index_of(self, context_id: str) -> int:
        if context_id not in self.by_id:
            raise ContextMissing(f"no context with id {context_id!r}")
        return self.by_id[context_id]

    def context(self, context_id: str) -> Context:
        return self.contexts[self.index_of(context_id)]

    def find_equal(self, candidate: Context) -> str | None:
        """Id of a poset context equal to the candidate, or None."""
        i = self._index.find(candidate)
        return None if i is None else self.contexts[i].id

    def image(self, u, context_id: str, tol: TolerancePolicy | None = None):
        """Where conjugation by u moves a poset context.

        Returns (target id, relabel): the id of the poset context equal to
        U V U*, and relabel[i] = the index of the target block nearest to
        U Q_i U*.  The target id is None when the moved context is not in
        the poset; relabel is None when it is, but some block has no
        target block within max(10 eps_order, eps_order).
        """
        tol = tol or self.tol
        v = self.context(context_id)
        target_id = self.find_equal(apply_automorphism(u, v, tol))
        if target_id is None:
            return None, None
        um = np.asarray(u, dtype=np.complex128)
        moved = um @ np.array(v.span_basis()) @ dagger(um)
        targets = np.array(self.context(target_id).span_basis())
        dists = np.linalg.norm(moved[:, None] - targets[None], axis=(2, 3))
        relabel = dists.argmin(axis=1)
        if dists[np.arange(v.k), relabel].max() > max(10 * tol.eps_order,
                                                      tol.eps_order):
            return target_id, None
        return target_id, tuple(int(j) for j in relabel)

    def lower_set(self, context_id: str):
        j = self.index_of(context_id)
        return [self.contexts[i].id for i in np.flatnonzero(self.leq[:, j])]

    def is_lower_set(self, ids) -> bool:
        inside = np.zeros(len(self.contexts), dtype=bool)
        inside[[self.index_of(c) for c in ids]] = True
        return not (self.leq[:, inside].any(axis=1) & ~inside).any()

    def comparable_pairs(self):
        """(smaller_id, larger_id) for every strict inclusion, row-major."""
        return [(self.contexts[i].id, self.contexts[j].id)
                for i, j in self.strict_pairs.tolist()]

    def maximal_ids(self):
        above = self.leq.sum(axis=1) - self.leq.diagonal()
        return [self.contexts[i].id for i in np.flatnonzero(above == 0)]


def _coarse_grainings(v: Context, tol: TolerancePolicy):
    """All proper coarse-grainings of a context (excluding the trivial
    one-block merge), as new Contexts."""
    out = []
    for rgs in _set_partitions(v.k):
        groups = {}
        for i, g in enumerate(rgs):
            groups.setdefault(g, []).append(i)
        if len(groups) in (1, v.k):
            continue  # trivial algebra, or the context itself
        blocks = [Projection(v.block_sum(groups[g]), tol) for g in sorted(groups)]
        out.append(Context(blocks, None, tol))
    return out


def meet_context(v1: Context, v2: Context, tol: TolerancePolicy = DEFAULT_TOL):
    """Intersection algebra V1 ∧ V2, or None when it is trivial.

    Blocks are the connected components of the block-overlap graph
    (an edge wherever ||Q R||_F > eps_order).
    """
    if v1.dim != v2.dim:
        raise DimMismatch("contexts live in different dimensions")
    nodes = [(0, i) for i in range(v1.k)] + [(1, j) for j in range(v2.k)]
    parent = {nd: nd for nd in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i in range(v1.k):
        for j in range(v2.k):
            if frob(v1.blocks[i].matrix @ v2.blocks[j].matrix) > tol.eps_order:
                union((0, i), (1, j))
    comps = {}
    for nd in nodes:
        comps.setdefault(find(nd), []).append(nd)
    if len(comps) < 2:
        return None
    blocks = []
    for members in comps.values():
        m = v1.block_sum([idx for side, idx in members if side == 0])
        m2 = v2.block_sum([idx for side, idx in members if side == 1])
        if frob(m - m2) > max(tol.eps_order * (v1.k + v2.k), tol.eps_order):
            return None  # not a common coarse-graining; intersection trivial
        blocks.append(Projection(m, tol))
    return Context(blocks, None, tol)


def build_poset(seeds, *, downward_closure: bool = False, meet_closure: bool = False,
                group=None, group_depth: int | None = None, max_contexts: int = 500,
                tol: TolerancePolicy = DEFAULT_TOL) -> ContextPoset:
    """Grow a poset from seed contexts under the requested closures.

    group may be a kms_internal.SampledGroup or any object with
    .real_unitaries() -> [(t, U)].  group_depth=None iterates group
    closure to a fixpoint; a positive integer bounds the number of
    closure sweeps (needed for non-closing sample grids).  Exceeding
    max_contexts raises PosetTooLarge.
    """
    index = ContextIndex(tol)
    contexts = index.contexts
    provenance = {}

    def add(candidate: Context, prov=None) -> int:
        found = index.find(candidate)
        if found is not None:
            return found
        if len(contexts) >= max_contexts:
            raise PosetTooLarge(
                f"poset exceeded max_contexts={max_contexts} during closure"
            )
        i = index.append(candidate)
        if prov is not None:
            provenance[i] = prov
        return i

    for s in seeds:
        add(s)

    group_pairs = []
    if group is not None:
        group_pairs = [(t, u) for t, u in group.real_unitaries() if t != 0.0]

    changed = True
    sweeps = 0
    while changed:
        changed = False
        sweeps += 1
        if downward_closure:
            for v in list(contexts):
                for w in _coarse_grainings(v, tol):
                    before = len(contexts)
                    add(w)
                    changed = changed or len(contexts) > before
        if meet_closure:
            snapshot = list(contexts)
            for i in range(len(snapshot)):
                for j in range(i + 1, len(snapshot)):
                    w = meet_context(snapshot[i], snapshot[j], tol)
                    if w is not None:
                        before = len(contexts)
                        add(w)
                        changed = changed or len(contexts) > before
        if group_pairs and (group_depth is None or sweeps <= group_depth):
            for idx, v in enumerate(list(contexts)):
                for t, u in group_pairs:
                    w = apply_automorphism(u, v, tol)
                    before = len(contexts)
                    base = provenance.get(idx)
                    # track provenance back to the original (t composes)
                    if base is not None:
                        prov = (t + base[0], base[1])
                    else:
                        prov = (t, idx)
                    k = add(w, prov)
                    changed = changed or len(contexts) > before
        if group_pairs and group_depth is not None and sweeps >= group_depth \
                and not downward_closure and not meet_closure:
            break

    return ContextPoset(contexts, tol,
                        closure_flags={
                            "downward_closure": downward_closure,
                            "meet_closure": meet_closure,
                            "group_closure": bool(group_pairs),
                            "group_depth": group_depth,
                        },
                        orbit_provenance=provenance)
