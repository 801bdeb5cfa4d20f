"""Abelian von Neumann sub-algebras of M_n and the poset they form.

A context is given by its minimal projections, k >= 2 orthogonal blocks
summing to 1 (C.1 is excluded).  A maximal context is an orthonormal
basis up to phase and permutation, and every other context is a
coarse-graining of one.  So a Context is an n x n unitary frame Y with
its columns grouped by block, plus the block label of each column;
Q_i = Y_i Y_i* is formed only where a dense matrix is needed.
Context(blocks) is the input boundary, which validates each block once
as a Projection; a coarse-graining merges labels on the same frame,
U V U* is (U Y, labels) and a meet merges labels along the overlap graph.
Every context is put in canonical form by one routine
(_canonical_forms), which takes a stack of labelings, on one frame or on
a frame each, forms, rounds and orders the blocks of all of them in one
pass, and hands the dense blocks on to the lookup; a Context and
on_frame hand it one labeling, build_poset a batch of candidates.

Every exact comparison, the frame test, reads the overlap table
O[a, b] = tr(Q'_a Q_b), which is |Y'* Y|^2 summed by labels.  Block b's
home is the row of its largest overlap, and the rest of the column, its
off-home mass ||(1 - Q'_home) Q_b||_F^2, is a sum of small terms with no
cancellation.  V' <= V iff every block of V has off-home mass <=
eps_order^2 (proj_leq's threshold), and the homes are the block map.
V' = V iff k' = k and the bound is eps_order^2 / 2, i.e.
||Q'_home - Q_b||_F <= eps_order.

build_poset closes seed contexts under coarse-graining, meets and a
list of unitaries on one ContextIndex (index.py), and ContextPoset
orders them.  Every closure step adds its candidates as one batch: a
downward step (in chunks bounded by max_contexts), a meet pass and a
group sweep.  A batch is put in canonical form in one call and looked
up in one call; two candidates of a batch may be equal, so those the
index does not hold are tested against each other, one frame test per
signature.  The index keeps one table of the distinct blocks of its
contexts and the table id of each block.  Lookup, the action of a
unitary (ContextIndex.images, which the presheaf action and
build_poset's group sweep share) and the order first test the table,
within bounds that keep every pair the frame test accepts, and run the
frame test only on the pairs that survive, batched per signature
bucket.  block_map, includes and contexts_equal work on dense blocks:
they are the references the tests hold the frame path to, and the
benchmark tracer wraps them by name.
"""
from __future__ import annotations

import hashlib
import itertools

import numpy as np

from .errors import (
    ContextMissing,
    DimMismatch,
    NonCommuting,
    NotInAlgebra,
    PosetTooLarge,
    TrivialAlgebra,
)
from .numerics import (
    Projection,
    as_complex_matrix,
    dagger,
    frob,
    hermitian_eig,
    proj_leq,
)
from . import index as context_index
from .index import (
    ContextIndex,
    _blocks,
    _homes,
    _overlaps,
    _pair_homes,
    _unitary,
)
from .tolerances import DEFAULT_TOL, TolerancePolicy


class Context:
    """An abelian sub-algebra of M_n: a unitary frame and block labels.

    labels[c] is the block of frame column c; ranks[i] and starts[i] are
    the column count and first column of block i.  Blocks are kept in a
    canonical order (rank, then the rounded entries of Q_i) so that
    fingerprints and character indexing are deterministic; the one
    routine that orders them (_canonical_forms) also builds the batches
    of build_poset's closure.  Context(blocks) validates input
    projections; on_frame trusts a unitary frame.
    """

    __slots__ = ("frame", "labels", "ranks", "starts", "dim", "id",
                 "fingerprint")

    def __init__(self, blocks, context_id: str | None = None,
                 tol: TolerancePolicy = DEFAULT_TOL):
        blocks = [b if isinstance(b, Projection) else Projection(b, tol) for b in blocks]
        if len(blocks) < 2:
            raise TrivialAlgebra("a context needs at least two blocks; C.1 is excluded")
        dim = blocks[0].dim
        if any(b.dim != dim for b in blocks):
            raise DimMismatch("blocks have inconsistent dimensions")
        total = sum(b.matrix for b in blocks)
        if frob(total - np.eye(dim)) > tol.eps_idem * 10 * len(blocks):
            raise NotInAlgebra("blocks do not sum to the identity")
        if any(b.rank == 0 for b in blocks):
            raise NotInAlgebra("a block is the zero projection")
        # the range of each block: eigenvectors of its rank largest eigenvalues
        frame = np.hstack([np.linalg.eigh(b.matrix)[1][:, dim - b.rank:]
                           for b in blocks])
        _canonical_forms(frame, np.repeat(np.arange(len(blocks)),
                                          [b.rank for b in blocks])[None],
                         context_id, [self])
        cross = _overlaps(self.frame, self.starts, self.frame, self.starts)
        if (cross - np.diag(cross.diagonal())).max() > tol.eps_order ** 2:
            raise NotInAlgebra("blocks are not pairwise orthogonal")

    @classmethod
    def on_frame(cls, frame, labels, context_id: str | None = None) -> "Context":
        """The context whose block g is spanned by the columns labelled g
        of a unitary frame; nothing is validated."""
        return _canonical_forms(frame, np.asarray(labels)[None],
                                context_id)[0][0]

    @property
    def k(self) -> int:
        return len(self.ranks)

    def signature(self):
        """Cheap invariant used to bucket candidates for equality tests;
        contexts with equal signatures have equal labels."""
        return (self.dim, self.k, self.ranks)

    def block(self, i: int) -> np.ndarray:
        """Dense Q_i = Y_i Y_i*."""
        y = self.frame[:, self.starts[i]:self.starts[i] + self.ranks[i]]
        return y @ dagger(y)

    def block_sum(self, indices) -> np.ndarray:
        """Dense sum of the blocks with the given indices."""
        keep = np.zeros(self.k, dtype=bool)
        keep[list(indices)] = True
        y = self.frame[:, keep[self.labels]]
        return y @ dagger(y)

    def weights(self, m) -> np.ndarray:
        """Block weights Re tr(m Q_i), the label sums of Re diag(Y* m Y),
        of a matrix or along a stack of them (..., n, n); for a density
        matrix, the state on this context."""
        diag = np.einsum("ij,...ij->...j", self.frame.conj(),
                         m @ self.frame).real
        return np.add.reduceat(diag, self.starts, axis=-1)

    def __repr__(self):
        return f"Context(id={self.id!r}, dim={self.dim}, k={self.k})"


def _canonical_forms(frames, labelings, context_id: str | None = None,
                     made=None):
    """(contexts, rows): the contexts, one per row of labelings, in
    canonical form, and their dense blocks.  frames is one unitary frame
    (n, n) that every labeling reads, or a stack (m, n, n) of one frame
    per labeling; context i's block g is spanned by the columns labelled
    g in labelings[i] of its frame (unused label values make no block).

    Each labeling's columns are stable-sorted by label, so each block
    keeps its columns in ascending order, and every block's dense Q_b is
    formed in one pass (_blocks) and rounded to 6 decimals (+0.0
    normalizes -0.0).  A context's blocks are ordered by rank, then by
    those bytes (ties keep label order), and its fingerprint hashes its
    dimension, block count, ranks and bytes.  The id is context_id, or
    "V" and the fingerprint's first 10 hex digits.  made are the contexts
    to fill in, new ones by default.  rows holds the unrounded Q_b, one
    flattened row per block, the contexts' blocks in turn in canonical
    order: the rows ContextIndex.lookup would form from the frames."""
    labelings = np.asarray(labelings)
    m, n = labelings.shape
    # the columns of each labeling by label, then column, flattened
    flat = np.argsort(labelings, axis=1, kind="stable")
    flat += np.arange(0, m * n, n)[:, None]
    flat = flat.ravel()
    grouped = labelings.ravel()[flat]
    bounds = np.empty(m * n + 1, dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=bounds[1:-1])
    bounds[::n] = True
    bounds = np.flatnonzero(bounds)
    starts, ranks = bounds[:-1], bounds[1:] - bounds[:-1]
    # the columns of each labeling's frame in that order, one per row
    frames = np.reshape(frames, (-1, n, n))
    cols = frames[flat // n % len(frames), :, flat % n]
    rows = _blocks(cols, starts)
    rounded = np.empty((len(starts), 2, n * n))
    rounded[:, 0], rounded[:, 1] = rows.real, rows.imag
    rounded = rounded.round(6)
    rounded += 0.0
    # the blocks in canonical order: by labeling, rank, then bytes
    order = np.lexsort((rounded.reshape(len(starts), -1).view(
        np.dtype((np.bytes_, 16 * n * n))).ravel(), ranks, starts // n))
    # labeling i's blocks are cuts[i] to cuts[i + 1], in either order
    cuts = np.searchsorted(starts, range(0, m * n + 1, n)).tolist()
    ranks, rounded = ranks[order], rounded[order]
    rows = rows[order]  # once the unordered rounded rows are freed
    first = np.cumsum(ranks) - ranks  # each block's first column
    canonical = cols[np.repeat(starts[order] - first, ranks)
                     + np.arange(m * n)]
    canonical = canonical.reshape(m, n, n).transpose(0, 2, 1).copy()
    canonical.flags.writeable = False
    out = made if made is not None else [Context.__new__(Context)
                                         for _ in range(m)]
    for i, v in enumerate(out):
        lo, hi = cuts[i], cuts[i + 1]
        v.ranks = tuple(ranks[lo:hi].tolist())
        v.frame = canonical[i]
        v.starts = first[lo:hi] - i * n
        v.labels = np.repeat(np.arange(hi - lo), ranks[lo:hi])
        v.dim = n
        h = hashlib.sha1(f"{n}:{hi - lo}".encode())
        for rank, block in zip(v.ranks, rounded[lo:hi]):
            h.update(str(rank).encode())
            h.update(block)
        v.fingerprint = h.hexdigest()
        v.id = (context_id if context_id is not None
                else "V" + v.fingerprint[:10])
    return out, rows


def contexts_equal(v1: Context, v2: Context, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Oracle for equality up to eps_order: greedy matching of the dense
    blocks of equal rank by Frobenius distance."""
    if v1.signature() != v2.signature():
        return False
    b2 = [v2.block(j) for j in range(v2.k)]
    unused = list(range(v2.k))
    for i in range(v1.k):
        b, best, best_d = v1.block(i), None, None
        for j in unused:
            if v2.ranks[j] != v1.ranks[i]:
                continue
            d = frob(b - b2[j])
            if best_d is None or d < best_d:
                best, best_d = j, d
        if best is None or best_d > tol.eps_order:
            return False
        unused.remove(best)
    return True


def fixes_blocks(u, v: Context, distance: float) -> bool:
    """True iff ||U Q_b U* - Q_b||_F <= distance for every block b: block b
    of (U Y, labels) has its home in Q_b, with off-home mass <= distance^2/2."""
    placed, home = _homes(_overlaps(v.frame, v.starts, u @ v.frame, v.starts),
                          distance ** 2 / 2)
    return bool(placed.all() and (home == np.arange(v.k)).all())


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
    eigenvalues are clustered at eps_eig * max(1, ||A||_F).  The joint
    eigenspaces are the frame of the result.
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
    ctx = Context.on_frame(np.hstack(subspaces),
                           np.repeat(np.arange(len(subspaces)),
                                     [y.shape[1] for y in subspaces]),
                           context_id)
    # every input operator must be recovered from the block expansion
    y = ctx.frame
    for a in mats:
        diag = np.einsum("ij,ij->j", y.conj(), a @ y)
        coeffs = np.add.reduceat(diag, ctx.starts) / np.array(ctx.ranks)
        resid = a - (y * coeffs[ctx.labels]) @ dagger(y)
        if frob(resid) > tol.eps_eig * max(1.0, frob(a)) * n:
            raise NonCommuting("refinement failed to diagonalize an operator")
    return ctx


def lattice_projection(v: Context, indices,
                       tol: TolerancePolicy = DEFAULT_TOL) -> Projection:
    return Projection(v.block_sum(indices), tol)


def block_map(v_prime: Context, v: Context, tol: TolerancePolicy = DEFAULT_TOL):
    """Oracle: map block-index of V -> block-index of V' when V' <= V,
    else None, from the dense blocks.

    Every V-block needs exactly one V'-block above it (proj_leq), and
    every V'-block must equal the sum of the V-blocks sent to it.
    """
    if v_prime.dim != v.dim:
        raise DimMismatch("contexts live in different dimensions")
    out = []
    for i in range(v.k):
        q = v.block(i)
        homes = [j for j in range(v_prime.k) if proj_leq(q, v_prime.block(j), tol)]
        if len(homes) != 1:
            return None
        out.append(homes[0])
    for j in range(v_prime.k):
        total = v.block_sum([i for i, home in enumerate(out) if home == j])
        if frob(total - v_prime.block(j)) > max(tol.eps_order * v.k, tol.eps_order):
            return None
    return tuple(out)


def includes(v_prime: Context, v: Context, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Oracle: True iff V' is a sub-algebra of V (every V'-block sums
    V-blocks); tests compare it with ContextPoset.leq."""
    return block_map(v_prime, v, tol) is not None


def apply_automorphism(u, v: Context, context_id: str | None = None,
                       tol: TolerancePolicy = DEFAULT_TOL) -> Context:
    """Image context U V U*, the frame U Y with V's labels; U must be
    unitary within tol.eps_herm."""
    return Context.on_frame(_unitary(u, tol) @ v.frame, v.labels, context_id)


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


class ContextPoset:
    """A finite poset of contexts with the inclusion order precomputed.

    leq[i, j] is True iff contexts[i] <= contexts[j] (i is a
    coarse-graining of j); block_maps[i, j] is then the map from block
    indices of j to block indices of i (the restriction table).
    strict_pairs is the (m, 2) array of the pairs (i, j), i != j, with
    leq[i, j], in row-major order.  leq and the tables are fixed at
    construction.  index is the ContextIndex of the contexts: their
    signature buckets, stacked frames and table of blocks; contexts may
    be given as a ContextIndex built with the same tol, whose blocks are
    then not matched again.

    The table keeps the pairs (V', V) where every block of V lies
    within a block of V' (ContextIndex.covering_pairs).  Their frame
    test runs in one batch per pair of signature buckets: V' <= V where
    every block of V has off-home mass at most eps_order^2 in V', and
    the homes are block_maps.
    """

    def __init__(self, contexts, tol: TolerancePolicy = DEFAULT_TOL):
        self.index = index = (contexts if isinstance(contexts, ContextIndex)
                              else ContextIndex(tol, contexts))
        self.contexts = index.contexts
        self.tol = tol
        self.by_id = {v.id: i for i, v in enumerate(self.contexts)}
        if len(self.by_id) != len(self.contexts):
            raise ContextMissing("duplicate context ids in poset")
        n = len(self.contexts)
        self.leq = np.eye(n, dtype=bool)
        small, large = index.covering_pairs()
        number = {sig: b for b, sig in enumerate(index.buckets)}
        bucket = np.array([number[v.signature()] for v in self.contexts],
                          dtype=np.intp)
        slots = np.array(index.slots, dtype=np.intp)
        order = np.lexsort((large, small, bucket[large], bucket[small]))
        small, large = small[order], large[order]
        group = bucket[small] * len(number) + bucket[large]
        cuts = np.flatnonzero(np.diff(group, prepend=-1))
        self.block_maps = {}
        for lo, hi in zip(cuts, np.append(cuts[1:], len(group))):
            i, j = small[lo:hi], large[lo:hi]
            coarse, fine = self.contexts[i[0]], self.contexts[j[0]]
            placed, home = _pair_homes(
                index.stack(coarse.signature())[1], slots[i], coarse.starts,
                index.stack(fine.signature())[1], slots[j], fine.starts,
                tol.eps_order ** 2)
            self.leq[i[placed], j[placed]] = True
            for a, b, table in zip(i[placed].tolist(), j[placed].tolist(),
                                   home[placed].tolist()):
                self.block_maps[a, b] = tuple(table)
        self.strict_pairs = np.argwhere(self.leq & ~np.eye(n, dtype=bool))

    def __len__(self):
        return len(self.contexts)

    def index_of(self, context_id: str) -> int:
        if context_id not in self.by_id:
            raise ContextMissing(f"no context with id {context_id!r}")
        return self.by_id[context_id]

    def context(self, context_id: str) -> Context:
        return self.contexts[self.index_of(context_id)]

    def find_equal(self, candidate: Context) -> str | None:
        """Id of a poset context equal to the candidate, or None; a
        candidate of another dimension raises DimMismatch."""
        i = self.index.lookup(candidate)[0]
        return None if i is None else self.contexts[i].id

    def ids(self, inside) -> list:
        """Ids of the contexts in a boolean mask, in index order."""
        return [self.contexts[i].id for i in np.flatnonzero(inside)]

    def maximal_ids(self):
        above = self.leq.sum(axis=1) - self.leq.diagonal()
        return self.ids(above == 0)


def _twins(made, fresh, groups, bound: float) -> dict:
    """{c: [a, ...]}: the candidates made[a] of a batch, a < c, that
    candidate made[c] equals by the frame test (made[a]'s blocks as rows,
    off-home mass at most bound), for a and c in fresh, of one signature
    and of different groups.  fresh runs in batch order and groups[c] does
    not decrease along it.  The pairs of each signature are built with
    array operations: each fresh candidate against the earlier ones
    before its group, in one _pair_homes call."""
    by_sig = {}
    for c in fresh:
        by_sig.setdefault(made[c].signature(), []).append(c)
    twins = {}
    for members in by_sig.values():
        members = np.array(members)
        # position p meets the positions before the first of its group
        before = np.searchsorted(groups[members], groups[members])
        later = np.repeat(np.arange(len(members)), before)
        if not later.size:
            continue
        earlier = np.arange(len(later)) - np.repeat(np.cumsum(before)
                                                    - before, before)
        frames = np.array([made[c].frame for c in members.tolist()])
        starts = made[members[0]].starts
        placed, _ = _pair_homes(frames, earlier, starts, frames, later,
                                starts, bound)
        for a, c in zip(members[earlier[placed]].tolist(),
                        members[later[placed]].tolist()):
            twins.setdefault(c, []).append(a)
    return twins


def build_poset(seeds, *, downward_closure: bool = False, meet_closure: bool = False,
                unitaries=(), group_depth: int = 1, max_contexts: int = 500,
                tol: TolerancePolicy = DEFAULT_TOL) -> ContextPoset:
    """Grow a poset from seed contexts under the requested closures.

    unitaries is a list of phases, each a list of unitaries.  Group
    closure runs the phases in turn on one index: a phase adds U V U*
    for every unitary U of it and every context V, in group_depth sweeps
    (a bound, so sample grids that do not close still end), and the
    next phase starts once the downward and meet closures of this one
    are complete.  Exceeding max_contexts raises PosetTooLarge.

    Each seed is looked up and appended on its own; the index holds one
    dimension, fixed by the first seed, so a seed of another dimension
    raises DimMismatch at its lookup, before it is added.  After the
    seeds, every closure step adds its candidates as batches.  A batch
    is put in canonical form by one _canonical_forms call, a frame per
    candidate, and looked up by one ContextIndex.lookup against the
    index as it stands.  The candidates it did not find are then tested
    against each other, one frame test per signature at eps_order^2 / 2
    (_twins), and candidate c is appended iff the index holds no context
    equal to it and it equals no earlier candidate of the batch that was
    appended: what one lookup and append at a time gives.  The candidates
    are appended in order, so the contexts, their order and the candidate
    that raises PosetTooLarge are those of the one-at-a-time loops.

    A downward step expands every context that arrived since the last
    one, each once, except those it added itself: their coarse-grainings
    are coarse-grainings of their parent.  Its batches are the proper
    coarse-grainings of those contexts in turn, each in _set_partitions
    order, cut into chunks of at most max_contexts - len(contexts) + 1
    (and at most SLICE_BYTES / (16 n^2), which bounds their blocks), at
    least one; so the candidate past max_contexts raises before the
    other partitions are built.  Distinct partitions of one context are
    never equal, so only coarse-grainings of different contexts are
    tested against each other.  A meet pass is one batch: the non-trivial
    meets of every pair of contexts of which at least one arrived since
    the previous pass (older pairs would only find their meet again),
    from one product per pair of signature buckets (ContextIndex.meets),
    in (i, j) order.  A group sweep is one batch: it moves every context
    by each unitary (ContextIndex.images) and builds only the (V, U)
    images the index does not already hold, V-major, then U, each frame
    U Y by one product, as apply_automorphism forms it.  images
    validates every U of the phase, so a non-unitary U raises NotUnitary
    before the sweep adds anything.
    """
    index = ContextIndex(tol)
    contexts = index.contexts
    bound = tol.eps_order ** 2 / 2

    def add(made, rows=None, groups=None) -> bool:
        """Look up a batch of candidates (rows are their dense blocks, if
        made) and append, in order, each that is new to the index and to
        the batch (_twins; candidates of one group are never equal); True
        when one was appended."""
        looked = index.lookup(made, rows)
        fresh = [c for c, (found, _) in enumerate(looked) if found is None]
        twins = _twins(made, fresh, np.arange(len(made)) if groups is None
                       else groups, bound)
        added = set()
        for c in fresh:
            if not added.isdisjoint(twins.get(c, ())):
                continue
            if len(contexts) >= max_contexts:
                raise PosetTooLarge(
                    f"poset exceeded max_contexts={max_contexts} during closure"
                )
            index.append(made[c], looked[c][1])
            added.add(c)
        return bool(added)

    for s in seeds:
        add([s])
    most = context_index.SLICE_BYTES // (16 * max(index.dim, 1) ** 2)

    cursor = 0  # contexts before the cursor went through a downward step
    closed = set()  # indices added as coarse-grainings of an expanded context
    paired = 0  # contexts before this index were paired by a meet pass
    for phase in list(unitaries) or [()]:
        changed = True
        sweeps = 0
        while changed:
            changed = False
            sweeps += 1
            if downward_closure:
                end = len(contexts)
                # the proper coarse-grainings of each expanded context:
                # neither the trivial algebra nor the context itself
                partitions = ((i, rgs) for i in range(cursor, end)
                              if i not in closed
                              for rgs in _set_partitions(contexts[i].k)
                              if max(rgs) + 1 not in (1, contexts[i].k))
                while chunk := list(itertools.islice(partitions, max(
                        1, min(max_contexts - len(contexts) + 1, most)))):
                    parents = [i for i, _ in chunk]
                    labelings = np.vstack([
                        np.array([rgs for _, rgs in part])[:, contexts[i].labels]
                        for i, part in itertools.groupby(chunk, lambda p: p[0])])
                    changed = add(*_canonical_forms(
                        np.array([contexts[i].frame for i in parents]),
                        labelings), np.array(parents)) or changed
                closed.update(range(end, len(contexts)))
                cursor = end
            if meet_closure:
                meets = index.meets(paired)
                paired = len(contexts)
                if meets:
                    changed = add(*_canonical_forms(
                        np.array([contexts[i].frame for i, _, _ in meets]),
                        np.array([labels for _, _, labels in meets]))) \
                        or changed
            if phase and sweeps <= group_depth:
                snapshot = np.ones(len(contexts), dtype=bool)
                missing = np.transpose([index.images(u, snapshot)[0] < 0
                                        for u in phase])
                moved, which = np.nonzero(missing)
                if moved.size:
                    us = [np.asarray(u, dtype=np.complex128) for u in phase]
                    changed = add(*_canonical_forms(
                        np.array([us[u] @ contexts[v].frame for v, u in
                                  zip(moved.tolist(), which.tolist())]),
                        np.array([contexts[v].labels
                                  for v in moved.tolist()]))) or changed
            if phase and sweeps >= group_depth \
                    and not downward_closure and not meet_closure:
                break

    return ContextPoset(index, tol)
