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

Every comparison reads the overlap table O[a, b] = tr(Q'_a Q_b), which
is |Y'* Y|^2 summed by labels.  Block b's home is the row of its largest
overlap, and the rest of the column, its off-home mass
||(1 - Q'_home) Q_b||_F^2, is a sum of small terms with no cancellation.
V' <= V iff every block of V has off-home mass <= eps_order^2 (proj_leq's
threshold), and the homes are the block map.  V' = V iff k' = k and the
bound is eps_order^2 / 2, i.e. ||Q'_home - Q_b||_F <= eps_order.

build_poset closes seed contexts under coarse-graining, meets and a
list of unitaries; ContextIndex deduplicates them and ContextPoset
orders them.  The contexts of one signature share their labels, so each
bucket's frames are one stacked array, and every batched step is one
product per bucket or pair of buckets, each sliced to at most
PRODUCT_ENTRIES entries: the order (ContextPoset), moving every context
of a mask by a unitary (ContextIndex.images, which the presheaf action
and build_poset's group sweep share) and the overlap graphs of a meet
pass (ContextIndex.meets).  block_map, includes and contexts_equal work
on dense blocks: they are the references the tests hold the frame path
to, and the benchmark tracer wraps them by name.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import (
    ContextMissing,
    DimMismatch,
    NonCommuting,
    NotInAlgebra,
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

#: most complex entries one batched frame product holds (256 KB); a
#: product of two stacks is taken in tiles of at most this many entries.
#: A tile and its |.|^2 stay near cache size: on the diagonal C^6 and C^7
#: posets 2^14 ran no slower than 2^15 and held about 0.4 MB less at peak
PRODUCT_ENTRIES = 1 << 14


def _overlaps(rows, row_starts, frame, col_starts) -> np.ndarray:
    """Overlap tables O[..., a, b] = tr(Q'_a Q_b) between the blocks of
    the frames `rows` (one n x n frame, or a stack of frames with equal
    labels) and the blocks of `frame`: |Y'* Y|^2 summed by labels."""
    p = np.abs(np.swapaxes(rows.conj(), -1, -2) @ frame)
    p **= 2
    return np.add.reduceat(np.add.reduceat(p, row_starts, axis=-2),
                           col_starts, axis=-1)


def tiles(rows: int, cols: int, size: int):
    """(row slice, column slice) pairs that tile a rows x cols grid of
    products of `size` entries each, every tile at most PRODUCT_ENTRIES
    entries (or a single product), row slices in order."""
    r = max(1, min(rows, PRODUCT_ENTRIES // size))
    c = max(1, PRODUCT_ENTRIES // (r * size))
    for lo in range(0, rows, r):
        for cl in range(0, cols, c):
            yield slice(lo, lo + r), slice(cl, cl + c)


def _homes(o, bound: float):
    """(placed, home) for each column b of overlap tables o[..., a, b]:
    home[b] is the row of the largest overlap, and placed[b] says that
    the rest of the column, the off-home mass, is at most bound."""
    home = o.argmax(axis=-2)
    rest = np.where(np.arange(o.shape[-2])[:, None] == home[..., None, :],
                    0.0, o)
    return rest.sum(axis=-2) <= bound, home


class Context:
    """An abelian sub-algebra of M_n: a unitary frame and block labels.

    labels[c] is the block of frame column c; ranks[i] and starts[i] are
    the column count and first column of block i.  Blocks are kept in a
    canonical order (rank, then the rounded entries of Q_i) so that
    fingerprints and character indexing are deterministic.  Context(blocks)
    validates input projections; on_frame trusts a unitary frame.
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
        if frob(total - np.eye(dim)) > max(tol.eps_idem * 10 * len(blocks), 1e-9):
            raise NotInAlgebra("blocks do not sum to the identity")
        if any(b.rank == 0 for b in blocks):
            raise NotInAlgebra("a block is the zero projection")
        # the range of each block: eigenvectors of its rank largest eigenvalues
        frame = np.hstack([np.linalg.eigh(b.matrix)[1][:, dim - b.rank:]
                           for b in blocks])
        self._canonical(frame, np.repeat(np.arange(len(blocks)),
                                         [b.rank for b in blocks]), context_id)
        cross = _overlaps(self.frame, self.starts, self.frame, self.starts)
        if (cross - np.diag(cross.diagonal())).max() > tol.eps_order ** 2:
            raise NotInAlgebra("blocks are not pairwise orthogonal")

    @classmethod
    def on_frame(cls, frame, labels, context_id: str | None = None) -> "Context":
        """The context whose block g is spanned by the columns labelled g
        of a unitary frame; nothing is validated."""
        v = cls.__new__(cls)
        v._canonical(frame, np.asarray(labels), context_id)
        return v

    def _canonical(self, frame, labels, context_id) -> None:
        groups = []
        for g in sorted(set(labels.tolist())):
            cols = np.flatnonzero(labels == g)
            q = frame[:, cols] @ dagger(frame[:, cols])
            # entries rounded to 6 decimals; +0.0 normalizes -0.0
            rounded = [np.round(part, 6) + 0.0 for part in (q.real, q.imag)]
            groups.append(((cols.size, b"".join(r.tobytes() for r in rounded)), cols))
        groups.sort(key=lambda group: group[0])
        self.frame = frame[:, np.concatenate([cols for _, cols in groups])]
        self.frame.flags.writeable = False
        self.ranks = tuple(rank for (rank, _), _ in groups)
        self.labels = np.repeat(np.arange(len(groups)), self.ranks)
        self.starts = np.flatnonzero(np.diff(self.labels, prepend=-1))
        self.dim = frame.shape[0]
        h = hashlib.sha1()
        h.update(f"{self.dim}:{len(groups)}".encode())
        for (rank, rounded), _ in groups:
            h.update(str(rank).encode())
            h.update(rounded)
        self.fingerprint = h.hexdigest()
        self.id = context_id if context_id is not None else "V" + self.fingerprint[:10]

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
        if frob(resid) > max(tol.eps_eig * max(1.0, frob(a)) * n, 1e-8):
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


def _unitary(u, tol: TolerancePolicy) -> np.ndarray:
    um = as_complex_matrix(u)
    if not is_unitary(um, tol.eps_herm):
        raise NotUnitary(
            f"automorphism matrix is not unitary within {tol.eps_herm}")
    return um


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


class ContextIndex:
    """Contexts in insertion order, bucketed by Context.signature().

    A bucket shares its labels, so its frames are stacked once (stack)
    and one product gives the overlap tables of a stack of probes with
    all of them: find returns the first index a linear contexts_equal
    scan would, images moves every context of a mask by a unitary and
    looks the images up, and meets takes the meets of a whole meet pass
    from one product per ordered pair of buckets.
    """

    def __init__(self, tol: TolerancePolicy = DEFAULT_TOL, contexts=()):
        self.tol = tol
        self.contexts = []
        self.buckets = {}
        self._stacks = {}
        for v in contexts:
            self.append(v)

    def append(self, v: Context) -> int:
        self.buckets.setdefault(v.signature(), []).append(len(self.contexts))
        self._stacks.pop(v.signature(), None)
        self.contexts.append(v)
        return len(self.contexts) - 1

    def stack(self, sig):
        """(members, frames): the indices and the stacked (m, n, n) frames
        of a bucket, in index order."""
        if sig not in self._stacks:
            members = self.buckets[sig]
            self._stacks[sig] = (np.array(members, dtype=np.intp),
                                 np.array([self.contexts[i].frame
                                           for i in members]))
        return self._stacks[sig]

    def stacks(self):
        """(signature, members, frames) of every bucket (stack): the
        indices and the stacked (m, n, n) frames of its contexts."""
        for sig in self.buckets:
            yield (sig, *self.stack(sig))

    def matches(self, frames, v: Context):
        """(first, home) for a stack of frames (s, n, n) with V's labels:
        first[b] is the index of the first context equal to frame b, -1
        where none is, and home[b] the block of it that each block of
        frame b lies in (the homes at equality's bound, eps_order^2 / 2)."""
        first = np.full(len(frames), -1, dtype=np.intp)
        home = np.zeros((len(frames), v.k), dtype=np.intp)
        if v.signature() not in self.buckets:
            return first, home
        members, stack = self.stack(v.signature())
        for rows, cols in tiles(len(stack), len(frames), v.dim ** 2):
            todo = first[cols] < 0
            if not todo.any():
                continue
            placed, h = _homes(_overlaps(stack[rows, None], v.starts,
                                         frames[None, cols], v.starts),
                               self.tol.eps_order ** 2 / 2)
            equal = placed.all(axis=-1)
            a = equal.argmax(axis=0)
            hit = np.flatnonzero(todo & equal.any(axis=0))
            first[cols.start + hit] = members[rows.start + a[hit]]
            home[cols.start + hit] = h[a[hit], hit]
        return first, home

    def find(self, candidate: Context) -> int | None:
        i = int(self.matches(candidate.frame[None], candidate)[0][0])
        return None if i < 0 else i

    def images(self, u, inside):
        """(target, homes) of V -> U V U* = (U Y, labels) on the contexts
        of a boolean mask, one product per signature bucket.  target[i]
        is the index of the first context equal to U V_i U*, -1 outside
        the mask or where there is none; homes[i, b] is then the block of
        the target that U Q_b U* lies in, for b < k_i, and -1 elsewhere.
        Equality places every block, so homes is whole wherever target is
        set.  U is validated once: unitary within eps_herm."""
        um = _unitary(u, self.tol)
        inside = np.asarray(inside, dtype=bool)
        target = np.full(len(self.contexts), -1, dtype=np.intp)
        homes = np.full((len(self.contexts),
                         max((s[1] for s in self.buckets), default=0)),
                        -1, dtype=np.intp)
        for sig, members, frames in self.stacks():
            moving = inside[members]
            if not moving.any():
                continue
            first, home = self.matches(um @ frames[moving],
                                       self.contexts[members[0]])
            found = first >= 0
            rows = members[moving][found]
            target[rows] = first[found]
            homes[rows, :sig[1]] = home[found]
        return target, homes

    def meet_edges(self, paired: int):
        """(i, j, edges) for the pairs of contexts i < j with j >= paired,
        one product per ordered pair of signature buckets, tiled as
        tiles slices it: edges[p] is the (k_i, k_j) table of the block
        pairs of V_i and V_j whose overlap tr(Q_a R_b) = ||Q_a R_b||_F^2
        is above eps_order^2, with V_i's blocks as rows.  Buckets of
        different dimensions that would pair raise DimMismatch."""
        buckets = list(self.stacks())
        bound = self.tol.eps_order ** 2
        for (n, _, _), firsts, first_frames in buckets:
            for (dim, _, _), seconds, second_frames in buckets:
                late = seconds >= paired
                early = firsts < seconds[late].max(initial=-1)
                if not early.any():
                    continue
                if dim != n:
                    raise DimMismatch("contexts live in different dimensions")
                lo, hi = firsts[early], seconds[late]
                frames_i, frames_j = first_frames[early], second_frames[late]
                starts = (self.contexts[lo[0]].starts,
                          self.contexts[hi[0]].starts)
                for rows, cols in tiles(len(lo), len(hi), n ** 2):
                    a, b = np.nonzero(lo[rows, None] < hi[None, cols])
                    if not a.size:
                        continue
                    over = _overlaps(frames_i[rows, None], starts[0],
                                     frames_j[None, cols], starts[1])
                    yield lo[rows][a], hi[cols][b], over[a, b] > bound

    def meets(self, paired: int) -> list:
        """(i, j, labels) of every non-trivial meet V_i ∧ V_j, i < j and
        j >= paired, in (i, j) order; labels are the meet's block labels
        on V_i's frame.  The meet's blocks are the components of the
        block-overlap graph (meet_edges): V_i's blocks linked through a
        common V_j block, and each block takes the least label it is
        linked to, k_i rounds over every pair of a tile at once.  A
        component's V_i and V_j sums differ only by the overlaps across
        components, at most k_i k_j eps_order^2 in all."""
        out = []
        for i, j, edges in self.meet_edges(paired):
            k = edges.shape[1]
            linked = edges @ np.swapaxes(edges, 1, 2)
            group = np.broadcast_to(np.arange(k), (len(edges), k))
            for _ in range(k):
                group = np.where(linked, group[:, None, :], k).min(axis=-1)
            keep = (group != group[:, :1]).any(axis=1)
            out.extend(zip(i[keep].tolist(), j[keep].tolist(), group[keep]))
        out.sort(key=lambda meet: meet[:2])
        return [(i, j, group[self.contexts[i].labels])
                for i, j, group in out]


class ContextPoset:
    """A finite poset of contexts with the inclusion order precomputed.

    leq[i, j] is True iff contexts[i] <= contexts[j] (i is a
    coarse-graining of j); block_maps[i, j] is then the map from block
    indices of j to block indices of i (the restriction table).
    strict_pairs is the (m, 2) array of the pairs (i, j), i != j, with
    leq[i, j], in row-major order.  leq and the tables are fixed at
    construction.  index is the ContextIndex of the contexts: their
    signature buckets and stacked frames.

    For each pair of signature buckets, coarser first, one product of
    the two frame stacks gives the overlap tables of every V' with every
    V; V' <= V where every block of V has off-home mass at most
    eps_order^2, and the homes are block_maps.
    """

    def __init__(self, contexts, tol: TolerancePolicy = DEFAULT_TOL):
        self.index = index = ContextIndex(tol, contexts)
        self.contexts = index.contexts
        self.tol = tol
        self.by_id = {v.id: i for i, v in enumerate(self.contexts)}
        if len(self.by_id) != len(self.contexts):
            raise ContextMissing("duplicate context ids in poset")
        n = len(self.contexts)
        self.leq = np.eye(n, dtype=bool)
        self.block_maps = {}
        buckets = list(index.stacks())
        for low, small, coarse in buckets:
            for high, large, fine in buckets:
                if low[0] != high[0] or low[1] > high[1]:
                    continue
                starts = (self.contexts[small[0]].starts,
                          self.contexts[large[0]].starts)
                for rows, cols in tiles(len(coarse), len(fine), low[0] ** 2):
                    placed, home = _homes(
                        _overlaps(coarse[rows, None], starts[0],
                                  fine[None, cols], starts[1]),
                        tol.eps_order ** 2)
                    for a, b in np.argwhere(placed.all(axis=-1)).tolist():
                        i = int(small[rows.start + a])
                        j = int(large[cols.start + b])
                        if i != j:
                            self.leq[i, j] = True
                            self.block_maps[i, j] = tuple(home[a, b].tolist())
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
        """Id of a poset context equal to the candidate, or None."""
        i = self.index.find(candidate)
        return None if i is None else self.contexts[i].id

    def ids(self, inside) -> list:
        """Ids of the contexts in a boolean mask, in index order."""
        return [self.contexts[i].id for i in np.flatnonzero(inside)]

    def is_lower_set(self, inside) -> bool:
        """True iff the contexts in a boolean mask form a lower set."""
        small, large = self.strict_pairs.T
        return not (inside[large] & ~inside[small]).any()

    def maximal_ids(self):
        above = self.leq.sum(axis=1) - self.leq.diagonal()
        return self.ids(above == 0)


def _coarse_grainings(v: Context):
    """All proper coarse-grainings of a context (excluding the trivial
    one-block merge), as label merges on its frame."""
    out = []
    for rgs in _set_partitions(v.k):
        if max(rgs) + 1 in (1, v.k):
            continue  # trivial algebra, or the context itself
        out.append(Context.on_frame(v.frame, np.array(rgs)[v.labels]))
    return out


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

    Downward closure expands each context once, and skips the contexts
    it added: their coarse-grainings are coarse-grainings of their parent.
    A meet pass pairs only contexts of which at least one arrived since
    the previous pass; older pairs would only find their meet again.

    Both other steps are batched on the index as it stands when the
    step starts.  A meet pass takes every pair's overlap graph from one
    product per pair of signature buckets (ContextIndex.meets) and adds
    the non-trivial meets in (i, j) order.  A group sweep moves every
    context by each unitary with one product per bucket
    (ContextIndex.images) and builds with apply_automorphism only the
    (V, U) images the index does not already hold, V-major, then U.  So
    the contexts, their order and the candidate that raises PosetTooLarge
    are those of the pairwise loops.  A non-unitary U raises NotUnitary,
    and contexts of two dimensions DimMismatch, before the step adds
    anything.
    """
    index = ContextIndex(tol)
    contexts = index.contexts

    def add(candidate: Context) -> bool:
        """True when the candidate is new and appended."""
        if index.find(candidate) is not None:
            return False
        if len(contexts) >= max_contexts:
            raise PosetTooLarge(
                f"poset exceeded max_contexts={max_contexts} during closure"
            )
        index.append(candidate)
        return True

    for s in seeds:
        add(s)

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
                for idx in range(cursor, end):
                    if idx in closed:
                        continue
                    before = len(contexts)
                    for w in _coarse_grainings(contexts[idx]):
                        add(w)
                    closed.update(range(before, len(contexts)))
                    changed = changed or len(contexts) > before
                cursor = end
            if meet_closure:
                meets = index.meets(paired)
                paired = len(contexts)
                for i, _, labels in meets:
                    if add(Context.on_frame(contexts[i].frame, labels)):
                        changed = True
            if phase and sweeps <= group_depth:
                snapshot = np.ones(len(contexts), dtype=bool)
                found = [index.images(u, snapshot)[0] for u in phase]
                for v, row in enumerate(np.transpose(found)):
                    for u, hit in zip(phase, row):
                        if hit < 0 and add(apply_automorphism(
                                u, contexts[v], tol=tol)):
                            changed = True
            if phase and sweeps >= group_depth \
                    and not downward_closure and not meet_closure:
                break

    return ContextPoset(contexts, tol)
