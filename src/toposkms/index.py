"""Contexts over one table of their distinct blocks: ContextIndex.

An index holds contexts of one dimension, fixed by the first context
appended.  The contexts of one signature share their labels, so each
bucket's frames are one stacked array (ContextIndex.stack).  The posets
repeat the same blocks many times over: the downward-closed diagonal C^6
poset holds 673 blocks and 62 distinct projections.  So the index keeps
one table of the distinct blocks: table id t is row t of its ranks and
rows arrays.  Each block is matched to it once, when its context is
appended, and each context carries the table id of each of its blocks.

The table only narrows the pairs that are compared.  Lookup (lookup),
the action of a unitary (images) and the order (covering_pairs, which
ContextPoset reads) first test the table, within bounds derived below
that keep every pair the frame test accepts.  The frame test (_overlaps
and _homes on the pair's own frames) then runs on the pairs that
survive, batched (_pair_homes), so each returns what the frame test on
every pair would.  Lookup takes one candidate or a list: every closure
step of build_poset (a downward step in chunks bounded by max_contexts,
a meet pass, a group sweep) looks its candidates up in one batch, with
one product for the frame defects, one against the table and one frame
test per signature, on the dense blocks its canonical form made.  A
batch is matched against the index as it stands, not against itself:
two of its candidates may be equal, and build_poset tests the ones not
found against each other before it appends them in order; append
extends a match made before the table grew.  A meet pass (meets) takes
one product per ordered pair of buckets.  Every product is sliced to
at most PRODUCT_ENTRIES entries.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimMismatch, NotUnitary
from .numerics import is_unitary
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


def _runs(sizes, budget: int):
    """Slices of consecutive items, with the given sizes, that cover them
    in order, each summing to at most budget (or holding a single item)."""
    lo = total = 0
    for i, size in enumerate(np.asarray(sizes).tolist()):
        if i > lo and total + size > budget:
            yield slice(lo, i)
            lo, total = i, 0
        total += size
    yield slice(lo, len(sizes))


def _homes(o, bound: float):
    """(placed, home) for each column b of overlap tables o[..., a, b]:
    home[b] is the row of the largest overlap, and placed[b] says that
    the rest of the column, the off-home mass, is at most bound."""
    home = o.argmax(axis=-2)
    rest = np.where(np.arange(o.shape[-2])[:, None] == home[..., None, :],
                    0.0, o)
    return rest.sum(axis=-2) <= bound, home


def _unitary(u, tol: TolerancePolicy) -> np.ndarray:
    if not is_unitary(u, tol.eps_herm):
        raise NotUnitary(
            f"automorphism matrix is not unitary within {tol.eps_herm}")
    return np.asarray(u, dtype=np.complex128)


# The table pre-filter.  Every test here is first run on the table of
# distinct blocks, and only the pairs it keeps go to the frame test
# (_homes at eps_order^2 / 2 for equality, eps_order^2 for the order).
# So the table's bounds must keep every pair the frame test accepts.
# They are derived for the true projections P_Y onto the spans of the
# frame blocks, with mu(A|B) = ||(1 - A) B||_F and d(A, B) = ||A - B||_F,
# and d = sqrt(2) mu at equal ranks.  For projections A, B, C, D:
#   mu(A|C) <= d(C, B) + d(A, D) + mu(D|B),
# as (1 - A) C = (1 - A)(C - B) + (1 - A)(1 - D) B + (D - A) D B.
#
# Frames are not quite unitary: Y* Y = 1 + F with ||F||_F <= defect
# (ContextIndex.defect, the largest in the index or the probes of one
# lookup; at most 1/2).  A block's Y_b Y_b* is then within defect of P_b, and Y Y* within
# defect of 1.  The table traces tr(Q_a Q_b) are dot products of dense
# blocks (_blocks: n^2 terms, each block formed from its frame columns,
# a moved one by two more products); each is within 8 n^3 u of the
# exact trace of the two Gram matrices (u = ROUNDOFF).  Hence, with
#   sigma = 4 sqrt(n) defect + 8 n^3 u,   s = sqrt(sigma),
# (a) the mass r_b - tr(T_t Q_b) computed off the table is within sigma
#     of the true mu(T_t|P_b)^2, and
# (b) a frame test that accepts the home h of block b has
#     mu(P'_h|P_b) <= lam = eps_order / sqrt(2) + s for equality and
#     <= eps_order + s for the order: the off-home mass is
#     tr((Y' Y'* - Y'_h Y'_h*) Q_b), within sigma of mu(P'_h|P_b)^2.
# Equality (b) with n lam^2 < 1/2 (so small eps_order) pairs the blocks
# one to one at equal ranks, as the masses of a row add up to its rank.
#
# A block gets the lowest table id t of its rank with computed mass
# <= lam^2, or a new id: by (a) mu(T_t|P_b) <= alpha = lam + s.  Then
# - lookup: an equal index block h is within alpha of its id t, so the
#   probe block b has mu(T_t|P_b) <= alpha + lam; kept where the
#   computed mass is at most (alpha + lam)^2 + sigma;
# - images: U P_b U* is within d(P'_h, .) <= sqrt(2) lam_U of P'_h, and
#   moving by U stretches d by at most kappa = sqrt((1 + eta)/(1 - eta))
#   (eta = eps_herm bounds ||U* U - 1||_F, and the moved frames have
#   defect <= defect + 2 eta, giving sigma_U and lam_U); so the moved
#   table block U T_s U* has mu(T_t|.) <= (1 + kappa) alpha + lam_U;
# - order: block b of V inside home h of V' gives, for their ids s and
#   t, mu(T_t|T_s) <= 2 sqrt(2) alpha + eps_order + s.
# The moved frames the frame test reads, U Y rounded, differ from U Y by
# O(n u), far below s.  The bounds are loose (s is about 1e-6 at n = 6),
# so a block may be kept against several table blocks: every kept pair
# goes to the frame test and the lowest confirmed index wins.

#: float64 unit roundoff bound of the table pre-filter
ROUNDOFF = np.finfo(float).eps


def _defect(frames) -> np.ndarray:
    """||Y* Y - 1||_F of each frame of a stack (m, n, n)."""
    gram = frames.conj().transpose(0, 2, 1) @ frames
    gram.reshape(len(frames), -1)[:, ::frames.shape[-1] + 1] -= 1.0
    return np.sqrt(np.square(gram.view(float)).sum(axis=(1, 2)))


def _pair_homes(rows, a, row_starts, cols, b, col_starts, bound: float):
    """(placed, home) of the frame pairs (rows[a[p]], cols[b[p]]): whether
    every block of cols[b[p]] has off-home mass at most bound in
    rows[a[p]], and its homes (_homes), in slices of at most
    PRODUCT_ENTRIES entries."""
    step = max(1, PRODUCT_ENTRIES // rows.shape[-1] ** 2)
    if len(a) > step:
        parts = [_pair_homes(rows, a[lo:lo + step], row_starts,
                             cols, b[lo:lo + step], col_starts, bound)
                 for lo in range(0, len(a), step)]
        return tuple(map(np.concatenate, zip(*parts)))
    placed, home = _homes(_overlaps(rows[a], row_starts, cols[b],
                                    col_starts), bound)
    return placed.all(axis=-1), home


def _blocks(cols, starts) -> np.ndarray:
    """The dense blocks Q_b = Y_b Y_b* = sum of y y* over the columns y of
    block b, one flattened row each.  cols holds frame columns, one per
    row, and block b is the rows from starts[b] to the next start.  The
    outer products are taken in runs of whole blocks, each cut at the
    first block starting at or after a multiple of PRODUCT_ENTRIES / n^2
    columns (rounded down to whole n-column frames, at least one)."""
    n = cols.shape[1]
    width = max(1, PRODUCT_ENTRIES // n ** 3) * n
    if len(cols) > width:
        cuts = np.searchsorted(starts, np.arange(width, len(cols), width))
        return np.concatenate([
            _blocks(part, first - first[0]) for part, first in zip(
                np.split(cols, starts[cuts]), np.split(starts, cuts))])
    outer = cols[:, :, None] * cols.conj()[:, None, :]
    return np.add.reduceat(outer, starts, axis=0).reshape(len(starts), -1)


def _traces(a, b) -> np.ndarray:
    """tr(P_i Q_j) = Re vec(P_i)* vec(Q_j) of the Hermitian block rows a[i]
    and b[j] (_blocks), in slices of rows of a whose product and conjugate
    hold at most PRODUCT_ENTRIES entries; no columns where b has no
    rows."""
    if not len(b):
        return np.zeros((len(a), 0))
    step = max(1, PRODUCT_ENTRIES // max(len(b), a.shape[1]))
    parts = [(a[lo:lo + step].conj() @ b.T).real
             for lo in range(0, len(a), step)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class ContextIndex:
    """Contexts of one dimension in insertion order, bucketed by
    Context.signature(), over one table of their distinct blocks.

    The first context appended fixes dim; a context of another dimension
    raises DimMismatch in lookup and append, before anything is added.
    A bucket shares its labels, so its frames are stacked once (stack).
    Table id t is row t of ranks, the block's rank, and of rows, its
    dense projection (_blocks) from the frame columns of its first
    occurrence.  block_ids[i] gives the table id of each block of
    context i, and keys maps the sorted ids of a context to the contexts
    that have them.  The table only narrows the pairs: lookup, images
    and the order (covering_pairs) confirm each kept pair with the frame
    test, so they return what a scan of every pair would.  meets takes
    the meets of a whole meet pass from one product per ordered pair of
    buckets.
    """

    def __init__(self, tol: TolerancePolicy = DEFAULT_TOL, contexts=()):
        self.tol = tol
        self.dim = 0  # of every context; 0 while there is none
        self.contexts = []
        self.buckets = {}
        self.slots = []  # position of each context in its bucket's stack
        self.block_ids = []
        self.keys = {}
        self.ranks = np.zeros(0, dtype=np.intp)
        self.rows = np.zeros((0, 0), dtype=complex)
        self.defect = 0.0  # largest ||Y* Y - 1||_F of a frame appended
        self._stacks = {}
        for v in contexts:
            self.append(v)

    def _radii(self, n: int, defect: float):
        """(sigma, lam, alpha) of the pre-filter bound at dimension n for
        frames of the given defect (see the comment above ROUNDOFF)."""
        sigma = 4.0 * math.sqrt(n) * defect + 8.0 * n ** 3 * ROUNDOFF
        lam = self.tol.eps_order / math.sqrt(2.0) + math.sqrt(sigma)
        return sigma, lam, lam + math.sqrt(sigma)

    def _candidates(self, choices) -> list:
        """Contexts, in index order, whose table ids are one of choices[b]
        for each block b."""
        found = set()
        for combo in itertools.product(*choices):
            found.update(self.keys.get(tuple(sorted(combo)), ()))
        return sorted(found)

    def _match(self, probes, rows=None):
        """(defect, masses, rows, first) of a list of probes against the
        table, their blocks stacked in order, probe c's from first[c] to
        first[c + 1]: each probe frame's defect (_defect); masses[b, t],
        the computed mass r_b - tr(Q_b T_t) of block b outside table block
        t, inf at other ranks; and the probes' blocks, as given (from
        _canonical_forms) or formed from their frames (_blocks)."""
        n = probes[0].dim
        if any(v.dim != n for v in probes) or (self.contexts
                                               and n != self.dim):
            raise DimMismatch("contexts live in different dimensions")
        frames = np.array([v.frame for v in probes])
        if rows is None:
            rows = _blocks(np.swapaxes(frames, -1, -2).reshape(-1, n),
                           np.concatenate([v.starts + c * n
                                           for c, v in enumerate(probes)]))
        rank = np.array([r for v in probes for r in v.ranks])[:, None]
        return (_defect(frames),
                np.where(rank == self.ranks,
                         rank - _traces(rows, self.rows), np.inf),
                rows, [0, *itertools.accumulate(v.k for v in probes)])

    def lookup(self, candidates, rows=None):
        """(index, match) of a candidate, or a list of them for a list of
        candidates of one dimension: the index of the first context equal
        to the candidate (its frame test at eps_order^2 / 2), None where
        none is, and its match against the table, for append.  rows are
        the candidates' dense blocks in order, if _canonical_forms made
        them, or None.

        A list is matched in one batch against the index as it stands:
        one product for the frame defects, one against the table, and one
        frame test (_pair_homes) per signature over the kept (candidate,
        context) pairs.  It does not compare the candidates with each
        other: two of them may be equal, and each is then found or not
        found in the index alone.  A caller that appends the batch in
        order tests the candidates that were not found against each other
        (build_poset does, one frame test per signature) to get what one
        lookup at a time would; append extends a match made before other
        contexts were added."""
        if not isinstance(candidates, list):
            return self.lookup([candidates])[0]
        defect, masses, rows, first = self._match(candidates, rows)
        # the largest defect of the index and the batch bounds them all
        sigma, lam, alpha = self._radii(
            candidates[0].dim, max(self.defect, *defect.tolist()))
        block, near = np.nonzero(masses <= (alpha + lam) ** 2 + sigma)
        choices = [[] for _ in range(first[-1])]
        for b, t in zip(block.tolist(), near.tolist()):
            choices[b].append(t)
        pairs = {}
        for c, v in enumerate(candidates):
            for i in self._candidates(choices[first[c]:first[c + 1]]):
                pairs.setdefault(v.signature(), []).append((c, i))
        found = [None] * len(candidates)
        for kept in pairs.values():
            c, i = map(list, zip(*kept))
            starts = candidates[c[0]].starts
            placed, _ = _pair_homes(
                np.array([self.contexts[j].frame for j in i]),
                np.arange(len(i)), starts,
                np.array([candidates[x].frame for x in c]),
                np.arange(len(c)), starts, self.tol.eps_order ** 2 / 2)
            # pairs run by candidate, then by index: the first placed wins
            for p in np.flatnonzero(placed)[::-1].tolist():
                found[c[p]] = i[p]
        return [(found[c], (defect[c], masses[first[c]:first[c + 1]],
                            rows[first[c]:first[c + 1]]))
                for c in range(len(candidates))]

    def append(self, v, match=None) -> int:
        """Add a context; match is a lookup's, or is computed.  A match
        made before other contexts were added is extended with the masses
        against the table blocks added since.  Each block takes the
        lowest table id of its rank within lam, or the next new id with
        its own dense block."""
        if match is None:
            defect, masses, rows, _ = self._match([v])
            defect = defect[0]
        else:
            defect, masses, rows = match
        if masses.shape[1] < len(self.ranks):
            rank = np.array(v.ranks)[:, None]
            added = self.ranks[masses.shape[1]:]
            masses = np.hstack((masses, np.where(
                rank == added,
                rank - _traces(rows, self.rows[masses.shape[1]:]), np.inf)))
        defect = max(self.defect, float(defect))
        block_ids, new = [], []
        for b, near in enumerate(
                (masses <= self._radii(v.dim, defect)[1] ** 2).tolist()):
            if True in near:
                block_ids.append(near.index(True))
            else:
                block_ids.append(len(self.ranks) + len(new))
                new.append(b)
        if new:
            self.ranks = np.concatenate((self.ranks,
                                         [v.ranks[b] for b in new]))
            self.rows = (np.concatenate((self.rows, rows[new]))
                         if self.contexts else rows[new])
        i = len(self.contexts)
        self.dim = v.dim
        self.defect = defect
        self.block_ids.append(tuple(block_ids))
        self.keys.setdefault(tuple(sorted(block_ids)), []).append(i)
        bucket = self.buckets.setdefault(v.signature(), [])
        self.slots.append(len(bucket))
        bucket.append(i)
        self._stacks.pop(v.signature(), None)
        self.contexts.append(v)
        return i

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

    def images(self, u, inside):
        """(target, homes) of V -> U V U* = (U Y, labels) on the contexts
        of a boolean mask.  target[i] is the index of the first context
        equal to U V_i U*, -1 outside the mask or where there is none;
        homes[i, b] is then the block of the target that U Q_b U* lies
        in, for b < k_i, and -1 elsewhere.  Equality places every block,
        so homes is whole wherever target is set.  U is validated once:
        unitary within eps_herm.

        The table blocks that the masked contexts use are moved by U in
        one product and kept against the table blocks of their rank within
        the images bound; a context's candidates are the contexts with one
        kept id per block, and the frame test confirms them, one batch per
        signature bucket."""
        um = _unitary(u, self.tol)
        inside = np.asarray(inside, dtype=bool)
        target = np.full(len(self.contexts), -1, dtype=np.intp)
        homes = np.full((len(self.contexts),
                         max((s[1] for s in self.buckets), default=0)),
                        -1, dtype=np.intp)
        # the masked contexts of each bucket and their table ids, and the
        # ids they use
        masked, used = {}, np.zeros(len(self.ranks), dtype=bool)
        for sig, members, _ in self.stacks():
            rows = members[inside[members]]
            if rows.size:
                ids = np.array([self.block_ids[i] for i in rows.tolist()])
                masked[sig] = rows, ids
                used[ids.ravel()] = True
        if not masked:
            return target, homes
        image, several = self._moves(um, np.flatnonzero(used))
        for sig, members, frames in self.stacks():
            if sig not in masked:
                continue
            moving, ids = masked[sig]
            source, slot = [], []
            for q, (key, blocks) in enumerate(zip(
                    np.sort(image[ids], axis=1).tolist(), ids.tolist())):
                if several and not several.keys().isdisjoint(blocks):
                    found = self._candidates([several.get(t, [image[t]])
                                              for t in blocks])
                else:
                    found = self.keys.get(tuple(key), ())
                for j in found:
                    source.append(q)
                    slot.append(self.slots[j])
            if not source:
                continue
            source, slot = np.array(source), np.array(slot)
            starts = self.contexts[members[0]].starts
            placed, home = _pair_homes(frames, slot, starts,
                                       um @ frames[inside[members]], source,
                                       starts, self.tol.eps_order ** 2 / 2)
            # pairs run by source, then by index; written last to first,
            # so each source keeps its first confirmed target
            hit = np.flatnonzero(placed)[::-1]
            rows = moving[source[hit]]
            target[rows] = members[slot[hit]]
            homes[rows, :sig[1]] = home[hit]
        return target, homes

    def _moves(self, um, used):
        """(image, several) of the table blocks with the ids `used` moved
        by U: each moved block s is kept against the table blocks t of its
        rank within the images bound.  image[s] is its one kept t (-1
        where none is, and the first where several are, and -1 for the
        ids not used), and several maps the s with more than one kept t
        to all of them, in id order."""
        n, ranks, rows = self.dim, self.ranks, self.rows
        eta = self.tol.eps_herm
        kappa = math.sqrt((1 + eta) / (1 - eta)) if eta < 1 else math.inf
        sigma, lam, _ = self._radii(n, self.defect + 2 * eta)
        bound = ((1 + kappa) * self._radii(n, self.defect)[2] + lam) ** 2 \
            + sigma
        # U T U* for every used block T, as two products: U [T_1 | T_2 |
        # ...], then its n x n pieces stacked and times U*
        left = um @ rows[used].reshape(-1, n, n).transpose(1, 0, 2).reshape(
            n, -1)
        moved = left.reshape(n, -1, n).transpose(1, 0, 2).reshape(-1, n) \
            @ um.conj().T
        near = (ranks[:, None] == ranks[used]) & (
            ranks[used] - _traces(rows, moved.reshape(len(used), -1))
            <= bound)
        count = near.sum(axis=0)
        image = np.full(len(ranks), -1, dtype=np.intp)
        image[used] = np.where(count > 0, near.argmax(axis=0), -1)
        several = {int(used[s]): np.flatnonzero(near[:, s]).tolist()
                   for s in np.flatnonzero(count > 1)}
        return image, several

    def covering_pairs(self):
        """(small, large): the pairs of distinct contexts, small having at
        most as many blocks, where each table block of the large context
        lies within some table block of the small one (the order bound),
        a superset of the pairs the order's frame test accepts.  covers[s,
        i] says that a block of context i holds table block s; the pairs
        are read off it in runs of contexts whose gathered rows hold at
        most PRODUCT_ENTRIES entries."""
        m, d = len(self.contexts), len(self.ranks)
        sigma, _, alpha = self._radii(self.dim, self.defect)
        inside = self.ranks - _traces(self.rows, self.rows) <= (
            2 * math.sqrt(2.0) * alpha + self.tol.eps_order
            + math.sqrt(sigma)) ** 2 + sigma
        ks = np.array([v.k for v in self.contexts], dtype=np.intp)
        ids = np.fromiter(itertools.chain.from_iterable(self.block_ids),
                          dtype=np.intp, count=int(ks.sum()))
        first = np.concatenate(([0], np.cumsum(ks)))
        runs = list(_runs(ks * max(m, d), PRODUCT_ENTRIES))
        covers = np.zeros((d, m), dtype=bool)
        for run in runs:
            lo = first[run.start]
            covers[:, run] = np.logical_or.reduceat(
                inside[ids[lo:first[run.stop]]], first[run] - lo, axis=0).T
        small, large = [], []
        for run in runs:
            lo = first[run.start]
            held = np.logical_and.reduceat(covers[ids[lo:first[run.stop]]],
                                           first[run] - lo, axis=0)
            b, a = np.nonzero(held)
            small.append(a)
            large.append(b + run.start)
        small, large = np.concatenate(small), np.concatenate(large)
        keep = (small != large) & (ks[small] <= ks[large])
        return small[keep], large[keep]

    def meet_edges(self, paired: int):
        """(i, j, edges) for the pairs of contexts i < j with j >= paired,
        one product per ordered pair of signature buckets, tiled as
        tiles slices it: edges[p] is the (k_i, k_j) table of the block
        pairs of V_i and V_j whose overlap tr(Q_a R_b) = ||Q_a R_b||_F^2
        is above eps_order^2, with V_i's blocks as rows."""
        buckets = list(self.stacks())
        bound = self.tol.eps_order ** 2
        for _, firsts, first_frames in buckets:
            for _, seconds, second_frames in buckets:
                late = seconds >= paired
                early = firsts < seconds[late].max(initial=-1)
                if not early.any():
                    continue
                lo, hi = firsts[early], seconds[late]
                frames_i, frames_j = first_frames[early], second_frames[late]
                starts = (self.contexts[lo[0]].starts,
                          self.contexts[hi[0]].starts)
                for rows, cols in tiles(len(lo), len(hi), self.dim ** 2):
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
