"""The spectral presheaf over a context poset and its clopen sub-objects.

The component at a context V is the Gel'fand spectrum of V: one character
per minimal projection.  For V' <= V the restriction map sends the
character of a V-block to the character of the unique V'-block above it.
SpectralPresheaf puts the characters of all contexts on one flat axis and
stores the restriction maps as edges on it, one per strict pair and
block of the larger context.

A clopen sub-object picks one subset of characters per context of a
lower set, closed under restriction.  It is a boolean mask over the flat
axis plus a boolean mask of its domain; the closure check (check_masks,
for one mask or a stack of them, the one validation path: a
ClopenSubobject runs it on a stack of one) and downward completion are
gathers and scatters over the edges, and so are the meet, join and
Heyting negation the measure check forms on its stack of pairs.  That
mask is the only form measure code reads:
mu(S)(V) is a sum of block weights over S_V, for every context at once,
and no matrix is formed; SpectralPresheaf.weights reads the weights of
a matrix, or a stack of them, with one product per signature bucket of
stacked frames, and keeps them per (matrix, context mask) as action
keeps the action.  The lattice isomorphism between P(V) and the
clopen subsets at V sends a lattice projection P to {lambda : lambda(P) = 1}
and a subset S back to the block sum over S (Context.block_sum); that
dense sum is built only where a matrix is needed, for C2 and the
daseinisation output.  Reconstruction reads block weights too.

A family of sub-objects on one domain is a mask stack, one row per
member, as enumerate_subobjects returns the members of a truth object,
the measure check takes its pairs and the cutoff-invariance check masks
its daseinised projections with its stages' lower sets; no member is
wrapped as a ClopenSubobject.  SpectralPresheaf.sections sums block
weights for a whole stack at once, by the same cumulative rule as a
single mask.

Outer daseinisation approximates an arbitrary projection from above
inside a context: the smallest lattice element dominating it.  The fast
form keeps exactly the blocks with non-zero overlap (block_overlaps);
SpectralPresheaf.dasein_masks applies it to a stack of projections at
every context, one product per signature bucket of stacked frames, and
dasein_indices to one context, which need not lie in the poset.  The
independent oracle, outer_daseinisation_bruteforce, stays dense: for
each context of a signature bucket it forms the dense blocks and their
2^k subset sums L, and takes (1 - L) p for every (context, L, p) with
one GEMM per tile of at most PRODUCT_ENTRIES entries, with proj_leq's
threshold; a single context is a bucket of one.  The presheaf suite
compares dasein_masks with it bucket by bucket, and checks
functoriality with SpectralPresheaf.broken_chains, one gather over
every (edge into a middle context, context below it) pair.

A unitary acts on the presheaf through one pair of index arrays,
SpectralPresheaf.action: the poset index of each moved context and the
character each character is carried to (ContextIndex.images, one
product per signature bucket).  It is computed once per (unitary,
domain) and kept on the presheaf, so C1, the group action, internal C1
and pullback share it.
pullback is one gather of a mask stack through the characters, and
ClopenSubobject.moved is the one rule for mu(S) at a moved context;
ClopenSubobject.orbit stacks it over a list of unitaries.
"""
from __future__ import annotations

import itertools

import numpy as np

from .algebra import (
    Context,
    ContextPoset,
    lattice_projection,
)
from .errors import (
    DimMismatch,
    DomainMismatch,
    EnumerationTooLarge,
    LatticeTooLarge,
    NotClosedUnderRestriction,
    NotInLattice,
    PosetNotClosed,
)
from .index import _runs, tiles
from .numerics import Projection, as_matrix, dagger
from .tolerances import DEFAULT_TOL, TolerancePolicy

# most nodes, candidate components at one context, enumerate_subobjects
# visits on one lower set
ENUMERATION_NODE_CAP = 1_000_000

# most blocks of a context whose 2^k lattice elements the brute-force
# daseinisation oracle scans
MAX_LATTICE_BLOCKS = 20

# most (mask, edge) pairs the closure test of check_masks gathers at
# once, about 1 MB of booleans
CLOSURE_ENTRIES = 1 << 20

# most (edge into a middle context, context below it) pairs that
# SpectralPresheaf.broken_chains compares at once; each holds a few
# int64 temporaries, so a run stays near 100 KB
CHAIN_PAIRS = 1 << 12


class SpectralPresheaf:
    """Every context's characters on one flat axis, and the restriction
    maps as edges on it.

    Context i owns the characters offsets[i] .. offsets[i + 1] - 1, one
    per block in block order; owner and slot give each character's
    context and block.  For every strict pair V' < V and every block b of
    V there is one edge src -> dst, from b's character to the character
    of its home block in V' (ContextPoset.block_maps).  The strict pairs
    are transitive, so the edges out of a character reach its restriction
    at every smaller context and a single gather or scatter over them
    covers every chain.  width is the largest spectrum, the row length
    sections() lays each context out on.
    """

    def __init__(self, poset: ContextPoset):
        self.poset = poset
        self.tol = poset.tol
        ks = np.array([v.k for v in poset.contexts], dtype=np.intp)
        self.offsets = np.concatenate(([0], np.cumsum(ks))).astype(np.intp)
        self.owner = np.repeat(np.arange(len(ks)), ks)
        self.slot = _ragged(ks)
        self.width = int(ks.max(initial=0))
        pairs = poset.strict_pairs
        sizes = ks[pairs[:, 1]]
        homes = np.fromiter(
            itertools.chain.from_iterable(poset.block_maps[i, j]
                                          for i, j in pairs.tolist()),
            dtype=np.intp, count=int(sizes.sum()))
        self.src = np.repeat(self.offsets[pairs[:, 1]], sizes) + _ragged(sizes)
        self.dst = np.repeat(self.offsets[pairs[:, 0]], sizes) + homes
        self._actions = {}
        self._weights = {}

    def weights(self, m, inside=None) -> np.ndarray:
        """Flat block weights Re tr(m Q_i) (Context.weights) at the
        contexts of the boolean mask `inside`, every context by default,
        and 0 elsewhere; m is a matrix or a stack of them (..., n, n).
        One product per signature bucket of stacked frames, sliced to at
        most PRODUCT_ENTRIES, with Context.weights' expression.  Computed
        once per (m, mask), m by dtype, shape and entries, and kept on the
        presheaf as action is; the array is read-only."""
        m = np.asarray(m)
        key = (m.dtype.str, m.shape, m.tobytes(),
               None if inside is None else np.asarray(inside, bool).tobytes())
        if key in self._weights:
            return self._weights[key]
        stack = m.reshape((-1,) + m.shape[-2:])
        out = np.zeros((len(stack), self.offsets[-1]))
        for (n, k, _), members, frames in self.poset.index.stacks():
            if inside is not None:
                keep = inside[members]
                members, frames = members[keep], frames[keep]
            if not len(members):
                continue
            starts = self.poset.contexts[members[0]].starts
            chars = self.offsets[members][:, None] + np.arange(k)
            for rows, cols in tiles(len(frames), len(stack), n * n):
                diag = np.einsum("cij,scij->scj", frames[rows].conj(),
                                 stack[cols, None] @ frames[rows]).real
                out[cols, chars[rows].ravel()] = np.add.reduceat(
                    diag, starts, axis=-1).reshape(diag.shape[0], -1)
        out.flags.writeable = False
        self._weights[key] = out.reshape(m.shape[:-2] + out.shape[-1:])
        return self._weights[key]

    def sections(self, masks, weights) -> np.ndarray:
        """mu at every context of each mask of a stack (..., characters)
        under flat weights, or a stack of them, broadcast against each
        other: the flat weights over the mask summed per context, laid
        out one row per context and added cumulatively left to right in
        block order (block_sums), as the rows of a measure table are."""
        lead = np.broadcast_shapes(np.shape(masks), np.shape(weights))[:-1]
        rows = np.zeros(lead + (len(self.poset), self.width))
        rows[..., self.owner, self.slot] = np.where(masks, weights, 0.0)
        return block_sums(rows)

    def broken_chains(self):
        """(chains, broken): the number of strict chains small < mid <
        large, and of those on which some character of `large` restricted
        through `mid` lands on another character of `small` than
        restricted directly.  Every (edge into mid, context below mid)
        pair is one comparison of two gathers, taken in runs of middle
        contexts of at most CHAIN_PAIRS pairs each."""
        n = len(self.poset)
        strict = self.poset.leq & ~np.eye(n, dtype=bool)
        into = self.owner[self.dst]
        # the restriction of character x to a smaller context c is the dst
        # of the one edge keyed x * n + c; every strict pair has its edges
        keys = self.src * n + into
        order = np.argsort(keys)
        keys, ends = keys[order], self.dst[order]

        def image(x, c):
            return ends[np.searchsorted(keys, x * n + c)]

        by_mid = np.argsort(into)
        edges_at = np.searchsorted(into[by_mid], np.arange(n + 1))
        mids, smalls = np.nonzero(strict.T)
        below_at = np.searchsorted(mids, np.arange(n + 1))
        below = np.diff(below_at)
        broken = 0
        for run in _runs(np.diff(edges_at) * below, CHAIN_PAIRS):
            edges = by_mid[edges_at[run.start]:edges_at[run.stop]]
            reps = below[into[edges]]
            small = smalls[np.repeat(below_at[into[edges]], reps)
                           + _ragged(reps)]
            edges = np.repeat(edges, reps)
            wrong = (image(self.dst[edges], small)
                     != image(self.src[edges], small))
            edges, small = edges[wrong], small[wrong]
            # a chain (small, mid, large) is broken once, whichever of
            # large's characters goes wrong; a set, as np.unique imports
            # numpy.ma on first use (about 1 MB of peak RSS)
            broken += len(set(zip(self.owner[self.src[edges]].tolist(),
                                  into[edges].tolist(), small.tolist())))
        return int(strict.sum(axis=0) @ strict.sum(axis=1)), broken

    def action(self, u, domain):
        """(target, to) of the automorphism V -> U V U* on the contexts of
        a boolean mask, by ContextIndex.images.  target[i] is the index of
        the poset context equal to U V_i U*, -1 where the poset has none;
        to[x] is the character that character x is carried to (U Q U* lies
        in its block), -1 outside the mask or off the poset.  Computed
        once per (U, mask) and kept on the presheaf; the arrays are
        read-only."""
        domain = np.asarray(domain, dtype=bool)
        key = (np.asarray(u, dtype=np.complex128).tobytes(), domain.tobytes())
        if key in self._actions:
            return self._actions[key]
        target, homes = self.poset.index.images(u, domain)
        home = homes[self.owner, self.slot]
        # target -1 reads the last offset, where home is -1 too
        to = np.where(home >= 0, self.offsets[target[self.owner]] + home, -1)
        target.flags.writeable = to.flags.writeable = False
        self._actions[key] = target, to
        return target, to

    def dasein_masks(self, ps) -> np.ndarray:
        """Outer daseinisation of each projection of a stack at every
        context, as flat character masks (m, characters): block i of V is
        in the mask of p iff block_overlaps puts ||Q_i p||_F^2 above
        eps_order^2, as dasein_indices does, one product per signature
        bucket of stacked frames, sliced to at most PRODUCT_ENTRIES."""
        ps = np.stack([as_matrix(p) for p in ps])
        masks = np.zeros((len(ps), self.offsets[-1]), dtype=bool)
        for (n, k, _), members, frames in self.poset.index.stacks():
            starts = self.poset.contexts[members[0]].starts
            chars = self.offsets[members][:, None] + np.arange(k)
            for rows, cols in tiles(len(frames), len(ps), n * n):
                over = block_overlaps(frames[rows], starts, ps[cols])
                masks[cols, chars[rows].ravel()] = (
                    np.swapaxes(over, 0, 1).reshape(over.shape[1], -1)
                    > self.tol.eps_order ** 2)
        return masks

    def mask_of(self, components: dict):
        """(character mask, context mask) of the input format context id
        -> character indices; DomainMismatch for an index out of range."""
        mask = np.zeros(self.offsets[-1], dtype=bool)
        contexts = np.zeros(len(self.poset), dtype=bool)
        for cid, indices in components.items():
            i = self.poset.index_of(cid)
            indices = np.array(sorted(indices), dtype=np.intp)
            if indices.size and not (0 <= indices[0]
                                     and indices[-1] < self.poset.contexts[i].k):
                raise DomainMismatch(f"character index out of range at {cid}")
            contexts[i] = True
            mask[self.offsets[i] + indices] = True
        return mask, contexts


def _reaches(domain, target) -> np.ndarray:
    """Context mask of the V whose moved context target[V]
    (SpectralPresheaf.action) lies in the context mask domain."""
    # target -1 reads the last context, and is masked out
    return (target >= 0) & domain[target]


def block_sums(rows) -> np.ndarray:
    """Sums along the last axis, added left to right one entry at a
    time: the one rule every measure of a component is added by
    (np.add.reduceat would add the first entry to a pairwise sum of the
    rest).  The additions are np.cumsum's, one vectorised add per entry
    of the axis; a cumulative pass along a short last axis cost several
    times more."""
    rows = np.asarray(rows)
    total = rows[..., 0].copy()
    for s in range(1, rows.shape[-1]):
        total += rows[..., s]
    return total


def _ragged(sizes) -> np.ndarray:
    """Concatenated aranges 0 .. size - 1 for each size."""
    sizes = np.asarray(sizes, dtype=np.intp)
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def block_overlaps(frames, starts, ps) -> np.ndarray:
    """||Q_i p||_F^2 = ||Y_i* p||_F^2 of each block of a frame, or of each
    frame of a stack (..., n, n) with labels starting at starts, with each
    projection of a stack ps (m, n, n): shape (..., m, k)."""
    moved = np.swapaxes(frames.conj(), -1, -2)[..., None, :, :] @ ps
    return np.add.reduceat(np.linalg.norm(moved, axis=-1) ** 2, starts,
                           axis=-1)


def dasein_indices(p, v: Context, tol: TolerancePolicy = DEFAULT_TOL) -> tuple:
    """Blocks of the outer daseinisation of p at V, in index order; V
    need not lie in a poset (SpectralPresheaf.dasein_masks is the
    presheaf-wide form).

    A block participates iff it overlaps p (||Q_i p||_F = ||Y_i* p||_F >
    eps_order): dropping any overlapping block breaks domination, and the
    overlapping sum already dominates.
    """
    overlap = block_overlaps(v.frame, v.starts, as_matrix(p)[None])[0]
    return tuple(np.flatnonzero(overlap > tol.eps_order ** 2).tolist())


def outer_daseinisation(p, v: Context, tol: TolerancePolicy = DEFAULT_TOL) -> Projection:
    """Smallest lattice element of V dominating p: the block sum over
    dasein_indices(p, V)."""
    return lattice_projection(v, dasein_indices(p, v, tol), tol)


def outer_daseinisation_bruteforce(ps, frames, starts,
                                   tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Independent oracle for the outer daseinisation of each projection
    of a stack ps (m, n, n) at a context, or at every context of a
    signature bucket: frames is one n x n frame or a stack of frames
    (..., n, n) whose blocks start at the columns `starts`
    (ContextIndex.stacks).  Returns boolean rows (..., m, k), the blocks
    of the minimum of each (context, p).

    The minimum is found by scanning all 2^k dense lattice elements L of
    each context, the subset sums of its dense blocks: the fewest blocks
    among the elements that dominate p, then the smallest sorted indices.
    Domination is proj_leq's test, ||(1 - L) p||_F <= eps_order.  The
    (context, L) pairs are taken in tiles of at most PRODUCT_ENTRIES
    entries (tiles), each one GEMM of the rows of (1 - L), stacked
    (tile * n, n), by the projections side by side (n, m * n)."""
    ps = np.asarray(ps, dtype=np.complex128)
    n = np.shape(frames)[-1]
    if ps.ndim != 3 or ps.shape[1:] != (n, n):
        raise DimMismatch(f"expected a stack of {n} x {n} matrices, "
                          f"got shape {ps.shape}")
    if not np.isfinite(ps).all():
        raise ValueError("matrix contains non-finite entries")
    k = len(starts)
    if k > MAX_LATTICE_BLOCKS:
        raise LatticeTooLarge(
            f"2^{k} lattice elements exceed the enumeration guard")
    stack = np.reshape(frames, (-1, n, n))
    ends = list(starts[1:]) + [n]
    m = len(ps)
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1 == 1
    sums = bits.astype(float)
    side = np.swapaxes(ps, 0, 1).reshape(n, m * n)
    dominates = np.empty((len(stack), 1 << k, m), dtype=bool)
    built = None
    for rows, cols in tiles(len(stack), 1 << k, n * m * n):
        if rows != built:
            y = stack[rows]
            blocks = np.stack([y[..., a:b] @ np.swapaxes(y[..., a:b].conj(),
                                                         -1, -2)
                               for a, b in zip(starts, ends)], axis=1)
            blocks = blocks.reshape(len(y), k, n * n)
            built = rows
        lattice = sums[cols] @ blocks
        # the Frobenius norm of (1 - L) p summed over its real and
        # imaginary parts
        parts = (np.eye(n) - lattice.reshape(-1, n, n)).reshape(-1, n) @ side
        parts = parts.view(np.float64).reshape(-1, n, m, 2 * n)
        norms = np.sqrt(np.einsum("limj,limj->lm", parts, parts))
        dominates[rows, cols] = (norms <= tol.eps_order).reshape(
            lattice.shape[:2] + (m,))
    if not dominates.any(axis=1).all():
        raise NotInLattice("no lattice element dominates p (identity should)")
    # fewest blocks first; among equal counts the sorted index tuples
    # compare as the bit rows do, a set with block 0 before one without,
    # then block 1, and so on
    order = np.lexsort(tuple(~bits[:, ::-1].T) + (bits.sum(axis=1),))
    first = dominates[:, order].argmax(axis=1)
    return bits[order[first]].reshape(np.shape(frames)[:-2] + (m, k))


def check_masks(presheaf: SpectralPresheaf, masks, domains) -> None:
    """Raise for the first mask of a stack (..., characters), in C order,
    that is not a clopen sub-object on its domain, the domains (...,
    contexts) broadcast against the masks: DomainMismatch for characters
    outside the domain, then for a domain that is not a lower set, then
    NotClosedUnderRestriction, naming the first edge, for a mask that a
    restriction leaves.  The closure gather takes the masks in slices of
    at most CLOSURE_ENTRIES (mask, edge) entries."""
    ph = presheaf

    def leaves(m):
        return m[..., ph.src] & ~m[..., ph.dst]

    small, large = ph.poset.strict_pairs.T
    outside = (masks & ~domains[..., ph.owner]).any(axis=-1)
    lower = ~(domains[..., large] & ~domains[..., small]).any(axis=-1)
    flat = masks.reshape(-1, masks.shape[-1])
    broken = np.zeros(len(flat), dtype=bool)
    step = max(1, CLOSURE_ENTRIES // max(1, len(ph.src)))
    for lo in range(0, len(flat), step):
        broken[lo:lo + step] = leaves(flat[lo:lo + step]).any(axis=-1)
    bad = outside | ~lower | broken.reshape(outside.shape)
    if not bad.any():
        return
    r = np.unravel_index(bad.argmax(), bad.shape)
    if outside[r]:
        raise DomainMismatch("sub-object characters outside its domain")
    if not np.broadcast_to(lower, bad.shape)[r]:
        raise DomainMismatch("sub-object domain is not a lower set")
    e = int(leaves(masks[r]).argmax())
    large, small = (ph.poset.contexts[ph.owner[x]].id
                    for x in (ph.src[e], ph.dst[e]))
    raise NotClosedUnderRestriction(
        f"restriction {large} -> {small} leaves the sub-object")


class ClopenSubobject:
    """A clopen sub-object of the spectral presheaf: a boolean mask over
    the presheaf's characters and a boolean mask of its domain, a lower
    set of contexts.

    Every construction checks, by check_masks on a stack of one, that
    the mask lies on the domain, that the domain is a lower set, and, in
    one gather over the restriction edges, that the mask is closed under
    restriction; a mask or domain of the wrong length raises as
    characters outside the domain.  from_components reads the
    input format, context id -> character indices.  flow_equivariant
    marks families built by transporting a single lattice projection
    along a unitary orbit, for which the component at a conjugated
    context is the conjugated block set; checks may then evaluate the
    family at off-poset contexts.
    """

    __slots__ = ("presheaf", "mask", "domain", "name", "flow_equivariant")

    def __init__(self, presheaf: SpectralPresheaf, mask, domain,
                 name: str = "", flow_equivariant: bool = False):
        self.presheaf = presheaf
        self.mask = np.array(mask, dtype=bool)
        self.domain = np.array(domain, dtype=bool)
        self.mask.flags.writeable = self.domain.flags.writeable = False
        self.name = name
        self.flow_equivariant = flow_equivariant
        if (self.mask.shape != presheaf.owner.shape
                or self.domain.shape != (len(presheaf.poset),)):
            raise DomainMismatch("sub-object characters outside its domain")
        check_masks(presheaf, self.mask, self.domain)

    @classmethod
    def from_components(cls, presheaf: SpectralPresheaf, components: dict,
                        name: str = "") -> "ClopenSubobject":
        """The sub-object with the given components, context id ->
        character indices; its domain is the set of keys."""
        return cls(presheaf, *presheaf.mask_of(components), name=name)

    def component(self, context_id: str) -> frozenset:
        i = self.presheaf.poset.index_of(context_id)
        if not self.domain[i]:
            raise DomainMismatch(f"context {context_id!r} outside sub-object domain")
        lo, hi = self.presheaf.offsets[i:i + 2]
        return frozenset(np.flatnonzero(self.mask[lo:hi]).tolist())

    def measure(self, weights) -> np.ndarray:
        """mu(S)(V) = sum of the flat block weights over S_V at every
        context V (SpectralPresheaf.sections), NaN outside the domain."""
        return np.where(self.domain,
                        self.presheaf.sections(self.mask, weights), np.nan)

    def moved(self, here, target, pulled_state):
        """(values, on_poset): mu(S) at U V U* for every context V of the
        domain, NaN elsewhere, with target from SpectralPresheaf.action.

        here is mu(S) of a state; where U V U* lies in the domain the value
        is here at it (on_poset).  Elsewhere a flow-equivariant family's
        component is U P_{S_V} U*, and its measure is mu(S)(V) of the
        pulled density matrix U* rho U, computed only then; any other
        family raises PosetNotClosed."""
        on_poset = self.domain & _reaches(self.domain, target)
        values = np.where(on_poset, here[target], np.nan)
        off = self.domain & ~on_poset
        if off.any():
            if not self.flow_equivariant:
                raise PosetNotClosed(
                    f"context {self.presheaf.poset.contexts[off.argmax()].id} "
                    f"moves out of the domain and the family is not "
                    f"flow-equivariant")
            values[off] = self.measure(
                self.presheaf.weights(pulled_state, off))[off]
        return values, on_poset

    def orbit(self, rho, unitaries):
        """(here, values, on_poset) over the domain contexts in index
        order: here is mu(S) of the density matrix rho at each of them,
        and row k of values and on_poset is moved under the k-th
        unitary U, with U* rho U as the pulled state."""
        ph = self.presheaf
        here = self.measure(ph.weights(rho))
        values = np.empty((len(unitaries), int(self.domain.sum())))
        on_poset = np.empty(values.shape, dtype=bool)
        for k, u in enumerate(unitaries):
            row, hit = self.moved(here, ph.action(u, self.domain)[0],
                                  dagger(u) @ rho @ u)
            values[k], on_poset[k] = row[self.domain], hit[self.domain]
        return here[self.domain], values, on_poset


def complete_downward(presheaf: SpectralPresheaf, assignments: dict,
                      name: str = "") -> ClopenSubobject:
    """Smallest clopen sub-object containing the given partial components
    (context id -> character indices).

    The domain is the lower set generated by the assigned contexts, and
    every assigned character adds its restriction at every smaller
    context: one scatter over the transitive edge list.
    """
    mask, assigned = presheaf.mask_of(assignments)
    domain = presheaf.poset.leq[:, assigned].any(axis=1)
    mask[presheaf.dst[mask[presheaf.src]]] = True
    return ClopenSubobject(presheaf, mask, domain, name=name)


def daseinisation_subobject(p, presheaf: SpectralPresheaf,
                            name: str = "") -> ClopenSubobject:
    """Global sub-object V -> blocks of the outer daseinisation of p at V,
    under the presheaf's policy (SpectralPresheaf.dasein_masks)."""
    return ClopenSubobject(presheaf, presheaf.dasein_masks([p])[0],
                           np.ones(len(presheaf.poset), dtype=bool), name=name)


def enumerate_subobjects(presheaf: SpectralPresheaf, top_context_id: str,
                         weights, r: float) -> np.ndarray:
    """The clopen sub-objects S on the lower set of a context with
    mu(S)(V') >= r at every V' of it, under the flat block weights, as
    the rows of one (N, characters) boolean array.

    Contexts are walked from the top downward, larger first (ties by id),
    so every context above V' is chosen before V': the choices at V' are
    the supersets of the restrictions of the characters already chosen,
    and the component is final once chosen.  mu(S)(V') is then added by
    block_sums, as in sections, and a branch is cut as soon as it falls
    below r.  Each candidate component at a context is one visited node;
    past ENUMERATION_NODE_CAP of them the walk raises EnumerationTooLarge.
    Rows come in walk order, the candidates at a context by increasing
    bit pattern of its free blocks.  The walk runs on Python integers as
    bitsets of the flat axis.
    """
    poset = presheaf.poset
    offsets = presheaf.offsets.tolist()
    domain = poset.leq[:, poset.index_of(top_context_id)]
    # larger contexts first (more contexts below them), ties by id
    height = poset.leq[domain].sum(axis=0)
    order = sorted(np.flatnonzero(domain).tolist(),
                   key=lambda i: (-height[i], poset.contexts[i].id))
    # every restriction of a character of the domain, as one bitset
    down = [0] * len(presheaf.owner)
    inside = domain[presheaf.owner[presheaf.src]]
    for x, y in zip(presheaf.src[inside].tolist(),
                    presheaf.dst[inside].tolist()):
        down[x] |= 1 << y
    choices = {}

    def options(i, forced):
        """(component, restrictions) of each candidate at context i over
        the forced blocks with mu >= r, both as bitsets of the flat axis."""
        lo, k = offsets[i], offsets[i + 1] - offsets[i]
        free = np.array([b for b in range(k) if not forced >> b & 1],
                        dtype=np.int64)
        picks = (np.arange(1 << free.size)[:, None]
                 >> np.arange(free.size)) & 1
        comps = forced | (picks << free).sum(axis=1)
        blocks = (comps[:, None] >> np.arange(k)) & 1 == 1
        keep = block_sums(np.where(blocks, weights[lo:lo + k], 0.0)) >= r
        out = []
        for c, row in zip(comps[keep].tolist(), blocks[keep]):
            reach = 0
            for b in np.flatnonzero(row).tolist():
                reach |= down[lo + b]
            out.append((c << lo, reach))
        return out

    rows = []
    visited = 0
    stack = [(0, 0, 0)]   # (depth in order, chosen, restrictions of chosen)
    while stack:
        pos, chosen, reach = stack.pop()
        if pos == len(order):
            rows.append(chosen)
            continue
        i = order[pos]
        k = offsets[i + 1] - offsets[i]
        forced = (reach >> offsets[i]) & ((1 << k) - 1)
        visited += 1 << (k - bin(forced).count("1"))
        if visited > ENUMERATION_NODE_CAP:
            raise EnumerationTooLarge(
                f"more than {ENUMERATION_NODE_CAP} nodes visited enumerating "
                f"the truth object on the lower set of {top_context_id}")
        if (i, forced) not in choices:
            choices[i, forced] = options(i, forced)
        stack.extend((pos + 1, chosen | c, reach | below)
                     for c, below in reversed(choices[i, forced]))
    width = (len(presheaf.owner) + 7) // 8
    packed = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in rows),
                           dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=len(presheaf.owner),
                         bitorder="little").astype(bool)


def pullback(presheaf: SpectralPresheaf, u, masks, source,
             domain) -> np.ndarray:
    """Pullback of a stack of sub-object masks (..., characters) on the
    context mask `source` along the automorphism V -> U V U*, onto the
    lower set `domain`.

    The component at V is the component at the poset context equal to
    U V U*, relabeled through the block correspondence Q_i -> U Q_i U*
    (SpectralPresheaf.action): one gather of every row.  Every image
    context must lie in source (PosetNotClosed otherwise).
    """
    target, to = presheaf.action(u, domain)
    away = domain & ~_reaches(source, target)
    if away.any():
        raise PosetNotClosed(
            f"image of {presheaf.poset.contexts[away.argmax()].id} under the "
            f"automorphism is not in the domain")
    # to is -1 outside the domain: those reads are masked out
    return np.asarray(masks)[..., to] & domain[presheaf.owner]
