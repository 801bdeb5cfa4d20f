"""The spectral presheaf over a context poset and its clopen sub-objects.

The component at a context V is the Gel'fand spectrum of V: one character
per minimal projection.  For V' <= V the restriction map sends the
character of a V-block to the character of the unique V'-block above it.
SpectralPresheaf puts the characters of all contexts on one flat axis and
stores the restriction maps as edges on it, one per strict pair and
block of the larger context.

A clopen sub-object picks one subset of characters per context of a
lower set, closed under restriction.  It is a boolean mask over the flat
axis plus a boolean mask of its domain; the closure check, meet, join,
Heyting negation and downward completion are gathers and scatters over
the edges.  That mask is the only form measure code reads:
mu(S)(V) is a sum of block weights over S_V, for every context at once,
and no matrix is formed.  The lattice isomorphism between P(V) and the
clopen subsets at V sends a lattice projection P to {lambda : lambda(P) = 1}
and a subset S back to the block sum over S (Context.block_sum); that
dense sum is built only where a matrix is needed, for C2 and the
daseinisation output.  Reconstruction reads block weights too.

A family of sub-objects on one domain is a mask stack, one row per
member, as enumerate_subobjects returns the members of a truth object;
SpectralPresheaf.sections sums block weights for a whole stack at once,
by the same cumulative rule as a single mask.

Outer daseinisation approximates an arbitrary projection from above
inside a context: the smallest lattice element dominating it.  The fast
form keeps exactly the blocks with non-zero overlap (block_overlaps);
SpectralPresheaf.dasein_masks applies it to a stack of projections at
every context, one product per signature bucket of stacked frames, and
dasein_indices to one context, which need not lie in the poset.  The
independent oracle stays dense: it stacks the 2^k dense lattice elements
of a context once and tests all of them against a stack of projections
in one batched product, with proj_leq's threshold.

A unitary acts on the presheaf through one pair of index arrays,
SpectralPresheaf.action: the poset index of each moved context and the
character each character is carried to (ContextPoset.images, one
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
    projection_lattice,
    tiles,
)
from .errors import (
    DimMismatch,
    DomainMismatch,
    EnumerationTooLarge,
    NotClosedUnderRestriction,
    NotInLattice,
    PosetNotClosed,
)
from .numerics import Projection, as_matrix, dagger
from .tolerances import DEFAULT_TOL, TolerancePolicy

# most nodes, candidate components at one context, enumerate_subobjects
# visits on one lower set
ENUMERATION_NODE_CAP = 1_000_000


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

    def weights(self, m, inside=None) -> np.ndarray:
        """Flat block weights Re tr(m Q_i) (Context.weights) at the
        contexts of the boolean mask `inside`, every context by default,
        and 0 elsewhere; m is a matrix or a stack of them (..., n, n)."""
        out = np.zeros(np.shape(m)[:-2] + (self.offsets[-1],))
        everywhere = np.ones(len(self.poset), dtype=bool)
        for i in np.flatnonzero(everywhere if inside is None else inside):
            out[..., self.offsets[i]:self.offsets[i + 1]] = (
                self.poset.contexts[i].weights(m))
        return out

    def sections(self, masks, weights) -> np.ndarray:
        """mu at every context of each mask of a stack (..., characters):
        the flat weights over the mask summed per context, laid out one
        row per context and added cumulatively left to right in block
        order (block_sums), as the rows of a measure table are."""
        rows = np.zeros(np.shape(masks)[:-1] + (len(self.poset), self.width))
        rows[..., self.owner, self.slot] = np.where(masks, weights, 0.0)
        return block_sums(rows)

    def broken_chains(self):
        """(chains, broken): the number of strict chains small < mid <
        large, and of those on which some character of `large` restricted
        through `mid` lands on another character of `small` than
        restricted directly, compared per character on the edges."""
        n = len(self.poset)
        strict = self.poset.leq & ~np.eye(n, dtype=bool)
        into = self.owner[self.dst]
        # the restriction of character x to a smaller context c is the dst
        # of the one edge keyed x * n + c; every strict pair has its edges
        keys = self.src * n + into
        order = np.argsort(keys)

        def image(x, c):
            return self.dst[order[np.searchsorted(keys, x * n + c,
                                                  sorter=order)]]

        by_mid = np.lexsort((self.src, into))
        bounds = np.searchsorted(into[by_mid], np.arange(n + 1))
        broken = 0
        for mid in range(n):
            edges = by_mid[bounds[mid]:bounds[mid + 1]]
            above = self.src[edges]
            below = np.flatnonzero(strict[:, mid])
            if not (above.size and below.size):
                continue
            wrong = (image(self.dst[edges][:, None], below)
                     != image(above[:, None], below))
            # characters of one context are adjacent on the axis
            first = np.flatnonzero(np.diff(self.owner[above], prepend=-1))
            broken += int(np.logical_or.reduceat(wrong, first, axis=0).sum())
        return int(strict.sum(axis=0) @ strict.sum(axis=1)), broken

    def action(self, u, domain):
        """(target, to) of the automorphism V -> U V U* on the contexts of
        a boolean mask, by ContextPoset.images.  target[i] is the index of
        the poset context equal to U V_i U*, -1 where the poset has none;
        to[x] is the character that character x is carried to (U Q U* lies
        in its block), -1 outside the mask or off the poset.  Computed
        once per (U, mask) and kept on the presheaf; the arrays are
        read-only."""
        domain = np.asarray(domain, dtype=bool)
        key = (np.asarray(u, dtype=np.complex128).tobytes(), domain.tobytes())
        if key in self._actions:
            return self._actions[key]
        target, homes = self.poset.images(u, domain)
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
    """Sums along the last axis, one cumulative pass left to right: the
    one rule every measure of a component is added by (np.add.reduceat
    would add the first entry to a pairwise sum of the rest)."""
    return np.cumsum(rows, axis=-1)[..., -1]


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


def outer_daseinisation_bruteforce(ps, v: Context,
                                   tol: TolerancePolicy = DEFAULT_TOL) -> list:
    """Independent oracle for a stack of projections ps, shape (m, n, n):
    scan all 2^k dense lattice elements L of V (projection_lattice) for
    the minimum above each p, the fewest blocks among the dominating
    elements, then the smallest sorted indices.  Domination is proj_leq's
    test, ||(1 - L) p||_F <= eps_order, for every (L, p) in one product.
    Returns one tuple of block indices, in index order, per projection."""
    ps = np.asarray(ps, dtype=np.complex128)
    if ps.ndim != 3 or ps.shape[1:] != (v.dim, v.dim):
        raise DimMismatch(f"expected a stack of {v.dim} x {v.dim} matrices, "
                          f"got shape {ps.shape}")
    if not np.isfinite(ps).all():
        raise ValueError("matrix contains non-finite entries")
    bits, lattice = projection_lattice(v)
    # (1 - L) p for every pair, over slices of the lattice that hold the
    # product to about 2^20 entries (16 MB; a 16-block context has 2^16
    # elements), and its Frobenius norm summed over the real and imaginary
    # parts in place, with no temporary of the product's size
    step = max(1, (1 << 20) // max(1, ps.size))
    norms = []
    for lo in range(0, len(lattice), step):
        parts = ((np.eye(v.dim) - lattice[lo:lo + step])[:, None]
                 @ ps[None]).view(np.float64)
        norms.append(np.sqrt(np.einsum("...ij,...ij->...", parts, parts)))
    dominates = np.concatenate(norms) <= tol.eps_order
    if not dominates.any(axis=0).all():
        raise NotInLattice("no lattice element dominates p (identity should)")
    keys = [(len(ix), ix) for ix in (tuple(np.flatnonzero(b).tolist())
                                      for b in bits)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [keys[order[s]][1] for s in dominates[order].argmax(axis=0)]


class ClopenSubobject:
    """A clopen sub-object of the spectral presheaf: a boolean mask over
    the presheaf's characters and a boolean mask of its domain, a lower
    set of contexts.

    Every construction checks that the mask lies on the domain, that the
    domain is a lower set, and, in one gather over the restriction edges,
    that the mask is closed under restriction.  from_components reads the
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
        ph = presheaf
        if (self.mask.shape != ph.owner.shape
                or self.domain.shape != (len(ph.poset),)
                or (self.mask & ~self.domain[ph.owner]).any()):
            raise DomainMismatch("sub-object characters outside its domain")
        if not ph.poset.is_lower_set(self.domain):
            raise DomainMismatch("sub-object domain is not a lower set")
        leaves = self.mask[ph.src] & ~self.mask[ph.dst]
        if leaves.any():
            e = int(leaves.argmax())
            large, small = (ph.poset.contexts[ph.owner[x]].id
                            for x in (ph.src[e], ph.dst[e]))
            raise NotClosedUnderRestriction(
                f"restriction {large} -> {small} leaves the sub-object")

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


def full_subobject(presheaf: SpectralPresheaf) -> ClopenSubobject:
    return ClopenSubobject(presheaf, np.ones(presheaf.offsets[-1], dtype=bool),
                           np.ones(len(presheaf.poset), dtype=bool), name="Sigma")


def empty_subobject(presheaf: SpectralPresheaf) -> ClopenSubobject:
    return ClopenSubobject(presheaf, np.zeros(presheaf.offsets[-1], dtype=bool),
                           np.ones(len(presheaf.poset), dtype=bool), name="0")


def subobject_meet(s: ClopenSubobject, t: ClopenSubobject) -> ClopenSubobject:
    if not np.array_equal(s.domain, t.domain):
        raise DomainMismatch("meet needs equal domains")
    return ClopenSubobject(s.presheaf, s.mask & t.mask, s.domain,
                           name=f"({s.name}^{t.name})" if s.name or t.name else "")


def subobject_join(s: ClopenSubobject, t: ClopenSubobject) -> ClopenSubobject:
    if not np.array_equal(s.domain, t.domain):
        raise DomainMismatch("join needs equal domains")
    return ClopenSubobject(s.presheaf, s.mask | t.mask, s.domain,
                           name=f"({s.name}v{t.name})" if s.name or t.name else "")


def heyting_negation(s: ClopenSubobject) -> ClopenSubobject:
    """Heyting complement: a character survives at W iff none of its
    restrictions (including at W itself) lies in the sub-object."""
    ph = s.presheaf
    hit = s.mask.copy()
    hit[ph.src[s.mask[ph.dst]]] = True
    return ClopenSubobject(ph, s.domain[ph.owner] & ~hit, s.domain,
                           name=f"(~{s.name})" if s.name else "")


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
