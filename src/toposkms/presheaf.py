"""The spectral presheaf over a context poset and its clopen sub-objects.

The component at a context V is the Gel'fand spectrum of V: one character
per minimal projection.  For V' <= V the restriction map sends the
character of a V-block to the character of the unique V'-block above it.

A clopen sub-object picks one subset of characters per context, closed
under restriction.  That set of block indices is the only form measure
code reads: mu(S)(V) is a sum of block weights over S_V, and no matrix is
formed.  The lattice isomorphism between P(V) and the clopen subsets at V
sends a lattice projection P to {lambda : lambda(P) = 1} and a subset S
back to the block sum over S; that dense sum is built only where a matrix
is needed (C2, reconstruction, daseinisation output).

Outer daseinisation approximates an arbitrary projection from above
inside a context: the smallest lattice element dominating it.  The fast
form keeps exactly the blocks with non-zero overlap; a brute-force 2^k
scan is provided as an independent oracle.

A unitary moves contexts through ContextPoset.image, which finds the
moved context in the poset and the block correspondence; pullback reads
components through that correspondence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Context,
    ContextPoset,
    lattice_projection,
    projection_lattice,
)
from .errors import (
    DomainMismatch,
    EnumerationTooLarge,
    NotClosedUnderRestriction,
    NotInLattice,
    PosetNotClosed,
)
from .numerics import Projection, as_matrix, dagger, frob, proj_leq
from .tolerances import DEFAULT_TOL, TolerancePolicy


class SpectralPresheaf:
    """Spectra and restriction tables over a fixed context poset."""

    def __init__(self, poset: ContextPoset):
        self.poset = poset
        self.tol = poset.tol

    def spectrum_size(self, context_id: str) -> int:
        return self.poset.context(context_id).k

    def restriction(self, large_id: str, small_id: str) -> tuple:
        """Restriction table V-block -> V'-block for V' < V, read from the
        poset's block maps."""
        by_id = self.poset.by_id
        table = self.poset.block_maps.get((by_id.get(small_id), by_id.get(large_id)))
        if table is None:
            raise DomainMismatch(f"{small_id} is not below {large_id}")
        return table

    def restrict(self, large_id: str, small_id: str, indices: frozenset) -> frozenset:
        """Image of a character subset of V under restriction to V' <= V."""
        if large_id == small_id:
            return frozenset(indices)
        table = self.restriction(large_id, small_id)
        return frozenset(table[i] for i in indices)

    def restrict_character(self, large_id: str, small_id: str, index: int) -> int:
        if large_id == small_id:
            return index
        return self.restriction(large_id, small_id)[index]

    def below(self, context_id: str):
        return self.poset.lower_set(context_id)


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


def s_inverse(indices, v: Context,
              tol: TolerancePolicy = DEFAULT_TOL) -> Projection:
    """Inverse isomorphism: block sum over a character subset."""
    return lattice_projection(v, indices, tol)


def dasein_indices(p, v: Context, tol: TolerancePolicy = DEFAULT_TOL) -> tuple:
    """Blocks of the outer daseinisation of p at V, in index order.

    A block participates iff it overlaps p (||Q_i p||_F = ||Y_i* p||_F >
    eps_order): dropping any overlapping block breaks domination, and the
    overlapping sum already dominates.
    """
    pm = as_matrix(p)
    overlap = np.add.reduceat(np.linalg.norm(dagger(v.frame) @ pm, axis=1) ** 2,
                              v.starts)
    return tuple(np.flatnonzero(overlap > tol.eps_order ** 2).tolist())


def outer_daseinisation(p, v: Context, tol: TolerancePolicy = DEFAULT_TOL) -> Projection:
    """Smallest lattice element of V dominating p: the block sum over
    dasein_indices(p, V)."""
    return lattice_projection(v, dasein_indices(p, v, tol), tol)


def outer_daseinisation_bruteforce(p, v: Context,
                                   tol: TolerancePolicy = DEFAULT_TOL) -> Projection:
    """Independent oracle: scan all 2^k lattice elements for the minimum
    above p (minimal rank among dominating elements, then smallest subset)."""
    pm = as_matrix(p)
    best = None
    for indices, m in projection_lattice(v):
        if proj_leq(pm, m, tol):
            key = (len(indices), tuple(sorted(indices)))
            if best is None or key < best[0]:
                best = (key, indices)
    if best is None:
        raise NotInLattice("no lattice element dominates p (identity should)")
    return lattice_projection(v, best[1], tol)


@dataclass
class ClopenSubobject:
    """A clopen sub-object of the spectral presheaf on a lower-set domain.

    components maps context id -> frozenset of character indices.
    flow_equivariant marks families built by transporting a single
    lattice projection along a unitary orbit, for which the component at
    a conjugated context is the conjugated block set; checks may then
    evaluate the family at off-poset contexts.
    """

    presheaf: SpectralPresheaf
    components: dict
    name: str = ""
    flow_equivariant: bool = False

    def __post_init__(self):
        self.components = {k: frozenset(v) for k, v in self.components.items()}
        if not self.presheaf.poset.is_lower_set(self.components.keys()):
            raise DomainMismatch("sub-object domain is not a lower set")
        self.validate_closure()

    @property
    def domain(self):
        return frozenset(self.components.keys())

    def validate_closure(self):
        ph = self.presheaf
        for large in self.components:
            for small in ph.below(large):
                if small == large or small not in self.components:
                    continue
                image = ph.restrict(large, small, self.components[large])
                if not image <= self.components[small]:
                    raise NotClosedUnderRestriction(
                        f"restriction {large} -> {small} leaves the sub-object"
                    )

    def component(self, context_id: str) -> frozenset:
        if context_id not in self.components:
            raise DomainMismatch(f"context {context_id!r} outside sub-object domain")
        return self.components[context_id]

    def projection_at(self, context_id: str) -> Projection:
        v = self.presheaf.poset.context(context_id)
        return s_inverse(self.components[context_id], v, self.presheaf.tol)

    def restricted_to(self, top_context_id: str) -> "ClopenSubobject":
        keep = set(self.presheaf.below(top_context_id)) & self.domain
        return ClopenSubobject(
            self.presheaf,
            {c: self.components[c] for c in keep},
            name=self.name,
            flow_equivariant=self.flow_equivariant,
        )

    def canonical_key(self):
        return tuple(sorted((c, tuple(sorted(s))) for c, s in self.components.items()))

    def __eq__(self, other):
        return (isinstance(other, ClopenSubobject)
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())


def complete_downward(presheaf: SpectralPresheaf, assignments: dict,
                      name: str = "") -> ClopenSubobject:
    """Smallest clopen sub-object containing the given partial components.

    The domain is the lower set generated by the assigned contexts; each
    lower context receives the union of all restricted images (plus any
    explicitly assigned characters).
    """
    poset = presheaf.poset
    lower = set()
    for c in assignments:
        lower.update(presheaf.below(c))
    # poset index order, so the component order is the same in every process
    domain = [v.id for v in poset.contexts if v.id in lower]
    comps = {c: set(assignments.get(c, ())) for c in domain}
    for large in domain:
        src = set(assignments.get(large, ()))
        if not src:
            continue
        for small in presheaf.below(large):
            if small == large:
                continue
            comps[small].update(presheaf.restrict(large, small, frozenset(src)))
    # iterate in case unions create new forced restrictions (they do not for
    # functorial tables, but be safe)
    changed = True
    while changed:
        changed = False
        for large in domain:
            for small in presheaf.below(large):
                if small == large:
                    continue
                image = presheaf.restrict(large, small, frozenset(comps[large]))
                if not image <= comps[small]:
                    comps[small].update(image)
                    changed = True
    return ClopenSubobject(presheaf, comps, name=name)


def daseinisation_subobject(p, presheaf: SpectralPresheaf, name: str = "",
                            tol: TolerancePolicy | None = None) -> ClopenSubobject:
    """Global sub-object V -> blocks of the outer daseinisation of p at V."""
    tol = tol or presheaf.tol
    comps = {v.id: frozenset(dasein_indices(p, v, tol))
             for v in presheaf.poset.contexts}
    return ClopenSubobject(presheaf, comps, name=name)


def full_subobject(presheaf: SpectralPresheaf) -> ClopenSubobject:
    return ClopenSubobject(
        presheaf,
        {v.id: frozenset(range(v.k)) for v in presheaf.poset.contexts},
        name="Sigma",
    )


def empty_subobject(presheaf: SpectralPresheaf) -> ClopenSubobject:
    return ClopenSubobject(
        presheaf,
        {v.id: frozenset() for v in presheaf.poset.contexts},
        name="0",
    )


def subobject_meet(s: ClopenSubobject, t: ClopenSubobject) -> ClopenSubobject:
    if s.domain != t.domain:
        raise DomainMismatch("meet needs equal domains")
    return ClopenSubobject(
        s.presheaf,
        {c: s.components[c] & t.components[c] for c in s.components},
        name=f"({s.name}^{t.name})" if s.name or t.name else "",
    )


def subobject_join(s: ClopenSubobject, t: ClopenSubobject) -> ClopenSubobject:
    if s.domain != t.domain:
        raise DomainMismatch("join needs equal domains")
    return ClopenSubobject(
        s.presheaf,
        {c: s.components[c] | t.components[c] for c in s.components},
        name=f"({s.name}v{t.name})" if s.name or t.name else "",
    )


def heyting_negation(s: ClopenSubobject) -> ClopenSubobject:
    """Heyting complement: a character survives at W iff none of its
    restrictions (including at W itself) lies in the sub-object."""
    ph = s.presheaf
    comps = {}
    for large in s.components:
        keep = []
        k = ph.spectrum_size(large)
        for idx in range(k):
            hit = False
            for small in ph.below(large):
                if small not in s.components:
                    continue
                if ph.restrict_character(large, small, idx) in s.components[small]:
                    hit = True
                    break
            if not hit:
                keep.append(idx)
        comps[large] = frozenset(keep)
    return ClopenSubobject(ph, comps, name=f"(~{s.name})" if s.name else "")


def enumerate_subobjects(presheaf: SpectralPresheaf, top_context_id: str,
                         cap: int = 1_000_000):
    """All clopen sub-objects on the lower set of a context.

    Contexts are processed from the top downward; at each context every
    superset of the union of restricted images from already-chosen larger
    contexts is a valid choice.  Raises EnumerationTooLarge past cap.
    """
    poset = presheaf.poset
    domain = presheaf.below(top_context_id)
    # order: larger contexts first (descending by number of contexts below
    # them inside the domain), deterministic tie-break on id
    dom_set = set(domain)

    def height(cid):
        return len([c for c in presheaf.below(cid) if c in dom_set])

    order = sorted(domain, key=lambda c: (-height(c), c))
    results = []
    chosen = {}

    def lower_bound(cid):
        forced = set()
        for large in order:
            if large == cid or large not in chosen:
                continue
            if cid in presheaf.below(large):
                forced.update(presheaf.restrict(large, cid, chosen[large]))
        return forced

    def rec(pos):
        if pos == len(order):
            results.append(ClopenSubobject(
                presheaf, {c: frozenset(v) for c, v in chosen.items()}
            ))
            if len(results) > cap:
                raise EnumerationTooLarge(
                    f"more than {cap} clopen sub-objects on the lower set of "
                    f"{top_context_id}"
                )
            return
        cid = order[pos]
        k = presheaf.spectrum_size(cid)
        forced = lower_bound(cid)
        free = [i for i in range(k) if i not in forced]
        for mask in range(1 << len(free)):
            extra = {free[i] for i in range(len(free)) if mask & (1 << i)}
            chosen[cid] = frozenset(forced | extra)
            rec(pos + 1)
        del chosen[cid]

    rec(0)
    return results


def pullback(u, s: ClopenSubobject, tol: TolerancePolicy | None = None,
             name: str = "", domain=None) -> ClopenSubobject:
    """Pullback of a sub-object along the automorphism V -> U V U*.

    The component at V is the component of s at the poset context equal
    to U V U*, relabeled through the block correspondence
    Q_i -> U Q_i U* (ContextPoset.image).  Every image context must lie
    in the domain of s (PosetNotClosed otherwise).  By default the result
    lives on the domain of s itself (appropriate for flow-closed domains);
    pass `domain` to pull back onto a different lower set.
    """
    ph = s.presheaf
    tol = tol or ph.tol
    comps = {}
    for cid in (domain if domain is not None else s.components):
        target_id, relabel = ph.poset.image(u, cid, tol)
        if target_id not in s.components:
            raise PosetNotClosed(
                f"image of {cid} under the automorphism is not in the domain"
            )
        if relabel is None:
            raise PosetNotClosed(
                f"block correspondence failed between {cid} and {target_id}"
            )
        comps[cid] = frozenset(i for i, j in enumerate(relabel)
                               if j in s.components[target_id])
    return ClopenSubobject(ph, comps, name=name or f"pullback({s.name})",
                           flow_equivariant=s.flow_equivariant)
