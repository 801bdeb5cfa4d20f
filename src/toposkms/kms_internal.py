"""Internal KMS structure: the flow sampled at finitely many parameters
and treated as a group object acting on the context poset from inside.

A sampled group is a finite parameter set closed under negation and the
group law up to identity action (two parameters are identified when the
corresponding conjugations agree, e.g. a full period of an integer
spectrum).  Relative to a context V the samples decompose into orbits:
g ~ g' when alpha_{g-g'} fixes every block of V.  The internal measure
of a sub-object at V is the family of values tr(rho P_{S at alpha_g V})
over the samples.

The internal first condition asks this family to be constant over the
whole sample set.  The second is the external boundary comparison
(kms_external.boundary_residuals) read over the samples: tr(rho P_T
alpha_{g + i beta}(P_S)) against tr(rho alpha_g(P_S) P_T) at every
context S and T share.  The components at all the shared contexts are
stacked, so every (context, sample) cell is one slice of a single
stacked evaluation, bit for bit the value external C2 gives at that
context.  At strip height 0 both sides of the defining diagram collapse
to the measure of the same meet, and what is left is the first
condition on S and T; its spread on the shared contexts
(FlowReport.spread_on) must share the verdict of the spread on all of
them.  A pair that shares no context has nothing to compare; the
internal-c2 suite says so in one row instead of calling the check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Context, ContextPoset, fixes_blocks
from .errors import DomainMismatch, NotFaithful
from .kms_external import (
    AutomorphismFlow,
    _projections,
    boundary_residuals,
)
from .measure import FlowReport, State
from .numerics import dagger, frob, null_space
from .presheaf import ClopenSubobject


def same_action(u, v, eps: float) -> bool:
    """True when two unitaries implement the same conjugation, i.e.
    differ by a global phase: ||V* U - phase 1||_F <= eps max(1, n |phase|)."""
    n = u.shape[0]
    w = dagger(v) @ u
    phase = np.trace(w) / n
    return frob(w - phase * np.eye(n)) <= eps * max(1.0, abs(phase) * n)


class SampledGroup:
    """A finite sample of a one-parameter group, closed up to identity
    action under negation and addition.  Checks on the group read the
    flow's policy, flow.tol."""

    def __init__(self, flow: AutomorphismFlow, samples):
        self.flow = flow
        self.samples = [float(t) for t in samples]
        if not any(abs(t) <= 1e-12 for t in self.samples):
            raise DomainMismatch("sampled group must contain 0")
        self._unitaries = [flow.unitary(t) for t in self.samples]
        for t, u in zip(self.samples, self._unitaries):
            if not self._has_action(dagger(u)):
                raise DomainMismatch(
                    f"sample set is not closed under negation at t={t!r}"
                )
        for i, u in enumerate(self._unitaries):
            for v in self._unitaries[i:]:
                if not self._has_action(u @ v):
                    raise DomainMismatch(
                        "sample set is not closed under the group law"
                    )

    def __len__(self):
        return len(self.samples)

    def real_unitaries(self):
        return list(zip(self.samples, self._unitaries))

    def _has_action(self, u) -> bool:
        return any(same_action(u, v, self.flow.tol.eps_measure)
                   for v in self._unitaries)


def fixed_point_subgroup(group: SampledGroup, poset: ContextPoset):
    """Sample parameters whose conjugation fixes every block of every
    context of the poset."""
    distance = 10 * group.flow.tol.eps_order
    return [t for t, u in group.real_unitaries()
            if all(fixes_blocks(u, v, distance) for v in poset.contexts)]


@dataclass
class OrbitDecomposition:
    context_id: str
    orbits: list            # list of lists of sample parameters
    representatives: list   # smallest parameter of each orbit

    @property
    def count(self) -> int:
        return len(self.orbits)


def orbits(group: SampledGroup, context: Context) -> OrbitDecomposition:
    """Partition the samples: g ~ g' when alpha_{g - g'} fixes every
    block of the context (computed as U_g U_g'^* directly, so the
    difference need not be a sample)."""
    pairs = group.real_unitaries()
    distance = 10 * group.flow.tol.eps_order
    classes = []
    for t, u in pairs:
        placed = False
        for cls in classes:
            _, u0 = cls[0]
            if fixes_blocks(u @ dagger(u0), context, distance):
                cls.append((t, u))
                placed = True
                break
        if not placed:
            classes.append([(t, u)])
    classes.sort(key=lambda cls: min(t for t, _ in cls))
    orbs = [sorted(t for t, _ in cls) for cls in classes]
    return OrbitDecomposition(context_id=context.id, orbits=orbs,
                              representatives=[o[0] for o in orbs])


@dataclass
class FaithfulnessReport:
    context_id: str
    faithful: list      # fixed sub-algebra is the scalars
    middle: list        # fixed sub-algebra strictly between
    fixes_all: list     # fixes every block


def faithful_automorphisms(group: SampledGroup,
                           context: Context) -> FaithfulnessReport:
    """Classify each sample by the dimension of the fixed sub-algebra
    {A in V : alpha_g(A) = A}: dimension 1 means only scalars survive
    (the action is faithful on V), dimension k means every block is
    fixed; anything in between lands in the middle set."""
    k = context.k
    blocks = [context.block(i) for i in range(k)]
    faithful, middle, fixes_all = [], [], []
    for t, u in group.real_unitaries():
        ud = dagger(u)
        b = np.stack([(u @ q @ ud - q).reshape(-1) for q in blocks], axis=1)
        dim_fixed = null_space(b, group.flow.tol.eps_eig).shape[1]
        if dim_fixed <= 1:
            faithful.append(t)
        elif dim_fixed >= k:
            fixes_all.append(t)
        else:
            middle.append(t)
    return FaithfulnessReport(context_id=context.id, faithful=faithful,
                              middle=middle, fixes_all=fixes_all)


def check_internal_C1(state: State, sub: ClopenSubobject,
                      group: SampledGroup) -> FlowReport:
    """Constancy of the internal measure: at every context V of the
    sub-object domain the values tr(rho P_{S at alpha_g V}), one row per
    sample g (ClopenSubobject.orbit, rhs), must agree over the whole
    sample set; FlowReport.spreads holds their range per context."""
    here, values, on_poset = sub.orbit(
        state.matrix, [u for _, u in group.real_unitaries()])
    return FlowReport(group.samples, sub.presheaf.poset.ids(sub.domain),
                      here, values, on_poset=on_poset)


@dataclass
class InternalC2Report:
    context_ids: list
    gamma: float    # the strip height, the flow's beta
    max_residual: float


def check_internal_C2(state: State, group: SampledGroup,
                      sub_s: ClopenSubobject,
                      sub_t: ClopenSubobject) -> InternalC2Report:
    """Boundary condition over the sampled group: at every context S and
    T share, the external C2 boundary comparison (boundary_residuals)
    over the samples of the group, all contexts and samples in one
    stacked evaluation.  The state must be faithful."""
    if not state.is_faithful():
        raise NotFaithful("boundary comparison requires a faithful state")
    context_ids = sorted(sub_s.presheaf.poset.ids(sub_s.domain
                                                  & sub_t.domain))
    ps, pt = (_projections(sub, context_ids) for sub in (sub_s, sub_t))
    worst = boundary_residuals(state, group.flow, ps, pt, group.samples)
    return InternalC2Report(context_ids=context_ids, gamma=group.flow.beta,
                            max_residual=float(worst.max(initial=0.0)))
