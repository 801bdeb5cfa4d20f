"""Internal dynamical conditions over the sampled automorphism group."""
import math

import numpy as np
import pytest

from toposkms.errors import DomainMismatch, NotFaithful
from toposkms.kms_internal import (
    SampledGroup,
    check_internal_C1,
    check_internal_C2,
    faithful_automorphisms,
    fixed_point_subgroup,
    orbits,
    same_action,
)
from toposkms.kms_external import AutomorphismFlow, check_C1, check_C2
from toposkms.presheaf import daseinisation_subobject
from toposkms.tolerances import DEFAULT_TOL

import oracles
from conftest import GRID5, build_c3, random_density

TWO_PI = 2 * math.pi


def test_group_samples_must_contain_zero(c3_gibbs):
    with pytest.raises(DomainMismatch):
        SampledGroup(c3_gibbs.flow, [0.5, 1.0])


def test_samples_must_close_under_the_group_law(c3_gibbs):
    with pytest.raises(DomainMismatch):
        SampledGroup(c3_gibbs.flow, [0.0, 1.0])


def test_cyclic_group_closes(c3_gibbs):
    group = SampledGroup(c3_gibbs.flow, [k * TWO_PI / 5 for k in range(5)])
    assert len(group.samples) == 5
    assert group.samples[0] == 0.0
    assert abs(group.samples[-1] - 4 * TWO_PI / 5) < 1e-12


def test_orbit_decomposition(c3_gibbs):
    # the diagonal context is fixed by every sample: one orbit
    dec = orbits(c3_gibbs.group, c3_gibbs.vdiag)
    assert len(dec.orbits) == 1
    assert dec.representatives == [0.0]
    # the example context visits four distinct images
    dec = orbits(c3_gibbs.group, c3_gibbs.vex)
    assert len(dec.orbits) == 4
    assert sorted(dec.orbits[0]) == [0.0, TWO_PI]


def test_fixed_point_subgroup(c3_gibbs):
    fixed = fixed_point_subgroup(c3_gibbs.group, c3_gibbs.poset)
    assert fixed == [0.0, TWO_PI]


def test_faithfulness_classification(c3_gibbs):
    rep = faithful_automorphisms(c3_gibbs.group, c3_gibbs.vex)
    assert rep.fixes_all == [0.0, TWO_PI]
    assert len(rep.faithful) == 3
    # no sample sits between "fixes everything" and "moves freely", so
    # the action splits cleanly on both contexts
    assert rep.middle == []
    rep_d = faithful_automorphisms(c3_gibbs.group, c3_gibbs.vdiag)
    assert rep_d.faithful == []
    assert rep_d.fixes_all == list(GRID5)


def test_same_action_ignores_phase():
    u = np.diag([1.0, 1.0, 1.0])
    assert same_action(u, np.exp(0.7j) * u, 1e-9)
    assert not same_action(u, np.diag([1.0, 1.0, -1.0]), 1e-9)


def test_group_closure_reads_the_flow_policy(c3_gibbs):
    # one sample 1e-7 off the cyclic grid: its negation misses the grid
    # by about 1.4e-7 in Frobenius norm, outside the default eps_measure
    # of 1e-9 and inside a loosened 1e-6
    samples = [k * TWO_PI / 5 for k in range(5)]
    samples[1] += 1e-7
    with pytest.raises(DomainMismatch, match="negation"):
        SampledGroup(c3_gibbs.flow, samples)
    loose = AutomorphismFlow(c3_gibbs.h, beta=c3_gibbs.beta,
                             tol=DEFAULT_TOL.override(eps_measure=1e-6))
    assert len(SampledGroup(loose, samples)) == 5


def test_internal_c1_passes_for_gibbs(c3_gibbs):
    for sub in c3_gibbs.subs.values():
        rep = check_internal_C1(c3_gibbs.state, sub, c3_gibbs.group)
        assert rep.max_spread <= 1e-9
        # every context records the measure at each group sample
        assert set(rep.samples) == set(GRID5)
        assert rep.rhs.shape == (len(GRID5), len(rep.context_ids))


def test_internal_c1_fails_for_pure(c3_pure):
    rep = check_internal_C1(c3_pure.state, c3_pure.subs["S1"],
                            c3_pure.group)
    assert rep.max_spread >= 1e-1
    assert abs(rep.max_spread - 1.0) < 1e-12  # cos^2 sweeps from 1 to 0
    assert rep.context_ids[rep.spreads.argmax()]


def test_daseinised_rank_one_families_coarsen_to_identity(c3_pure):
    # e_1 and e_2 are not below the rank-one block of the example context,
    # so their approximations collapse to the identity on its whole orbit
    # and the induced measures cannot distinguish the samples of any state
    for k in (0, 1):
        e = np.zeros((3, 3))
        e[k, k] = 1.0
        sub = daseinisation_subobject(e, c3_pure.presheaf, f"D{k}")
        assert sub.component("Vex") == frozenset({0, 1})
        rep = check_internal_C1(c3_pure.state, sub, c3_pure.group)
        assert rep.max_spread <= 1e-12
    # e_3 sits below the rank-two complement, so its approximation stays
    # proper and does feel the non-invariance of the pure state
    e3 = np.diag([0.0, 0.0, 1.0])
    sub3 = daseinisation_subobject(e3, c3_pure.presheaf, "D2")
    assert sub3.component("Vex") == frozenset({1})
    rep3 = check_internal_C1(c3_pure.state, sub3, c3_pure.group)
    assert rep3.max_spread >= 1e-1


def test_internal_c2_strip_for_gibbs(c3_gibbs):
    s1, s2 = c3_gibbs.subs["S1"], c3_gibbs.subs["S2"]
    rep = check_internal_C2(c3_gibbs.state, c3_gibbs.group, s1, s2)
    assert rep.gamma == 1.0  # the flow's beta
    assert rep.max_residual <= 1e-8
    assert rep.context_ids == sorted(c3_gibbs.poset.ids(s1.domain
                                                        & s2.domain))
    assert rep.context_ids


def test_internal_c2_is_external_c2_over_the_samples(c3_gibbs):
    # the same boundary comparison, so the same residuals bit for bit
    for a, b in (("S1", "S2"), ("S2", "S12"), ("S12", "S1")):
        s, t = c3_gibbs.subs[a], c3_gibbs.subs[b]
        rep = check_internal_C2(c3_gibbs.state, c3_gibbs.group, s, t)
        external = [check_C2(c3_gibbs.state, c3_gibbs.flow, s, t, cid,
                             t_samples=c3_gibbs.group.samples)
                    for cid in rep.context_ids]
        assert rep.max_residual == max(
            c2.max_boundary_residual for c2 in external)


@pytest.mark.parametrize("mixed", [False, True])
def test_internal_c2_matches_the_per_point_oracle(mixed, c3_gibbs, rng):
    """All shared contexts and samples in one stacked evaluation give the
    residual of the per-point loop bit for bit, for the Gibbs state and
    for a random faithful state, which breaks the boundary condition."""
    model = build_c3(random_density(rng, 3)) if mixed else c3_gibbs
    worst = 0.0
    for a, b in (("S1", "S2"), ("S2", "S12"), ("S12", "S1")):
        s, t = model.subs[a], model.subs[b]
        rep = check_internal_C2(model.state, model.group, s, t)
        want = max((r for cid in rep.context_ids
                    for r in oracles.boundary_residuals_by_point(
                        model.state, model.flow,
                        *(model.poset.context(cid).block_sum(x.component(cid))
                          for x in (s, t)),
                        model.group.samples)), default=0.0)
        assert rep.max_residual == want
        worst = max(worst, want)
    assert (worst > 1e-3) == mixed


def test_internal_c2_strip_needs_faithful_state(c3_pure):
    with pytest.raises(NotFaithful):
        check_internal_C2(c3_pure.state, c3_pure.group,
                          c3_pure.subs["S1"], c3_pure.subs["S2"])


def test_internal_c2_degenerates_to_constancy(c3_gibbs, c3_pure):
    # at gamma = 0 both legs of the diagram reduce to the same meet, so
    # the check collapses onto the first condition on the shared contexts
    # and shares the verdict of the first condition on all of them
    for model, verdict in ((c3_gibbs, True), (c3_pure, False)):
        s1, s2 = model.subs["S1"], model.subs["S2"]
        shared = model.poset.ids(s1.domain & s2.domain)
        c1 = [check_internal_C1(model.state, s, model.group)
              for s in (s1, s2)]
        degen = max(rep.spread_on(shared) for rep in c1)
        assert ((degen <= 1e-9)
                == (max(rep.max_spread for rep in c1) <= 1e-9) == verdict)


def test_external_c1_implies_internal_c1(c3_gibbs, c3_pure):
    # on the closed grid, constancy along the orbit is weaker than the
    # external condition: whenever the latter holds the former must too
    for model in (c3_gibbs, c3_pure):
        ext = check_C1(model.state, model.flow, model.subs["S1"],
                       list(GRID5))
        internal = check_internal_C1(model.state, model.subs["S1"],
                                     model.group)
        if ext.max_residual <= 1e-9:
            assert internal.max_spread <= 1e-9
