"""External dynamical conditions, truth objects, and flow equivalence."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toposkms.errors import (
    AmbiguousMatch,
    DomainMismatch,
    NotFaithful,
    PosetNotClosed,
)
from toposkms.kms_external import (
    AutomorphismFlow,
    StageVR,
    TruthObject,
    TwistedTruthObject,
    check_C1,
    check_C2,
    check_truth_value_invariance,
    expectation_value,
    flow_saturated_family,
    gibbs_state,
    mu_equivalent,
    strong_mu_equivalence,
    twist,
)
from toposkms.numerics import frob, is_unitary
from toposkms.presheaf import ClopenSubobject, complete_downward

import oracles
from conftest import GIBBS_WEIGHTS, GRID5, build_c3


def test_gibbs_weights_frozen():
    state = gibbs_state(np.diag([0.0, 1.0, 2.0]), 1.0)
    diag = np.diag(state.matrix).real
    assert np.allclose(sorted(diag, reverse=True), GIBBS_WEIGHTS, atol=1e-15)
    assert abs(np.trace(state.matrix) - 1.0) < 1e-12


def test_flow_saturated_family_error_paths(c3_gibbs):
    psh = c3_gibbs.presheaf
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    with pytest.raises(PosetNotClosed, match="leaves the poset"):
        flow_saturated_family(psh, "Vdiag", {0}, [(1.0, rotation)])
    # a transposition of two basis vectors carries Vdiag onto itself and
    # moves every block but one, so the identity and it disagree there
    swap = np.eye(3)[[1, 0, 2]]
    poset = c3_gibbs.poset
    i = poset.index_of("Vdiag")
    target, homes = poset.images(swap, np.arange(len(poset)) == i)
    assert target[i] == i
    moved = [b for b, home in enumerate(homes[i, :poset.contexts[i].k])
             if home != b]
    with pytest.raises(DomainMismatch, match="inconsistent components"):
        flow_saturated_family(psh, "Vdiag", {moved[0]}, [(1.0, swap)])


def test_flow_is_a_one_parameter_group():
    flow = AutomorphismFlow(np.diag([0.0, 1.0, 2.0]))
    assert frob(flow.unitary(0.0) - np.eye(3)) < 1e-14
    u = flow.unitary(0.4) @ flow.unitary(1.1)
    assert frob(u - flow.unitary(1.5)) < 1e-12
    assert is_unitary(flow.unitary(-2.3), 1e-10)


@given(t=st.floats(-5, 5), s=st.floats(-5, 5))
def test_flow_group_law_on_operators(t, s):
    flow = AutomorphismFlow(np.diag([0.0, 1.0, 2.0]))
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    twice = flow.apply(t, flow.apply(s, a))
    assert frob(twice - flow.apply(t + s, a)) < 1e-10


def test_flow_conventions_share_the_real_axis():
    # the convention label steers how downstream checks read the strip;
    # the real-time action itself is the same unitary conjugation
    h = np.diag([0.0, 1.0, 2.0])
    fwd = AutomorphismFlow(h, convention="hamiltonian")
    rev = AutomorphismFlow(h, convention="modular")
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert frob(fwd.apply(0.7, a) - rev.apply(0.7, a)) < 1e-12
    assert fwd.convention == "hamiltonian"
    assert rev.convention == "modular"
    with pytest.raises(Exception):
        AutomorphismFlow(h, convention="unknown")


def test_complex_continuation_matches_boundary():
    flow = AutomorphismFlow(np.diag([0.0, 1.0, 2.0]), beta=1.0)
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert frob(flow.apply_complex(0.7 + 0j, a) - flow.apply(0.7, a)) < 1e-12
    # analytic continuation to i*beta conjugates by the Boltzmann factor
    shifted = flow.apply_complex(1j, a)
    boltz = np.diag(np.exp([0.0, -1.0, -2.0]))
    expected = boltz @ a @ np.linalg.inv(boltz)
    assert frob(shifted - expected) < 1e-12


def test_c1_passes_for_gibbs(c3_gibbs):
    for sub in c3_gibbs.subs.values():
        rep = check_C1(c3_gibbs.state, c3_gibbs.flow, sub, c3_gibbs.t_grid)
        assert rep.max_residual <= 1e-9
        # one row per grid point, one column per orbit context
        assert rep.residuals.shape == (len(c3_gibbs.t_grid), 4)
        assert list(rep.samples) == list(c3_gibbs.t_grid)
        assert rep.context_ids == c3_gibbs.poset.ids(sub.domain)


def test_c1_consistency_gap_small_on_closed_grid(c3_gibbs):
    rep = check_C1(c3_gibbs.state, c3_gibbs.flow, c3_gibbs.subs["S1"],
                   list(GRID5))
    assert rep.max_residual <= 1e-9
    # poset lookup and direct transport agree where both are available
    assert rep.consistency_gap <= 1e-9


def test_c1_fails_for_pure_superposition(c3_pure):
    rep = check_C1(c3_pure.state, c3_pure.flow, c3_pure.subs["S1"],
                   c3_pure.t_grid)
    assert rep.max_residual >= 1e-2
    k, j = np.unravel_index(rep.residuals.argmax(), rep.residuals.shape)
    assert rep.residuals[k, j] == rep.max_residual
    assert rep.context_ids[j]
    assert rep.samples[k] in c3_pure.t_grid


def test_c2_boundary_for_gibbs(c3_gibbs):
    subs = c3_gibbs.subs
    names = ["S1", "S2", "S12"]
    for a in names:
        for b in names:
            if a == b:
                continue
            rep = check_C2(c3_gibbs.state, c3_gibbs.flow, subs[a], subs[b],
                           "Vex", [-1.0, 0.0, 0.5, 1.0])
            assert rep.max_boundary_residual <= 1e-8, (a, b)
            assert rep.max_strip_gap <= 1e-10
            assert rep.beta == 1.0


def test_eigenseries_coefficients_match_the_double_loop():
    # the broadcast forms the loop's products in the loop's order; NumPy's
    # vectorised complex product may round differently from the scalar one
    from toposkms.kms_external import _eigenseries_coefficients

    rng = np.random.default_rng(7)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (g + g.conj().T) / 2
    flow, state = AutomorphismFlow(h, beta=0.7), gibbs_state(h, 0.7)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    ps, pt = q[:, :2] @ q[:, :2].conj().T, q[:, 1:2] @ q[:, 1:2].conj().T
    u, lam = flow._eigvecs, flow._eigvals
    ps_t = u.conj().T @ ps @ u
    a = (u.conj().T @ state.matrix @ u) @ (u.conj().T @ pt @ u)
    freqs, coeffs = _eigenseries_coefficients(state, flow, ps, pt)
    assert np.array_equal(freqs, [lam[k] - lam[l]
                                  for k in range(4) for l in range(4)])
    want = np.array([a[l, k] * ps_t[k, l] for k in range(4) for l in range(4)])
    assert (np.abs(coeffs - want) <= 4 * np.finfo(float).eps * np.abs(want)).all()


def test_c2_value_at_zero_is_the_meet_measure(c3_gibbs):
    from toposkms.measure import measure_of
    from toposkms.presheaf import subobject_meet

    rep = check_C2(c3_gibbs.state, c3_gibbs.flow, c3_gibbs.subs["S1"],
                   c3_gibbs.subs["S12"], "Vex", [0.0])
    meet = subobject_meet(c3_gibbs.subs["S1"], c3_gibbs.subs["S12"])
    mu = measure_of(c3_gibbs.state, meet)
    assert abs(rep.f_at_zero - mu["Vex"]) < 1e-10


def test_c2_requires_a_faithful_state(c3_pure):
    with pytest.raises(NotFaithful):
        check_C2(c3_pure.state, c3_pure.flow, c3_pure.subs["S1"],
                 c3_pure.subs["S2"], "Vex", [0.0, 0.5])


def test_truth_object_membership_table(c3_example):
    """diag(0.5, 0.3, 0.2): memberships at the example stage follow the
    closed-form thresholds (a1+a2)/2 = 0.4 and 1 - (a1+a2)/2 = 0.6."""
    truth = TruthObject(c3_example.state, c3_example.presheaf)
    subs = c3_example.subs
    expected = {
        0.3: {"S1": True, "S2": True, "S12": True},
        0.45: {"S1": False, "S2": True, "S12": True},
        0.5: {"S1": False, "S2": True, "S12": True},
        0.7: {"S1": False, "S2": False, "S12": True},
    }
    for r, row in expected.items():
        stage = StageVR("Vex", r)
        for name, want in row.items():
            assert truth.contains(subs[name], stage) is want, (name, r)


def test_truth_tau_values_frozen(c3_example):
    truth = TruthObject(c3_example.state, c3_example.presheaf)
    subs = c3_example.subs
    assert truth.tau(subs["S1"], "Vex") == 0.39999999999999991
    assert truth.tau(subs["S2"], "Vex") == 0.59999999999999987
    assert truth.tau(subs["S12"], "Vex") == 0.99999999999999978


def test_truth_members_count(c3_gibbs):
    truth = TruthObject(c3_gibbs.state, c3_gibbs.presheaf)
    members = truth.members_at(StageVR("Vex", 0.3))
    # of the four sub-objects over a two-point stage, the empty one is out
    # and S2, S12 are in; S1 carries mu = 0.455 >= 0.3 so it is in as well
    assert len(members) == 3


def test_truth_value_transport(c3_gibbs):
    rep = check_truth_value_invariance(
        c3_gibbs.state, c3_gibbs.flow, np.diag([1.0, 0.0, 0.0]), "Vdiag",
        0.3, c3_gibbs.presheaf, [0.0])
    assert rep.context_ids == oracles.lower_set(c3_gibbs.poset, "Vdiag")
    # the measure is at least r below Vdiag, so every cutoff is r itself
    assert (rep.lhs == 0.3).all()


def test_cutoff_invariance_gibbs(c3_gibbs):
    for p in (np.diag([1.0, 0.0, 0.0]),
              np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])):
        for cid in ("Vdiag", "Vex"):
            for r in (0.3, 0.7):
                rep = check_truth_value_invariance(
                    c3_gibbs.state, c3_gibbs.flow, p, cid, r,
                    c3_gibbs.presheaf, list(GRID5))
                assert rep.max_residual <= 1e-9, (cid, r)


def test_cutoff_invariance_fails_for_pure(c3_pure):
    rep = check_truth_value_invariance(
        c3_pure.state, c3_pure.flow,
        np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]]),
        "Vex", 0.3, c3_pure.presheaf, list(GRID5))
    assert rep.max_residual >= 1e-2
    k, j = np.unravel_index(rep.residuals.argmax(), rep.residuals.shape)
    assert rep.residuals[k, j] == rep.max_residual
    assert rep.context_ids[j]


def test_expectation_identity(c3_gibbs):
    p = np.diag([1.0, 0.0, 0.0])
    rep = expectation_value(p, c3_gibbs.state, c3_gibbs.presheaf)
    assert abs(rep.value - rep.trace_value) <= 1e-10
    assert not rep.inserted_context
    # an operator outside every context forces an inserted context
    q = np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.5]])
    rep2 = expectation_value(q, c3_gibbs.state, c3_gibbs.presheaf)
    assert rep2.inserted_context
    assert abs(rep2.value - rep2.trace_value) <= 1e-10


def test_twisted_truth_is_mu_equivalent(c3_gibbs):
    truth = TruthObject(c3_gibbs.state, c3_gibbs.presheaf)
    for t in (math.pi / 2, math.pi):
        tw = twist(truth, c3_gibbs.flow, t)
        for stage in (StageVR("Vex", 0.3), StageVR("Vdiag", 0.5)):
            res = mu_equivalent(c3_gibbs.state, truth, tw, stage)
            assert res.equivalent
            assert res.max_gap <= 1e-9
            assert res.size_a == res.size_b


def test_strong_equivalence_over_stages(c3_gibbs):
    truth = TruthObject(c3_gibbs.state, c3_gibbs.presheaf)
    tw = twist(truth, c3_gibbs.flow, math.pi / 2)
    stages = [StageVR(cid, r) for cid in ("Vex", "Vdiag")
              for r in (0.3, 0.7)]
    res = strong_mu_equivalence(c3_gibbs.state, truth, tw, stages)
    assert res.equivalent
    assert res.naturality_gap == 0


def test_degenerate_state_reports_ambiguity():
    mixed = build_c3(np.eye(3) / 3)
    truth = TruthObject(mixed.state, mixed.presheaf)
    tw = twist(truth, mixed.flow, math.pi / 2)
    with pytest.raises(AmbiguousMatch) as exc:
        strong_mu_equivalence(mixed.state, truth, tw,
                              [StageVR("Vdiag", 0.3)])
    assert exc.value.stage.context_id == "Vdiag"
    assert len(exc.value.candidates) >= 2
    # the candidates are distinct member rows of the twisted truth object
    rows = {row.tobytes() for row in tw.members_at(exc.value.stage)}
    candidates = {row.tobytes() for row in exc.value.candidates}
    assert len(candidates) >= 2 and candidates <= rows


# --------------------------------------------------------------------------
# the mask-stack truth objects against the member-by-member oracles


def _swap(n, a, b):
    u = np.eye(n)
    u[[a, b]] = u[[b, a]]
    return u


def _production_members(state, presheaf, stage):
    """Members as the package lists them, one validated sub-object per
    row, in the oracle's order: only the matching is then compared."""
    domain = presheaf.poset.leq[:, presheaf.poset.index_of(stage.context_id)]
    rows = TruthObject(state, presheaf).members_at(stage)
    return sorted((ClopenSubobject(presheaf, row, domain) for row in rows),
                  key=oracles.sorted_components)


def _against_oracle(state, presheaf, u, stages, source=oracles.members):
    """Member sets, weak and strong verdicts, sizes, naturality gap and
    AmbiguousMatch stage of the mask-stack path equal the oracle's; the
    weak max_gap agrees within eps_measure.  Returns the outcome."""
    eps = state.tol.eps_measure
    truth = TruthObject(state, presheaf)
    tw = TwistedTruthObject(truth, u)
    ref_a = {st_: source(state, presheaf, st_) for st_ in stages}
    ref_b = {st_: oracles.twisted_members(state, presheaf, u, st_, source)
             for st_ in stages}
    weak = []
    for stage in stages:
        for got, ref in ((truth.members_at(stage), ref_a[stage]),
                         (tw.members_at(stage), ref_b[stage])):
            assert len(got) == len(ref)
            assert ({row.tobytes() for row in got}
                    == {s.mask.tobytes() for s in ref})
        res = mu_equivalent(state, truth, tw, stage)
        equivalent, gap, size_a, size_b = oracles.weak(
            state, presheaf, ref_a[stage], ref_b[stage])
        assert (res.equivalent, res.size_a, res.size_b) == (
            equivalent, size_a, size_b)
        if equivalent:
            assert abs(res.max_gap - gap) <= eps
        else:
            assert res.max_gap > eps and gap > eps
        weak.append(equivalent)
    try:
        want = oracles.strong(state, presheaf, ref_a, ref_b, stages)
    except AmbiguousMatch as exc:
        with pytest.raises(AmbiguousMatch) as got:
            strong_mu_equivalence(state, truth, tw, stages)
        assert got.value.stage == exc.stage
        return weak, "ambiguous"
    res = strong_mu_equivalence(state, truth, tw, stages)
    assert (res.equivalent, res.naturality_gap) == want
    return weak, want


@pytest.mark.parametrize("which", ["gibbs", "example", "mixed"])
def test_truth_objects_match_the_oracle_on_c3(which, c3_gibbs, c3_example):
    model = {"gibbs": c3_gibbs, "example": c3_example}.get(which) \
        or build_c3(np.eye(3) / 3)
    ids = [v.id for v in model.poset.contexts]
    outcomes = set()
    for t in (math.pi / 2, math.pi):
        stages = [StageVR(cid, r) for cid in ids for r in (0.3, 0.5, 0.7)]
        weak, strong = _against_oracle(model.state, model.presheaf,
                                       model.flow.unitary(t), stages)
        outcomes.add(strong)
    # the Gibbs state tells the members of every stage apart by their
    # sections; the example and the maximally mixed state do not
    assert ("ambiguous" in outcomes) == (which != "gibbs")


@pytest.mark.parametrize("h", [(0.0, 1.0, 2.0, 3.0), (0.0, 0.0, 1.0, 2.0)])
def test_truth_objects_match_the_oracle_on_three_block_contexts(h, diag4):
    state = gibbs_state(np.diag(h), 1.0)
    poset = diag4.poset
    ids = [v.id for v in poset.contexts if v.k <= 3]
    outcomes = []
    for u in (_swap(4, 0, 1), _swap(4, 1, 2),
              AutomorphismFlow(np.diag(h)).unitary(0.7)):
        stages = [StageVR(cid, r) for cid in ids for r in (0.3, 0.5)]
        outcomes.append(_against_oracle(state, diag4.presheaf, u, stages))
    # the diagonal flow moves no diagonal context; the swap of the two
    # lowest levels is a symmetry of the degenerate Hamiltonian only
    assert all(outcomes[2][0])
    if h[0] == h[1]:
        assert all(outcomes[0][0]) and outcomes[0][1] == "ambiguous"
        assert not all(outcomes[1][0])
    else:
        assert not all(outcomes[0][0]) and outcomes[0][1] == (False, 0)
        assert outcomes[2][1] == (True, 0)


def test_truth_object_matching_matches_the_oracle_on_the_top(diag4):
    # the unpruned oracle would build 1.3 million sub-objects here, so the
    # members come from the package and the twist and the matchings from
    # the oracle
    state = gibbs_state(np.diag([0.0, 0.0, 1.0, 2.0]), 1.0)
    stages = [StageVR("D4", r) for r in (0.7, 0.8)]
    weak, _ = _against_oracle(state, diag4.presheaf, _swap(4, 0, 1), stages,
                              source=_production_members)
    assert all(weak)
    weak, _ = _against_oracle(state, diag4.presheaf, _swap(4, 1, 2),
                              stages[1:], source=_production_members)
    assert not any(weak)


@pytest.fixture(scope="module")
def c4_truth(diag4):
    """The truth object of a Gibbs state on the diagonal C^4 poset."""
    return TruthObject(gibbs_state(np.diag([0.0, 1.0, 2.0, 3.0]), 1.0),
                       diag4.presheaf)


@given(seed=st.integers(0, 2**32 - 1), r=st.sampled_from([0.3, 0.5, 0.7]))
def test_pruned_members_are_exactly_the_sub_objects_above_r(seed, r, diag4,
                                                            c4_truth):
    """On the top of the diagonal C^4 poset, a random sub-object is a row
    of members_at exactly when tau >= r."""
    rng = np.random.default_rng(seed)
    psh, poset, truth = diag4.presheaf, diag4.poset, c4_truth
    rows = {row.tobytes() for row in truth.members_at(StageVR("D4", r))}
    for _ in range(20):
        assigned = {v.id: {b for b in range(v.k) if rng.random() < 0.4}
                    for v in poset.contexts if rng.random() < 0.3}
        assigned.setdefault("D4", set())
        sub = complete_downward(psh, assigned)
        assert (sub.mask.tobytes() in rows) == (truth.tau(sub, "D4") >= r)


def test_truth_is_exact_on_the_diagonal_c4_poset(diag4, c4_truth):
    truth = c4_truth
    stage = StageVR("D4", 0.5)
    rows = truth.members_at(stage)
    assert rows.shape == (9920, diag4.presheaf.offsets[-1])
    assert truth.members_at(stage) is rows and not rows.flags.writeable
    domain = np.ones(len(diag4.poset), dtype=bool)
    for row in rows:
        assert truth.tau(ClopenSubobject(diag4.presheaf, row, domain),
                         "D4") >= 0.5
