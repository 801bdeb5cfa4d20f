"""GNS construction, modular operators, and the conjugation on contexts."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toposkms import index as context_index
from toposkms.algebra import (
    Context,
    build_poset,
    context_from_operators,
    contexts_equal,
)
from toposkms.errors import ToposKMSError
from toposkms.kms_external import check_C1, check_C2, gibbs_state
from toposkms.measure import State
from toposkms.modular import (
    AntilinearOp,
    GNSSpace,
    _closed_forms,
    commutant_swap_check,
    expected_delta_spectrum,
    modular_flow,
    tomita_operators,
)
from toposkms.numerics import dagger, frob, vec
from toposkms.scenario import load_scenario

from conftest import random_density
from oracles import (
    closed_forms_by_unit,
    conjugation_map,
    pi_matrix,
    right_matrix,
    swap_unitary,
)

CLOSED_FORMS = ("closed_form_delta", "closed_form_j", "closed_form_s")


def faithful_state(rng, n):
    return State(0.8 * random_density(rng, n) + 0.2 * np.eye(n) / n)


def test_gns_representation_multiplies(rng):
    state = State(random_density(rng, 3))
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert frob(pi_matrix(a @ b, 3) - pi_matrix(a, 3) @ pi_matrix(b, 3)) \
        < 1e-10
    # left and right multiplication operators commute
    comm = pi_matrix(a, 3) @ right_matrix(b, 3) \
        - right_matrix(b, 3) @ pi_matrix(a, 3)
    assert frob(comm) < 1e-10


def test_gns_vector_state_reproduces_trace(rng):
    state = State(random_density(rng, 3))
    gns = GNSSpace(state)
    omega = vec(gns.omega)
    for _ in range(5):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = omega.conj() @ pi_matrix(a, 3) @ omega
        assert abs(lhs - np.trace(state.matrix @ a)) < 1e-12


def test_faithful_state_is_cyclic_separating(rng):
    assert GNSSpace(State(random_density(rng, 3))).cyclic_rank() == 3 * 3
    pure = np.zeros((3, 3))
    pure[0, 0] = 1.0
    assert GNSSpace(State(pure)).cyclic_rank() < 3 * 3


def test_tomita_residuals(rng):
    for n in (2, 3, 4):
        data = tomita_operators(State(random_density(rng, n)))
        assert max(data.residuals.values()) <= 1e-10
        for key in ("s_squared", "j_squared", "polar", "delta_fixes_omega",
                    "j_fixes_omega", "j_antiunitary", "closed_form_delta",
                    "closed_form_j", "closed_form_s"):
            assert data.residuals[key] <= 1e-10, key


def test_tomita_structural_identities():
    data = tomita_operators(gibbs_state(np.diag([0.0, 1.0, 2.0]), 1.0))
    n2 = data.dim ** 2
    assert data.delta.shape == (n2, n2)
    # Delta = S* S: the composite of two antilinear maps is linear.  S is
    # real for this diagonal state, so a complex state is checked as well,
    # where S^T S differs from S* S.
    complex_data = tomita_operators(State(random_density(
        np.random.default_rng(1), 3)))
    for d in (data, complex_data):
        assert frob(d.delta - d.s.adjoint().after_antilinear(d.s)) <= 1e-10
    # check via the operator identities instead of raw matrices
    assert data.residuals["polar"] <= 1e-12
    assert data.residuals["s_squared"] <= 1e-12


def test_delta_spectrum_is_weight_ratios():
    state = gibbs_state(np.diag([0.0, 1.0, 2.0]), 1.0)
    data = tomita_operators(state)
    want = np.sort(expected_delta_spectrum(state))
    got = np.sort(data.delta_spectrum.real)
    assert np.max(np.abs(want - got)) <= 1e-10
    w = np.sort(np.linalg.eigvalsh(state.matrix))
    ratios = np.sort([a / b for a in w for b in w])
    assert np.max(np.abs(np.sort(want) - ratios)) <= 1e-12


def test_tomita_requires_faithful_state():
    pure = np.zeros((3, 3))
    pure[0, 0] = 1.0
    with pytest.raises(ToposKMSError):
        tomita_operators(State(pure))


def test_commutant_swap(rng):
    rep = commutant_swap_check(State(random_density(rng, 3)))
    assert rep.max_commutator <= 1e-10
    assert rep.max_right_residual <= 1e-10
    assert rep.max_residual <= 1e-10
    assert rep.checked == 81  # all ordered basis pairs


def assert_closed_forms_match(state, eps, delta, m_j, m_s):
    """The closed-form residuals read off whole matrices and those of the
    per-unit loop, with the same verdict at eps: (package, oracle)."""
    gns = GNSSpace(state)
    got = _closed_forms(gns, delta, m_j, m_s)
    want = closed_forms_by_unit(gns, delta, m_j, m_s)
    for g, w in zip(got, want):
        assert (g <= eps) == (w <= eps)
    return got, want


@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_closed_forms_match_the_per_unit_loop(n, seed):
    rng = np.random.default_rng(seed)
    state = faithful_state(rng, n)
    data = tomita_operators(state)
    ops = (data.delta, data.j.m, data.s.m)
    got, want = assert_closed_forms_match(state, state.tol.eps_herm, *ops)
    assert got == tuple(data.residuals[key] for key in CLOSED_FORMS)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13

    # each operator perturbed by 1e-6 on its own fails its closed form on
    # both sides, and the other two residuals do not move
    for which, op in enumerate(ops):
        noise = rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape)
        bad = list(ops)
        bad[which] = op + 1e-6 * noise
        got_bad, want_bad = assert_closed_forms_match(
            state, state.tol.eps_herm, *bad)
        assert got_bad[which] > 1e-10 and want_bad[which] > 1e-10
        assert abs(got_bad[which] - want_bad[which]) \
            <= 1e-9 * want_bad[which]
        for other in {0, 1, 2} - {which}:
            assert got_bad[other] == got[other]


def test_closed_forms_match_the_loop_on_benchmark_and_corpus_states(
        harness, scenario_dir):
    """perfbench's modular_dense states (seed 1, n = 4..10) and every
    faithful corpus state (all but negative_control's) give the loop's
    verdicts at their eps_herm."""
    scenarios = [load_scenario(harness.modular_dense_scenario(1, n))
                 for n in range(4, 11)]
    scenarios += [load_scenario(path)
                  for path in sorted(scenario_dir.glob("*.json"))]
    checked = 0
    for scn in scenarios:
        if not scn.state.is_faithful():
            continue
        data = tomita_operators(scn.state)
        got, _ = assert_closed_forms_match(
            scn.state, scn.tol.eps_herm, data.delta, data.j.m, data.s.m)
        assert got == tuple(data.residuals[key] for key in CLOSED_FORMS)
        checked += 1
    assert checked == 7 + 6


def dense_swap_residuals(state, data):
    """For each pair (k, l), k-major, the commutant-swap residuals with
    pi(E_kl) = E_kl (x) 1 formed as a dense n^2 x n^2 matrix and every
    commutator multiplied out: (largest commutator with any pi(E_ij),
    right residual), each an array of n^2 entries."""
    n = state.dim
    units = []
    for k in range(n):
        for l in range(n):
            e = np.zeros((n, n))
            e[k, l] = 1.0
            units.append(e)
    comm, right = [], []
    for e in units:
        swapped = data.j.m @ np.conj(pi_matrix(e, n) @ data.j.m)
        right.append(frob(swapped - right_matrix(dagger(e), n)))
        comm.append(max(frob(swapped @ pi_matrix(f, n)
                             - pi_matrix(f, n) @ swapped) for f in units))
    return np.array(comm), np.array(right)


def dense_swap_oracle(state, data):
    """The dense commutant-swap residuals over all pairs: (max commutator,
    max right residual, pairs checked)."""
    comm, right = dense_swap_residuals(state, data)
    return float(comm.max()), float(right.max()), len(comm) ** 2


def assert_matches_oracle(state, data):
    """The block-norm residuals equal the dense ones up to the order in
    which the same squares are summed."""
    rep = commutant_swap_check(state, data=data)
    want = dense_swap_oracle(state, data)
    assert rep.checked == want[2] == state.dim ** 4
    for g, w in zip((rep.max_commutator, rep.max_right_residual), want[:2]):
        assert abs(g - w) <= 1e-14 * w
    return rep


@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_commutant_swap_matches_dense_oracle(n, seed):
    rng = np.random.default_rng(seed)
    state = faithful_state(rng, n)
    data = tomita_operators(state)
    assert_matches_oracle(state, data)

    # a J perturbed by 1e-6 no longer swaps into the commutant
    shape = data.j.m.shape
    noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    bad = replace(data, j=AntilinearOp(data.j.m + 1e-6 * noise))
    got = assert_matches_oracle(state, bad)
    assert got.max_commutator > 1e-10
    assert got.max_right_residual > 1e-10

    # nor does a J perturbed in a single n x n block
    p, q = rng.integers(n, size=2)
    one_block = np.zeros(shape, dtype=complex)
    one_block[p * n:(p + 1) * n, q * n:(q + 1) * n] = \
        noise[p * n:(p + 1) * n, q * n:(q + 1) * n]
    bad = replace(data, j=AntilinearOp(data.j.m + 1e-6 * one_block))
    got = assert_matches_oracle(state, bad)
    assert got.max_commutator > 1e-10
    assert got.max_right_residual > 1e-10


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_commutant_swap_batch_boundaries(n, monkeypatch):
    """The report does not depend on how the (k, l) pairs are batched: one
    pair per batch, all pairs in one, or all but the last in one, which
    leaves the last pair alone in a partial batch.  A J perturbed only in
    block (n - 1, n - 1) makes that last pair the worst on both
    residuals, and the batched check still finds it."""
    rng = np.random.default_rng(n)
    state = faithful_state(rng, n)
    data = tomita_operators(state)
    last = slice((n - 1) * n, n * n)
    one_block = np.zeros(data.j.m.shape, dtype=complex)
    one_block[last, last] = (rng.normal(size=(n, n))
                             + 1j * rng.normal(size=(n, n)))
    bad = replace(data, j=AntilinearOp(data.j.m + 1e-6 * one_block))
    comm, right = dense_swap_residuals(state, bad)
    assert comm.argmax() == right.argmax() == n * n - 1
    for d in (data, bad):
        want = commutant_swap_check(state, data=d)
        for entries in (1, 2**30, (n * n - 1) * n ** 4):
            monkeypatch.setattr(context_index, "PRODUCT_ENTRIES", entries)
            assert commutant_swap_check(state, data=d) == want
        monkeypatch.undo()
    assert_matches_oracle(state, bad)


def test_modular_flow_matches_hamiltonian_flow_for_gibbs(c3_gibbs):
    mod = modular_flow(c3_gibbs.state, beta=c3_gibbs.beta)
    for t in (0.5, 1.0, 2.0):
        u = c3_gibbs.flow.unitary(t)
        v = mod.unitary(t)
        # equality up to a global phase
        inner = np.trace(dagger(u) @ v) / 3
        assert abs(abs(inner) - 1.0) <= 1e-9
        assert frob(v - inner * u) <= 1e-9


def test_vector_state_satisfies_external_conditions(c3_gibbs):
    # the induced vector state reads back as the trace against the density
    # matrix, so the external checks run on the original algebra with the
    # modular flow as the dynamics
    mod = modular_flow(c3_gibbs.state, beta=c3_gibbs.beta)
    for sub in c3_gibbs.subs.values():
        rep = check_C1(c3_gibbs.state, mod, sub, [0.5, 1.0, 2.0])
        assert rep.max_residual <= 1e-9
    rep2 = check_C2(c3_gibbs.state, mod, c3_gibbs.subs["S1"],
                    c3_gibbs.subs["S2"], "Vex", [0.0, 0.5, 1.0])
    assert rep2.max_boundary_residual <= 1e-8


def test_swap_unitary_exchanges_factors(rng):
    s = swap_unitary(2, 2)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    assert frob(s @ np.kron(a, b) @ s.conj().T - np.kron(b, a)) < 1e-12
    assert frob(s - s.T) == 0.0  # symmetric for equal factors


def tensor_poset():
    p = np.diag([1.0, 0.0])
    r = np.array([[0.5, 0.5], [0.5, 0.5]])
    eye = np.eye(2)
    a = context_from_operators([np.kron(p, eye)], "A")
    b = context_from_operators([np.kron(eye, p)], "B")
    rc = context_from_operators([np.kron(r, eye)], "R")
    rb = context_from_operators([np.kron(eye, r)], "Rb")
    return build_poset([a, b, rc, rb])


def test_jmap_swaps_tensor_factors():
    # for the tracial state of a tensor square, the conjugation acts on
    # the small Hilbert space as swap followed by complex conjugation
    w = swap_unitary(2, 2)
    poset = tensor_poset()
    # the conjugation carries first-factor contexts onto second-factor ones
    a = poset.context("A")
    image = Context.on_frame(w @ a.frame.conj(), a.labels)
    assert contexts_equal(image, poset.context("B"))
    images, _, _, _ = conjugation_map(w, poset)
    mapping = dict(zip([v.id for v in poset.contexts], images))
    assert None not in images and len(set(images)) == len(images)
    assert mapping["A"] == "B" and mapping["B"] == "A"
    assert mapping["R"] == "Rb" and mapping["Rb"] == "R"


def test_jmap_partial_when_images_are_missing():
    p = np.diag([1.0, 0.0])
    only_a = build_poset([
        context_from_operators([np.kron(p, np.eye(2))], "A")])
    images, preserving, continuous, _ = conjugation_map(swap_unitary(2, 2),
                                                        only_a)
    assert images == [None]
    assert preserving is None and continuous is None


def test_order_continuity_verdicts_agree(c3_gibbs):
    _, preserving, continuous, lower_sets = conjugation_map(
        swap_unitary(2, 2), tensor_poset())
    assert preserving and continuous
    assert lower_sets > 0
    # plain conjugation maps the worked example poset onto itself
    _, preserving3, continuous3, _ = conjugation_map(np.eye(3),
                                                     c3_gibbs.poset)
    assert preserving3 == continuous3 and continuous3
