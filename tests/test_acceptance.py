"""Acceptance gate for the verification engine.

Eleven criteria, one test each, run in order.  Every test emits exactly
one machine-greppable verdict line of the form

    criterion NN: PASS - <what was verified> (<elapsed>s)

(or FAIL before the assertion error).  Run with ``pytest -s`` to see the
lines inline; without ``-s`` they appear in the captured output of any
failing test.
"""
import json
import time
from contextlib import contextmanager

import numpy as np

from toposkms.algebra import build_poset, context_from_operators
from toposkms.cli import main as cli_main
from toposkms.errors import InconsistentTable, Infeasible
from toposkms.kms_external import (
    StageVR,
    TruthObject,
    check_C1,
    check_C2,
    check_truth_value_invariance,
    expectation_value,
)
from toposkms.kms_internal import (
    check_internal_C1,
    check_internal_C2,
    fixed_point_subgroup,
    orbits,
)
from toposkms.measure import (
    State,
    measure_of,
    measure_table_of_state,
    state_from_measure,
    verify_measure_properties,
)
from toposkms.modular import (
    commutant_swap_check,
    expected_delta_spectrum,
    modular_flow,
    tomita_operators,
)
from toposkms.numerics import dagger, frob
from toposkms.presheaf import (
    SpectralPresheaf,
    complete_downward,
    daseinisation_subobject,
    outer_daseinisation,
    outer_daseinisation_bruteforce,
)

from conftest import (
    GRID5,
    P12SYM,
    build_c3,
    diagonal_context,
    random_density,
    random_projection,
)
from oracles import (
    conjugation_map,
    dict_of,
    heyting_negation,
    s_map,
    stack_pairs,
    subobject_join,
    swap_unitary,
    table_of,
)

_SUITE_T0 = time.monotonic()
TWO_PI = 2.0 * np.pi


@contextmanager
def criterion(n: int, desc: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {n:02d}: FAIL - {desc}")
        raise
    else:
        print(f"\ncriterion {n:02d}: PASS - {desc} "
              f"({time.monotonic() - t0:.2f}s)")


def test_criterion_01_worked_example_reproduced_exactly():
    with criterion(1, "three-level worked example reproduced in under 1s"):
        t0 = time.monotonic()
        c3 = build_c3(np.diag([0.5, 0.3, 0.2]))
        # two characters over the generated context, three over the diagonal
        assert c3.poset.context("Vex").k == 2
        assert c3.poset.context("Vdiag").k == 3
        # the rank-1 generator is the symmetric projection onto span{e0+e1}
        assert frob(c3.vex.block(0) - P12SYM) <= 1e-12
        mu1 = measure_of(c3.state, c3.subs["S1"])["Vex"]
        mu2 = measure_of(c3.state, c3.subs["S2"])["Vex"]
        assert abs(mu1 - 0.4) <= 1e-12
        assert abs(mu2 - 0.6) <= 1e-12
        truth = TruthObject(c3.state, c3.presheaf)
        expected = {
            0.3: {"S1": True, "S2": True, "S12": True},
            0.45: {"S1": False, "S2": True, "S12": True},
            0.5: {"S1": False, "S2": True, "S12": True},
            0.7: {"S1": False, "S2": False, "S12": True},
        }
        for r, row in expected.items():
            for name, want in row.items():
                got = truth.contains(c3.subs[name], StageVR("Vex", r))
                assert got is want, (name, r, got)
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_external_kms_positive(c3_gibbs):
    with criterion(2, "Gibbs state passes external C1 (<=1e-9) and "
                      "C2 boundary (<=1e-8) in under 5s"):
        t0 = time.monotonic()
        t_grid = [-2.0, -1.0, 0.5, 1.0, 2.0]
        named = {k: c3_gibbs.subs[k] for k in ("S1", "S2", "S12")}
        for sub in named.values():
            rep = check_C1(c3_gibbs.state, c3_gibbs.flow, sub, t_grid)
            assert rep.max_residual <= 1e-9
        for a in named:
            for b in named:
                if a == b:
                    continue
                c2 = check_C2(c3_gibbs.state, c3_gibbs.flow, named[a],
                              named[b], "Vex", t_grid)
                assert c2.max_boundary_residual <= 1e-8, (a, b)
        assert time.monotonic() - t0 < 5.0


def test_criterion_03_external_kms_negative_control(c3_pure):
    with criterion(3, "pure superposition fails external C1 (>=1e-2) "
                      "with a localized witness"):
        reps = {name: check_C1(c3_pure.state, c3_pure.flow, sub,
                               c3_pure.t_grid)
                for name, sub in c3_pure.subs.items()}
        name = max(reps, key=lambda n: reps[n].max_residual)
        rep = reps[name]
        assert rep.max_residual >= 1e-2
        k, j = np.unravel_index(rep.residuals.argmax(), rep.residuals.shape)
        assert name in c3_pure.subs
        assert rep.context_ids[j] in {v.id for v in c3_pure.poset.contexts}
        assert rep.samples[k] in c3_pure.t_grid


def test_criterion_04_daseinisation_fast_equals_bruteforce(diag4):
    with criterion(4, "fast daseinisation equals the brute-force lattice "
                      "minimum for 210 seeded projections x 14 contexts"):
        rng = np.random.default_rng(4)
        ps = np.stack([random_projection(rng, 4) for _ in range(210)])
        checked = 0
        for v in diag4.poset.contexts:
            rows = outer_daseinisation_bruteforce(ps, v.frame, v.starts)
            for p, brute in zip(ps, rows):
                fast = outer_daseinisation(p, v)
                assert (s_map(fast.matrix, v)
                        == frozenset(np.flatnonzero(brute).tolist()))
                checked += 1
        assert checked == 210 * len(diag4.poset.contexts)
        assert checked >= 200


def test_criterion_05_measure_property_suite(diag4, c3_gibbs):
    with criterion(5, "measure axioms <=1e-10 on 60 seeded pairs over 14 "
                      "contexts, with a strict complement-join witness"):
        rng = np.random.default_rng(5)
        assert len(diag4.poset.contexts) >= 10
        pairs_checked = 0
        for _ in range(10):
            state = State(random_density(rng, 4))
            subs = [daseinisation_subobject(random_projection(rng, 4),
                                            diag4.presheaf, name=f"R{i}")
                    for i in range(4)]
            pairs = [(subs[i], subs[j])
                     for i in range(4) for j in range(i + 1, 4)]
            rep = verify_measure_properties(
                state, diag4.presheaf, *stack_pairs(diag4.presheaf, pairs))
            for field in ("normalization", "empty", "monotonicity",
                          "modularity", "order_reversal", "complement_meet"):
                assert getattr(rep, field) <= 1e-10, field
            pairs_checked += rep.pairs_checked
        assert pairs_checked == 60
        # property (v) is an inequality that can be strict: completing a
        # single diagonal character leaves mu(S v ~S) well below 1
        sub = complete_downward(c3_gibbs.presheaf, {"Vdiag": frozenset({0})},
                                "W")
        neg = heyting_negation(sub)
        mu = measure_of(c3_gibbs.state, subobject_join(sub, neg))
        assert min(mu.values()) < 1.0 - 1e-3
        strict = verify_measure_properties(
            c3_gibbs.state, c3_gibbs.presheaf,
            *stack_pairs(c3_gibbs.presheaf, [(sub, neg)]))
        assert strict.strictness_witness < 1.0 - 1e-3


def test_criterion_06_reconstruction_roundtrip():
    with criterion(6, "state -> measure table -> state roundtrip <=1e-8; "
                      "underdetermined and inconsistent tables diagnosed"):
        # spanning poset: the three mutually unbiased qubit contexts
        zc = context_from_operators([np.diag([1.0, 0.0])], "Z")
        xc = context_from_operators([np.array([[0.5, 0.5], [0.5, 0.5]])], "X")
        yc = context_from_operators(
            [np.array([[0.5, -0.5j], [0.5j, 0.5]])], "Y")
        mub = SpectralPresheaf(build_poset([zc, xc, yc]))
        rho = np.array([[0.7, 0.1 + 0.15j], [0.1 - 0.15j, 0.3]])
        res = state_from_measure(measure_table_of_state(State(rho), mub))
        assert np.linalg.norm(res.state.matrix - rho) <= 1e-8
        assert not res.underdetermined

        # a single generated context cannot span the traceless space
        p12 = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])
        single = SpectralPresheaf(
            build_poset([context_from_operators([p12], "Vex")]))
        res1 = state_from_measure(measure_table_of_state(
            State(np.diag([0.5, 0.3, 0.2])), single))
        assert res1.underdetermined
        assert res1.spanned_dim < 8

        # corrupting one coarse context breaks cross-context agreement
        dpos = SpectralPresheaf(build_poset([diagonal_context(3, "Vdiag")],
                                            downward_closure=True))
        table = dict_of(measure_table_of_state(
            State(np.diag([0.5, 0.3, 0.2])), dpos))
        coarse = next(c.id for c in dpos.poset.contexts if c.k == 2)
        table[(coarse, frozenset({0}))] += 0.1
        table[(coarse, frozenset({1}))] -= 0.1
        try:
            state_from_measure(table_of(dpos, table))
        except InconsistentTable:
            pass
        else:
            raise AssertionError("corrupted table was not detected")

        # and certainty in all three unbiased directions is infeasible
        bad = {}
        for cid in ("Z", "X", "Y"):
            bad[(cid, frozenset())] = 0.0
            bad[(cid, frozenset({0}))] = 1.0
            bad[(cid, frozenset({1}))] = 0.0
            bad[(cid, frozenset({0, 1}))] = 1.0
        try:
            state_from_measure(table_of(mub, bad))
        except Infeasible:
            pass
        else:
            raise AssertionError("infeasible table was not detected")


def test_criterion_07_internal_kms(c3_gibbs, c3_pure):
    with criterion(7, "orbit counts 1/4, internal C1 spread <=1e-9 vs "
                      ">=1e-1, internal C2 <=1e-8, gamma=0 degeneration"):
        assert len(orbits(c3_gibbs.group, c3_gibbs.vdiag).orbits) == 1
        assert len(orbits(c3_gibbs.group, c3_gibbs.vex).orbits) == 4
        fixed = fixed_point_subgroup(c3_gibbs.group, c3_gibbs.poset)
        assert fixed == [0.0, TWO_PI]

        for sub in c3_gibbs.subs.values():
            good = check_internal_C1(c3_gibbs.state, sub, c3_gibbs.group)
            assert good.max_spread <= 1e-9
        bad = check_internal_C1(c3_pure.state, c3_pure.subs["S1"],
                                c3_pure.group)
        assert bad.max_spread >= 1e-1

        c2 = check_internal_C2(c3_gibbs.state, c3_gibbs.group,
                               c3_gibbs.subs["S1"], c3_gibbs.subs["S2"])
        assert c2.max_residual <= 1e-8

        # gamma = 0 collapses the analytic condition onto constancy of S
        # and T on their shared contexts, which must share the verdict of
        # constancy on all their contexts, positive and negative model
        for model, verdict in ((c3_gibbs, True), (c3_pure, False)):
            s1, s2 = model.subs["S1"], model.subs["S2"]
            pair = [check_internal_C1(model.state, s, model.group)
                    for s in (s1, s2)]
            shared = model.poset.ids(s1.domain & s2.domain)
            degen = max(rep.spread_on(shared) for rep in pair)
            held = max(rep.max_spread for rep in pair) <= 1e-9
            assert (degen <= 1e-9) == held == verdict


def test_criterion_08_modular_suite(c3_gibbs):
    with criterion(8, "Tomita data <=1e-10 for 20 seeded faithful states "
                      "(dims 2-4); modular flow matches; GNS state KMS"):
        rng = np.random.default_rng(8)
        for i in range(20):
            n = 2 + i % 3
            rho = 0.8 * random_density(rng, n) + 0.2 * np.eye(n) / n
            data = tomita_operators(State(rho))
            for key in ("polar", "s_squared", "j_squared",
                        "delta_fixes_omega", "j_fixes_omega"):
                assert data.residuals[key] <= 1e-10, (i, key)
            assert max(data.residuals.values()) <= 1e-10
            swap = commutant_swap_check(State(rho))
            assert swap.max_commutator <= 1e-10

            # for diagonal states the modular spectrum is the ratio set
            w = np.sort(np.linalg.eigvalsh(rho))
            diag_state = State(np.diag(w).astype(complex))
            ddata = tomita_operators(diag_state)
            want = np.sort(expected_delta_spectrum(diag_state))
            got = np.sort(ddata.delta_spectrum.real)
            assert np.max(np.abs(want - got)) <= 1e-10

        mod = modular_flow(c3_gibbs.state, beta=c3_gibbs.beta)
        for t in (0.5, 1.0, 2.0):
            u = c3_gibbs.flow.unitary(t)
            v = mod.unitary(t)
            inner = np.trace(dagger(u) @ v) / 3
            assert abs(abs(inner) - 1.0) <= 1e-9
            assert frob(v - inner * u) <= 1e-9

        for sub in c3_gibbs.subs.values():
            rep = check_C1(c3_gibbs.state, mod, sub, [0.5, 1.0, 2.0])
            assert rep.max_residual <= 1e-9
        rep2 = check_C2(c3_gibbs.state, mod, c3_gibbs.subs["S1"],
                        c3_gibbs.subs["S2"], "Vex", [0.0, 0.5, 1.0])
        assert rep2.max_boundary_residual <= 1e-8


def test_criterion_09_jmap_order_and_continuity(c3_gibbs, diag4):
    with criterion(9, "conjugation maps preserve order iff continuous on "
                      "the bipartite model and three further posets"):
        p = np.diag([1.0, 0.0])
        r = np.array([[0.5, 0.5], [0.5, 0.5]])
        eye = np.eye(2)
        tensor = build_poset([
            context_from_operators([np.kron(p, eye)], "A"),
            context_from_operators([np.kron(eye, p)], "B"),
            context_from_operators([np.kron(r, eye)], "R"),
            context_from_operators([np.kron(eye, r)], "Rb"),
        ])
        zc = context_from_operators([np.diag([1.0, 0.0])], "Z")
        xc = context_from_operators([r], "X")
        yc = context_from_operators(
            [np.array([[0.5, -0.5j], [0.5j, 0.5]])], "Y")
        mub = build_poset([zc, xc, yc])
        cases = [
            ("tensor square", swap_unitary(2, 2), tensor, 16),
            ("worked example", np.eye(3), c3_gibbs.poset, 144),
            ("diagonal C^4", np.eye(4), diag4.poset, 346),
            ("qubit MUB", np.eye(2), mub, 8),
        ]
        for label, w, poset, count in cases:
            _, preserving, continuous, lower_sets = conjugation_map(w, poset)
            assert preserving, label
            assert continuous, label
            assert lower_sets == count, label


def test_criterion_10_truth_value_invariance_and_expectation(c3_gibbs):
    with criterion(10, "cutoff tables invariant under flow relabeling "
                       "(<=1e-9); expectation identity <=1e-10"):
        stages = [StageVR(cid, r) for cid in ("Vdiag", "Vex")
                  for r in (0.3, 0.7)]
        [reports] = check_truth_value_invariance(
            c3_gibbs.state, c3_gibbs.flow, [P12SYM], stages,
            c3_gibbs.presheaf, list(GRID5))
        for stage, rep in zip(stages, reports):
            assert rep.max_residual <= 1e-9, stage
        for p in (np.diag([1.0, 0.0, 0.0]), P12SYM):
            rep = expectation_value(p, c3_gibbs.state, c3_gibbs.presheaf)
            assert not rep.inserted_context
            assert abs(rep.value - rep.trace_value) <= 1e-10


def test_criterion_11_wall_clock_and_determinism(scenario_dir, tmp_path,
                                                 capfd):
    with criterion(11, "suite wall clock under 60s; consecutive runs give "
                       "byte-identical reports"):
        for sub in ("first", "second"):
            code = cli_main(["run", "--scenario",
                             str(scenario_dir / "example_c3.json"),
                             "--out-dir", str(tmp_path / sub)])
            assert code == 0
        capfd.readouterr()
        for fname in ("report.json", "report.csv", "summary.md"):
            a = (tmp_path / "first" / fname).read_bytes()
            b = (tmp_path / "second" / fname).read_bytes()
            assert a == b, fname
        doc = json.loads((tmp_path / "first" / "report.json").read_text())
        assert doc["summary"]["verdict"] == "pass"
        assert time.monotonic() - _SUITE_T0 < 60.0
