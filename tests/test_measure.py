"""State-induced measures, their axioms, and state reconstruction."""
import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toposkms import index as context_index
from toposkms import presheaf as presheaf_module
from toposkms.algebra import (
    Context,
    apply_automorphism,
    build_poset,
    context_from_operators,
    lattice_projection,
)
from toposkms.errors import (
    ContextMissing,
    DimMismatch,
    DomainMismatch,
    Infeasible,
    InconsistentTable,
    NotAState,
    NotAdditive,
    NotClosedUnderRestriction,
    PosetNotClosed,
    ToposKMSError,
)
from toposkms.kms_external import check_C1
from toposkms.kms_internal import SampledGroup, check_internal_C1
from toposkms.measure import (
    AbstractMeasure,
    State,
    _traceless_hermitian_basis,
    group_action_check,
    measure_of,
    measure_table_of_state,
    state_from_measure,
    verify_measure_properties,
)
from toposkms.numerics import frob
from toposkms.scenario import load_scenario
from toposkms.presheaf import (
    ClopenSubobject,
    SpectralPresheaf,
    complete_downward,
    daseinisation_subobject,
)

from conftest import (
    GIBBS_MU_S1,
    GRID5,
    build_c3,
    diagonal_context,
    random_density,
)
from oracles import (
    check_table,
    dict_of,
    empty_subobject,
    full_subobject,
    heyting_negation,
    measure_properties_by_pair,
    on_common_domain,
    stack_pairs,
    subobject_join,
    subobject_meet,
    table_of,
)


def qubit_mub_poset():
    zc = context_from_operators([np.diag([1.0, 0.0])], "Z")
    xc = context_from_operators([np.array([[0.5, 0.5], [0.5, 0.5]])], "X")
    yc = context_from_operators([np.array([[0.5, -0.5j], [0.5j, 0.5]])], "Y")
    return build_poset([zc, xc, yc])


def test_state_validation():
    with pytest.raises(NotAState):
        State(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(NotAState):
        State(np.diag([1.5, -0.5]))  # negative eigenvalue
    s = State(np.diag([0.5, 0.5]))
    assert s.dim == 2


def test_example_measure_values(c3_example):
    # diag(0.5, 0.3, 0.2): the rank-one block carries (a1 + a2)/2 = 0.4
    subs = c3_example.subs
    mu1 = measure_of(c3_example.state, subs["S1"])
    mu2 = measure_of(c3_example.state, subs["S2"])
    mu12 = measure_of(c3_example.state, subs["S12"])
    assert abs(mu1["Vex"] - 0.4) < 1e-12
    assert abs(mu2["Vex"] - 0.6) < 1e-12
    assert abs(mu12["Vex"] - 1.0) < 1e-12


def test_gibbs_measure_value(c3_gibbs):
    mu1 = measure_of(c3_gibbs.state, c3_gibbs.subs["S1"])
    assert abs(mu1["Vex"] - GIBBS_MU_S1) < 1e-12
    # the flow-saturated family has constant measure along the orbit
    vals = list(mu1.values())
    assert max(vals) - min(vals) < 1e-12


def test_sections_are_monotone_under_coarsening(c3_gibbs):
    sub = daseinisation_subobject(np.diag([1.0, 0.0, 0.0]),
                                  c3_gibbs.presheaf, "D1")
    mu = measure_of(c3_gibbs.state, sub)
    poset = c3_gibbs.poset
    for i, v in enumerate(poset.contexts):
        for j, w in enumerate(poset.contexts):
            if poset.leq[i, j]:  # v is coarser, approximation grows
                assert mu[v.id] >= mu[w.id] - 1e-12


def test_measure_axioms_hold_for_gibbs(c3_gibbs):
    psh = c3_gibbs.presheaf
    subs = c3_gibbs.subs
    pairs = [(subs["S1"], subs["S2"]), (subs["S1"], subs["S12"]),
             (subs["S2"], subs["S12"])]
    rep = verify_measure_properties(c3_gibbs.state, psh,
                                    *stack_pairs(psh, pairs))
    assert rep.passed
    for field in ("normalization", "empty", "monotonicity", "modularity",
                  "order_reversal", "complement_meet"):
        assert getattr(rep, field) <= 1e-10
    assert rep.pairs_checked == 3


def test_complement_join_can_fall_short(c3_gibbs):
    # completing a single character downward leaves mu(S join not-S) < 1
    psh = c3_gibbs.presheaf
    sub = complete_downward(psh, {"Vdiag": frozenset({0})}, "W")
    neg = heyting_negation(sub)
    j = subobject_join(sub, neg)
    mu = measure_of(c3_gibbs.state, j)
    assert min(mu.values()) < 1.0 - 1e-3
    rep = verify_measure_properties(c3_gibbs.state, psh,
                                    *stack_pairs(psh, [(sub, neg)]))
    assert rep.strictness_witness < 1.0 - 1e-3


def test_empty_and_full_measures(c3_gibbs):
    psh = c3_gibbs.presheaf
    mu0 = measure_of(c3_gibbs.state, empty_subobject(psh))
    mu1 = measure_of(c3_gibbs.state, full_subobject(psh))
    assert max(abs(v) for v in mu0.values()) == 0.0
    assert max(abs(v - 1.0) for v in mu1.values()) < 1e-12


@given(seed=st.integers(0, 2**31 - 1))
def test_measure_axioms_hold_for_random_states(seed):
    rng = np.random.default_rng(seed)
    c3 = build_c3(random_density(rng, 3))
    subs = c3.subs
    rep = verify_measure_properties(
        c3.state, c3.presheaf, *stack_pairs(
            c3.presheaf, [(subs["S1"], subs["S2"]), (subs["S2"], subs["S12"])]))
    assert rep.passed


@pytest.fixture(scope="module")
def measure_models(scenario_dir):
    """(presheaf, state) of the corpus scenarios and of the diagonal C^4
    poset under a random state."""
    models = []
    for path in sorted(scenario_dir.glob("*.json")):
        scn = load_scenario(path)
        models.append((scn.presheaf, scn.state))
    poset = build_poset([diagonal_context(4, "D4")], downward_closure=True)
    state = State(random_density(np.random.default_rng(3), 4))
    return models + [(SpectralPresheaf(poset), state)]


def _random_pool(rng, psh, size):
    """Sub-objects completed downward from random characters of random
    contexts, so that their domains differ."""
    poset = psh.poset
    pool = []
    for _ in range(size):
        assigned = {v.id: {b for b in range(v.k) if rng.random() < 0.5}
                    for v in poset.contexts if rng.random() < 0.3}
        pool.append(complete_downward(psh, assigned))
    return pool


def _fields(rep):
    return dataclasses.astuple(rep)


@given(model=st.integers(0, 7), seed=st.integers(0, 2**32 - 1),
       size=st.integers(1, 8))
def test_bulk_measure_check_matches_the_pairwise_loop(measure_models, model,
                                                      seed, size):
    """Every field of the report, bit for bit, against the loop that
    builds and measures each meet, join and negation on its own, on the
    pool's pairs restricted to their common domains (run_measure's
    pairs) and on the pairs whose domains already agree."""
    psh, state = measure_models[model]
    rng = np.random.default_rng(seed)
    pool = _random_pool(rng, psh, size)
    restricted = [joint for i, a in enumerate(pool) for b in pool[i + 1:]
                  if (joint := on_common_domain(a, b)) is not None]
    equal = [(a, b) for a in pool for b in pool
             if np.array_equal(a.domain, b.domain)]
    for pairs in (restricted, equal, []):
        got = verify_measure_properties(state, psh, *stack_pairs(psh, pairs))
        want = measure_properties_by_pair(state, psh, pairs)
        assert _fields(got) == _fields(want)


def _error(check, *args):
    with pytest.raises(ToposKMSError) as info:
        check(*args)
    return type(info.value), str(info.value)


def _on(psh, domain, full: bool):
    """The full or the empty sub-object on a lower set."""
    return ClopenSubobject(psh, domain[psh.owner] & full, domain)


@pytest.mark.parametrize("entries", [presheaf_module.CLOSURE_ENTRIES, 1])
def test_bulk_measure_check_fails_as_the_pairwise_loop(measure_models,
                                                       monkeypatch, entries):
    """A pair with unequal domains raises DomainMismatch, and a stacked
    mask that a restriction edge leaves, S, T or derived, raises
    NotClosedUnderRestriction on the first edge that the sub-object's
    own construction names; the closure test takes the stack whole, or
    one mask at a time."""
    monkeypatch.setattr(presheaf_module, "CLOSURE_ENTRIES", entries)
    rng = np.random.default_rng(9)
    kinds = set()
    for psh, state in measure_models:
        everywhere = np.ones(len(psh.poset), dtype=bool)
        a, b = _on(psh, everywhere, True), _on(psh, ~everywhere, False)
        pairs = [(a, a), (a, b), (b, b)]
        got = _error(verify_measure_properties, state, psh,
                     *stack_pairs(psh, pairs))
        assert got == _error(measure_properties_by_pair, state, psh, pairs)
        assert got == (DomainMismatch, "meet needs equal domains")

        # drop from a sub-object's mask the restriction of one of its
        # characters, at the first edge whose source it holds
        a = next((s for s in _random_pool(rng, psh, 8)
                  if s.mask[psh.src].any()), None)
        if a is None:
            continue
        edge = int(a.mask[psh.src].argmax())
        mask = a.mask.copy()
        mask[psh.dst[edge]] = False
        broken = SimpleNamespace(presheaf=psh, mask=mask, domain=a.domain,
                                 name="")
        # the meet of the first two, the join of the third fails first
        direct = _error(ClopenSubobject, psh, mask, a.domain)
        for pairs in ([(broken, a)], [(a, a), (broken, broken)],
                      [(a, a), (_on(psh, a.domain, False), broken)]):
            got = _error(verify_measure_properties, state, psh,
                         *stack_pairs(psh, pairs))
            assert got == _error(measure_properties_by_pair, state, psh,
                                 pairs) == direct
            kinds.add(got[0])
        # a broken T row under S, the dropped character and its
        # restrictions: S ^ T, S v T and the rows of ~S all build, so
        # only the check of the T row itself catches it
        below = np.zeros_like(mask)
        below[psh.dst[edge]] = True
        below[psh.dst[below[psh.src]]] = True
        s = ClopenSubobject(psh, below, a.domain)
        neg = heyting_negation(s)
        for derived in (subobject_meet(s, broken), subobject_join(s, broken),
                        neg, subobject_meet(s, neg), subobject_join(s, neg)):
            assert derived.presheaf is psh
        assert _error(verify_measure_properties, state, psh,
                      *stack_pairs(psh, [(a, a), (s, broken)])) == direct
    assert kinds == {NotClosedUnderRestriction}


def test_weights_are_kept_per_matrix_and_mask(c3_gibbs):
    psh = SpectralPresheaf(c3_gibbs.poset)
    rho = c3_gibbs.state.matrix
    stack = np.array([rho, c3_gibbs.flow.unitary(0.3) @ rho
                      @ c3_gibbs.flow.unitary(0.3).conj().T])
    first = np.arange(len(c3_gibbs.poset)) == 0
    for m, inside in ((rho, None), (stack, None), (rho, first)):
        got = psh.weights(m, inside)
        assert psh.weights(m.copy(), None if inside is None
                           else inside.copy()) is got
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[..., 0] = 1.0
        fresh = SpectralPresheaf(c3_gibbs.poset).weights(m, inside)
        assert got.tobytes() == fresh.tobytes() and got.shape == fresh.shape
    # other masks, and a real matrix with the entries of a complex one,
    # are other entries
    assert psh.weights(rho, ~first) is not psh.weights(rho, first)
    real = np.diag([0.5, 0.3, 0.2])
    assert psh.weights(real) is not psh.weights(real.astype(complex))
    # the same bytes and shape under another dtype
    assert psh.weights(real).tobytes() != \
        psh.weights(real.view(np.int64)).tobytes()
    assert psh.weights(real).tobytes() == \
        SpectralPresheaf(c3_gibbs.poset).weights(real).tobytes()


def test_group_action_compatibility(c3_gibbs, c3_pure):
    # the Gibbs measure is invariant along the flow, the pure one is not
    good = group_action_check(c3_gibbs.state, c3_gibbs.flow,
                              c3_gibbs.subs["S1"], [np.pi / 2, np.pi])
    assert good.max_residual <= 1e-10
    bad = group_action_check(c3_pure.state, c3_pure.flow,
                             c3_pure.subs["S1"], [np.pi / 2, np.pi])
    assert bad.max_residual >= 1e-2
    # failures carry their location
    assert bad.context_ids[bad.residuals.max(axis=0).argmax()]


def test_reconstruction_roundtrip_qubit():
    poset = qubit_mub_poset()
    rho = np.array([[0.7, 0.1 + 0.15j], [0.1 - 0.15j, 0.3]])
    table = measure_table_of_state(State(rho), SpectralPresheaf(poset))
    res = state_from_measure(table)
    assert np.linalg.norm(res.state.matrix - rho) <= 1e-8
    assert res.spanned_dim == 3  # full traceless Hermitian space
    assert not res.underdetermined
    assert res.fit_residual <= 1e-10


def test_reconstruction_single_context_is_underdetermined():
    p12 = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
    poset = build_poset([context_from_operators([p12], "Vex")])
    rho = np.diag([0.5, 0.3, 0.2])
    res = state_from_measure(measure_table_of_state(State(rho),
                                                    SpectralPresheaf(poset)))
    assert res.underdetermined
    assert res.spanned_dim == 1
    # the fit still reproduces the recorded values
    assert res.fit_residual <= 1e-10


def test_inconsistent_table_detected(c3_example):
    poset = build_poset([diagonal_context(3, "Vdiag")],
                        downward_closure=True)
    psh = SpectralPresheaf(poset)
    table = dict_of(measure_table_of_state(State(np.diag([0.5, 0.3, 0.2])),
                                           psh))
    # shift weight between the blocks of one coarse context: additivity
    # inside the context survives, agreement across contexts does not
    coarse = next(c.id for c in poset.contexts if c.k == 2)
    table[(coarse, frozenset({0}))] += 0.1
    table[(coarse, frozenset({1}))] -= 0.1
    corrupted = table_of(psh, table)
    with pytest.raises(InconsistentTable):
        state_from_measure(corrupted)


def test_nonadditive_table_rejected():
    psh = SpectralPresheaf(qubit_mub_poset())
    table = dict_of(measure_table_of_state(State(np.eye(2) / 2), psh))
    table[("Z", frozenset({0}))] = 0.9
    with pytest.raises(NotAdditive):
        table_of(psh, table)


def test_infeasible_table_detected():
    # certainty in three mutually unbiased directions has no density matrix
    psh = SpectralPresheaf(qubit_mub_poset())
    table = {}
    for cid in ("Z", "X", "Y"):
        table[(cid, frozenset())] = 0.0
        table[(cid, frozenset({0}))] = 1.0
        table[(cid, frozenset({1}))] = 0.0
        table[(cid, frozenset({0, 1}))] = 1.0
    with pytest.raises(Infeasible):
        state_from_measure(table_of(psh, table))


def _dense_reconstruction(measure):
    """Oracle: the reconstruction on dense block sums, with a pairwise
    Frobenius scan for equal projections and a design matrix of traces.
    Returns (rho, rank of the design matrix)."""
    tol = measure.presheaf.tol
    rows = []
    for (cid, subset), value in dict_of(measure).items():
        v = measure.presheaf.poset.context(cid)
        if subset and len(subset) < v.k:
            rows.append((lattice_projection(v, subset, tol).matrix, value))
    n = rows[0][0].shape[0]
    for i, (p, val) in enumerate(rows):
        for q, val2 in rows[i + 1:]:
            if frob(p - q) <= tol.eps_order and abs(val - val2) > 10 * tol.eps_measure:
                raise InconsistentTable(
                    f"equal projections carry values {val!r} and {val2!r}")
    basis = _traceless_hermitian_basis(n)
    a = np.array([[np.trace(bk @ p).real for bk in basis] for p, _ in rows])
    b = np.array([val - np.trace(p).real / n for p, val in rows])
    coeff, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    rho = np.eye(n) / n + sum(c * bk for c, bk in zip(coeff, basis))
    w, u = np.linalg.eigh(rho)
    if w[0] < -1e-6:
        raise Infeasible(f"minimal eigenvalue {w[0]!r}")
    rho = (u * np.clip(w, 0.0, None)) @ u.conj().T
    return rho / np.trace(rho).real, rank


def _outcome(reconstruct, measure):
    try:
        return "fit", reconstruct(measure)
    except InconsistentTable as exc:
        return "inconsistent", str(exc)
    except Infeasible:
        return "infeasible", None


def _rotated_c4():
    """Downward-closed diagonal C^4 poset in a random frame, seeded with
    a second context whose rank-2 block gets its own basis, so that equal
    projections of different contexts differ in their last bits."""
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    e = [np.outer(u[:, i], u[:, i].conj()) for i in range(4)]
    seeds = [Context(e, "Vdiag"), Context([e[0] + e[1], e[2], e[3]], "W")]
    poset = build_poset(seeds, downward_closure=True)
    return "rotated C^4", poset, State(random_density(rng, 4))


def test_reconstruction_verdicts_match_the_dense_oracle(scenario_dir):
    # partial tables of singleton rows (no union row, so no NotAdditive),
    # with one to three values shifted below, just above and far above
    # the 10 eps_measure consistency threshold; and full tables, exact
    # and with one to three proper rows shifted below the threshold
    models = [_rotated_c4()]
    for path in sorted(scenario_dir.glob("*.json")):
        scn = load_scenario(path)
        models.append((path.stem, scn.poset, scn.state))
    kinds = []
    for name, poset, state in models:
        psh = SpectralPresheaf(poset)
        rows = [((v.id, frozenset({i})), w)
                for v in poset.contexts
                for i, w in enumerate(v.weights(state.matrix))]
        # every row moved by its own amount: a row clashes with each later
        # equal row, and the message names the first of them
        tables = [{key: w + 1e-7 * r if w < 0.5 else w - 1e-7 * r
                   for r, (key, w) in enumerate(rows)}]
        for shift in (5e-9, 1e-7, 0.05):
            for seed in range(7):
                rng = np.random.default_rng([seed, len(rows)])
                table = dict(rows)
                count = int(rng.integers(1, min(3, len(rows)) + 1))
                for r in rng.choice(len(rows), count, replace=False):
                    key, w = rows[r]
                    table[key] = w + shift if w < 0.5 else w - shift
                tables.append(table)
        full = dict_of(measure_table_of_state(state, psh))
        proper = [key for key in full
                  if 0 < len(key[1]) < poset.context(key[0]).k]
        tables.append(full)
        for seed in range(3):
            rng = np.random.default_rng([seed, len(full)])
            table = dict(full)
            for r in rng.choice(len(proper), min(3, len(proper)),
                                replace=False):
                w = table[proper[r]]
                table[proper[r]] = w + 5e-9 if w < 0.5 else w - 5e-9
            tables.append(table)
        for table in tables:
            measure = table_of(psh, table)
            kind, got = _outcome(state_from_measure, measure)
            want = _outcome(_dense_reconstruction, measure)
            kinds.append(kind)
            if kind == "fit":
                rho, rank = want[1]
                assert want[0] == "fit", (name, want)
                n = state.dim
                assert got.spanned_dim == rank
                assert got.underdetermined == (rank < n * n - 1)
                assert np.linalg.norm(got.state.matrix - rho) <= 1e-9
            else:
                assert (kind, got) == want, name
    assert set(kinds) == {"fit", "inconsistent", "infeasible"}


def test_weights_of_a_stack_are_those_of_each_matrix(scenario_dir,
                                                      monkeypatch):
    # state_from_measure reads the weights of the whole traceless basis in
    # one call; they must be the weights of each basis matrix, bit for bit,
    # and the per-bucket products those of Context.weights at each context,
    # in one slice or in many (48 entries hold three 4 x 4 products)
    models = [_rotated_c4()[1:]]
    for path in sorted(scenario_dir.glob("*.json")):
        scn = load_scenario(path)
        models.append((scn.poset, scn.state))
    for (poset, state), entries in itertools.product(
            models, (context_index.PRODUCT_ENTRIES, 48)):
        monkeypatch.setattr(context_index, "PRODUCT_ENTRIES", entries)
        psh = SpectralPresheaf(poset)
        stack = np.array(_traceless_hermitian_basis(state.dim)
                         + [state.matrix])
        every_other = np.arange(len(poset)) % 2 == 0
        for inside in (None, every_other):
            one_by_one = np.array([psh.weights(m, inside) for m in stack])
            assert psh.weights(stack, inside).tobytes() == one_by_one.tobytes()
            per_context = np.zeros_like(one_by_one)
            for i in np.flatnonzero(every_other if inside is not None
                                    else np.ones(len(poset), dtype=bool)):
                lo, hi = psh.offsets[i:i + 2]
                per_context[:, lo:hi] = poset.contexts[i].weights(stack)
                assert (psh.weights(state.matrix, inside)[lo:hi].tobytes()
                        == poset.contexts[i].weights(state.matrix).tobytes())
            assert one_by_one.tobytes() == per_context.tobytes()


def _raised(build, *args):
    try:
        build(*args)
    except (ContextMissing, DimMismatch, NotAdditive) as exc:
        return type(exc).__name__, str(exc)
    return None


# fault -> (the rows it may hit, by subset and block count; the value it
# puts there, from the true one); a shifted proper row is non-additive
# where a pair of its context has its union in the table
FAULTS = {
    "value": (lambda sub, k: True, lambda w: 1.5 if w > 0.5 else -0.25),
    "full": (lambda sub, k: len(sub) == k, lambda w: 0.5),
    "empty": (lambda sub, k: not sub, lambda w: 0.25),
    "additivity": (lambda sub, k: 0 < len(sub) < k,
                   lambda w: w + 0.01 if w < 0.5 else w - 0.01),
}


def test_table_validation_matches_the_dict_oracle(scenario_dir):
    # shuffled partial tables with one fault each, or one row naming a
    # block out of range
    models = [_rotated_c4()]
    for path in sorted(scenario_dir.glob("*.json")):
        scn = load_scenario(path)
        models.append((path.stem, scn.poset, scn.state))
    seen = set()
    for name, poset, state in models:
        psh = SpectralPresheaf(poset)
        k = {v.id: v.k for v in poset.contexts}
        full = list(dict_of(measure_table_of_state(state, psh)).items())
        assert _raised(table_of, psh, dict(full)) is None
        for seed in range(25):
            rng = np.random.default_rng([seed, len(full)])
            keep = rng.permutation(len(full))[:rng.integers(2, len(full) + 1)]
            rows = [full[i] for i in keep]
            fault = [*FAULTS, "index"][seed % 5]
            if fault == "index":
                cid = poset.contexts[rng.integers(len(poset))].id
                rows.insert(int(rng.integers(len(rows) + 1)),
                            ((cid, frozenset({k[cid]})), 0.5))
            else:
                hits, faulty = FAULTS[fault]
                fits = [r for r, ((cid, sub), _) in enumerate(rows)
                        if hits(sub, k[cid])]
                if not fits:
                    continue
                r = fits[int(rng.integers(len(fits)))]
                rows[r] = rows[r][0], faulty(rows[r][1])
            table = dict(rows)
            want = _raised(check_table, poset, table)
            assert _raised(table_of, psh, table) == want, (name, seed)
            seen.add(want[1].split(" ")[0] if want else None)
    assert seen - {None} == {"value", "character", "full", "empty",
                             "additivity"}
    with pytest.raises(ContextMissing):
        AbstractMeasure(psh, [len(poset)], [0], [0.0])


# --------------------------------------------------------------------------
# block-weight measures against dense products rho . P


def _random_state(rng, n, rank):
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = g @ g.conj().T
    return State(m / np.trace(m).real)


def _random_context(rng, n, k):
    """k blocks spanned by a random partition of a random unitary's columns."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    cols = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    return Context([q[:, part] @ q[:, part].conj().T
                    for part in np.split(cols, cuts)], "V")


@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       faithful=st.booleans())
def test_block_weight_measure_matches_dense_oracle(n, seed, faithful):
    rng = np.random.default_rng(seed)
    state = _random_state(rng, n, n if faithful else int(rng.integers(1, n)))
    v = _random_context(rng, n, int(rng.integers(2, n + 1)))
    poset = build_poset([v])
    psh = SpectralPresheaf(poset)
    table = measure_table_of_state(state, psh)
    assert (table.contexts == 0).all()
    assert list(table.subsets) == list(range(1 << v.k))
    for mask in range(1 << v.k):
        subset = frozenset(i for i in range(v.k) if mask & (1 << i))
        dense = np.trace(state.matrix @ lattice_projection(v, subset).matrix).real
        sub = ClopenSubobject.from_components(psh, {"V": subset})
        direct = table.values[mask]
        assert abs(direct - dense) <= 1e-12
        # the table rows and the mask sums add in the same order, so they
        # agree to the bit
        assert measure_of(state, sub)["V"] == direct


def _ids(sub):
    return sub.presheaf.poset.ids(sub.domain)


def _dense(sub, cid):
    return lattice_projection(sub.presheaf.poset.context(cid), sub.component(cid)).matrix


def _moved_dense(sub, u, cid):
    """(path, P_{S at U V U*}) as the dense matrix products would take it:
    the poset component when the moved context is in the domain, else
    U P_{S_V} U* for flow-equivariant families."""
    poset = sub.presheaf.poset
    target = poset.find_equal(apply_automorphism(u, poset.context(cid)))
    if target in _ids(sub):
        return "poset", _dense(sub, target)
    if sub.flow_equivariant:
        return "direct", u @ _dense(sub, cid) @ u.conj().T
    raise PosetNotClosed(cid)


def _tr(a, b):
    return np.trace(a @ b).real


def _c1_oracle(state, flow, sub, t_grid):
    rows, gap = [], 0.0
    for t in t_grid:
        u = flow.unitary(t)
        for cid in _ids(sub):
            path, p_moved = _moved_dense(sub, u, cid)
            p_here = _dense(sub, cid)
            if path == "poset" and sub.flow_equivariant:
                gap = max(gap, frob(p_moved - u @ p_here @ u.conj().T))
            rows.append((float(t), cid, path, _tr(state.matrix, p_here),
                         _tr(state.matrix, p_moved)))
    return rows, gap


def _group_action_oracle(state, flow, sub, t_grid):
    rows = []
    for t in t_grid:
        u = flow.unitary(t)
        rho_t = u @ state.matrix @ u.conj().T
        for cid in _ids(sub):
            _, p_moved = _moved_dense(sub, u, cid)
            rows.append((_tr(state.matrix, u.conj().T @ p_moved @ u),
                         _tr(rho_t, _dense(sub, cid))))
    return rows


def _internal_c1_oracle(state, sub, group):
    return [[_tr(state.matrix, _moved_dense(sub, u, cid)[1])
             for _, u in group.real_unitaries()]
            for cid in sorted(_ids(sub))]


@pytest.mark.parametrize("fixture", ["c3_gibbs", "c3_pure"])
def test_flow_checks_match_dense_oracle(fixture, request):
    c3 = request.getfixturevalue(fixture)
    # off-grid parameters take the "direct" path, group samples the "poset" one
    t_grid = list(c3.t_grid) + list(GRID5)
    # a closed group whose images of Vex leave the poset: "direct" path
    off_grid = SampledGroup(c3.flow, [0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    paths = set()
    for sub in c3.subs.values():
        # cells (t, V) in row-major order: grid order, then index order
        rep = check_C1(c3.state, c3.flow, sub, t_grid)
        rows, gap = _c1_oracle(c3.state, c3.flow, sub, t_grid)
        for (k, j), (t, cid, path, lhs, rhs) in zip(
                np.ndindex(rep.lhs.shape), rows, strict=True):
            got = "poset" if rep.on_poset[k, j] else "direct"
            assert (rep.samples[k], rep.context_ids[j], got) == (t, cid, path)
            assert abs(rep.lhs[k, j] - lhs) <= 1e-12
            assert abs(rep.rhs[k, j] - rhs) <= 1e-12
        assert abs(rep.consistency_gap - gap) <= 1e-12
        paths.update("poset" if hit else "direct"
                     for hit in rep.on_poset.ravel())

        grep = group_action_check(c3.state, c3.flow, sub, t_grid)
        want = _group_action_oracle(c3.state, c3.flow, sub, t_grid)
        for (k, j), (lhs, rhs) in zip(np.ndindex(grep.lhs.shape), want,
                                      strict=True):
            assert abs(grep.lhs[k, j] - lhs) <= 1e-12
            assert abs(grep.rhs[k, j] - rhs) <= 1e-12

        for group in (c3.group, off_grid):
            irep = check_internal_C1(c3.state, sub, group)
            want = _internal_c1_oracle(c3.state, sub, group)
            assert list(irep.samples) == group.samples
            assert sorted(irep.context_ids) == sorted(_ids(sub))
            for cid, vals in zip(sorted(_ids(sub)), want, strict=True):
                got = irep.rhs[:, irep.context_ids.index(cid)]
                assert np.max(np.abs(got - vals)) <= 1e-12
    assert paths == {"poset", "direct"}

    # a family that is not flow-equivariant and leaves its domain
    local = complete_downward(c3.presheaf, {"Vex": {0}}, name="L")
    for run in (lambda: check_C1(c3.state, c3.flow, local, t_grid),
                lambda: _c1_oracle(c3.state, c3.flow, local, t_grid),
                lambda: group_action_check(c3.state, c3.flow, local, t_grid),
                lambda: _group_action_oracle(c3.state, c3.flow, local,
                                             t_grid),
                lambda: check_internal_C1(c3.state, local, c3.group),
                lambda: _internal_c1_oracle(c3.state, local, c3.group)):
        with pytest.raises(PosetNotClosed):
            run()
