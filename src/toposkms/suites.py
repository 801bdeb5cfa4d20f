"""The check suites of `toposkms run`, in one registry.

SUITES maps each suite name to its runner, in execution order, which is
the order of definition below: poset -> presheaf -> measure -> external
C1/C2 -> truth -> equivalences -> internal C1/C2 -> modular ->
reconstruction.  A runner takes (scenario, report), appends its rows and
returns the suite's outcome: True or False, or None when nothing ran.
A suite that needs optional Scenario fields declares them; when one is
None or empty the suite writes a single INFO row `skipped: needs ...`
instead of running.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import AmbiguousMatch, NotFaithful, PosetNotClosed, ToposKMSError
from .kms_external import (
    StageVR,
    TruthObject,
    check_C1,
    check_C2,
    check_truth_value_invariance,
    expectation_value,
    mu_equivalent,
    strong_mu_equivalence,
    twist,
)
from .kms_internal import (
    check_internal_C1,
    check_internal_C2,
    faithful_automorphisms,
    fixed_point_subgroup,
    orbits,
)
from .measure import (
    group_action_check,
    measure_table_of_state,
    state_from_measure,
    verify_measure_properties,
)
from .modular import (
    commutant_swap_check,
    expected_delta_spectrum,
    modular_flow,
    tomita_operators,
)
from .presheaf import (
    complete_downward,
    outer_daseinisation_bruteforce,
)
from .reports import ERROR, FAIL, INFO, PASS

SUITES = {}


def suite(name: str, needs=()):
    """Register the decorated runner as suite `name`, guarded by the
    Scenario fields it needs."""

    def register(run):
        @functools.wraps(run)
        def runner(scn, rep):
            if any(_absent(getattr(scn, f)) for f in needs):
                rep.add(name, f"skipped: needs {', '.join(needs)}",
                        verdict=INFO)
                return None
            return run(scn, rep)

        runner.needs = needs
        SUITES[name] = runner
        return runner

    return register


def _absent(value) -> bool:
    return value is None or (isinstance(value, (list, dict)) and not value)


def fmtf(t: float) -> str:
    return ("%g" % t)


# --------------------------------------------------------------------------
# seeded samplers shared by presheaf / measure suites


def _random_projection(rng, n: int) -> np.ndarray:
    k = int(rng.integers(1, n))
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(m)
    return q[:, :k] @ q[:, :k].conj().T


def _random_subobject(rng, presheaf, name: str):
    poset = presheaf.poset
    assignments = {}
    for cid in poset.maximal_ids():
        v = poset.context(cid)
        picks = frozenset(
            i for i in range(v.k) if rng.random() < 0.5
        )
        assignments[cid] = picks
    return complete_downward(presheaf, assignments, name=name)


# --------------------------------------------------------------------------
# the suites, in execution order


@suite("poset")
def run_poset(scn, rep):
    poset = scn.poset
    rep.add("poset", "contexts", lhs=len(poset.contexts), verdict=INFO)
    rep.add("poset", "maximal", lhs=",".join(sorted(poset.maximal_ids())),
            verdict=INFO)
    rep.add("poset", "comparable pairs",
            lhs=len(poset.strict_pairs), verdict=INFO)
    # order axioms on the computed relation
    leq = poset.leq
    reflexive = leq.diagonal().all()
    antisym = not (leq & leq.T & ~np.eye(len(leq), dtype=bool)).any()
    # paths of length 2, counted by a BLAS product: a count is at most the
    # number of contexts, exact in float32 below 2^24
    f = leq.astype(np.float32)
    transitive = ((f @ f > 0) <= leq).all()
    ok = bool(reflexive and antisym and transitive)
    rep.add("poset", "order axioms (reflexive, antisymmetric, transitive)",
            lhs=ok, residual=0.0 if ok else 1.0,
            verdict=PASS if ok else FAIL)
    return ok


@suite("presheaf")
def run_presheaf(scn, rep):
    poset = scn.poset
    # functoriality: restricting in two steps equals restricting directly
    total, bad = scn.presheaf.broken_chains()
    rep.add("presheaf", f"restriction functoriality on {total} chains",
            residual=float(bad), verdict=PASS if bad == 0 else FAIL)

    # seeded daseinisation against the exhaustive lattice scan, one
    # signature bucket at a time; a case is one (projection, context)
    rng = np.random.default_rng(scn.seed)
    ps = np.stack([_random_projection(rng, scn.dim) for _ in range(12)])
    lo = scn.presheaf.offsets
    brute = np.empty((len(ps), lo[-1]), dtype=bool)
    for (_, k, _), members, frames in poset.index.stacks():
        rows = outer_daseinisation_bruteforce(
            ps, frames, poset.contexts[members[0]].starts, scn.tol)
        brute[:, lo[members][:, None] + np.arange(k)] = rows.swapaxes(0, 1)
    wrong = scn.presheaf.dasein_masks(ps) != brute
    mismatches = int(np.logical_or.reduceat(wrong, lo[:-1], axis=1).sum())
    trials = len(ps) * len(poset.contexts)
    rep.add("presheaf", f"daseinisation = lattice minimum on {trials} cases",
            residual=float(mismatches),
            verdict=PASS if mismatches == 0 else FAIL)
    return bad == 0 and mismatches == 0


@suite("measure")
def run_measure(scn, rep):
    rng = np.random.default_rng(scn.seed + 1)
    named = [scn.subobjects[k] for k in sorted(scn.subobjects)]
    pool = list(named)
    while len(pool) < 8:
        pool.append(_random_subobject(rng, scn.presheaf,
                                      name=f"R{len(pool)}"))
    # each pair of the pool on the intersection of its domains (a lower
    # set), in pool order, where that is not empty
    ph = scn.presheaf
    masks = np.array([sub.mask for sub in pool])
    domains = np.array([sub.domain for sub in pool])
    pairs = np.transpose(np.triu_indices(len(pool), 1))
    common = domains[pairs[:, 0]] & domains[pairs[:, 1]]
    shared = common.any(axis=1)
    pairs, common = pairs[shared], common[shared]
    mrep = verify_measure_properties(
        scn.state, ph, masks[pairs] & common[:, None, ph.owner],
        np.repeat(common[:, None], 2, axis=1))
    eps = scn.tol.eps_measure
    for field in ("normalization", "empty", "monotonicity", "modularity",
                  "order_reversal", "complement_meet"):
        rep.add_pass_fail("measure", f"{field} over {mrep.pairs_checked} pairs",
                          residual=getattr(mrep, field), eps=eps)
    rep.add("measure", "max mu(S v ~S) defect (strictness witness)",
            lhs=mrep.strictness_witness, verdict=INFO)
    ok = mrep.passed

    if scn.flow is not None and scn.t_grid and named:
        for sub in named:
            try:
                grep = group_action_check(scn.state, scn.flow, sub,
                                          scn.t_grid)
            except PosetNotClosed:
                rep.add("measure",
                        f"group action of {sub.name} skipped: orbit leaves "
                        "the poset", verdict=INFO)
                continue
            e = rep.add_pass_fail(
                "measure", f"group action compatibility of {sub.name}",
                residual=grep.max_residual, eps=eps)
            ok = ok and e.verdict == PASS
    return ok


@suite("external-c1", needs=("flow", "t_grid", "subobjects"))
def run_external_c1(scn, rep):
    eps = scn.tol.eps_measure
    ok = True
    ran = 0
    for nm in sorted(scn.subobjects):
        try:
            crep = check_C1(scn.state, scn.flow, scn.subobjects[nm],
                            scn.t_grid)
        except PosetNotClosed:
            rep.add("external-c1",
                    f"{nm} skipped: orbit leaves the poset and the family "
                    "is not flow-equivariant", verdict=INFO)
            continue
        ran += 1
        rep.add("external-c1", f"{nm} poset-lookup vs direct gap",
                lhs=crep.consistency_gap, verdict=INFO)
        res = crep.residuals
        if crep.max_residual <= eps:
            rep.add_pass_fail(
                "external-c1", f"{nm} max residual over {res.size} (V, t)",
                residual=crep.max_residual, eps=eps)
            continue
        ok = False
        # failing (V, t) in context-id order, then t, equal t in grid order
        by_t = np.argsort(crep.samples, kind="stable")
        ids = crep.context_ids
        for j in sorted(range(len(ids)), key=ids.__getitem__):
            for k in by_t[res[by_t, j] > eps]:
                rep.add("external-c1",
                        f"{nm} @ {ids[j]}, t={fmtf(crep.samples[k])}",
                        lhs=float(crep.lhs[k, j]), rhs=float(crep.rhs[k, j]),
                        residual=float(res[k, j]), verdict=FAIL)
    return ok if ran else None


@suite("external-c2", needs=("flow", "pairs"))
def run_external_c2(scn, rep):
    t_samples = scn.t_grid or [0.0]
    ok = True
    ran = 0
    eps = max(scn.tol.eps_measure, scn.tol.eps_order)
    for a, b in scn.pairs:
        sub_s, sub_t = scn.subobjects[a], scn.subobjects[b]
        shared = sorted(scn.poset.ids(sub_s.domain & sub_t.domain))
        if scn.c2_context is not None:
            cids = [scn.c2_context] if scn.c2_context in shared else []
        else:
            maximal = set(scn.poset.maximal_ids())
            cids = [c for c in shared if c in maximal] or shared[:1]
        if not cids:
            rep.add("external-c2", f"({a},{b}) skipped: " + (
                f"c2_context {scn.c2_context} is not shared" if shared
                else "no shared context"), verdict=INFO)
            continue
        ran += 1
        for cid in cids:
            try:
                c2 = check_C2(scn.state, scn.flow, sub_s, sub_t, cid,
                              t_samples)
            except NotFaithful as exc:
                rep.add_error("external-c2", f"({a},{b}) @ {cid}", exc)
                ok = False
                continue
            e1 = rep.add_pass_fail(
                "external-c2", f"boundary ({a},{b}) @ {cid}",
                residual=c2.max_boundary_residual, eps=eps)
            e2 = rep.add_pass_fail(
                "external-c2", f"strip analyticity ({a},{b}) @ {cid}",
                residual=c2.max_strip_gap, eps=scn.tol.eps_herm)
            ok = ok and e1.verdict == PASS and e2.verdict == PASS
    return ok if ran else None


def _stages(scn) -> list:
    """The stages (V, r) the truth suites visit: the scenario's truth
    stage, or else every maximal context, with every r query."""
    cids = ([scn.truth_stage] if scn.truth_stage
            else sorted(scn.poset.maximal_ids()))
    return [StageVR(cid, r) for cid in cids for r in scn.r_queries]


@suite("truth", needs=("r_queries",))
def run_truth(scn, rep):
    truth = TruthObject(scn.state, scn.presheaf)
    stages = _stages(scn)
    ok = True
    for stage in stages:
        cid, r = stage.context_id, stage.r
        rep.add("truth", f"members @ ({cid}, r={fmtf(r)})",
                lhs=len(truth.members_at(stage)), verdict=INFO)
        for nm in sorted(scn.subobjects):
            sub = scn.subobjects[nm]
            if not sub.domain[scn.poset.index_of(cid)]:
                continue
            tau = truth.tau(sub, cid)
            rep.add("truth", f"{nm} in truth object @ ({cid}, r={fmtf(r)})",
                    lhs=("yes" if tau >= r else "no"), rhs=tau, verdict=INFO)

    # cutoff-table invariance for every named projection
    if scn.flow is not None and scn.t_grid and scn.projections:
        eps = scn.tol.eps_measure
        names = sorted(scn.projections)
        reports = check_truth_value_invariance(
            scn.state, scn.flow, [scn.projections[nm] for nm in names],
            stages, scn.presheaf, scn.t_grid)
        for pname, invs in zip(names, reports):
            for stage, inv in zip(stages, invs):
                e = rep.add_pass_fail(
                    "truth", f"cutoff invariance of {pname} @ "
                             f"({stage.context_id}, r={fmtf(stage.r)})",
                    residual=inv.max_residual, eps=eps)
                ok = ok and e.verdict == PASS

    # expectation identity on the named projections
    eps_exp = max(scn.tol.eps_measure, scn.tol.eps_herm)
    for pname in sorted(scn.projections):
        p = scn.projections[pname]
        try:
            res = expectation_value(p, scn.state, scn.presheaf)
        except ToposKMSError as exc:
            rep.add_error("truth", f"expectation of {pname}", exc)
            ok = False
            continue
        e = rep.add_pass_fail(
            "truth", f"E({pname}) = tr(rho {pname})",
            residual=res.residual, eps=eps_exp,
            lhs=res.value, rhs=res.trace_value)
        ok = ok and e.verdict == PASS
    return ok


@suite("equivalence", needs=("flow", "t_grid", "r_queries"))
def run_equivalence(scn, rep):
    truth = TruthObject(scn.state, scn.presheaf)
    stages = _stages(scn)
    ok = True
    for t in scn.t_grid:
        if t == 0.0:
            continue
        twisted = twist(truth, scn.flow, t)
        for stage in stages:
            try:
                res = mu_equivalent(scn.state, truth, twisted, stage)
            except ToposKMSError as exc:
                rep.add_error(
                    "equivalence",
                    f"weak @ ({stage.context_id}, r={fmtf(stage.r)}), "
                    f"t={fmtf(t)}", exc)
                ok = False
                continue
            e = rep.add(
                "equivalence",
                f"weak @ ({stage.context_id}, r={fmtf(stage.r)}), t={fmtf(t)}",
                lhs=res.size_a, rhs=res.size_b, residual=res.max_gap,
                verdict=PASS if res.equivalent else FAIL)
            ok = ok and e.verdict == PASS
        try:
            sres = strong_mu_equivalence(scn.state, truth, twisted, stages)
            e = rep.add(
                "equivalence", f"strong matching, t={fmtf(t)}",
                lhs=len(sres.matchings), residual=sres.naturality_gap,
                verdict=PASS if sres.equivalent else FAIL)
            ok = ok and e.verdict == PASS
        except AmbiguousMatch as exc:
            rep.add("equivalence",
                    f"strong matching, t={fmtf(t)}: ambiguous at stage "
                    f"{exc.stage} ({len(exc.candidates)} candidates)",
                    verdict=ERROR)
            ok = False
    return ok


@suite("internal-c1", needs=("group", "subobjects"))
def run_internal_c1(scn, rep):
    fixed = fixed_point_subgroup(scn.group, scn.poset)
    rep.add("internal-c1", "fixed-point subgroup over poset",
            lhs=",".join(fmtf(t) for t in fixed), verdict=INFO)
    for v in scn.seed_contexts:
        cid = scn.poset.find_equal(v)
        dec = orbits(scn.group, scn.poset.context(cid))
        fa = faithful_automorphisms(scn.group, scn.poset.context(cid))
        rep.add("internal-c1", f"orbits @ {cid}", lhs=dec.count,
                rhs=f"faithful={len(fa.faithful)},fixes_all={len(fa.fixes_all)}",
                verdict=INFO)
    reps = [(nm, check_internal_C1(scn.state, scn.subobjects[nm], scn.group))
            for nm in sorted(scn.subobjects)]
    eps = scn.tol.eps_measure
    worst = max(crep.max_spread for _, crep in reps)
    if worst <= eps:
        rep.add_pass_fail(
            "internal-c1",
            f"orbit constancy over "
            f"{sum(len(crep.context_ids) for _, crep in reps)} (S, V)",
            residual=worst, eps=eps)
        return True
    for nm, crep in reps:
        spreads, ids = crep.spreads, crep.context_ids
        for j in sorted(range(len(ids)), key=ids.__getitem__):
            if spreads[j] > eps:
                rep.add("internal-c1", f"{nm} @ {ids[j]}",
                        residual=float(spreads[j]), verdict=FAIL)
    return False


@suite("internal-c2", needs=("group", "pairs"))
def run_internal_c2(scn, rep):
    eps = max(scn.tol.eps_measure, scn.tol.eps_order)
    ok = True
    ran = 0
    c1 = functools.cache(lambda nm: check_internal_C1(
        scn.state, scn.subobjects[nm], scn.group))
    for a, b in scn.pairs:
        sub_s, sub_t = scn.subobjects[a], scn.subobjects[b]
        if not (sub_s.domain & sub_t.domain).any():
            rep.add("internal-c2", f"({a},{b}) skipped: no shared context",
                    verdict=INFO)
            continue
        ran += 1
        try:
            c2 = check_internal_C2(scn.state, scn.group, sub_s, sub_t)
        except NotFaithful as exc:
            rep.add_error("internal-c2", f"strip ({a},{b})", exc)
            ok = False
            continue
        e = rep.add_pass_fail(
            "internal-c2",
            f"strip gamma={fmtf(c2.gamma)} ({a},{b}) over "
            f"{len(c2.context_ids)} contexts",
            residual=c2.max_residual, eps=eps)
        ok = ok and e.verdict == PASS

        # at gamma = 0 the check is internal C1 on (S, T) at their shared
        # contexts, whose verdict must match internal C1 on all of theirs
        degen = max(c1(nm).spread_on(c2.context_ids) for nm in (a, b))
        held = degen <= scn.tol.eps_measure
        c1_held = max(c1(nm).max_spread for nm in (a, b)) <= scn.tol.eps_measure
        e = rep.add(
            "internal-c2",
            f"gamma=0 degeneration matches internal C1 ({a},{b})",
            lhs="pass" if held else "fail",
            rhs="pass" if c1_held else "fail",
            residual=degen,
            verdict=PASS if held == c1_held else FAIL)
        ok = ok and e.verdict == PASS
    return ok if ran else None


@suite("modular")
def run_modular(scn, rep):
    eps = scn.tol.eps_herm
    try:
        data = tomita_operators(scn.state)
    except ToposKMSError as exc:
        rep.add_error("modular", "tomita operators", exc)
        return False
    for key in sorted(data.residuals):
        rep.add_pass_fail("modular", key, residual=data.residuals[key],
                          eps=eps)
    gap = float(np.max(np.abs(data.delta_spectrum
                              - expected_delta_spectrum(scn.state))))
    rep.add_pass_fail("modular", "delta spectrum = {a_i/a_j}",
                      residual=gap, eps=eps)
    swap = commutant_swap_check(scn.state, data=data)
    rep.add_pass_fail("modular", "commutant swap", residual=swap.max_residual,
                      eps=eps)

    ok = all(e.verdict != FAIL for e in rep.entries if e.check == "modular")
    if scn.flow is not None:
        mflow = modular_flow(scn.state, beta=scn.beta, convention="modular")
        worst = 0.0
        for t in (scn.t_grid or [0.5, 1.0]):
            um, uh = mflow.unitary(t), scn.flow.unitary(t)
            phase = np.trace(um.conj().T @ uh) / scn.dim
            if abs(phase) > 1e-12:
                phase /= abs(phase)
                worst = max(worst, float(np.linalg.norm(uh - phase * um)))
            else:
                worst = max(worst, float(np.linalg.norm(uh - um)))
        e = rep.add_pass_fail(
            "modular", "modular flow = hamiltonian flow (up to phase)",
            residual=worst, eps=scn.tol.eps_measure)
        ok = ok and e.verdict == PASS
    return ok


@suite("reconstruction")
def run_reconstruction(scn, rep):
    table = measure_table_of_state(scn.state, scn.presheaf)
    try:
        res = state_from_measure(table)
    except ToposKMSError as exc:
        rep.add_error("reconstruction", "state from measure", exc)
        return False
    rep.add("reconstruction", "spanned dimensions",
            lhs=res.spanned_dim, rhs=scn.dim * scn.dim - 1,
            verdict=INFO)
    rep.add("reconstruction", "underdetermined",
            lhs=res.underdetermined, verdict=INFO)
    if res.underdetermined:
        rep.add("reconstruction",
                "round trip skipped: measure table does not span",
                verdict=INFO)
        return True
    gap = float(np.linalg.norm(scn.state.matrix - res.state.matrix))
    e = rep.add_pass_fail("reconstruction", "round-trip |rho - rho'|_F",
                          residual=gap, eps=scn.tol.eps_order)
    rep.add("reconstruction", "fit residual", lhs=res.fit_residual,
            verdict=INFO)
    return e.verdict == PASS
