"""Scenario-driven verification front end.

`toposkms run scenario.json` executes the requested check suites in a
fixed order (poset -> presheaf -> measure -> external C1/C2 -> truth ->
equivalences -> internal C1/C2 -> modular -> reconstruction) and writes
report.json / report.csv / summary.md into the output directory.

Exit codes: 0 all checks pass, 1 at least one check failed or errored,
2 malformed input.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .algebra import Context, ContextPoset
from .errors import (
    AmbiguousMatch,
    NotFaithful,
    PosetNotClosed,
    ScenarioError,
    ToposKMSError,
)
from .kms_external import (
    StageVR,
    TruthObject,
    check_C1,
    check_C2,
    check_truth_value_invariance,
    expectation_value,
    gibbs_state,
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
    State,
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
    outer_daseinisation,
    outer_daseinisation_bruteforce,
    s_map,
)
from .reports import ERROR, FAIL, INFO, PASS, Report
from .scenario import Scenario, load_scenario, parse_matrix

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
# check suites: each consumes the scenario and appends report entries


def run_poset(scn: Scenario, rep: Report, outcomes: dict) -> None:
    poset = scn.poset
    rep.add("poset", "contexts", lhs=len(poset.contexts), verdict=INFO)
    rep.add("poset", "maximal", lhs=",".join(sorted(poset.maximal_ids())),
            verdict=INFO)
    rep.add("poset", "comparable pairs",
            lhs=len(list(poset.comparable_pairs())), verdict=INFO)
    # order axioms on the computed relation
    leq = poset.leq
    reflexive = leq.diagonal().all()
    antisym = not (leq & leq.T & ~np.eye(len(leq), dtype=bool)).any()
    transitive = ((leq @ leq) <= leq).all()  # boolean product: paths of length 2
    ok = bool(reflexive and antisym and transitive)
    rep.add("poset", "order axioms (reflexive, antisymmetric, transitive)",
            lhs=ok, residual=0.0 if ok else 1.0,
            verdict=PASS if ok else FAIL)
    outcomes["poset"] = ok


def run_presheaf(scn: Scenario, rep: Report, outcomes: dict) -> None:
    psh = scn.presheaf
    poset = scn.poset
    # functoriality: restricting in two steps equals restricting directly
    bad = 0
    total = 0
    ids = [v.id for v in poset.contexts]
    for large in ids:
        for mid in psh.below(large):
            if mid == large:
                continue
            for small in psh.below(mid):
                if small == mid:
                    continue
                full = frozenset(range(poset.context(large).k))
                via = psh.restrict(mid, small, psh.restrict(large, mid, full))
                direct = psh.restrict(large, small, full)
                total += 1
                if via != direct:
                    bad += 1
    rep.add("presheaf", f"restriction functoriality on {total} chains",
            residual=float(bad), verdict=PASS if bad == 0 else FAIL)

    # seeded daseinisation against the exhaustive lattice scan
    rng = np.random.default_rng(scn.seed)
    mismatches = 0
    trials = 0
    for _ in range(12):
        p = _random_projection(rng, scn.dim)
        for v in poset.contexts:
            fast = outer_daseinisation(p, v, scn.tol)
            brute = outer_daseinisation_bruteforce(p, v, scn.tol)
            trials += 1
            if s_map(fast.matrix, v, scn.tol) != s_map(brute.matrix, v,
                                                       scn.tol):
                mismatches += 1
    rep.add("presheaf", f"daseinisation = lattice minimum on {trials} cases",
            residual=float(mismatches),
            verdict=PASS if mismatches == 0 else FAIL)
    outcomes["presheaf"] = bad == 0 and mismatches == 0


def _on_common_domain(a, b):
    """Both sub-objects restricted to the intersection of their domains
    (an intersection of lower sets is a lower set)."""
    common = set(a.components) & set(b.components)
    if not common:
        return None
    from .presheaf import ClopenSubobject

    return (
        ClopenSubobject(a.presheaf, {c: a.components[c] for c in common},
                        name=a.name),
        ClopenSubobject(b.presheaf, {c: b.components[c] for c in common},
                        name=b.name),
    )


def run_measure(scn: Scenario, rep: Report, outcomes: dict) -> None:
    rng = np.random.default_rng(scn.seed + 1)
    named = [scn.subobjects[k] for k in sorted(scn.subobjects)]
    pool = list(named)
    while len(pool) < 8:
        pool.append(_random_subobject(rng, scn.presheaf,
                                      name=f"R{len(pool)}"))
    pairs = []
    for i, a in enumerate(pool):
        for b in pool[i + 1:]:
            joint = _on_common_domain(a, b)
            if joint is not None:
                pairs.append(joint)
    mrep = verify_measure_properties(scn.state, scn.presheaf, pairs,
                                     tol=scn.tol)
    eps = scn.tol.eps_measure
    for field in ("normalization", "empty", "monotonicity", "modularity",
                  "order_reversal", "complement_meet"):
        rep.add_pass_fail("measure", f"{field} over {mrep.pairs_checked} pairs",
                          residual=getattr(mrep, field), eps=eps)
    rep.add("measure", "max mu(S v ~S) defect (strictness witness)",
            lhs=mrep.strictness_witness, verdict=INFO)
    ok = mrep.passed

    if scn.flow is not None and scn.t_grid and named:
        from .measure import group_action_check

        for sub in named:
            try:
                grep = group_action_check(scn.state, scn.flow, sub,
                                          scn.t_grid, tol=scn.tol)
            except PosetNotClosed:
                rep.add("measure",
                        f"group action of {sub.name} skipped: orbit leaves "
                        "the poset", verdict=INFO)
                continue
            e = rep.add_pass_fail(
                "measure", f"group action compatibility of {sub.name}",
                residual=grep.max_residual, eps=eps)
            ok = ok and e.verdict == PASS
    outcomes["measure"] = ok


def run_external_c1(scn: Scenario, rep: Report, outcomes: dict) -> None:
    if scn.flow is None or not scn.t_grid or not scn.subobjects:
        rep.add("external-c1", "skipped: needs hamiltonian, t_grid, subobjects",
                verdict=INFO)
        return
    eps = scn.tol.eps_measure
    ok = True
    ran = 0
    for nm in sorted(scn.subobjects):
        sub = scn.subobjects[nm]
        try:
            crep = check_C1(scn.state, scn.flow, [sub], scn.t_grid,
                            tol=scn.tol)
        except PosetNotClosed:
            rep.add("external-c1",
                    f"{nm} skipped: orbit leaves the poset and the family "
                    "is not flow-equivariant", verdict=INFO)
            continue
        ran += 1
        rep.add("external-c1", f"{nm} poset-lookup vs direct gap",
                lhs=crep.consistency_gap, verdict=INFO)
        if crep.passed(eps):
            rep.add_pass_fail(
                "external-c1",
                f"{nm} max residual over {len(crep.entries)} (V, t)",
                residual=crep.max_residual, eps=eps)
        else:
            ok = False
            for e in sorted(crep.entries,
                            key=lambda e: (e.subobject, e.context_id, e.t)):
                if abs(e.lhs - e.rhs) > eps:
                    rep.add("external-c1",
                            f"{nm} @ {e.context_id}, t={fmtf(e.t)}",
                            lhs=e.lhs, rhs=e.rhs,
                            residual=abs(e.lhs - e.rhs), verdict=FAIL)
    if ran:
        outcomes["external-c1"] = ok


def fmtf(t: float) -> str:
    return ("%g" % t)


def run_external_c2(scn: Scenario, rep: Report, outcomes: dict) -> None:
    if scn.flow is None or not scn.pairs:
        rep.add("external-c2", "skipped: needs hamiltonian and pairs",
                verdict=INFO)
        return
    t_samples = scn.t_grid or [0.0]
    ok = True
    eps = max(scn.tol.eps_measure, 1e-8)
    for a, b in scn.pairs:
        sub_s, sub_t = scn.subobjects[a], scn.subobjects[b]
        shared = sorted(set(sub_s.components) & set(sub_t.components))
        if scn.c2_context is not None:
            cids = [scn.c2_context] if scn.c2_context in shared else []
        else:
            maximal = set(scn.poset.maximal_ids())
            cids = [c for c in shared if c in maximal] or shared[:1]
        for cid in cids:
            try:
                c2 = check_C2(scn.state, scn.flow, sub_s, sub_t, cid,
                              t_samples, tol=scn.tol)
            except NotFaithful as exc:
                rep.add_error("external-c2", f"({a},{b}) @ {cid}", exc)
                ok = False
                continue
            e1 = rep.add_pass_fail(
                "external-c2", f"boundary ({a},{b}) @ {cid}",
                residual=c2.max_boundary_residual, eps=eps)
            e2 = rep.add_pass_fail(
                "external-c2", f"strip analyticity ({a},{b}) @ {cid}",
                residual=c2.max_strip_gap, eps=1e-10)
            ok = ok and e1.verdict == PASS and e2.verdict == PASS
    outcomes["external-c2"] = ok


def run_truth(scn: Scenario, rep: Report, outcomes: dict) -> None:
    if not scn.r_queries:
        rep.add("truth", "skipped: no r queries", verdict=INFO)
        return
    truth = TruthObject(scn.state, scn.presheaf, tol=scn.tol)
    stages = ([scn.truth_stage] if scn.truth_stage
              else sorted(scn.poset.maximal_ids()))
    ok = True
    for cid in stages:
        for r in scn.r_queries:
            stage = StageVR(cid, r)
            members = truth.members_at(stage)
            rep.add("truth", f"members @ ({cid}, r={fmtf(r)})",
                    lhs=len(members), verdict=INFO)
            for nm in sorted(scn.subobjects):
                sub = scn.subobjects[nm]
                if cid not in sub.components:
                    continue
                inside = truth.contains(sub, stage)
                tau = truth.tau(sub, cid)
                rep.add("truth",
                        f"{nm} in truth object @ ({cid}, r={fmtf(r)})",
                        lhs=("yes" if inside else "no"), rhs=tau,
                        verdict=INFO)

    # cutoff-table invariance for every named projection
    if scn.flow is not None and scn.t_grid:
        eps = scn.tol.eps_measure
        for pname in sorted(scn.projections):
            p = scn.projections[pname]
            for cid in stages:
                for r in scn.r_queries:
                    inv = check_truth_value_invariance(
                        scn.state, scn.flow, p, cid, r, scn.presheaf,
                        scn.t_grid, tol=scn.tol)
                    e = rep.add_pass_fail(
                        "truth",
                        f"cutoff invariance of {pname} @ ({cid}, r={fmtf(r)})",
                        residual=inv.max_residual, eps=eps)
                    ok = ok and e.verdict == PASS

    # expectation identity on the named projections
    eps_exp = max(scn.tol.eps_measure, 1e-10)
    for pname in sorted(scn.projections):
        p = scn.projections[pname]
        try:
            res = expectation_value(p, scn.state,
                                    contexts=list(scn.poset.contexts),
                                    tol=scn.tol)
        except ToposKMSError as exc:
            rep.add_error("truth", f"expectation of {pname}", exc)
            ok = False
            continue
        e = rep.add_pass_fail(
            "truth", f"E({pname}) = tr(rho {pname})",
            residual=res.residual, eps=eps_exp,
            lhs=res.value, rhs=res.trace_value)
        ok = ok and e.verdict == PASS
    outcomes["truth"] = ok


def run_equivalence(scn: Scenario, rep: Report, outcomes: dict) -> None:
    if scn.flow is None or not scn.t_grid or not scn.r_queries:
        rep.add("equivalence", "skipped: needs flow, t_grid, r queries",
                verdict=INFO)
        return
    truth = TruthObject(scn.state, scn.presheaf, tol=scn.tol)
    stages = ([scn.truth_stage] if scn.truth_stage
              else sorted(scn.poset.maximal_ids()))
    eps = scn.tol.eps_measure
    ok = True
    for t in scn.t_grid:
        if t == 0.0:
            continue
        twisted = twist(truth, scn.flow, t)
        stage_objs = []
        for cid in stages:
            for r in scn.r_queries:
                stage_objs.append(StageVR(cid, r))
        for stage in stage_objs:
            try:
                res = mu_equivalent(scn.state, truth, twisted, stage,
                                    tol=scn.tol)
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
            sres = strong_mu_equivalence(scn.state, truth, twisted,
                                         stage_objs, tol=scn.tol)
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
    outcomes["equivalence"] = ok


def run_internal_c1(scn: Scenario, rep: Report, outcomes: dict) -> None:
    if scn.group is None or not scn.subobjects:
        rep.add("internal-c1", "skipped: needs group and subobjects",
                verdict=INFO)
        return
    fixed = fixed_point_subgroup(scn.group, scn.poset, tol=scn.tol)
    rep.add("internal-c1", "fixed-point subgroup over poset",
            lhs=",".join(fmtf(t) for t in fixed), verdict=INFO)
    for v in scn.seed_contexts:
        cid = scn.poset.find_equal(v)
        dec = orbits(scn.group, scn.poset.context(cid), tol=scn.tol)
        fa = faithful_automorphisms(scn.group, scn.poset.context(cid),
                                    tol=scn.tol)
        rep.add("internal-c1", f"orbits @ {cid}", lhs=dec.count,
                rhs=f"faithful={len(fa.faithful)},fixes_all={len(fa.fixes_all)}",
                verdict=INFO)
    subs = [scn.subobjects[k] for k in sorted(scn.subobjects)]
    crep = check_internal_C1(scn.state, subs, scn.group, tol=scn.tol)
    eps = scn.tol.eps_measure
    if crep.passed(eps):
        rep.add_pass_fail(
            "internal-c1",
            f"orbit constancy over {len(crep.entries)} (S, V)",
            residual=crep.max_spread, eps=eps)
    else:
        for e in crep.entries:
            if e.spread > eps:
                rep.add("internal-c1", f"{e.subobject} @ {e.context_id}",
                        residual=e.spread, verdict=FAIL)
    outcomes["internal-c1"] = crep.passed(eps)


def run_internal_c2(scn: Scenario, rep: Report, outcomes: dict) -> None:
    if scn.group is None or not scn.pairs:
        rep.add("internal-c2", "skipped: needs group and pairs", verdict=INFO)
        return
    eps = max(scn.tol.eps_measure, 1e-8)
    ok = True
    for a, b in scn.pairs:
        sub_s, sub_t = scn.subobjects[a], scn.subobjects[b]
        try:
            c2 = check_internal_C2(scn.state, scn.group, sub_s, sub_t,
                                   tol=scn.tol)
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

        degen = check_internal_C2(scn.state, scn.group, sub_s, sub_t,
                                  gamma=0.0, tol=scn.tol)
        c1 = check_internal_C1(scn.state, [sub_s, sub_t], scn.group,
                               tol=scn.tol)
        agree = degen.passed(scn.tol.eps_measure) == c1.passed(
            scn.tol.eps_measure)
        e = rep.add(
            "internal-c2",
            f"gamma=0 degeneration matches internal C1 ({a},{b})",
            lhs="pass" if degen.passed(scn.tol.eps_measure) else "fail",
            rhs="pass" if c1.passed(scn.tol.eps_measure) else "fail",
            residual=degen.max_residual,
            verdict=PASS if agree else FAIL)
        ok = ok and e.verdict == PASS
    outcomes["internal-c2"] = ok


def run_modular(scn: Scenario, rep: Report, outcomes: dict) -> None:
    eps = 1e-10
    try:
        data = tomita_operators(scn.state, tol=scn.tol)
    except ToposKMSError as exc:
        rep.add_error("modular", "tomita operators", exc)
        outcomes["modular"] = False
        return
    for key in sorted(data.residuals):
        rep.add_pass_fail("modular", key, residual=data.residuals[key],
                          eps=eps)
    expected = expected_delta_spectrum(scn.state)
    gap = float(np.max(np.abs(np.sort(data.delta_spectrum) -
                              np.sort(expected))))
    rep.add_pass_fail("modular", "delta spectrum = {a_i/a_j}",
                      residual=gap, eps=eps)
    swap = commutant_swap_check(scn.state, tol=scn.tol, data=data)
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
            residual=worst, eps=1e-9)
        ok = ok and e.verdict == PASS
    outcomes["modular"] = ok


def run_reconstruction(scn: Scenario, rep: Report, outcomes: dict) -> None:
    table = measure_table_of_state(scn.state, scn.poset, tol=scn.tol)
    try:
        res = state_from_measure(table, dim=scn.dim, tol=scn.tol)
    except ToposKMSError as exc:
        rep.add_error("reconstruction", "state from measure", exc)
        outcomes["reconstruction"] = False
        return
    rep.add("reconstruction", "spanned dimensions",
            lhs=res.spanned_dim, rhs=scn.dim * scn.dim - 1,
            verdict=INFO)
    rep.add("reconstruction", "underdetermined",
            lhs=res.underdetermined, verdict=INFO)
    if res.underdetermined:
        rep.add("reconstruction",
                "round trip skipped: measure table does not span",
                verdict=INFO)
        outcomes["reconstruction"] = True
        return
    gap = float(np.linalg.norm(scn.state.matrix - res.state.matrix))
    e = rep.add_pass_fail("reconstruction", "round-trip |rho - rho'|_F",
                          residual=gap, eps=1e-8)
    rep.add("reconstruction", "fit residual", lhs=res.fit_residual,
            verdict=INFO)
    outcomes["reconstruction"] = e.verdict == PASS


SUITES = {
    "poset": run_poset,
    "presheaf": run_presheaf,
    "measure": run_measure,
    "external-c1": run_external_c1,
    "external-c2": run_external_c2,
    "truth": run_truth,
    "equivalence": run_equivalence,
    "internal-c1": run_internal_c1,
    "internal-c2": run_internal_c2,
    "modular": run_modular,
    "reconstruction": run_reconstruction,
}


def execute(scn: Scenario) -> Report:
    rep = Report(scenario=scn.resolved, meta={
        "toposkms": __version__,
        "numpy": np.__version__,
        "convention": scn.convention,
        "seed": scn.seed,
    })
    outcomes: dict = {}
    for name in scn.checks:
        try:
            SUITES[name](scn, rep, outcomes)
        except ToposKMSError as exc:
            rep.add_error(name, "suite", exc)
            outcomes[name] = False

    # cross-suite invariant: an externally KMS state is internally constant
    if "external-c1" in outcomes and "internal-c1" in outcomes:
        holds = (not outcomes["external-c1"]) or outcomes["internal-c1"]
        rep.add("invariant", "external C1 pass implies internal C1 pass",
                lhs=outcomes["external-c1"], rhs=outcomes["internal-c1"],
                verdict=PASS if holds else FAIL)
    return rep


# --------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, scenario_required=True) -> None:
    p.add_argument("--scenario", required=scenario_required,
                   help="scenario JSON file")
    p.add_argument("--out-dir", default=None,
                   help="directory for report.json/report.csv/summary.md")
    p.add_argument("--checks", default=None,
                   help="comma-separated subset of checks to run")
    p.add_argument("--tol", action="append", default=[],
                   metavar="KEY=VALUE", help="tolerance override")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--convention", choices=("hamiltonian", "modular"),
                   default=None, help="flow convention override")


def _scenario_from_args(args, forced_checks=None) -> Scenario:
    import json as _json

    with open(args.scenario, "r", encoding="utf-8") as fh:
        try:
            raw = _json.load(fh)
        except _json.JSONDecodeError as exc:
            raise ScenarioError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be an object")
    if forced_checks is not None:
        raw["checks"] = list(forced_checks)
    elif args.checks:
        raw["checks"] = [c.strip() for c in args.checks.split(",") if c.strip()]
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.convention is not None:
        raw["convention"] = args.convention
    if args.tol:
        tols = dict(raw.get("tolerances", {}))
        for item in args.tol:
            if "=" not in item:
                raise ScenarioError(f"--tol expects KEY=VALUE, got {item!r}")
            k, v = item.split("=", 1)
            try:
                tols[k.strip()] = float(v)
            except ValueError as exc:
                raise ScenarioError(f"--tol {item!r}: {exc}") from exc
        raw["tolerances"] = tols
    return load_scenario(raw)


def _finish(rep: Report, out_dir) -> int:
    if out_dir:
        paths = rep.write(out_dir)
        print(f"report: {paths['json']}")
    counts = rep.counts()
    print(
        f"verdict: {rep.verdict.upper()} "
        f"({counts[PASS]} pass, {counts[FAIL]} fail, "
        f"{counts[ERROR]} error, {counts[INFO]} info)"
    )
    return rep.exit_code


def _cmd_run(args, forced_checks=None) -> int:
    scn = _scenario_from_args(args, forced_checks=forced_checks)
    rep = execute(scn)
    out_dir = args.out_dir or f"reports/{scn.name}"
    return _finish(rep, out_dir)


def _cmd_dasein(args) -> int:
    scn = _scenario_from_args(args, forced_checks=[])
    if args.P not in scn.projections:
        raise ScenarioError(f"projection {args.P!r} not in scenario")
    try:
        cid = args.context
        v = scn.poset.context(cid)
    except ToposKMSError as exc:
        raise ScenarioError(str(exc)) from exc
    p = scn.projections[args.P]
    d = outer_daseinisation(p, v, scn.tol)
    indices = s_map(d.matrix, v, scn.tol)
    n = v.blocks[0].matrix.shape[0]
    if len(indices) == v.k:
        desc = "I"
    elif not indices:
        desc = "0"
    else:
        desc = " + ".join(f"Q{i}" for i in sorted(indices))
    print(f"dasein({args.P}) @ {cid} = {desc}  "
          f"(rank {int(round(np.real(np.trace(d.matrix))))} of {n})")
    return 0


def _cmd_example_c3(args) -> int:
    parts = [p for p in args.a.split(",") if p.strip()]
    if len(parts) != 3:
        raise ScenarioError("--a expects three comma-separated weights")
    try:
        a = [float(p) for p in parts]
    except ValueError as exc:
        raise ScenarioError(f"--a: {exc}") from exc
    if any(x < 0 for x in a) or abs(sum(a) - 1.0) > 1e-9:
        raise ScenarioError("--a weights must be nonnegative and sum to 1")
    r = args.r

    mu1 = 0.5 * (a[0] + a[1])
    mu2 = 1.0 - mu1
    print(f"state weights a = ({fmtf(a[0])}, {fmtf(a[1])}, {fmtf(a[2])}), "
          f"r = {fmtf(r)}")
    print("context V generated by the symmetric rank-1 projection "
          "P12 on span{|1>,|2>}")
    print(f"S1: mu(S1)(V) = (a1+a2)/2 = {fmtf(mu1)} >= {fmtf(r)}? "
          f"{'YES' if mu1 >= r else 'NO'}")
    print(f"S2: mu(S2)(V) = 1-(a1+a2)/2 = {fmtf(mu2)} >= {fmtf(r)}? "
          f"{'YES' if mu2 >= r else 'NO'}")
    print("S12: mu(S12)(V) = 1, always YES")

    # engine cross-check on the one-context model
    p12 = np.zeros((3, 3), dtype=np.complex128)
    p12[0, 0] = p12[1, 1] = p12[0, 1] = p12[1, 0] = 0.5
    v = Context([p12, np.eye(3, dtype=np.complex128) - p12], context_id="V")
    poset = ContextPoset([v])
    from .presheaf import ClopenSubobject, SpectralPresheaf

    psh = SpectralPresheaf(poset)
    state = State(np.diag(a).astype(np.complex128))
    truth = TruthObject(state, psh)
    stage = StageVR("V", r)
    subs = {
        "S1": ClopenSubobject(psh, {"V": frozenset({0})}, name="S1"),
        "S2": ClopenSubobject(psh, {"V": frozenset({1})}, name="S2"),
        "S12": ClopenSubobject(psh, {"V": frozenset({0, 1})}, name="S12"),
    }
    expected = {"S1": mu1 >= r, "S2": mu2 >= r, "S12": True}
    mismatch = []
    for nm, sub in subs.items():
        got = truth.contains(sub, stage)
        if got != expected[nm]:
            mismatch.append(nm)
    if mismatch:
        print(f"engine disagrees with the closed form on: {mismatch}")
        return 1
    print("engine membership check agrees with the closed-form conditions")
    return 0


def _parse_diag_or_matrix(text: str, what: str) -> np.ndarray:
    text = text.strip()
    if text.startswith("diag(") and text.endswith(")"):
        inner = text[len("diag("):-1]
        try:
            vals = [float(x) for x in inner.split(",") if x.strip()]
        except ValueError as exc:
            raise ScenarioError(f"{what}: {exc}") from exc
        if not vals:
            raise ScenarioError(f"{what}: empty diag()")
        return np.diag(vals).astype(np.complex128)
    import json as _json

    try:
        return parse_matrix(_json.loads(text), what)
    except _json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{what} must be diag(...) or a JSON matrix: {exc}") from exc


def _cmd_modular(args) -> int:
    if args.scenario:
        return _cmd_run(args, forced_checks=["modular"])
    if args.H is None:
        raise ScenarioError("modular needs --scenario or --H")
    h = _parse_diag_or_matrix(args.H, "--H")
    if args.state == "gibbs":
        state = gibbs_state(h, args.beta)
    elif args.state.startswith("diag:"):
        try:
            vals = [float(x) for x in args.state[len("diag:"):].split(",")]
        except ValueError as exc:
            raise ScenarioError(f"--state: {exc}") from exc
        state = State(np.diag(vals).astype(np.complex128))
    else:
        raise ScenarioError("--state must be 'gibbs' or 'diag:a,b,...'")

    scn_dict = {
        "name": "modular-inline",
        "dim": h.shape[0],
        "beta": args.beta,
        "hamiltonian": {"matrix": [[[float(x.real), float(x.imag)]
                                    for x in row] for row in h]},
        "state": {"matrix": [[[float(x.real), float(x.imag)] for x in row]
                             for row in state.matrix]},
        "contexts": {"V0": {"generated_by": [{"matrix":
                    [[[float(x.real), float(x.imag)] for x in row]
                     for row in h]}]}},
        "checks": ["modular"],
    }
    scn = load_scenario(scn_dict)
    rep = execute(scn)
    for e in rep.entries:
        print(f"{e.location}: residual={e.row()[4]} [{e.verdict}]")
    return _finish(rep, args.out_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposkms",
        description="Verification suite for finite-dimensional topos KMS "
                    "structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the scenario's check suites")
    _add_common(p_run)

    for name, suites in [
        ("poset", ["poset", "presheaf"]),
        ("measure", ["measure"]),
        ("kms-external", ["external-c1", "external-c2", "truth",
                          "equivalence"]),
        ("kms-internal", ["internal-c1", "internal-c2"]),
        ("reconstruct", ["reconstruction"]),
    ]:
        p = sub.add_parser(name, help=f"run only: {', '.join(suites)}")
        _add_common(p)
        p.set_defaults(forced_checks=suites)

    p_dasein = sub.add_parser("dasein",
                              help="outer daseinisation of one projection")
    _add_common(p_dasein)
    p_dasein.add_argument("--P", required=True,
                          help="projection name from the scenario")
    p_dasein.add_argument("--context", required=True, help="context id")

    p_mod = sub.add_parser("modular", help="modular/Tomita suite")
    _add_common(p_mod, scenario_required=False)
    p_mod.add_argument("--state", default="gibbs",
                       help="'gibbs' or 'diag:a,b,...'")
    p_mod.add_argument("--H", default=None, help="diag(...) or JSON matrix")
    p_mod.add_argument("--beta", type=float, default=1.0)

    p_ex = sub.add_parser("example-c3",
                          help="three-level worked example membership table")
    p_ex.add_argument("--a", required=True,
                      help="comma-separated weights a1,a2,a3")
    p_ex.add_argument("--r", type=float, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command in ("poset", "measure", "kms-external",
                            "kms-internal", "reconstruct"):
            return _cmd_run(args, forced_checks=args.forced_checks)
        if args.command == "dasein":
            return _cmd_dasein(args)
        if args.command == "modular":
            return _cmd_modular(args)
        if args.command == "example-c3":
            return _cmd_example_c3(args)
        parser.error(f"unknown command {args.command!r}")
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
