"""Scenario-driven verification front end.

`toposkms run --scenario scenario.json` executes the requested check
suites of the `suites.SUITES` registry, in its order, and writes
report.json / report.csv / summary.md into the output directory.

Exit codes: 0 all checks pass, 1 at least one check failed or errored,
2 malformed input.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .algebra import Context, ContextPoset
from .errors import ScenarioError, ToposKMSError
from .kms_external import StageVR, TruthObject
from .measure import State
from .presheaf import ClopenSubobject, SpectralPresheaf, dasein_indices
from .reports import ERROR, FAIL, INFO, PASS, Report
from .scenario import Scenario, load_scenario, read_scenario
from .suites import SUITES, fmtf


def execute(scn: Scenario) -> Report:
    rep = Report(scenario=scn.resolved, meta={
        "toposkms": __version__,
        "numpy": np.__version__,
        "convention": scn.convention,
        "seed": scn.seed,
    })
    outcomes = {}
    for name in scn.checks:
        try:
            # looked up per run: the benchmark tracer swaps SUITES entries
            outcome = SUITES[name](scn, rep)
        except ToposKMSError as exc:
            rep.add_error(name, "suite", exc)
            outcome = False
        if outcome is not None:
            outcomes[name] = outcome

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


def _scenario_from_args(args, forced_checks=None, raw=None) -> Scenario:
    """The scenario of --scenario, or the given raw dict, with the
    command-line overrides applied, validated once by load_scenario."""
    raw = read_scenario(args.scenario) if raw is None else raw
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
    indices = dasein_indices(scn.projections[args.P], v, scn.tol)
    if len(indices) == v.k:
        desc = "I"
    elif not indices:
        desc = "0"
    else:
        desc = " + ".join(f"Q{i}" for i in indices)
    rank = sum(v.ranks[i] for i in indices)
    print(f"dasein({args.P}) @ {cid} = {desc}  (rank {rank} of {v.dim})")
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
    psh = SpectralPresheaf(poset)
    state = State(np.diag(a).astype(np.complex128))
    truth = TruthObject(state, psh)
    stage = StageVR("V", r)
    subs = {
        name: ClopenSubobject.from_components(psh, {"V": blocks}, name=name)
        for name, blocks in (("S1", {0}), ("S2", {1}), ("S12", {0, 1}))
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


def _operator_spec(text: str, what: str) -> dict:
    """diag(...) or a JSON matrix, as a scenario operator."""
    text = text.strip()
    if text.startswith("diag(") and text.endswith(")"):
        inner = text[len("diag("):-1]
        try:
            return {"diag": [float(x) for x in inner.split(",") if x.strip()]}
        except ValueError as exc:
            raise ScenarioError(f"{what}: {exc}") from exc
    try:
        m = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{what} must be diag(...) or a JSON matrix: {exc}") from exc
    if not isinstance(m, list):
        raise ScenarioError(f"{what} must be diag(...) or a JSON matrix")
    return {"matrix": m}


def _cmd_modular(args) -> int:
    if args.scenario:
        return _cmd_run(args, forced_checks=["modular"])
    if args.H is None:
        raise ScenarioError("modular needs --scenario or --H")
    h = _operator_spec(args.H, "--H")
    if args.state == "gibbs":
        state = {"gibbs": True}
    elif args.state.startswith("diag:"):
        try:
            state = {"spectrum": [float(x) for x in
                                  args.state[len("diag:"):].split(",")]}
        except ValueError as exc:
            raise ScenarioError(f"--state: {exc}") from exc
    else:
        raise ScenarioError("--state must be 'gibbs' or 'diag:a,b,...'")

    scn = _scenario_from_args(args, forced_checks=["modular"], raw={
        "name": "modular-inline",
        "dim": len(h["diag"] if "diag" in h else h["matrix"]),
        "beta": args.beta,
        "hamiltonian": h,
        "state": state,
        "contexts": {"V0": {"generated_by": [h]}},
    })
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
    p_run.set_defaults(handler=_cmd_run)

    p_dasein = sub.add_parser("dasein",
                              help="outer daseinisation of one projection")
    _add_common(p_dasein)
    p_dasein.add_argument("--P", required=True,
                          help="projection name from the scenario")
    p_dasein.add_argument("--context", required=True, help="context id")
    p_dasein.set_defaults(handler=_cmd_dasein)

    p_mod = sub.add_parser("modular", help="modular/Tomita suite")
    _add_common(p_mod, scenario_required=False)
    p_mod.add_argument("--state", default="gibbs",
                       help="'gibbs' or 'diag:a,b,...'")
    p_mod.add_argument("--H", default=None, help="diag(...) or JSON matrix")
    p_mod.add_argument("--beta", type=float, default=1.0)
    p_mod.set_defaults(handler=_cmd_modular)

    p_ex = sub.add_parser("example-c3",
                          help="three-level worked example membership table")
    p_ex.add_argument("--a", required=True,
                      help="comma-separated weights a1,a2,a3")
    p_ex.add_argument("--r", type=float, required=True)
    p_ex.set_defaults(handler=_cmd_example_c3)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
