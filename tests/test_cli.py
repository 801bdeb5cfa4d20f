"""End-to-end CLI behaviour: exit codes, report files, golden stdout."""
import csv
import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import toposkms
from toposkms.cli import main
from toposkms.tolerances import DEFAULT_TOL, TolerancePolicy


def run_cli(capfd, *argv):
    code = main(list(argv))
    captured = capfd.readouterr()
    return code, captured.out, captured.err


def test_run_passes_on_the_worked_example(scenario_dir, tmp_path, capfd):
    code, out, _ = run_cli(
        capfd, "run", "--scenario", str(scenario_dir / "example_c3.json"),
        "--out-dir", str(tmp_path / "rep"))
    assert code == 0
    assert "verdict: PASS" in out
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert doc["summary"]["verdict"] == "pass"
    assert doc["summary"]["counts"]["fail"] == 0
    assert doc["scenario"]["name"] == "example_c3"
    checks = {e["check"] for e in doc["entries"]}
    assert {"poset", "measure", "external-c1", "external-c2", "truth",
            "internal-c1", "modular", "reconstruction"} <= checks


def test_run_fails_on_the_negative_control(scenario_dir, tmp_path, capfd):
    code, out, _ = run_cli(
        capfd, "run", "--scenario",
        str(scenario_dir / "negative_control.json"),
        "--out-dir", str(tmp_path / "rep"))
    assert code == 1
    assert "verdict: FAIL" in out
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    failing = [e for e in doc["entries"] if e["verdict"] == "fail"]
    assert failing
    # failures carry a precise location: subobject, context and parameter
    assert any("@" in e["location"] and "t=" in e["location"]
               for e in failing if e["check"] == "external-c1")


def test_malformed_input_exits_2(tmp_path, capfd):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run_cli(capfd, "run", "--scenario", str(bad))
    assert code == 2
    assert "input error" in err and "malformed JSON" in err
    code, _, err = run_cli(capfd, "run", "--scenario",
                           str(tmp_path / "absent.json"))
    assert code == 2
    assert "input error" in err


def test_check_subset_flag_filters_suites(scenario_dir, tmp_path, capfd):
    code, _, _ = run_cli(
        capfd, "run", "--scenario", str(scenario_dir / "example_c3.json"),
        "--checks", "poset,measure", "--out-dir", str(tmp_path / "rep"))
    assert code == 0
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert {e["check"] for e in doc["entries"]} <= {"poset", "measure"}
    assert doc["scenario"]["checks"] == ["poset", "measure"]


def test_single_suite_subcommands(scenario_dir, tmp_path, capfd):
    code, _, _ = run_cli(
        capfd, "run", "--scenario", str(scenario_dir / "example_c3.json"),
        "--checks", "measure", "--out-dir", str(tmp_path / "rep"))
    assert code == 0
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert {e["check"] for e in doc["entries"]} == {"measure"}


def test_tol_flag_overrides_and_rejects_bad_syntax(scenario_dir, tmp_path,
                                                   capfd):
    code, _, err = run_cli(
        capfd, "run", "--scenario", str(scenario_dir / "example_c3.json"),
        "--tol", "eps_measure")
    assert code == 2 and "KEY=VALUE" in err
    code, _, err = run_cli(
        capfd, "run", "--scenario", str(scenario_dir / "example_c3.json"),
        "--tol", "eps_bogus=1e-9")
    assert code == 2 and "tolerance" in err
    code, _, _ = run_cli(
        capfd, "run", "--scenario", str(scenario_dir / "example_c3.json"),
        "--checks", "poset", "--tol", "eps_order=1e-6",
        "--out-dir", str(tmp_path / "rep"))
    assert code == 0
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert doc["scenario"]["tolerances"]["eps_order"] == 1e-6


def test_reruns_are_byte_identical(scenario_dir, tmp_path, capfd):
    outs = []
    for sub in ("a", "b"):
        code, out, _ = run_cli(
            capfd, "run", "--scenario",
            str(scenario_dir / "example_c3.json"),
            "--out-dir", str(tmp_path / sub))
        assert code == 0
        outs.append(out.splitlines()[-1])
    assert outs[0] == outs[1]
    for fname in ("report.json", "report.csv", "summary.md"):
        assert ((tmp_path / "a" / fname).read_bytes()
                == (tmp_path / "b" / fname).read_bytes())


RUN_CORPUS = """
import pathlib, sys
from toposkms.cli import main
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    main(["run", "--scenario", str(path),
          "--out-dir", str(pathlib.Path(sys.argv[2]) / path.stem)])
"""


def test_reports_are_identical_across_hash_seeds(scenario_dir, tmp_path):
    # set and dict order follows PYTHONHASHSEED, which is fixed within one
    # interpreter; only separate processes can show a dependence on it
    src = str(pathlib.Path(toposkms.__file__).resolve().parents[1])
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", RUN_CORPUS, str(scenario_dir),
                        str(tmp_path / seed)],
                       env=env, check=True, capture_output=True)
    files = sorted(p.relative_to(tmp_path / "1")
                   for p in (tmp_path / "1").rglob("*") if p.is_file())
    assert len(files) == 3 * len(list(scenario_dir.glob("*.json")))
    for f in files:
        assert (tmp_path / "1" / f).read_bytes() \
            == (tmp_path / "2" / f).read_bytes(), f


def test_no_check_falls_back_to_the_default_policy(scenario_dir, tmp_path,
                                                    capfd):
    # with every tolerance given, no report may depend on DEFAULT_TOL: a
    # check that reads it instead of the policy of its inputs changes the
    # report when DEFAULT_TOL changes
    explicit = {k: f.default
                for k, f in TolerancePolicy.__dataclass_fields__.items()}
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    for path in scenario_dir.glob("*.json"):
        raw = json.loads(path.read_text())
        raw["tolerances"] = explicit
        (scenarios / path.name).write_text(json.dumps(raw), encoding="utf-8")
    saved = dataclasses.asdict(DEFAULT_TOL)
    for side in ("default", "moved"):
        try:
            if side == "moved":
                for k in saved:
                    object.__setattr__(DEFAULT_TOL, k, 0.25)
            for path in sorted(scenarios.glob("*.json")):
                run_cli(capfd, "run", "--scenario", str(path),
                        "--out-dir", str(tmp_path / side / path.stem))
        finally:
            for k, v in saved.items():
                object.__setattr__(DEFAULT_TOL, k, v)
    files = sorted(p.relative_to(tmp_path / "default")
                   for p in (tmp_path / "default").rglob("*") if p.is_file())
    assert len(files) == 3 * len(list(scenario_dir.glob("*.json")))
    for f in files:
        assert (tmp_path / "default" / f).read_bytes() \
            == (tmp_path / "moved" / f).read_bytes(), f


# sha256 of the JSON list of (check, location, verdict) rows of each
# corpus report.csv: residual digits may move, but not the context ids,
# the rows, their order or the verdicts
REPORT_STRUCTURE = {
    "example_c3": "33a81134ec66d924c8b2aa166d50dad6b94c07e1861e1f529f06158578025555",
    "gibbs_external": "e7cf3e82ca1ae3be4b2ccbdccc987e1ddd1925910c9f2382a748420011d52cfd",
    "gibbs_internal": "84584e638a1f6a265c0d36bfc7f9bb392682234257a86b28a437cbf98c9e8775",
    "modular_suite": "42afa24a2432053d08256776b184da5ff4bcfe5e930180bd4f0d0364b5411cce",
    "negative_control": "d08a74ca140f1b34d57c35ead4e6d888749deb6f618a6ca6226b0f3072814313",
    "reconstruction": "d6226eaf44608f3fa040bfbf309fe82504c249fa2596eb3e413ccb0d1ccecaea",
    "underdetermined": "e3d14c8836dfebb54f4929afde841f7f2795eb21e8d5d18cca0f5ee1eee3e5bb",
}


def test_corpus_report_structure_is_pinned(scenario_dir, tmp_path, capfd):
    assert sorted(p.stem for p in scenario_dir.glob("*.json")) \
        == sorted(REPORT_STRUCTURE)
    for name, digest in REPORT_STRUCTURE.items():
        run_cli(capfd, "run", "--scenario", str(scenario_dir / f"{name}.json"),
                "--out-dir", str(tmp_path / name))
        with open(tmp_path / name / "report.csv", newline="",
                  encoding="utf-8") as fh:
            rows = [(r[0], r[1], r[5]) for r in csv.reader(fh)]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() \
            == digest, name


D1, D2, D3 = {"diag": [1, 0, 0]}, {"diag": [0, 1, 0]}, {"diag": [0, 0, 1]}
# the projection onto e2 + 0.005 e1: its sum with D1 and D3 is within the
# loosened eps_idem of the identity, but it is not orthogonal to D1
TILTED = (np.outer([0.005, 1, 0], [0.005, 1, 0]) / (1 + 0.005 ** 2)).tolist()


@pytest.mark.parametrize("blocks, extra, message", [
    ([D1, TILTED, D3], ["--tol", "eps_idem=1e-3"], "not pairwise orthogonal"),
    ([D1, D2], [], "do not sum to the identity"),
    ([D1, {"diag": [0, 0.5, 1]}], [], "not idempotent"),
    ([{"diag": [1, 1, 1]}], [], "at least two blocks"),
])
def test_invalid_context_blocks_exit_2(tmp_path, capfd, blocks, extra, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "dim": 3, "state": {"spectrum": [0.5, 0.3, 0.2]},
        "contexts": {"Vbad": {"blocks": blocks}}, "checks": ["poset"],
    }), encoding="utf-8")
    code, _, err = run_cli(capfd, "run", "--scenario", str(path),
                           "--out-dir", str(tmp_path / "rep"), *extra)
    assert code == 2
    assert "context Vbad invalid: " in err and message in err


@pytest.mark.parametrize("blocks", [[5], [-1]])
def test_saturated_blocks_out_of_range_exit_2(scenario_dir, tmp_path, capfd,
                                              blocks):
    doc = json.loads((scenario_dir / "gibbs_external.json").read_text())
    doc["subobjects"]["S1"]["saturated"]["blocks"] = blocks
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capfd, "run", "--scenario", str(path),
                           "--out-dir", str(tmp_path / "rep"))
    assert code == 2
    assert "subobject S1 invalid: " in err and "out of range" in err


@pytest.mark.parametrize("where, key, message", [
    ((), "t_gird", "unknown scenario key(s): 't_gird'"),
    (("group",), "strip_gammas", "unknown group key(s): 'strip_gammas'"),
    (("state",), "gibs", "unknown state key(s): 'gibs'"),
    (("poset",), "max_context", "unknown poset key(s): 'max_context'"),
    (("contexts", "Vdiag"), "block", "unknown context Vdiag key(s): 'block'"),
    (("subobjects", "S1"), "dasien", "unknown subobject S1 key(s): 'dasien'"),
    (("subobjects", "S1", "saturated"), "block",
     "unknown subobject S1 saturated key(s): 'block'"),
])
def test_unknown_scenario_keys_exit_2(scenario_dir, tmp_path, capfd, where,
                                      key, message):
    doc = json.loads((scenario_dir / "gibbs_internal.json").read_text())
    spec = doc
    for part in where:
        spec = spec[part]
    spec[key] = [0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capfd, "run", "--scenario", str(path),
                           "--out-dir", str(tmp_path / "rep"))
    assert code == 2 and f"input error: {message}" in err, err


@pytest.mark.parametrize("where, key, value, message", [
    (("poset",), "meet_closure", "false",
     "poset.meet_closure must be true or false, got 'false'"),
    (("poset",), "downward_closure", 1,
     "poset.downward_closure must be true or false, got 1"),
    (("poset",), "group_closure", None,
     "poset.group_closure must be true or false, got None"),
    (("poset",), "group_depth", "x",
     "poset.group_depth must be a positive integer, got 'x'"),
    (("poset",), "group_depth", 0,
     "poset.group_depth must be a positive integer, got 0"),
    (("poset",), "group_depth", True,
     "poset.group_depth must be a positive integer, got True"),
    (("poset",), "max_contexts", 2.5,
     "poset.max_contexts must be a positive integer, got 2.5"),
    (("poset",), "max_contexts", -3,
     "poset.max_contexts must be a positive integer, got -3"),
    ((), "t_grid", 5, "t_grid must be a list, got 5"),
    ((), "r_queries", 5, "r_queries must be a list, got 5"),
    ((), "pairs", 5, "pairs must be a list, got 5"),
    (("group",), "samples", 5, "group.samples must be a list, got 5"),
    ((), "projections", [], "projections must be an object"),
    (("contexts", "Vdiag"), "blocks", 5,
     "context Vdiag invalid: context Vdiag blocks must be a list, got 5"),
    (("subobjects", "S1", "saturated"), "blocks", 5,
     "subobject S1 blocks must be a list, got 5"),
    ((), "state", {"spectrum": 5},
     "state does not validate: state.spectrum must be a list, got 5"),
    (("subobjects", "S1", "saturated"), "blocks", ["a"],
     "subobject S1 blocks must be integers, got ['a']"),
    (("subobjects", "S1", "saturated"), "blocks", [[0]],
     "subobject S1 blocks must be integers, got [[0]]"),
    (("subobjects", "S1", "saturated"), "blocks", [0.5],
     "subobject S1 blocks must be integers, got [0.5]"),
    (("subobjects", "S1", "saturated"), "blocks", [True],
     "subobject S1 blocks must be integers, got [True]"),
    (("subobjects", "S1", "saturated"), "context", ["Vex"],
     "subobject S1 context must be a string, got ['Vex']"),
    ((), "truth_stage", [1], "truth_stage must be a string, got [1]"),
    ((), "truth_stage", {"a": 1},
     "truth_stage must be a string, got {'a': 1}"),
    ((), "c2_context", ["Vex"], "c2_context must be a string, got ['Vex']"),
    ((), "name", {"a": 1}, "name must be a string, got {'a': 1}"),
    ((), "name", "../x", "name must be one path component, got '../x'"),
    ((), "name", "a\\b", "name must be one path component, got 'a\\\\b'"),
    ((), "name", "..", "name must be one path component, got '..'"),
    ((), "name", ".", "name must be one path component, got '.'"),
    ((), "name", "", "name must be one path component, got ''"),
])
def test_malformed_scenario_values_exit_2(scenario_dir, tmp_path, capfd,
                                          where, key, value, message):
    doc = json.loads((scenario_dir / "gibbs_internal.json").read_text())
    spec = doc
    for part in where:
        spec = spec[part]
    spec[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capfd, "run", "--scenario", str(path),
                           "--out-dir", str(tmp_path / "rep"))
    assert code == 2 and f"input error: {message}" in err, err
    assert "Traceback" not in err


def test_dasein_subcommand(scenario_dir, capfd):
    code, out, _ = run_cli(
        capfd, "dasein", "--scenario", str(scenario_dir / "example_c3.json"),
        "--P", "P1", "--context", "Vex")
    assert code == 0
    assert out.strip() == "dasein(P1) @ Vex = I  (rank 3 of 3)"
    code, out, _ = run_cli(
        capfd, "dasein", "--scenario", str(scenario_dir / "example_c3.json"),
        "--P", "P1", "--context", "Vdiag")
    assert code == 0
    assert out.strip() == "dasein(P1) @ Vdiag = Q2  (rank 1 of 3)"
    code, _, err = run_cli(
        capfd, "dasein", "--scenario", str(scenario_dir / "example_c3.json"),
        "--P", "Pmissing", "--context", "Vex")
    assert code == 2 and "Pmissing" in err
    code, _, err = run_cli(
        capfd, "dasein", "--scenario", str(scenario_dir / "example_c3.json"),
        "--P", "P1", "--context", "Vmissing")
    assert code == 2


@pytest.mark.parametrize("r,s1,s2", [
    (0.3, "YES", "YES"),
    (0.45, "NO", "YES"),
    (0.5, "NO", "YES"),
    (0.7, "NO", "NO"),
])
def test_example_c3_membership_table(capfd, r, s1, s2):
    code, out, _ = run_cli(capfd, "example-c3", "--a", "0.5,0.3,0.2",
                           "--r", str(r))
    assert code == 0
    lines = out.splitlines()
    assert f"S1: mu(S1)(V) = (a1+a2)/2 = 0.4 >= {r}? {s1}" in lines
    assert f"S2: mu(S2)(V) = 1-(a1+a2)/2 = 0.6 >= {r}? {s2}" in lines
    assert f"S12: mu(S12)(V) = 1 >= {r}? YES" in lines
    assert lines[-1] == ("engine membership check agrees with the "
                         "closed-form conditions")


def test_example_c3_rejects_bad_weights(capfd):
    code, _, err = run_cli(capfd, "example-c3", "--a", "0.5,0.3", "--r", "0.3")
    assert code == 2 and "three" in err
    code, _, err = run_cli(capfd, "example-c3", "--a", "0.5,0.4,0.4",
                           "--r", "0.3")
    assert code == 2 and "sum to 1" in err


@pytest.mark.parametrize("a, r, message", [
    ("nan,0.5,0.5", "0.3", "--a weights must be finite"),
    ("0.5,0.3,0.2", "nan", "--r must be a finite number"),
    ("0.5,0.3,0.2", "inf", "--r must be a finite number"),
])
def test_example_c3_fails_closed_on_non_finite_input(capfd, a, r, message):
    # a NaN weight passes both the sign and the sum test, and a NaN or
    # infinite cutoff makes the closed form disagree with the engine
    code, out, err = run_cli(capfd, "example-c3", "--a", a, "--r", r)
    assert code == 2
    assert err.startswith("input error:") and message in err
    assert "Traceback" not in err and "engine disagrees" not in out


def test_example_c3_cutoff_above_one(capfd):
    # mu(S12)(V) = 1, so S12 is a member iff 1 >= r, and the engine agrees
    code, out, _ = run_cli(capfd, "example-c3", "--a", "0.5,0.3,0.2",
                           "--r", "1.5")
    assert code == 0
    lines = out.splitlines()
    assert "S12: mu(S12)(V) = 1 >= 1.5? NO" in lines
    assert lines[-1] == ("engine membership check agrees with the "
                         "closed-form conditions")


def test_modular_subcommand(tmp_path, capfd):
    code, out, _ = run_cli(capfd, "modular", "--state", "gibbs",
                           "--H", "diag(0,1,2)", "--beta", "1.0")
    assert code == 0
    assert "verdict: PASS (13 pass, 0 fail, 0 error, 0 info)" in out
    assert "residual=" in out
    # a rank-deficient state has no modular structure to verify
    code, _, err = run_cli(capfd, "modular", "--state",
                           "[[1,0],[0,0]]", "--H", "diag(0,1)")
    assert code == 2
    # the inline model takes the overrides a scenario file takes, and its
    # state is validated like a scenario's
    for extra in (["--tol", "nonsense_key=1"], ["--tol", "eps_herm"],
                  ["--state", "diag:0.5,0.6,-0.1"],
                  ["--state", "diag:0.5,0.5"]):
        code, _, err = run_cli(capfd, "modular", "--H", "diag(0.1,0.5,0.9)",
                               *extra)
        assert code == 2 and "input error" in err, extra
    code, _, _ = run_cli(capfd, "modular", "--H", "diag(0.1,0.5,0.9)",
                         "--state", "diag:0.5,0.3,0.2", "--seed", "7",
                         "--convention", "modular", "--tol", "eps_eig=1e-7",
                         "--out-dir", str(tmp_path / "rep"))
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert doc["scenario"]["seed"] == 7
    assert doc["scenario"]["convention"] == "modular"
    assert doc["scenario"]["tolerances"]["eps_eig"] == 1e-7
    assert doc["scenario"]["state"]["spectrum"] == [0.5, 0.3, 0.2]


def test_modular_flow_reads_the_scenario_policy(scenario_dir, tmp_path,
                                                capfd):
    # a state Hermitian within eps_herm = 1e-6 but not within the default
    # 1e-10: the modular flow is built under the scenario's policy
    raw = json.loads((scenario_dir / "modular_suite.json").read_text())
    raw["state"]["matrix"][0][1] = [0, 1e-8]
    raw["tolerances"] = {"eps_herm": 1e-6}
    path = tmp_path / "eps_herm.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    run_cli(capfd, "run", "--scenario", str(path),
            "--out-dir", str(tmp_path / "rep"))
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    verdicts = {e["location"]: e["verdict"] for e in doc["entries"]}
    assert verdicts["modular flow = hamiltonian flow (up to phase)"] == "pass"
    assert "error" not in verdicts.values()


def test_every_verdict_threshold_reads_the_scenario_policy(scenario_dir,
                                                          tmp_path, capfd):
    # a state Hermitian only within eps_herm = 1e-6: its Tomita rows are
    # judged at the scenario's eps_herm, not at a fixed 1e-10
    raw = json.loads((scenario_dir / "modular_suite.json").read_text())
    raw["state"]["matrix"][0][1] = [0, 1e-8]
    raw["tolerances"] = {"eps_herm": 1e-6}
    path = tmp_path / "eps_herm.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, _, _ = run_cli(capfd, "run", "--scenario", str(path),
                         "--out-dir", str(tmp_path / "rep"))
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    verdicts = {e["location"]: e["verdict"] for e in doc["entries"]}
    assert verdicts["closed_form_delta"] == "pass"
    assert code == 0, verdicts


@pytest.mark.parametrize("name, edit, extra, field", [
    ("example_c3", {}, ["--tol", "eps_measure=inf"], "tolerances.eps_measure"),
    ("example_c3", {}, ["--tol", "eps_measure=nan"], "tolerances.eps_measure"),
    ("example_c3", {}, ["--tol", "eps_order=-1"], "tolerances.eps_order"),
    ("example_c3", {"tolerances": {"eps_herm": 0}}, [], "tolerances.eps_herm"),
    ("gibbs_external", {"beta": -1}, [], "beta"),
    ("gibbs_external", {"beta": 0}, [], "beta"),
    ("gibbs_external", {"beta": float("nan")}, [], "beta"),
    ("gibbs_external", {"t_grid": [float("inf")]}, [], "t_grid"),
    ("gibbs_external", {"r_queries": [float("nan")]}, [], "r_queries"),
    ("gibbs_external", {"hamiltonian": {"diag": [0, float("nan"), 2]}}, [],
     "hamiltonian.diag"),
])
def test_non_finite_or_non_positive_numbers_exit_2(scenario_dir, tmp_path,
                                                   capfd, name, edit, extra,
                                                   field):
    raw = json.loads((scenario_dir / f"{name}.json").read_text())
    raw.update(edit)
    path = tmp_path / "bad.json"
    # json writes NaN and Infinity, and reads them back as floats
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, _, err = run_cli(capfd, "run", "--scenario", str(path),
                           "--checks", "poset,measure,truth",
                           "--out-dir", str(tmp_path / "rep"), *extra)
    assert code == 2 and f"input error: {field} must be " in err, err


def test_projections_are_validated_only_at_the_input_boundary(
        scenario_dir, monkeypatch):
    # Context(blocks) validates each input block once; no later step
    # re-validates a lattice element as a dense Projection
    from toposkms import numerics
    from toposkms.cli import execute
    from toposkms.scenario import load_scenario

    calls = []
    init = numerics.Projection.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(numerics.Projection, "__init__", counting)
    blocks = 0
    for path in sorted(scenario_dir.glob("*.json")):
        raw = json.loads(path.read_text())
        blocks += sum(len(spec.get("blocks", ()))
                      for spec in raw["contexts"].values())
        execute(load_scenario(path))
    assert blocks > 0
    assert len(calls) == blocks


def test_internal_scenarios_pass(scenario_dir, tmp_path, capfd):
    code, out, _ = run_cli(
        capfd, "run", "--scenario",
        str(scenario_dir / "gibbs_internal.json"),
        "--out-dir", str(tmp_path / "rep"))
    assert code == 0 and "verdict: PASS" in out


def test_underdetermined_reconstruction_is_informational(scenario_dir,
                                                         tmp_path, capfd):
    code, _, _ = run_cli(
        capfd, "run", "--scenario",
        str(scenario_dir / "underdetermined.json"),
        "--out-dir", str(tmp_path / "rep"))
    assert code == 0
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    rec = [e for e in doc["entries"] if e["check"] == "reconstruction"]
    assert any(e["verdict"] == "info" and "underdetermined" in e["location"]
               for e in rec)


@pytest.mark.parametrize("broken", ["non-transitive", "non-antisymmetric"])
def test_poset_suite_fails_on_a_broken_order(scenario_dir, broken):
    from toposkms.suites import run_poset
    from toposkms.reports import FAIL, Report
    from toposkms.scenario import load_scenario

    scn = load_scenario(scenario_dir / "example_c3.json")
    leq = scn.poset.leq.copy()
    # contexts comparable to nothing but themselves
    a, b, c = [i for i in range(len(leq))
               if leq[i].sum() == 1 and leq[:, i].sum() == 1][:3]
    if broken == "non-transitive":
        leq[a, b] = leq[b, c] = True     # a <= b <= c, but not a <= c
    else:
        leq[a, b] = leq[b, a] = True     # a <= b <= a with a != b
    scn.poset.leq = leq
    rep = Report()
    outcome = run_poset(scn, rep)
    row = rep.entries[-1]
    assert row.location.startswith("order axioms")
    assert (row.lhs, row.residual, row.verdict) == (False, 1.0, FAIL)
    assert outcome is False


def test_truth_on_the_diagonal_c5_poset_fails_closed(tmp_path, capfd):
    # the pruned truth object on the 52-context poset still holds close
    # to a million members: the node cap ends the walk in seconds and the
    # suite writes an error row
    n = 5
    path = tmp_path / "diag5.json"
    path.write_text(json.dumps({
        "name": "diag5", "dim": n, "beta": 1.0,
        "hamiltonian": {"diag": [float(i) for i in range(n)]},
        "state": {"gibbs": True},
        "projections": {f"E{i}": {"diag": np.eye(n)[i].tolist()}
                        for i in range(n)},
        "contexts": {"Vdiag": {"blocks": [f"E{i}" for i in range(n)]}},
        "poset": {"downward_closure": True, "meet_closure": False,
                  "group_closure": False},
        "r_queries": [0.5], "truth_stage": "Vdiag", "checks": ["truth"],
    }), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run_cli(capfd, "run", "--scenario", str(path),
                           "--checks", "truth",
                           "--out-dir", str(tmp_path / "rep"))
    assert time.perf_counter() - start < 20
    assert code == 1 and "1 error" in out
    with open(tmp_path / "rep" / "report.csv", newline="",
              encoding="utf-8") as fh:
        [row] = [r for r in csv.reader(fh) if r[5] == "error"]
    assert row[0] == "truth"
    assert "EnumerationTooLarge" in row[1] and "nodes visited" in row[1]
