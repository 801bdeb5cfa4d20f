"""Scenario parsing: defaults, echo, and rejection of malformed input."""
import copy
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from toposkms.cli import execute
from toposkms.errors import ScenarioError
from toposkms.kms_external import check_truth_value_invariance
from toposkms.presheaf import ClopenSubobject
from toposkms.reports import FAIL, INFO, Report
from toposkms.scenario import (
    DEFAULT_CHECKS,
    load_scenario,
    parse_matrix,
    parse_operator,
)
from toposkms.suites import SUITES, _stages
from toposkms.tolerances import DEFAULT_TOL

MINIMAL = {
    "dim": 2,
    "state": {"matrix": [[0.5, 0], [0, 0.5]]},
    "contexts": {"Z": {"blocks": [{"diag": [1, 0]}, {"diag": [0, 1]}]}},
}


def scn_dict(**overrides):
    d = copy.deepcopy(MINIMAL)
    d.update(overrides)
    return d


def test_defaults_are_materialized_into_the_echo():
    scn = load_scenario(scn_dict())
    r = scn.resolved
    assert r["name"] == "scenario"
    assert r["seed"] == 0 and r["beta"] == 1.0
    assert r["convention"] == "hamiltonian"
    assert r["checks"] == DEFAULT_CHECKS
    assert r["poset"]["downward_closure"] and r["poset"]["meet_closure"]
    # every tolerance knob is echoed with its resolved value
    assert set(r["tolerances"]) == {"eps_herm", "eps_idem", "eps_eig",
                                    "eps_order", "eps_measure"}
    assert all(isinstance(v, float) for v in r["tolerances"].values())
    assert scn.group is None and scn.flow is None


def test_checks_are_deduplicated_and_put_in_canonical_order():
    scn = load_scenario(scn_dict(checks=["measure", "poset", "measure"]))
    assert scn.checks == ["poset", "measure"]
    with pytest.raises(ScenarioError, match="checks"):
        load_scenario(scn_dict(checks=["poset", "no-such-suite"]))


def test_pairs_default_to_all_ordered_subobject_pairs(tmp_path):
    d = scn_dict(
        projections={"E0": {"diag": [1, 0]}, "E1": {"diag": [0, 1]}},
        subobjects={"A": {"dasein": "E0"}, "B": {"dasein": "E1"}},
    )
    scn = load_scenario(d)
    assert sorted(map(tuple, scn.pairs)) == [("A", "B"), ("B", "A")]
    d["pairs"] = [["A", "missing"]]
    with pytest.raises(ScenarioError, match="pair"):
        load_scenario(d)


def test_complex_entries_parse_as_re_im_pairs():
    d = scn_dict(state={"matrix": [[0.7, [0.1, 0.15]], [[0.1, -0.15], 0.3]]})
    scn = load_scenario(d)
    assert scn.state.matrix[0, 1] == pytest.approx(0.1 + 0.15j)
    assert scn.state.matrix[1, 0] == pytest.approx(0.1 - 0.15j)


def test_dim_validation():
    for bad in (None, 1, True, 2.0, "3"):
        with pytest.raises(ScenarioError, match="dim"):
            load_scenario(scn_dict(dim=bad) if bad is not None else
                          {k: v for k, v in MINIMAL.items() if k != "dim"})
    with pytest.raises(ScenarioError, match="maximum"):
        load_scenario(scn_dict(dim=17))


def test_unknown_tolerance_key_is_rejected():
    with pytest.raises(ScenarioError, match="tolerance"):
        load_scenario(scn_dict(tolerances={"eps_bogus": 1e-9}))
    scn = load_scenario(scn_dict(tolerances={"eps_measure": 1e-6}))
    assert scn.tol.eps_measure == 1e-6
    assert scn.resolved["tolerances"]["eps_measure"] == 1e-6


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="malformed JSON"):
        load_scenario(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ScenarioError, match="root must be an object"):
        load_scenario(str(arr))


def test_state_alternatives_and_failures():
    pure = load_scenario(scn_dict(state={"pure": [1, 0]}))
    assert pure.state.matrix[0, 0] == pytest.approx(1.0)
    spec = load_scenario(scn_dict(state={"spectrum": [0.25, 0.75]}))
    assert np.allclose(np.diag(spec.state.matrix), [0.25, 0.75])
    with pytest.raises(ScenarioError, match="state"):
        load_scenario(scn_dict(state={"matrix": [[1.0, 0], [0, 1.0]]}))  # trace 2
    with pytest.raises(ScenarioError, match="gibbs"):
        load_scenario(scn_dict(state={"gibbs": True}))  # no hamiltonian
    with pytest.raises(ScenarioError, match="state"):
        load_scenario(scn_dict(state={}))


def test_matrix_parsing_rejects_bad_shapes():
    with pytest.raises(ScenarioError, match="ragged"):
        parse_matrix([[1, 0], [0]], "m")
    with pytest.raises(ScenarioError, match="square"):
        parse_matrix([[1, 0, 0], [0, 1, 0]], "m")
    with pytest.raises(ScenarioError, match="expected 3"):
        parse_matrix([[1, 0], [0, 1]], "m", dim=3)
    with pytest.raises(ScenarioError, match="diag"):
        parse_operator({"diag": [1, 0]}, "m", dim=3)
    with pytest.raises(ScenarioError, match="pair"):
        parse_matrix([[[1, 2, 3], 0], [0, 1]], "m")


def test_context_validation_failures():
    with pytest.raises(ScenarioError, match="unknown projection"):
        load_scenario(scn_dict(contexts={"V": {"blocks": ["nope"]}}))
    with pytest.raises(ScenarioError, match="invalid"):
        load_scenario(scn_dict(
            contexts={"V": {"blocks": [{"diag": [1, 0]}, {"diag": [1, 0]}]}}))
    with pytest.raises(ScenarioError, match="'blocks' or 'generated_by'"):
        load_scenario(scn_dict(contexts={"V": {}}))


def test_group_requires_a_hamiltonian():
    with pytest.raises(ScenarioError, match="hamiltonian"):
        load_scenario(scn_dict(group={"samples": [0.0]}))


def test_named_stages_must_exist_in_the_poset():
    with pytest.raises(ScenarioError, match="c2_context"):
        load_scenario(scn_dict(c2_context="Vmissing"))
    with pytest.raises(ScenarioError, match="truth_stage"):
        load_scenario(scn_dict(truth_stage="Vmissing"))


def test_the_scenario_cap_bounds_the_poset():
    d = scn_dict(
        dim=3,
        state={"matrix": [[0.5, 0, 0], [0, 0.3, 0], [0, 0, 0.2]]},
        contexts={"D": {"blocks": [{"diag": [1, 0, 0]}, {"diag": [0, 1, 0]},
                                   {"diag": [0, 0, 1]}]}},
    )
    assert len(load_scenario(d).poset.contexts) == 4
    with pytest.raises(ScenarioError, match="poset construction failed"):
        load_scenario(dict(d, poset={"max_contexts": 3}))
    assert len(load_scenario(dict(d, poset={"max_contexts": 4}))
               .poset.contexts) == 4


def test_full_corpus_parses(scenario_dir):
    for path in sorted(scenario_dir.glob("*.json")):
        scn = load_scenario(str(path))
        assert scn.dim >= 2
        assert scn.resolved["poset"]["size"] == len(scn.poset.contexts)
        # the echo round-trips through JSON
        assert json.loads(json.dumps(scn.resolved)) == scn.resolved


@pytest.mark.parametrize("name", list(SUITES))
def test_a_suite_missing_a_needed_field_writes_one_skip_row(name):
    # MINIMAL has no flow, group, sub-objects, pairs or r queries
    run = SUITES[name]
    rep = Report()
    outcome = run(load_scenario(scn_dict(checks=[name])), rep)
    if not run.needs:
        assert outcome in (True, False)
        return
    assert outcome is None
    assert [(e.check, e.location, e.verdict) for e in rep.entries] == [
        (name, f"skipped: needs {', '.join(run.needs)}", INFO)]


FLOW = {
    "hamiltonian": {"diag": [0, 1]},
    "projections": {"E0": {"diag": [1, 0]}},
    "subobjects": {"A": {"dasein": "E0"}},
}


@pytest.mark.parametrize("extra, c1_suites_run", [
    ({}, 0),
    (dict(FLOW, t_grid=[0.0, 1.0]), 1),                        # external only
    (dict(FLOW, group={"samples": [0.0, math.pi]}), 1),        # internal only
    (dict(FLOW, t_grid=[0.0, 1.0], group={"samples": [0.0, math.pi]}), 2),
])
def test_the_invariant_row_needs_both_c1_outcomes(extra, c1_suites_run):
    scn = load_scenario(scn_dict(checks=["external-c1", "internal-c1"],
                                 **extra))
    rep = execute(scn)
    skipped = [e for e in rep.entries if e.location.startswith("skipped")]
    assert len(skipped) == 2 - c1_suites_run
    invariant = [e for e in rep.entries if e.check == "invariant"]
    assert len(invariant) == (c1_suites_run == 2)


def _failing_rows(rep):
    return [e for e in rep.entries if e.verdict == FAIL]


def test_c1_suites_list_failing_rows_in_a_fixed_order(c3_pure):
    # an unsorted grid with a duplicate: external-c1 rows come out per
    # sub-object by context id, then t, equal t in grid order
    scn = SimpleNamespace(
        state=c3_pure.state, flow=c3_pure.flow, group=c3_pure.group,
        poset=c3_pure.poset, subobjects=c3_pure.subs,
        seed_contexts=[c3_pure.vdiag, c3_pure.vex], tol=DEFAULT_TOL,
        t_grid=[2.0, -1.0, 2.0, 0.5])
    rep = Report()
    assert SUITES["external-c1"](scn, rep) is False
    rows = []
    for e in _failing_rows(rep):
        head, t = e.location.rsplit(", t=", 1)
        name, cid = head.split(" @ ")
        rows.append((name, cid, float(t), e.lhs, e.rhs, e.residual))
    keys = [row[:3] for row in rows]
    assert keys == sorted(keys)
    assert len({row[1] for row in rows}) > 1
    assert {row[2] for row in rows} == {2.0, -1.0, 0.5}
    # t = 2 appears twice in the grid, so each of its rows appears twice
    twos = [i for i, row in enumerate(rows) if row[2] == 2.0]
    assert twos and len(twos) % 2 == 0
    for a, b in zip(twos[::2], twos[1::2]):
        assert b == a + 1 and rows[a] == rows[b]

    # internal-c1 rows: sub-object, then context id
    rep = Report()
    assert SUITES["internal-c1"](scn, rep) is False
    keys = [tuple(e.location.split(" @ ")) for e in _failing_rows(rep)]
    assert len(keys) > 1 and keys == sorted(keys)
    assert len({cid for _, cid in keys}) > 1


def test_the_measure_and_truth_suites_build_no_derived_subobjects(
        scenario_dir, monkeypatch):
    """Counted over the corpus with a wrapped ClopenSubobject: the measure
    suite builds only the random members of its pool of 8 (its pairs
    and the full and empty sub-objects are mask rows), and the cutoff
    invariance check builds none (its masks are one stack)."""
    built = []
    init = ClopenSubobject.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ClopenSubobject, "__init__", counting)
    checked = 0
    for path in sorted(scenario_dir.glob("*.json")):
        scn = load_scenario(path)
        built.clear()
        SUITES["measure"](scn, Report())
        assert len(built) == max(0, 8 - len(scn.subobjects)), path.stem
        if scn.flow is None or not (scn.t_grid and scn.projections
                                    and scn.r_queries):
            continue
        built.clear()
        check_truth_value_invariance(
            scn.state, scn.flow, list(scn.projections.values()),
            _stages(scn), scn.presheaf, scn.t_grid)
        assert built == [], path.stem
        checked += 1
    assert checked
