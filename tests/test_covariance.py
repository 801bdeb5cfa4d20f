"""Covariance of the verdicts under a unitary change of frame.

The paper defines topos KMS states through the automorphisms acting on
the topos, so conjugating every matrix of a scenario by one unitary W
(Hamiltonian, state, projections, context generators and blocks,
daseinised operators) must leave every exit code, row count and verdict
of `toposkms run` as it is.  Context ids the corpus does not name are
fingerprints of the rotated blocks, and residuals move in their last
digits, so only the verdicts are compared.  The fast frame paths are
tuned on diagonal frames; a rotated corpus runs them on dense ones.
"""
import csv
import json

import numpy as np
import pytest

from toposkms.cli import main
from toposkms.scenario import parse_operator, parse_vector

from conftest import random_unitary


def _entries(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def rotated(raw: dict, w: np.ndarray) -> dict:
    """The scenario with every operator M written as W M W*, and a pure
    state vector as W v; names, times and flags are kept."""
    raw = json.loads(json.dumps(raw))
    n = raw["dim"]

    def op(spec, what="operator"):
        if isinstance(spec, str):
            return spec  # a projection named in the scenario
        return {"matrix": _entries(w @ parse_operator(spec, what, n)
                                   @ w.conj().T)}

    if "hamiltonian" in raw:
        raw["hamiltonian"] = op(raw["hamiltonian"])
    state = raw["state"]
    assert set(state) <= {"matrix", "pure", "gibbs"}, state
    if "matrix" in state:
        state["matrix"] = op({"matrix": state["matrix"]})["matrix"]
    if "pure" in state:
        v = w @ parse_vector(state["pure"], "state.pure", n)
        state["pure"] = [[float(x.real), float(x.imag)] for x in v]
    raw["projections"] = {k: op(v) for k, v in raw.get("projections",
                                                       {}).items()}
    for spec in raw["contexts"].values():
        for key in ("blocks", "generated_by"):
            if key in spec:
                spec[key] = [op(b) for b in spec[key]]
    for spec in raw.get("subobjects", {}).values():
        if "dasein" in spec:
            spec["dasein"] = op(spec["dasein"])
    return raw


def _run(capfd, path, out):
    """(exit code, (check, verdict) of each report row), or the error
    output in place of the rows when the run wrote no report."""
    code = main(["run", "--scenario", str(path), "--out-dir", str(out)])
    err = capfd.readouterr().err
    if not (out / "report.csv").exists():
        return code, err
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        return code, [(r["check"], r["verdict"]) for r in csv.DictReader(fh)]


@pytest.mark.parametrize("seed", [0, 1])
def test_corpus_verdicts_are_covariant(scenario_dir, tmp_path, capfd, seed):
    rng = np.random.default_rng(seed)
    paths = sorted(scenario_dir.glob("*.json"))
    assert len(paths) == 7
    for path in paths:
        raw = json.loads(path.read_text(encoding="utf-8"))
        moved = tmp_path / f"{path.stem}-rotated.json"
        w = random_unitary(rng, raw["dim"])
        moved.write_text(json.dumps(rotated(raw, w)), encoding="utf-8")
        code, rows = _run(capfd, path, tmp_path / path.stem)
        code_w, rows_w = _run(capfd, moved, tmp_path / moved.stem)
        assert code_w == code, (path.stem, rows_w)
        assert rows_w == rows, path.stem
