"""Tests of the benchmark's own code: tracing, restoration and the gate.

Run from the repository root with `python -m pytest -q perfbench/tests`.
"""
from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import harness  # noqa: E402
import spans  # noqa: E402


def _only(name, expected):
    """A corpus workload of one scenario with the given expected exit code."""
    def factory(seed, work):
        jobs = harness.corpus_jobs(seed, work, expected=expected)
        return [j for j in jobs if j.name == name]
    return factory


def _traced_calls(hash_seed):
    """`.calls` metrics of a traced corpus run in its own process."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "7", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()
            if k.endswith(".calls")}


def test_traced_runs_with_one_seed_repeat_call_counts():
    # Two processes with different string hashing, as two benchmark runs
    # without PYTHONHASHSEED would have.
    first, second = _traced_calls(1), _traced_calls(2)
    assert first["numerics.Projection.calls"] > 0
    assert first == second


def _bindings():
    from toposkms import cli

    out = {}
    for key, mod in sys.modules.items():
        if key.startswith("toposkms") and mod is not None:
            for attr, val in vars(mod).items():
                out[(key, attr)] = val
                if isinstance(val, type):
                    out[(key, attr, "__init__")] = vars(val).get("__init__")
    out.update({("SUITES", k): v for k, v in cli.SUITES.items()})
    return out


def test_tracing_restores_the_original_functions():
    from toposkms import algebra, numerics, scenario
    from toposkms.reports import Report

    before = _bindings()
    orig_leq, orig_write = numerics.proj_leq, Report.write
    tracer = spans.Tracer()
    with tracer.installed():
        # every module's reference is wrapped, not only the defining one
        assert algebra.proj_leq is not orig_leq
        assert algebra.proj_leq is numerics.proj_leq
        assert Report.write is not orig_write
        scenario.load_scenario(harness.SCENARIOS / "reconstruction.json")
    assert tracer.totals()["scenario.load_scenario"]["calls"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_wrong_expected_exit_code_counts_as_failed():
    wrong = harness.corpus_expected() | {"negative_control": 0}
    res = harness.run("corpus", 1, 0.0, trace=False,
                      jobs_factory=_only("negative_control", wrong))
    assert res.gate.failed_frac > 0
    assert any("exit 1, expected 0" in m for m in res.gate.misses)

    right = harness.run("corpus", 1, 0.0, trace=False,
                        jobs_factory=_only("negative_control",
                                           harness.corpus_expected()))
    assert right.gate.failed_frac == 0


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.GATED_E2E)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: harness.E2E_UNITS[k] for k in harness.GATED_E2E}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(harness.WORKLOADS)


def test_fails_without_printing_a_result_when_sources_are_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
