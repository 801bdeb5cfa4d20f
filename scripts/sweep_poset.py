#!/usr/bin/env python3
"""Time each corpus scenario, the context-poset layers on the
downward-closed diagonal C^n poset, and one Tier-1 run.

    python3 scripts/sweep_poset.py --label change --out BENCH_32.json
    python3 scripts/sweep_poset.py --label parent --out BENCH_32.json \
        --src /path/to/other/src

For each scenario of scripts/scenarios it times `load_scenario` and each
suite the scenario runs, in its order, as medians over 5 runs in one
process per scenario, and records that process's peak RSS.  A suite
that fails closed with a ToposKMSError is timed up to the error, as
`toposkms run` would report it.  It times perfbench's modular_dense
scenarios (seed 1, n = 4..10) the same way: their posets are closed
downward, under meets and under the flow, the closure path the
diagonal posets below do not take.  Each modular_dense row also times
the Tomita layer on the scenario's state, as medians over 5 runs:
`tomita_operators` (tomita_s) and `commutant_swap_check` on its data
(swap_s).

For n = 4..7 it times `load_scenario` and the `poset`, `presheaf`,
`measure` and `external-c1` suites, as medians over 5 runs in one
process per n, and records that process's peak RSS.  It then times the
C^8 load once, in a process of its own, and each of those suites once
on C^8, in one process per suite with its load, recording each
process's peak RSS.  The scenario is perfbench's large_poset scenario
(seed 1) with the dimension changed: the diagonal context of n rank-one
blocks closed downward, Bell(n) - 1 contexts.

Last, it runs the Tier-1 tests once, `python -m pytest -q
--continue-on-collection-errors` in the checkout that holds --src (its
parent directory) with that src first on PYTHONPATH, and records the
wall time (tier1_s), the exit code and pytest's summary line.

The toposkms sources are those under --src (by default this checkout's
src/); the corpus and the scenario generator are always this checkout's
(scripts/scenarios, perfbench/harness.py).  Results go under --label in
the file --out, which has no default, so that a run never adds its
labels to an earlier record; other labels already in the file are kept,
so two checkouts can be compared in one file.  Times use
time.perf_counter, with one BLAS thread.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIZES = (4, 5, 6, 7)
DENSE_SIZES = range(4, 11)
SUITES = ("poset", "presheaf", "measure", "external-c1")
BELL = {4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}
REPEATS = 5
CORPUS = ROOT / "scripts" / "scenarios"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def diagonal_scenario(harness, n: int) -> dict:
    """perfbench's large_poset scenario on C^n: the same rule for the
    Hamiltonian and the two daseinised projections, n rank-one blocks."""
    import numpy as np

    raw = harness.large_poset_scenario(1)
    rng = np.random.default_rng([1, n])
    levels = np.cumsum(rng.uniform(0.2, 0.8, n))
    energies = rng.permutation(levels - levels[0])
    support = rng.permutation(n).tolist()

    def diag(ones):
        return {"diag": [1 if i in ones else 0 for i in range(n)]}

    raw.update(
        name=f"diag{n}", dim=n,
        hamiltonian={"diag": [float(e) for e in energies]},
        projections={**{f"E{i}": diag({i}) for i in range(n)},
                     "PA": diag(set(support[:2])),
                     "PB": diag(set(support[2:5]))},
        contexts={"Vdiag": {"blocks": [f"E{i}" for i in range(n)]}})
    raw["poset"]["max_contexts"] = BELL[n] - 1
    return raw


def dense_scenario(n: int) -> dict:
    """perfbench's modular_dense scenario on C^n at seed 1."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import harness

    return harness.modular_dense_scenario(1, n)


def child(n: int, repeats: int, suites) -> dict:
    """Time the load and the named suites on one size in this process; the
    package comes from sys.path."""
    import resource

    sys.path.insert(0, str(ROOT / "perfbench"))
    import harness
    from toposkms.cli import SUITES as RUNNERS
    from toposkms.reports import Report
    from toposkms.scenario import load_scenario

    raw = diagonal_scenario(harness, n)
    times = {"load_s": []} | {f"{s}_s": [] for s in suites}
    for _ in range(repeats):
        t0 = time.perf_counter()
        scn = load_scenario(raw)
        times["load_s"].append(time.perf_counter() - t0)
        rep = Report(scenario=scn.resolved)
        for name in suites:
            t0 = time.perf_counter()
            RUNNERS[name](scn, rep)
            times[f"{name}_s"].append(time.perf_counter() - t0)
    out = {"contexts": len(scn.poset), "runs": repeats}
    out |= {k: statistics.median(v) for k, v in times.items()}
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def corpus_child(source, repeats: int) -> dict:
    """Time one scenario, a path or a raw dict, in this process: its load
    and each suite it runs; the package comes from sys.path."""
    import resource

    from toposkms.cli import SUITES as RUNNERS
    from toposkms.errors import ToposKMSError
    from toposkms.reports import Report
    from toposkms.scenario import load_scenario

    times = {"load_s": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        scn = load_scenario(source)
        times["load_s"].append(time.perf_counter() - t0)
        rep = Report(scenario=scn.resolved)
        for name in scn.checks:
            t0 = time.perf_counter()
            try:
                RUNNERS[name](scn, rep)
            except ToposKMSError:
                pass
            times.setdefault(f"{name}_s", []).append(
                time.perf_counter() - t0)
    out = {"contexts": len(scn.poset), "runs": repeats}
    out |= {k: statistics.median(v) for k, v in times.items()}
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def dense_child(n: int, repeats: int) -> dict:
    """corpus_child on the modular_dense scenario on C^n, with the Tomita
    layer timed on its state: tomita_operators and commutant_swap_check
    on that data."""
    from toposkms.modular import commutant_swap_check, tomita_operators
    from toposkms.scenario import load_scenario

    out = corpus_child(dense_scenario(n), repeats)
    state = load_scenario(dense_scenario(n)).state
    tomita, swap = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        data = tomita_operators(state)
        t1 = time.perf_counter()
        commutant_swap_check(state, data=data)
        tomita.append(t1 - t0)
        swap.append(time.perf_counter() - t1)
    out["tomita_s"] = statistics.median(tomita)
    out["swap_s"] = statistics.median(swap)
    return out


def measure(src: pathlib.Path, what: list, repeats: int) -> dict:
    """Run one child process with the arguments `what`: --child N (the
    diagonal C^N poset, with --suites for a comma-separated list of the
    suites to time, none for its load alone), --dense N (the
    modular_dense scenario on C^N) or --scenario PATH."""
    env = dict(os.environ, PYTHONPATH=str(src),
               **{var: "1" for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, __file__, *what, "--repeats", str(repeats)]
    done = subprocess.run(cmd, env=env, check=True, capture_output=True,
                          text=True)
    return json.loads(done.stdout.splitlines()[-1])


def tier1(src: pathlib.Path) -> dict:
    """One Tier-1 run of the tests of the checkout that holds src."""
    env = dict(os.environ, PYTHONPATH=str(src),
               **{var: "1" for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=src.parent, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    return {"tier1_s": time.perf_counter() - t0, "tier1_exit": done.returncode,
            "tier1_summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", default="change")
    p.add_argument("--src", type=pathlib.Path, default=ROOT / "src")
    p.add_argument("--out", type=pathlib.Path,
                   help="the JSON record to write into (required)")
    p.add_argument("--child", type=int, help=argparse.SUPPRESS)
    p.add_argument("--scenario", type=pathlib.Path, help=argparse.SUPPRESS)
    p.add_argument("--dense", type=int, help=argparse.SUPPRESS)
    p.add_argument("--repeats", type=int, help=argparse.SUPPRESS)
    p.add_argument("--suites", default=",".join(SUITES),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child, args.repeats,
                               [s for s in args.suites.split(",") if s])))
        return 0
    if args.scenario is not None:
        print(json.dumps(corpus_child(args.scenario, args.repeats)))
        return 0
    if args.dense is not None:
        print(json.dumps(dense_child(args.dense, args.repeats)))
        return 0
    if args.out is None:
        p.error("--out is required")

    import numpy as np

    src = args.src.resolve()
    result = {"corpus": {}, "modular_dense": {}}
    for path in sorted(CORPUS.glob("*.json")):
        row = measure(src, ["--scenario", str(path)], REPEATS)
        result["corpus"][path.stem] = row
        print(f"{path.stem}: " + json.dumps(row), flush=True)
    for n in DENSE_SIZES:
        row = measure(src, ["--dense", str(n)], REPEATS)
        result["modular_dense"][f"n{n}"] = row
        print(f"modular_dense C^{n}: " + json.dumps(row), flush=True)
    for n in SIZES:
        result[f"diag{n}"] = measure(src, ["--child", str(n)], REPEATS)
        print(f"C^{n}: " + json.dumps(result[f"diag{n}"]), flush=True)
    result["diag8_load"] = measure(src, ["--child", "8", "--suites", ""], 1)
    print("C^8 load: " + json.dumps(result["diag8_load"]))
    for name in SUITES:
        result[f"diag8_{name}"] = measure(
            src, ["--child", "8", "--suites", name], 1)
        print(f"C^8 {name}: " + json.dumps(result[f"diag8_{name}"]),
              flush=True)
    result |= tier1(src)
    print(f"Tier-1: {result['tier1_s']:.1f} s, {result['tier1_summary']}")
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc["about"] = (
        "Medians over runs (runs gives the count), seconds, with each "
        "process's peak RSS in MB: under corpus, of load_scenario and of "
        "each suite a corpus scenario runs; under modular_dense, the same "
        "for perfbench's modular_dense scenario on C^n at seed 1 (key nN), "
        "with tomita_s and swap_s the medians of tomita_operators on its "
        "state and of commutant_swap_check on that data; "
        "under diagN, of load_scenario "
        "and of the poset, presheaf, measure and external-c1 suites on the "
        "downward-closed diagonal C^N poset; diag8_load is one load of "
        "C^8, and diag8_S one load and one run of suite S on C^8, each in "
        "a process of its own; tier1_s is the wall time of one Tier-1 run of the tests of "
        "the checkout that holds the sources, with its exit code "
        "(tier1_exit) and pytest's summary line (tier1_summary).  Written "
        "by scripts/sweep_poset.py.")
    doc.setdefault("labels", {})[args.label] = {
        "host": {"python": platform.python_version(),
                 "numpy": np.__version__,
                 "nproc": len(os.sched_getaffinity(0)),
                 "blas_threads": 1},
        "results": result}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
