#!/usr/bin/env python3
"""Benchmark toposkms end to end, or per layer with --trace 1.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from `src/`,
unbuilt and uninstalled.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end figures of BENCHMARK.json, and with
--trace 1 its per-layer figures.  The exit code is 0 when every scenario
run gave its expected exit code and byte-identical reports, 1 when one
did not, and 2 when the checkout holds no toposkms sources.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corpus", "large_poset", "modular_dense")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is imported.

    On a 2-core machine two OpenBLAS threads finish modular_dense about
    12% sooner when alone, but with a second benchmark process beside
    them their spin-waits collide and verify_s went from 7 s to over
    100 s.  One thread keeps the run steady and within the CPU count.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "toposkms" / "cli.py").is_file():
        print(f"no toposkms sources under {src}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(src))
    import harness  # imports numpy and toposkms

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(harness.environment(args.seed), sort_keys=True))
    res = harness.run(args.workload, args.seed, args.seconds,
                      trace=bool(args.trace))
    gate = res.gate
    for name, digest in gate.digests().items():
        print(f"report.csv sha256 {name} {digest}")
    for miss in gate.misses:
        print(f"FAILED {miss}")

    e2e = res.e2e()
    for key in ("setup_s", "verify_s", "total_s"):
        print(harness.describe(key, [p[key] for p in res.passes], "s"))
    print(f"failed_frac = {e2e['failed_frac']:.6g} fraction  "
          f"({gate.failed} of {gate.attempted} scenario runs)")
    print(f"peak_rss_mb = {e2e['peak_rss_mb']:.6g} MB")

    if args.trace:
        layers = harness.layer_metrics(res)
        units = harness.layer_units()
        print(f"traced passes: {len(res.traced_passes)}; spans in "
              f"{res.trace_file.relative_to(ROOT)}")
        calls = [{k: v["calls"] for k, v in t.items() if "calls" in v}
                 for t in res.traced]
        if any(c != calls[0] for c in calls):
            print("WARNING call counts differ between traced passes")
        for name, value in layers.items():
            note = " (computed)" if name == "modular.swap_matmuls" else ""
            print(f"{name} = {value:.6g} {units[name]}{note}")
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": harness.E2E_UNITS[k]}
                   for k in harness.GATED_E2E}
    print(json.dumps({"correct": gate.failed == 0,
                      "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
