"""Workloads, timed passes and the correctness gate of the benchmark.

A pass runs every scenario of a workload once, the way `toposkms run`
does: `load_scenario`, then `execute`, then `Report.write` into a
temporary directory.  A run repeats passes in one process, one after the
other (a single client in a closed loop), and reports the median of each
end-to-end metric over its passes.

Correctness: every scenario run must exit with its expected code, and
its `report.csv` must be byte-identical to the first repetition of the
same scenario in the same process.  Each miss counts toward
`failed_frac`.  Report digests are printed, never compared across
processes, so row-order changes under another PYTHONHASHSEED stay
visible without failing the run.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from toposkms import scenario
from toposkms.cli import execute
from toposkms.errors import ToposKMSError

import spans

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scripts" / "scenarios"
# Transient reports, scenario files and span dumps; ignored by git.
WORK_DIR = ROOT / ".perfbench"

# A run repeats full passes while one more fits in --seconds.  It makes
# a second pass, so every scenario has a repetition to compare bytes
# with, whenever the first pass alone fit in --seconds; a workload whose
# pass outlasts it gets its repetition in traced runs, which always make
# an untraced and a traced pass.  Every end-to-end time, setup_s too, is
# the median over the run's untraced passes.

E2E_UNITS = {
    "setup_s": "s",
    "verify_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}
# failed_frac is 0 when the program is correct, so it is printed and
# carried by the result's `failed`/`attempted` rather than bounded.
GATED_E2E = tuple(E2E_UNITS)


@dataclass(frozen=True)
class Job:
    """One scenario file and the exit code `toposkms run` must give."""

    name: str
    path: pathlib.Path
    expected_exit: int


# --------------------------------------------------------------------------
# workloads


def corpus_expected() -> dict:
    """Expected exit codes, from the table in scripts/run_verification.py."""
    spec = importlib.util.spec_from_file_location(
        "run_verification", ROOT / "scripts" / "run_verification.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return dict(mod.EXPECTED)


def corpus_jobs(seed: int, work: pathlib.Path, expected=None) -> list[Job]:
    """The committed scenarios, unchanged; the seed only fixes their order."""
    expected = corpus_expected() if expected is None else expected
    paths = sorted(SCENARIOS.glob("*.json"))
    missing = [p.stem for p in paths if p.stem not in expected]
    if missing:
        raise ValueError(f"no expected exit code for {missing}")
    order = np.random.default_rng(seed).permutation(len(paths))
    return [Job(paths[i].stem, paths[i], expected[paths[i].stem])
            for i in order]


def _diag(n: int, ones) -> dict:
    return {"diag": [1 if i in ones else 0 for i in range(n)]}


def large_poset_scenario(seed: int) -> dict:
    """Downward-closed diagonal C^6 poset (202 contexts) with the Gibbs state
    of a non-degenerate diagonal Hamiltonian and two daseinised diagonal
    projections of ranks 2 and 3.

    `measure` and `reconstruction` (7-8 s each at this size) and
    `truth`/`equivalence` (see perfbench/README.md) are not among the
    checks, so that a run holds several passes.
    """
    n = 6
    rng = np.random.default_rng([seed, n])
    levels = np.cumsum(rng.uniform(0.2, 0.8, n))
    energies = rng.permutation(levels - levels[0])
    support = rng.permutation(n)
    return {
        "name": "large_poset",
        "dim": n,
        "seed": seed,
        "beta": 1.0,
        "hamiltonian": {"diag": [float(e) for e in energies]},
        "state": {"gibbs": True},
        "projections": {
            **{f"E{i}": _diag(n, {i}) for i in range(n)},
            "PA": _diag(n, set(support[:2].tolist())),
            "PB": _diag(n, set(support[2:5].tolist())),
        },
        "contexts": {"Vdiag": {"blocks": [f"E{i}" for i in range(n)]}},
        "poset": {"downward_closure": True, "meet_closure": False,
                  "group_closure": False, "max_contexts": 202},
        "t_grid": [-1.0, 0.5, 2.0],
        "subobjects": {"DA": {"dasein": "PA"}, "DB": {"dasein": "PB"}},
        "checks": ["poset", "presheaf", "external-c1"],
    }


def modular_dense_scenario(seed: int, n: int) -> dict:
    """Faithful Gibbs state of a seeded random Hermitian Hamiltonian on C^n.

    The poset fields keep their defaults, as a scenario written by hand
    would: the context of two rank-1 projections is closed downward,
    under meets and under the flow at the t_grid times, which gives 20
    dense contexts and a set-up of tens of milliseconds per scenario, so
    that setup_s is long enough to time.  Only the modular check runs.
    """
    rng = np.random.default_rng([seed, n])
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / (2.0 * math.sqrt(n))
    return {
        "name": f"modular_dense_{n}",
        "dim": n,
        "seed": seed,
        "beta": 1.0,
        "hamiltonian": [[[float(x.real), float(x.imag)] for x in row]
                        for row in h],
        "state": {"gibbs": True},
        "contexts": {"V01": {"generated_by": [_diag(n, {0}), _diag(n, {1})]}},
        "t_grid": [0.5, 1.0],
        "checks": ["modular"],
    }


def _generated_jobs(scenarios, work: pathlib.Path) -> list[Job]:
    jobs = []
    for raw in scenarios:
        path = work / f"{raw['name']}.json"
        path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
        jobs.append(Job(raw["name"], path, 0))
    return jobs


WORKLOADS = {
    "corpus": corpus_jobs,
    "large_poset": lambda seed, work: _generated_jobs(
        [large_poset_scenario(seed)], work),
    "modular_dense": lambda seed, work: _generated_jobs(
        [modular_dense_scenario(seed, n) for n in range(4, 11)], work),
}


# --------------------------------------------------------------------------
# passes


@dataclass
class Gate:
    """Expected exit codes and first-repetition report bytes."""

    attempted: int = 0
    failed: int = 0
    first_csv: dict = field(default_factory=dict)
    misses: list = field(default_factory=list)

    def check(self, job: Job, rc: int, csv: bytes | None) -> None:
        self.attempted += 1
        problems = []
        if rc != job.expected_exit:
            problems.append(f"exit {rc}, expected {job.expected_exit}")
        if csv is not None:
            first = self.first_csv.setdefault(job.name, csv)
            if csv != first:
                problems.append("report.csv differs from the first repetition")
        if problems:
            self.failed += 1
            self.misses.append(f"{job.name}: {'; '.join(problems)}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def digests(self) -> dict:
        return {k: hashlib.sha256(v).hexdigest()
                for k, v in sorted(self.first_csv.items())}


def full_pass(jobs, out_root: pathlib.Path, gate: Gate) -> dict:
    """One `toposkms run` per job; returns the pass's summed times."""
    setup = verify = total = 0.0
    rows = 0
    for job in jobs:
        out = out_root / job.name
        t0 = time.perf_counter()
        try:
            # looked up on the module, so the tracer's wrapper is seen
            scn = scenario.load_scenario(job.path)
        except (ToposKMSError, OSError):
            total += time.perf_counter() - t0
            gate.check(job, 2, None)
            continue
        t1 = time.perf_counter()
        rep = execute(scn)
        t2 = time.perf_counter()
        rep.write(out)
        t3 = time.perf_counter()
        setup += t1 - t0
        verify += t2 - t1
        total += t3 - t0
        rows += len(rep.entries)
        gate.check(job, rep.exit_code, (out / "report.csv").read_bytes())
    return {"setup_s": setup, "verify_s": verify, "total_s": total,
            "rows": rows}


# --------------------------------------------------------------------------
# statistics


def tail(values) -> tuple[str, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")
            return f"p{p}", q[p - 1]
    return None


def describe(name: str, values, unit: str) -> str:
    med = statistics.median(values)
    t = tail(values)
    tail_txt = (f"{t[0]} {t[1]:.6g} {unit}" if t
                else "no percentile has 10 samples beyond it")
    return f"{name} = {med:.6g} {unit}  (median of {len(values)}; {tail_txt})"


# --------------------------------------------------------------------------
# environment


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "TOPOSKMS_MAX_CONTEXTS": os.environ.get("TOPOSKMS_MAX_CONTEXTS",
                                                "unset"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# runs


@dataclass
class RunResult:
    gate: Gate
    passes: list            # untraced full passes
    traced: list            # per-pass tracer totals
    traced_passes: list     # traced full passes
    peak_rss_mb: float
    trace_file: pathlib.Path | None = None

    def e2e(self) -> dict:
        med = {k: statistics.median(p[k] for p in self.passes)
               for k in ("setup_s", "verify_s", "total_s")}
        return med | {"failed_frac": self.gate.failed_frac,
                      "peak_rss_mb": self.peak_rss_mb}


def run(workload: str, seed: int, seconds: float, trace: bool,
        jobs_factory=None) -> RunResult:
    """Measure one workload for about `seconds` in this process."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        tmp = pathlib.Path(tmp)
        jobs = (jobs_factory or WORKLOADS[workload])(seed, tmp)
        gate = Gate()
        passes, traced_passes, traced = [], [], []
        tracer = spans.Tracer() if trace else None
        start = time.perf_counter()
        while True:
            # traced runs alternate untraced and traced passes
            use_tracer = trace and len(passes) > len(traced_passes)
            out = tmp / f"pass{len(passes) + len(traced_passes)}"
            t0 = time.perf_counter()
            if use_tracer:
                tracer.reset_totals()
                with tracer.installed():
                    traced_passes.append(full_pass(jobs, out, gate))
                traced.append(tracer.totals())
            else:
                passes.append(full_pass(jobs, out, gate))
            last = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if trace and not traced_passes:
                continue
            if len(passes) + len(traced_passes) == 1 and elapsed <= seconds:
                continue
            if elapsed + last > seconds:
                break
        rss = peak_rss_mb()
    trace_file = None
    if trace:
        trace_file = WORK_DIR / f"trace-{workload}.npz"
        tracer.write(trace_file)
    return RunResult(gate, passes, traced, traced_passes, rss,
                     trace_file)


def layer_metrics(res: RunResult) -> dict:
    """Per-layer metrics of a traced run: counts from its first traced
    pass, times as medians over its traced passes."""
    first = res.traced[0]
    out = {}
    for name in layer_names():
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = first[base]["calls"]
        elif kind == "hit_ratio":
            st = first[base]
            out[name] = st["hits"] / st["calls"] if st["calls"] else 0.0
        elif kind in ("s", "self_s"):
            out[name] = statistics.median(t[base][kind] for t in res.traced)
    out["modular.swap_matmuls"] = first["modular.swap_matmuls"]["count"]
    out["reports.rows"] = res.traced_passes[0]["rows"]
    out["trace.overhead_s"] = (
        statistics.median(p["total_s"] for p in res.traced_passes)
        - statistics.median(p["total_s"] for p in res.passes))
    return out


# Which figures each wrapped name reports, as named in BENCHMARK.json.
_CALLS_SELF = ("calls", "self_s")
_ALL = ("calls", "self_s", "s")
_LAYER_KINDS = {
    "numerics.Projection": _CALLS_SELF,
    "numerics.proj_leq": _CALLS_SELF,
    "numerics.hermitian_eig": _CALLS_SELF,
    "algebra.build_poset": ("s",),
    "algebra.ContextPoset": ("s",),
    "algebra.contexts_equal": ("calls", "hit_ratio"),
    "algebra.includes": ("calls", "hit_ratio"),
    "algebra.lattice_projection": _CALLS_SELF,
    "algebra.apply_automorphism": _CALLS_SELF,
    "presheaf.SpectralPresheaf": ("s",),
    "presheaf.outer_daseinisation": _ALL,
    "presheaf.outer_daseinisation_bruteforce": _ALL,
    "presheaf.enumerate_subobjects": _ALL,
    "presheaf.complete_downward": _ALL,
    "measure.measure_of": _CALLS_SELF,
}


def layer_names() -> list[str]:
    """Wrapped-function metric names, in the order of spans.TARGETS."""
    from toposkms.cli import SUITES

    names = []
    for mod, attr in spans.TARGETS:
        base = f"{mod}.{attr}"
        names += [f"{base}.{k}" for k in _LAYER_KINDS.get(base, ("s",))]
    names.append(f"{spans.SERIALISE}.s")
    names += [f"cli.{suite}.s" for suite in SUITES]
    return names


LAYER_UNITS = {"calls": "count", "hit_ratio": "ratio", "s": "s",
               "self_s": "s"}
EXTRA_LAYER = {"modular.swap_matmuls": "count", "reports.rows": "count",
               "trace.overhead_s": "s"}


def layer_units() -> dict:
    units = {n: LAYER_UNITS[n.rpartition(".")[2]] for n in layer_names()}
    return units | EXTRA_LAYER
