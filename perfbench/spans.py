"""Spans and counts around the public functions of each toposkms module.

The tracer works from outside the package: it rebinds every `toposkms.*`
module attribute that refers to a listed function, wraps the `__init__`
of the listed classes and the `cli.SUITES` entries, and puts every
original back when the `installed()` block ends.  No file of the
package is changed.

Each wrapped call records one span (name, start, end, parent) in flat
arrays, so a large-poset pass (about a million calls) stays a few tens
of megabytes.  Self time is a span's duration minus the time its wrapped
children cover.  Inclusive time (`s`) counts only the outermost call of a
name, so recursion is not counted twice.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

# (module, public name) pairs that are wrapped; classes are wrapped at
# their constructor.  The order is the order of the printed table.
TARGETS = (
    ("numerics", "Projection"),
    ("numerics", "proj_leq"),
    ("numerics", "hermitian_eig"),
    ("algebra", "build_poset"),
    ("algebra", "ContextPoset"),
    ("algebra", "contexts_equal"),
    ("algebra", "includes"),
    ("algebra", "lattice_projection"),
    ("algebra", "apply_automorphism"),
    ("presheaf", "SpectralPresheaf"),
    ("presheaf", "outer_daseinisation"),
    ("presheaf", "outer_daseinisation_bruteforce"),
    ("presheaf", "enumerate_subobjects"),
    ("presheaf", "complete_downward"),
    ("measure", "measure_of"),
    ("measure", "verify_measure_properties"),
    ("measure", "measure_table_of_state"),
    ("measure", "state_from_measure"),
    ("measure", "group_action_check"),
    ("kms_external", "check_C1"),
    ("kms_external", "check_C2"),
    ("kms_external", "check_truth_value_invariance"),
    ("kms_external", "mu_equivalent"),
    ("kms_external", "strong_mu_equivalence"),
    ("kms_external", "expectation_value"),
    ("kms_external", "flow_saturated_family"),
    ("kms_internal", "check_internal_C1"),
    ("kms_internal", "check_internal_C2"),
    ("kms_internal", "orbits"),
    ("kms_internal", "fixed_point_subgroup"),
    ("modular", "tomita_operators"),
    ("modular", "commutant_swap_check"),
    ("modular", "modular_flow"),
    ("scenario", "load_scenario"),
)

# Predicates whose share of True results is reported as `hit_ratio`.
PREDICATES = {"algebra.contexts_equal", "algebra.includes"}

# Span name of Report.write: serialising the trio and writing the files.
SERIALISE = "reports.serialise"


def swap_matmuls(state, basis=None, *args, **kwargs) -> int:
    """n^2 x n^2 products in one commutant_swap_check call, counted from
    its loops: two per basis element to swap it, and two per (swapped,
    basis) pair for the commutator."""
    m = state.dim ** 2 if basis is None else len(basis)
    return 2 * m + 2 * m * m


# span name -> (counter name, work computed from the call's arguments)
COMPUTED = {"modular.commutant_swap_check": ("modular.swap_matmuls", swap_matmuls)}


class Stat:
    __slots__ = ("calls", "hits", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.hits = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Records spans and per-name totals while installed."""

    def __init__(self):
        self.name_index: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self._stack: list = []
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def reset_totals(self) -> None:
        """Zero the per-name totals (spans are kept)."""
        for st in self.stats.values():
            st.calls = st.hits = 0
            st.s = st.self_s = 0.0
        for k in self.counters:
            self.counters[k] = 0

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        nid = self.name_index.setdefault(name, len(self.name_index))
        predicate = name in PREDICATES
        computed = COMPUTED.get(name)
        if computed is not None:
            self.counters.setdefault(computed[0], 0)
        stack = self._stack
        name_ids, starts, ends, parents = (self.name_ids, self.starts,
                                           self.ends, self.parents)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            frame = [0.0]
            name_ids.append(nid)
            parents.append(stack[-1][1] if stack else -1)
            ends.append(0.0)
            stack.append((frame, idx))
            stat.depth += 1
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                stat.depth -= 1
                dur = t1 - t0
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if stat.depth == 0:
                    stat.s += dur
                if stack:
                    stack[-1][0][0] += dur
            if predicate and result:
                stat.hits += 1
            if computed is not None:
                counters[computed[0]] += computed[1](*args, **kwargs)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        from toposkms import cli
        from toposkms.reports import Report

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "toposkms" or k.startswith("toposkms."))
                   and m is not None]
        try:
            for mod_name, attr in TARGETS:
                orig = getattr(sys.modules[f"toposkms.{mod_name}"], attr)
                name = f"{mod_name}.{attr}"
                if isinstance(orig, type):
                    self._patch_attr(orig, "__init__",
                                     self._wrap(name, orig.__init__))
                    continue
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch_attr(mod, key, wrapper)
            self._patch_attr(Report, "write", self._wrap(SERIALISE, Report.write))
            for key, fn in list(cli.SUITES.items()):
                self._undo.append((cli.SUITES, key, fn, True))
                cli.SUITES[key] = self._wrap(f"cli.{key}", fn)
            yield self
        finally:
            self.restore()

    def _patch_attr(self, owner, key: str, new) -> None:
        had_own = key in vars(owner)
        self._undo.append((owner, key, vars(owner).get(key), had_own))
        setattr(owner, key, new)

    def restore(self) -> None:
        while self._undo:
            owner, key, orig, had_own = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = orig
            elif had_own:
                setattr(owner, key, orig)
            else:
                delattr(owner, key)

    # -- output --------------------------------------------------------------

    def totals(self) -> dict:
        """Per-name totals since the last reset, as plain numbers."""
        return {
            name: {"calls": st.calls, "hits": st.hits, "s": st.s,
                   "self_s": st.self_s}
            for name, st in self.stats.items()
        } | {name: {"count": v} for name, v in self.counters.items()}

    def write(self, path) -> None:
        """Save every recorded span as arrays in one .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(list(self.name_index)),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )
