"""Scenario files: JSON descriptions of a model and the checks to run.

Complex entries are encoded as [re, im]; matrices as row-major nested
lists.  Every default is materialized into the resolved scenario dict so
the report echo pins down exactly what ran.  All validation failures
raise ScenarioError, which the CLI maps to exit code 2.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra import Context, ContextPoset, build_poset, context_from_operators
from .errors import ContextMissing, ScenarioError, ToposKMSError
from .kms_external import CONVENTIONS, AutomorphismFlow, gibbs_state
from .kms_internal import SampledGroup
from .measure import State
from .presheaf import (
    SpectralPresheaf,
    daseinisation_subobject,
)
from .suites import SUITES
from .tolerances import TolerancePolicy

MAX_DIM = 16

# every suite, in execution order; a scenario's checks are filtered from
# this list, never reordered
DEFAULT_CHECKS = list(SUITES)

# the keys each level of a scenario may hold; any other key is refused, so
# a misspelt key cannot silently drop a check's input
TOP_KEYS = frozenset({
    "name", "dim", "seed", "beta", "convention", "tolerances", "checks",
    "hamiltonian", "state", "projections", "contexts", "poset", "group",
    "t_grid", "r_queries", "subobjects", "pairs", "c2_context",
    "truth_stage"})
STATE_KEYS = frozenset({"matrix", "pure", "spectrum", "basis", "gibbs"})
POSET_KEYS = frozenset({"downward_closure", "meet_closure", "group_closure",
                        "group_depth", "max_contexts"})
GROUP_KEYS = frozenset({"samples"})
CONTEXT_KEYS = frozenset({"blocks", "generated_by"})
SUBOBJECT_KEYS = frozenset({"dasein", "saturated"})
SATURATED_KEYS = frozenset({"context", "blocks"})


def _known_keys(spec, keys: frozenset, what: str) -> None:
    """spec must be an object holding only keys from the set."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{what} must be an object")
    unknown = sorted(set(spec) - keys)
    if unknown:
        raise ScenarioError(
            f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


def _as_number(x, what: str, positive: bool = False) -> float:
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or not abs(x) <= sys.float_info.max):
        raise ScenarioError(f"{what} must be a finite real number, got {x!r}")
    if positive and x <= 0:
        raise ScenarioError(f"{what} must be positive, got {x!r}")
    return float(x)


def _as_flag(x, what: str) -> bool:
    if not isinstance(x, bool):
        raise ScenarioError(f"{what} must be true or false, got {x!r}")
    return x


def _as_count(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise ScenarioError(f"{what} must be a positive integer, got {x!r}")
    return x


def _as_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ScenarioError(f"{what} must be a list, got {x!r}")
    return x


def _as_string(x, what: str) -> str:
    if not isinstance(x, str):
        raise ScenarioError(f"{what} must be a string, got {x!r}")
    return x


def _as_scalar(x, what: str) -> complex:
    """A JSON scalar: finite real number or [re, im] pair."""
    if isinstance(x, list) and len(x) == 2:
        return complex(_as_number(x[0], what), _as_number(x[1], what))
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return complex(_as_number(x, what))
    raise ScenarioError(f"{what} must be a number or [re, im] pair, got {x!r}")


def parse_matrix(m, what: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(m, list) or not m or not all(isinstance(r, list) for r in m):
        raise ScenarioError(f"{what} must be a nested row-major list")
    rows = len(m)
    out = np.zeros((rows, len(m[0])), dtype=np.complex128)
    for i, row in enumerate(m):
        if len(row) != len(m[0]):
            raise ScenarioError(f"{what} has ragged rows")
        for j, x in enumerate(row):
            out[i, j] = _as_scalar(x, f"{what}[{i}][{j}]")
    if out.shape[0] != out.shape[1]:
        raise ScenarioError(f"{what} must be square, got {out.shape}")
    if dim is not None and out.shape[0] != dim:
        raise ScenarioError(f"{what} has dimension {out.shape[0]}, expected {dim}")
    return out


def parse_operator(spec, what: str, dim: int) -> np.ndarray:
    """A matrix given either literally or as {"diag": [...]}."""
    if isinstance(spec, dict) and set(spec) == {"diag"}:
        d = spec["diag"]
        if not isinstance(d, list) or len(d) != dim:
            raise ScenarioError(f"{what}.diag must be a list of length {dim}")
        return np.diag([_as_scalar(x, f"{what}.diag") for x in d]).astype(
            np.complex128)
    if isinstance(spec, dict) and set(spec) == {"matrix"}:
        return parse_matrix(spec["matrix"], what, dim)
    if isinstance(spec, list):
        return parse_matrix(spec, what, dim)
    raise ScenarioError(
        f"{what} must be a matrix, {{'matrix': ...}} or {{'diag': ...}}"
    )


def parse_vector(spec, what: str, dim: int) -> np.ndarray:
    if not isinstance(spec, list) or len(spec) != dim:
        raise ScenarioError(f"{what} must be a list of length {dim}")
    return np.array([_as_scalar(x, what) for x in spec], dtype=np.complex128)


@dataclass
class Scenario:
    """A parsed scenario plus every model object the checks need."""

    resolved: dict
    name: str
    dim: int
    seed: int
    beta: float
    convention: str
    tol: TolerancePolicy
    checks: list
    state: State
    hamiltonian: np.ndarray | None
    flow: AutomorphismFlow | None
    group: SampledGroup | None
    projections: dict
    seed_contexts: list
    poset: ContextPoset
    presheaf: SpectralPresheaf
    subobjects: dict = field(default_factory=dict)
    t_grid: list = field(default_factory=list)
    r_queries: list = field(default_factory=list)
    pairs: list = field(default_factory=list)
    c2_context: str | None = None
    truth_stage: str | None = None


def _resolve_state(spec, dim, hamiltonian, beta, tol) -> tuple[State, dict]:
    _known_keys(spec, STATE_KEYS, "state")
    try:
        if "matrix" in spec:
            return State(parse_matrix(spec["matrix"], "state.matrix", dim),
                         tol=tol), {"matrix": spec["matrix"]}
        if "pure" in spec:
            v = parse_vector(spec["pure"], "state.pure", dim)
            return State.pure(v, tol=tol), {"pure": spec["pure"]}
        if "spectrum" in spec:
            w = [_as_number(x, "state.spectrum")
                 for x in _as_list(spec["spectrum"], "state.spectrum")]
            if len(w) != dim:
                raise ScenarioError(
                    f"state.spectrum needs {dim} entries, got {len(w)}")
            if "basis" in spec:
                u = parse_matrix(spec["basis"], "state.basis", dim)
            else:
                u = np.eye(dim, dtype=np.complex128)
            rho = u @ np.diag(w).astype(np.complex128) @ u.conj().T
            return State(rho, tol=tol), {
                "spectrum": spec["spectrum"],
                "basis": spec.get("basis", "identity"),
            }
        if "gibbs" in spec:
            if hamiltonian is None:
                raise ScenarioError("gibbs state needs a hamiltonian")
            return gibbs_state(hamiltonian, beta, tol=tol), {
                "gibbs": True, "beta": beta}
    except ToposKMSError as exc:
        raise ScenarioError(f"state does not validate: {exc}") from exc
    raise ScenarioError(
        "state must provide one of: matrix, pure, spectrum, gibbs")


def _resolve_contexts(cfg, projections, dim, tol):
    if not isinstance(cfg, dict) or not cfg:
        raise ScenarioError("contexts must be a non-empty object")
    out = []
    for name, spec in cfg.items():
        _known_keys(spec, CONTEXT_KEYS, f"context {name}")
        try:
            if "blocks" in spec:
                blocks = [
                    projections[b] if isinstance(b, str)
                    else parse_operator(b, f"context {name} block", dim)
                    for b in _as_list(spec["blocks"], f"context {name} blocks")
                ]
                out.append(Context(blocks, context_id=name, tol=tol))
            elif "generated_by" in spec:
                ops = [
                    projections[b] if isinstance(b, str)
                    else parse_operator(b, f"context {name} generator", dim)
                    for b in _as_list(spec["generated_by"],
                                      f"context {name} generated_by")
                ]
                out.append(context_from_operators(ops, context_id=name, tol=tol))
            else:
                raise ScenarioError(
                    f"context {name} needs 'blocks' or 'generated_by'")
        except KeyError as exc:
            raise ScenarioError(
                f"context {name} references unknown projection {exc}") from exc
        except ToposKMSError as exc:
            raise ScenarioError(f"context {name} invalid: {exc}") from exc
    return out


def _resolve_subobjects(cfg, presheaf, group, projections, dim):
    from .kms_external import flow_saturated_family

    subs = {}
    if cfg is None:
        return subs
    if not isinstance(cfg, dict):
        raise ScenarioError("subobjects must be an object")
    for name, spec in cfg.items():
        _known_keys(spec, SUBOBJECT_KEYS, f"subobject {name}")
        try:
            if "dasein" in spec:
                p = spec["dasein"]
                if isinstance(p, str):
                    if p not in projections:
                        raise ScenarioError(
                            f"subobject {name} references unknown "
                            f"projection {p!r}")
                    p = projections[p]
                else:
                    p = parse_operator(p, f"subobject {name}", dim)
                subs[name] = daseinisation_subobject(p, presheaf, name=name)
            elif "saturated" in spec:
                s = spec["saturated"]
                _known_keys(s, SATURATED_KEYS, f"subobject {name} saturated")
                if group is None:
                    raise ScenarioError(
                        f"subobject {name} needs a group for saturation")
                # indices outside the context, negative ones included,
                # are refused by flow_saturated_family
                blocks = _as_list(s["blocks"], f"subobject {name} blocks")
                if any(isinstance(b, bool) or not isinstance(b, int)
                       for b in blocks):
                    raise ScenarioError(
                        f"subobject {name} blocks must be integers, "
                        f"got {blocks!r}")
                subs[name] = flow_saturated_family(
                    presheaf,
                    _as_string(s["context"], f"subobject {name} context"),
                    set(blocks), group.real_unitaries(), name=name)
            else:
                raise ScenarioError(
                    f"subobject {name} needs 'dasein' or 'saturated'")
        except ScenarioError:
            raise
        except (KeyError, ToposKMSError) as exc:
            raise ScenarioError(f"subobject {name} invalid: {exc}") from exc
    return subs


def read_scenario(path) -> dict:
    """The JSON object of a scenario file, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be an object")
    return raw


def load_scenario(path_or_dict) -> Scenario:
    """Parse, validate and materialize a scenario."""
    raw = (path_or_dict if isinstance(path_or_dict, dict)
           else read_scenario(path_or_dict))
    _known_keys(raw, TOP_KEYS, "scenario")

    dim = raw.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise ScenarioError("dim must be an integer >= 2")
    if dim > MAX_DIM:
        raise ScenarioError(f"dim {dim} exceeds the supported maximum {MAX_DIM}")

    # the name is the default output directory reports/<name>
    name = _as_string(raw.get("name", "scenario"), "name")
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ScenarioError(
            f"name must be one path component, got {name!r}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError("seed must be an integer")
    beta = _as_number(raw.get("beta", 1.0), "beta", positive=True)
    convention = raw.get("convention", "hamiltonian")
    if convention not in CONVENTIONS:
        raise ScenarioError(f"convention must be one of {CONVENTIONS}")

    tol_cfg = raw.get("tolerances", {})
    if not isinstance(tol_cfg, dict):
        raise ScenarioError("tolerances must be an object")
    try:
        tol = TolerancePolicy().override(
            **{k: _as_number(v, f"tolerances.{k}", positive=True)
               for k, v in tol_cfg.items()})
    except KeyError as exc:
        raise ScenarioError(f"unknown tolerance key: {exc}") from exc

    checks = raw.get("checks", list(DEFAULT_CHECKS))
    if checks == "all":
        checks = list(DEFAULT_CHECKS)
    if (not isinstance(checks, list)
            or any(c not in DEFAULT_CHECKS for c in checks)):
        raise ScenarioError(
            f"checks must be a sub-list of {DEFAULT_CHECKS}")
    checks = [c for c in DEFAULT_CHECKS if c in checks]

    hamiltonian = None
    if "hamiltonian" in raw:
        hamiltonian = parse_operator(raw["hamiltonian"], "hamiltonian", dim)

    state, state_echo = _resolve_state(raw.get("state"), dim, hamiltonian,
                                       beta, tol)

    flow = None
    if hamiltonian is not None:
        try:
            flow = AutomorphismFlow(hamiltonian, beta=beta,
                                    convention=convention, tol=tol)
        except ToposKMSError as exc:
            raise ScenarioError(f"hamiltonian invalid: {exc}") from exc

    projections = raw.get("projections", {})
    if not isinstance(projections, dict):
        raise ScenarioError("projections must be an object")
    projections = {
        pname: parse_operator(spec, f"projection {pname}", dim)
        for pname, spec in projections.items()
    }

    seeds = _resolve_contexts(raw.get("contexts"), projections, dim, tol)

    poset_cfg = raw.get("poset", {})
    _known_keys(poset_cfg, POSET_KEYS, "poset")
    downward = _as_flag(poset_cfg.get("downward_closure", True),
                        "poset.downward_closure")
    meets = _as_flag(poset_cfg.get("meet_closure", True), "poset.meet_closure")
    group_closure = _as_flag(poset_cfg.get("group_closure", flow is not None),
                             "poset.group_closure")
    group_depth = _as_count(poset_cfg.get("group_depth", 1),
                            "poset.group_depth")
    max_contexts = _as_count(poset_cfg.get("max_contexts", 200),
                             "poset.max_contexts")

    group = None
    group_cfg = raw.get("group")
    if group_cfg is not None:
        _known_keys(group_cfg, GROUP_KEYS, "group")
        if flow is None:
            raise ScenarioError("group requires a hamiltonian")
        samples = [_as_number(t, "group.samples")
                   for t in _as_list(group_cfg.get("samples", []),
                                     "group.samples")]
        try:
            group = SampledGroup(flow, samples)
        except ToposKMSError as exc:
            raise ScenarioError(f"group grid invalid: {exc}") from exc

    t_grid = [_as_number(t, "t_grid")
              for t in _as_list(raw.get("t_grid", []), "t_grid")]
    r_queries = [_as_number(r, "r_queries")
                 for r in _as_list(raw.get("r_queries", []), "r_queries")]

    # group closure: the samples of the group, then once the poset has
    # closed under those, the flow at +-t for t in the grid
    phases = [[u for t, u in group.real_unitaries() if t != 0.0]
              if group_closure and group is not None else []]
    if group_closure and flow is not None and t_grid:
        phases.append([flow.unitary(t) for t in sorted(
            {*t_grid, *(-t for t in t_grid)}) if t != 0.0])
    try:
        poset = build_poset(
            seeds,
            downward_closure=downward,
            meet_closure=meets,
            unitaries=phases,
            group_depth=group_depth,
            max_contexts=max_contexts,
            tol=tol,
        )
        presheaf = SpectralPresheaf(poset)
    except ToposKMSError as exc:
        raise ScenarioError(f"poset construction failed: {exc}") from exc

    subobjects = _resolve_subobjects(raw.get("subobjects"), presheaf, group,
                                     projections, dim)

    pairs = raw.get("pairs")
    if pairs is None:
        names = sorted(subobjects)
        pairs = [[a, b] for a in names for b in names if a != b]
    for p in _as_list(pairs, "pairs"):
        if (not isinstance(p, list) or len(p) != 2
                or any(q not in subobjects for q in p)):
            raise ScenarioError(f"pair {p} references unknown subobjects")

    for key in ("c2_context", "truth_stage"):
        cid = raw.get(key)
        if cid is not None:
            try:
                poset.index_of(_as_string(cid, key))
            except ContextMissing as exc:
                raise ScenarioError(f"{key} {cid!r} not in poset") from exc
    c2_context = raw.get("c2_context")
    truth_stage = raw.get("truth_stage")

    resolved = {
        "name": name,
        "dim": dim,
        "seed": seed,
        "beta": beta,
        "convention": convention,
        "state": state_echo,
        "hamiltonian": raw.get("hamiltonian"),
        "projections": sorted(projections),
        "contexts": sorted(c.id for c in seeds),
        "poset": {
            "downward_closure": downward,
            "meet_closure": meets,
            "group_closure": group_closure,
            "group_depth": group_depth,
            "max_contexts": max_contexts,
            "size": len(poset.contexts),
        },
        "group": None if group is None else {
            "samples": group.samples,
        },
        "t_grid": t_grid,
        "r_queries": r_queries,
        "subobjects": sorted(subobjects),
        "pairs": pairs,
        "c2_context": c2_context,
        "truth_stage": truth_stage,
        "checks": checks,
        "tolerances": {k: getattr(tol, k) for k in tol.__dataclass_fields__},
    }

    return Scenario(
        resolved=resolved, name=name, dim=dim, seed=seed, beta=beta,
        convention=convention, tol=tol, checks=checks, state=state,
        hamiltonian=hamiltonian, flow=flow, group=group,
        projections=projections, seed_contexts=seeds, poset=poset,
        presheaf=presheaf, subobjects=subobjects, t_grid=t_grid,
        r_queries=r_queries, pairs=pairs, c2_context=c2_context,
        truth_stage=truth_stage,
    )
