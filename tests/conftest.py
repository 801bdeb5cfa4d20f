"""Shared fixtures: the three-level worked example and small reference posets."""
import math
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from toposkms.algebra import Context, build_poset, context_from_operators
from toposkms.kms_external import (
    AutomorphismFlow,
    flow_saturated_family,
    gibbs_state,
)
from toposkms.kms_internal import SampledGroup
from toposkms.measure import State
from toposkms.presheaf import SpectralPresheaf

settings.register_profile(
    "pkg",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pkg")

# five equally spaced flow samples closing the orbit of the example context
GRID5 = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi)

# rank-one projection onto (|1> + |2>)/sqrt(2)
P12SYM = np.array([
    [0.5, 0.5, 0.0],
    [0.5, 0.5, 0.0],
    [0.0, 0.0, 0.0],
])

# Boltzmann weights of exp(-diag(0, 1, 2)) after normalisation
GIBBS_WEIGHTS = (
    0.66524095577482087,
    0.24472847105479767,
    0.090030573170380462,
)
# (w1 + w2) / 2 for the weights above
GIBBS_MU_S1 = 0.4549847134148096


def diagonal_context(n, context_id):
    return Context([np.diag(row) for row in np.eye(n)], context_id)


def build_c3(state_matrix=None):
    """The worked three-level model: diagonal context, example context,
    five-sample flow group, closed poset, saturated sub-objects."""
    h = np.diag([0.0, 1.0, 2.0])
    beta = 1.0
    flow = AutomorphismFlow(h, beta=beta)
    if state_matrix is None:
        state = gibbs_state(h, beta)
    else:
        state = State(np.asarray(state_matrix))
    vdiag = diagonal_context(3, "Vdiag")
    vex = context_from_operators([P12SYM], "Vex")
    group = SampledGroup(flow, list(GRID5))
    poset = build_poset(
        [vdiag, vex],
        downward_closure=True,
        meet_closure=True,
        unitaries=[[u for t, u in group.real_unitaries() if t != 0.0]],
        group_depth=1,
    )
    psh = SpectralPresheaf(poset)
    pairs = group.real_unitaries()
    subs = {
        "S1": flow_saturated_family(psh, "Vex", {0}, pairs, "S1"),
        "S2": flow_saturated_family(psh, "Vex", {1}, pairs, "S2"),
        "S12": flow_saturated_family(psh, "Vex", {0, 1}, pairs, "S12"),
    }
    return SimpleNamespace(
        h=h,
        beta=beta,
        flow=flow,
        state=state,
        vdiag=vdiag,
        vex=vex,
        group=group,
        poset=poset,
        presheaf=psh,
        subs=subs,
        t_grid=(-2.0, -1.0, 0.5, 1.0, 2.0),
    )


@pytest.fixture(scope="session")
def scenario_dir():
    return pathlib.Path(__file__).resolve().parents[1] / "scripts" / "scenarios"


@pytest.fixture(scope="session")
def c3_gibbs():
    return build_c3()


@pytest.fixture(scope="session")
def c3_example():
    """Same geometry with the explicit diagonal state diag(0.5, 0.3, 0.2)."""
    return build_c3(np.diag([0.5, 0.3, 0.2]))


@pytest.fixture(scope="session")
def c3_pure():
    """Non-invariant pure superposition of the two lowest levels."""
    s = math.sqrt(0.5)
    vec = np.array([s, s, 0.0])
    return build_c3(np.outer(vec, vec))


@pytest.fixture(scope="session")
def diag4():
    """Downward-closed poset of diagonal contexts on C^4 (14 contexts)."""
    top = diagonal_context(4, "D4")
    poset = build_poset([top], downward_closure=True)
    return SimpleNamespace(poset=poset, presheaf=SpectralPresheaf(poset))


def random_unitary(rng, n):
    """Haar-ish random unitary: the Q factor of a complex Gaussian matrix."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def random_projection(rng, n, rank=None):
    """Haar-ish random projection of the given (or random proper) rank."""
    if rank is None:
        rank = int(rng.integers(1, n))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(g)
    cols = q[:, :rank]
    return cols @ cols.conj().T


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
