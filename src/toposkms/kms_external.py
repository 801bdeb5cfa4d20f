"""External KMS structure: one-parameter flows acting on the context
poset from outside, invariance of state measures (condition C1), the
analytic boundary condition (C2), and truth-object transport.

The flow alpha_t is conjugation by exp(itH).  Under the modular
convention the generator is read as the modular Hamiltonian of the
reference state at inverse temperature beta (Delta = exp(-beta H),
alpha_z = conjugation by Delta^(-iz/beta) = exp(izH)), so both
conventions act identically at equal generator; the flag travels with
the flow and is echoed in reports.

Condition C1 compares the measure of a sub-object at a context with its
value at the flowed context; C2 extends t -> tr(rho P_T alpha_t(P_S)) to
the strip 0 <= Im z <= beta and compares the upper boundary with the
order-swapped correlation.  Gibbs states at the flow temperature satisfy
both exactly.

Both checks evaluate in bulk.  AutomorphismFlow.conjugators gives
exp(izH) and exp(-izH) for a whole list of z as two stacks, and
correlations evaluates F(z) = tr(rho P_T alpha_z(P_S)) on all of them,
for one pair of components or a stack of pairs, in one product chain
associated as (rho P_T) ((L P_S) R).  So check_C2 takes its strip
points with z = 0 in one evaluation and its eigenfrequency series in
one broadcast, and boundary_residuals takes every t at once, which
internal C2 reuses over all the shared contexts and group samples
together.  Each slice is the product one point alone would give, and
moduli are taken by hypot as abs() takes them, so every residual is the
one the per-point evaluation gives (tests/oracles.py keeps that loop).
C1's consistency gap forms the dense component of each domain context
once and moves the contexts each t reads off the poset in one product.

A truth object lists its members at a stage as the rows of one mask
stack; its twist along a flow element pulls the whole stack back in one
gather, and the weak and strong equivalences compare the two stacks'
measure sections row by row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import context_from_operators
from .errors import (
    AmbiguousMatch,
    DomainMismatch,
    NotFaithful,
    NotHermitian,
    PosetNotClosed,
)
from .measure import FlowReport, State
from .numerics import (
    as_complex_matrix,
    dagger,
    frob,
    hermitian_eig,
    is_hermitian,
)
from .presheaf import (
    ClopenSubobject,
    SpectralPresheaf,
    block_sums,
    check_masks,
    complete_downward,
    dasein_indices,
    enumerate_subobjects,
    pullback,
)
from .tolerances import DEFAULT_TOL, TolerancePolicy

CONVENTIONS = ("hamiltonian", "modular")

# points of the strip 0 <= Im z <= beta where check_C2 matches the matrix
# evaluation of F against its eigenfrequency series
C2_STRIP_POINTS = 20


class AutomorphismFlow:
    """alpha_t = conjugation by exp(itH), extended entirely in t:
    alpha_z(a) = exp(izH) a exp(-izH) (conjugators).

    tol is the policy the generator was validated against; checks on the
    sampled group read it from here."""

    __slots__ = ("beta", "convention", "dim", "tol", "_eigvals", "_eigvecs")

    def __init__(self, h, beta: float = 1.0, convention: str = "hamiltonian",
                 tol: TolerancePolicy = DEFAULT_TOL):
        hm = as_complex_matrix(h)
        if not is_hermitian(hm, tol):
            raise NotHermitian("flow generator must be Hermitian")
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.beta = float(beta)
        self.convention = convention
        self.dim = hm.shape[0]
        self.tol = tol
        self._eigvals, self._eigvecs = hermitian_eig(hm, tol)

    def unitary(self, t: float) -> np.ndarray:
        u = self._eigvecs
        return (u * np.exp(1j * float(t) * self._eigvals)) @ dagger(u)

    def conjugators(self, zs):
        """(L, R): exp(izH) and exp(-izH) for each z of a list, as two
        (Z, n, n) stacks, so alpha_z(a) = L a R.  Each slice is the
        product one z alone gives; at a real t, L is unitary(t) bit for
        bit."""
        u, lam = self._eigvecs, self._eigvals
        z = np.asarray(zs, dtype=np.complex128).reshape(-1, 1)
        return ((u * np.exp(1j * z * lam)[:, None]) @ dagger(u),
                (u * np.exp(-1j * z * lam)[:, None]) @ dagger(u))


def gibbs_state(h, beta: float, tol: TolerancePolicy = DEFAULT_TOL) -> State:
    """exp(-beta H) / tr(exp(-beta H)), computed in the eigenbasis with
    the largest weight factored out for stability."""
    w, u = hermitian_eig(as_complex_matrix(h), tol)
    shifted = -beta * (w - w.min())
    weights = np.exp(shifted)
    weights = weights / weights.sum()
    return State((u * weights) @ dagger(u), tol)


def flow_saturated_family(presheaf: SpectralPresheaf, base_context_id: str,
                          base_indices, unitaries,
                          name: str = "") -> ClopenSubobject:
    """The flow-equivariant sub-object generated by a block set.

    Each (t, U) carries the base component to the poset context equal to
    U V U* through the block correspondence Q_i -> U Q_i U*
    (SpectralPresheaf.action); the result is completed downward.  A base
    index out of range raises DomainMismatch; two group elements landing
    on the same context must induce the same component (DomainMismatch
    otherwise), and every image must already belong to the poset
    (PosetNotClosed otherwise).
    """
    poset = presheaf.poset
    chars, base = presheaf.mask_of({base_context_id: base_indices})
    i = poset.index_of(base_context_id)
    assignments = {}
    seen_from = {}
    pairs = [(0.0, np.eye(poset.contexts[i].dim))]
    pairs += [(float(t), u) for t, u in unitaries]
    for t, u in pairs:
        target, to = presheaf.action(u, base)
        if target[i] < 0:
            raise PosetNotClosed(
                f"orbit of {base_context_id} leaves the poset at t={t!r}"
            )
        target_id = poset.contexts[target[i]].id
        component = frozenset(
            (to[chars] - presheaf.offsets[target[i]]).tolist())
        if target_id in assignments:
            if assignments[target_id] != component:
                raise DomainMismatch(
                    f"inconsistent components at {target_id} reached from "
                    f"t={seen_from[target_id]!r} and t={t!r}"
                )
        else:
            assignments[target_id] = component
            seen_from[target_id] = t
    sub = complete_downward(presheaf, assignments, name=name)
    sub.flow_equivariant = True
    return sub


# --------------------------------------------------------------------------
# condition C1


def check_C1(state: State, flow: AutomorphismFlow, sub: ClopenSubobject,
             t_grid) -> FlowReport:
    """Invariance of the measure under the flow.

    At each parameter t and context V of the domain of S the two sides
    are
        lhs = tr(rho P_{S_V})        rhs = tr(rho P_{S at alpha_t V}),
    both block-weight sums (ClopenSubobject.orbit).  ClopenSubobject.moved
    reads the flowed component from the poset (on_poset) when the moved
    context is in the domain of S; otherwise, for flow-equivariant
    families, whose flowed component is U_t P_{S_V} U_t*, rhs =
    tr(U_t* rho U_t P_{S_V}) (the "direct" path).  When both routes
    exist, the Frobenius distance between the two projections is
    reported as the consistency gap: the dense component of each domain
    context is formed once, and each t moves all the contexts it reads
    off the poset in one stacked product.
    """
    ph = sub.presheaf
    poset = ph.poset
    ids = poset.ids(sub.domain)
    unitaries = [flow.unitary(t) for t in t_grid]
    here, rhs, on_poset = sub.orbit(state.matrix, unitaries)

    gap = 0.0
    if sub.flow_equivariant and on_poset.any():
        dense = _projections(sub, ids)
        # the position of each poset context among the domain's
        at = np.cumsum(sub.domain) - 1
        inside = np.flatnonzero(sub.domain)
        for u, hits in zip(unitaries, on_poset):
            if hits.any():
                target = ph.action(u, sub.domain)[0][inside[hits]]
                moved = (u @ dense[hits]) @ dagger(u)
                gap = max(gap, *map(frob, dense[at[target]] - moved))
    return FlowReport(t_grid, ids, here, rhs,
                      on_poset=on_poset, consistency_gap=gap)


# --------------------------------------------------------------------------
# condition C2


@dataclass
class C2Report:
    context_id: str
    beta: float
    convention: str
    max_boundary_residual: float  # F(t + i beta) vs the swapped order
    max_strip_gap: float          # matrix vs eigenseries in the strip
    f_at_zero: complex


def _eigenseries_coefficients(state: State, flow: AutomorphismFlow, ps, pt):
    """F(z) = sum_{k,l} c_kl exp(i z (lam_k - lam_l)) in the eigenbasis
    of the generator; returns (frequencies, coefficients) flattened."""
    u = flow._eigvecs
    lam = flow._eigvals
    rho_t = dagger(u) @ state.matrix @ u
    ps_t = dagger(u) @ ps @ u
    pt_t = dagger(u) @ pt @ u
    a = rho_t @ pt_t
    # entry (k, l): frequency lam_k - lam_l, coefficient a_lk (ps_t)_kl
    return (lam[:, None] - lam[None, :]).ravel(), (a.T * ps_t).ravel()


def eigenseries(state: State, flow: AutomorphismFlow, ps, pt,
                zs) -> np.ndarray:
    """F at each z of a list by its eigenfrequency series, one
    broadcast over (z, frequency)."""
    freqs, coeffs = _eigenseries_coefficients(state, flow, ps, pt)
    z = np.asarray(zs, dtype=np.complex128).reshape(-1, 1)
    return (coeffs * np.exp(1j * z * freqs)).sum(axis=-1)


def _projections(sub: ClopenSubobject, context_ids) -> np.ndarray:
    """P_{S_V}, the dense sum of the blocks of S_V, at each context of a
    list of ids, as one (m, n, n) stack."""
    poset = sub.presheaf.poset
    n = poset.index.dim
    return np.reshape([poset.context(cid).block_sum(sub.component(cid))
                       for cid in context_ids], (-1, n, n))


def _modulus(d) -> np.ndarray:
    """|d| of each complex entry by hypot, as abs() of one Python complex
    takes it; NumPy's vectorised complex abs can differ in the last bit."""
    return np.hypot(d.real, d.imag)


def correlations(state: State, ps, pt, left, right) -> np.ndarray:
    """F = tr(rho P_T L P_S R) for each pair (P_S, P_T) of two stacks
    (..., n, n), or of one pair, and each conjugator pair of the (Z, n, n)
    stacks of AutomorphismFlow.conjugators, as (..., Z): one product
    chain, associated as (rho P_T) ((L P_S) R)."""
    moved = (left @ ps[..., None, :, :]) @ right
    return np.trace((state.matrix @ pt)[..., None, :, :] @ moved,
                    axis1=-2, axis2=-1)


def boundary_residuals(state: State, flow: AutomorphismFlow, ps, pt,
                       t_samples) -> np.ndarray:
    """For each real t of a list, the gap between the two sides of the
    boundary condition, |F(t + i beta) - tr(rho alpha_t(P_S) P_T)| with
    F(z) = tr(rho P_T alpha_z(P_S)), at one pair of dense projections or
    along two stacks of them (..., n, n), as (..., T).  One conjugators
    call gives both sides: F at every t + i beta is one stacked product
    chain, and so is U_t P_S U_t* with U_t = exp(itH).  Callers refuse a
    state that is not faithful."""
    ts = np.array([float(t) for t in t_samples])
    left, right = flow.conjugators(np.concatenate([ts + 1j * flow.beta, ts]))
    upper = correlations(state, ps, pt, left[:len(ts)], right[:len(ts)])
    u = left[len(ts):]
    flowed = (u @ ps[..., None, :, :]) @ dagger(u)
    swapped = np.trace((state.matrix @ flowed) @ pt[..., None, :, :],
                       axis1=-2, axis2=-1)
    return _modulus(upper - swapped)


def check_C2(state: State, flow: AutomorphismFlow, sub_s: ClopenSubobject,
             sub_t: ClopenSubobject, context_id: str, t_samples) -> C2Report:
    """Two-point boundary condition at a context.

    F(z) = tr(rho P_{T_V} alpha_z(P_{S_V})) is entire; the check compares
    F(t + i beta) against tr(rho alpha_t(P_{S_V}) P_{T_V}) on the sample
    grid (boundary_residuals), and witnesses analyticity by matching the
    matrix evaluation against the closed-form eigenfrequency series at
    C2_STRIP_POINTS points of the strip 0 <= Im z <= beta.  The strip
    points and z = 0 (f_at_zero) take one stacked evaluation of F
    (correlations), and the series one broadcast.  The state must be
    faithful.
    """
    if not state.is_faithful():
        raise NotFaithful("boundary comparison requires a faithful state")
    [ps], [pt] = (_projections(sub, [context_id]) for sub in (sub_s, sub_t))
    boundary = boundary_residuals(state, flow, ps, pt, t_samples)
    beta = flow.beta

    ts = [float(t) for t in t_samples] or [0.0]
    t_lo, t_hi = min(ts), max(ts)
    if t_hi - t_lo < 1e-12:
        t_lo, t_hi = t_lo - 1.0, t_hi + 1.0
    half = C2_STRIP_POINTS // 2
    zs = []
    for i in range(C2_STRIP_POINTS):
        if i < half:
            frac = i / max(half - 1, 1)
            zs.append(complex(t_lo + (t_hi - t_lo) * frac, beta * frac))
        else:
            frac = (i - half) / max(C2_STRIP_POINTS - half - 1, 1)
            zs.append(complex(t_lo + (t_hi - t_lo) * frac, beta / 2.0))
    f = correlations(state, ps, pt, *flow.conjugators(zs + [0.0]))
    series = eigenseries(state, flow, ps, pt, zs)

    return C2Report(
        context_id=context_id,
        beta=beta,
        convention=flow.convention,
        max_boundary_residual=float(boundary.max(initial=0.0)),
        max_strip_gap=float(_modulus(f[:-1] - series).max(initial=0.0)),
        f_at_zero=complex(f[-1]),
    )


# --------------------------------------------------------------------------
# truth objects


@dataclass(frozen=True)
class StageVR:
    context_id: str
    r: float


class TruthObject:
    """T^{rho,r}_V: clopen sub-objects of Sigma|_(down V) whose measure
    stays >= r on the whole lower set.  Membership thresholds are exact:
    tau(S, V) = min_{V' <= V} mu(S)(V') and S is in iff tau >= r.  The
    members at a stage are the rows of one read-only mask stack on the
    lower set of V (enumerate_subobjects, pruned as it goes), kept per
    stage."""

    def __init__(self, state: State, presheaf: SpectralPresheaf):
        self.presheaf = presheaf
        self.weights = presheaf.weights(state.matrix)
        self._members = {}

    def tau(self, sub: ClopenSubobject, context_id: str) -> float:
        poset = self.presheaf.poset
        below = poset.leq[:, poset.index_of(context_id)]
        if (below & ~sub.domain).any():
            raise DomainMismatch(
                f"sub-object is not defined on the lower set of {context_id}"
            )
        return float(sub.measure(self.weights)[below].min())

    def contains(self, sub: ClopenSubobject, stage: StageVR) -> bool:
        return self.tau(sub, stage.context_id) >= stage.r

    def members_at(self, stage: StageVR) -> np.ndarray:
        if stage not in self._members:
            rows = enumerate_subobjects(self.presheaf, stage.context_id,
                                        self.weights, stage.r)
            rows.flags.writeable = False
            self._members[stage] = rows
        return self._members[stage]


class TwistedTruthObject:
    """The truth object transported along a flow element: members at
    (V, r) are the pullbacks of the members at (alpha_t V, r)."""

    def __init__(self, base: TruthObject, unitary):
        self.base = base
        self.unitary = np.asarray(unitary, dtype=np.complex128)
        self.presheaf = base.presheaf

    def members_at(self, stage: StageVR) -> np.ndarray:
        """One action of the unitary on the stage's lower set gives the
        moved stage context, and one gather pulls every member back."""
        poset = self.presheaf.poset
        i = poset.index_of(stage.context_id)
        domain = poset.leq[:, i]
        target = self.presheaf.action(self.unitary, domain)[0][i]
        if target < 0:
            raise PosetNotClosed(
                f"stage context {stage.context_id} flows out of the poset"
            )
        moved = StageVR(poset.contexts[target].id, stage.r)
        return pullback(self.presheaf, self.unitary,
                        self.base.members_at(moved), poset.leq[:, target],
                        domain)


def twist(truth: TruthObject, flow: AutomorphismFlow, t: float) -> TwistedTruthObject:
    return TwistedTruthObject(truth, flow.unitary(t))


# --------------------------------------------------------------------------
# truth values as cutoff tables


def check_truth_value_invariance(state: State, flow: AutomorphismFlow, ps,
                                 stages, presheaf: SpectralPresheaf, t_grid
                                 ) -> list:
    """Compare, for each projection p of a list and each stage (V, r) of
    a list of StageVR, the cutoff table of p with the table of the flowed
    proposition at the flowed stage, pulled back through the flow.
    Returns one list per projection of one FlowReport per stage, in order.

    The table is V' -> min(r, mu of the outer daseinisation of p at V'),
    over the lower set of the stage context, daseinised under the
    presheaf's policy (lhs).  The transported table is V' -> min(r,
    tr(rho U_t d(p)_{V'} U_t*)), the table of the state U_t* rho U_t on
    the same daseinised mask (rhs, one row per t).  Each projection is
    daseinised once, and the weights of rho and of each moved state are
    read once, on the lower sets of all the stages.  The daseinised
    masks cut to each stage's lower set are one (projection, stage,
    characters) stack, validated by one check_masks call and measured
    by one sections call."""
    poset = presheaf.poset
    below = poset.leq[:, [poset.index_of(stage.context_id)
                          for stage in stages]]
    weights = presheaf.weights(
        np.array([state.matrix] + [dagger(u) @ state.matrix @ u
                                   for u in map(flow.unitary, t_grid)]),
        below.any(axis=1))
    masks = presheaf.dasein_masks(ps)[:, None] & below.T[:, presheaf.owner]
    check_masks(presheaf, masks, below.T)
    sections = presheaf.sections(masks[:, :, None], weights)
    reports = []
    for secs in sections:
        reports.append([])
        for stage, inside, sec in zip(stages, below.T, secs):
            cutoffs = np.minimum(float(stage.r), sec[:, inside])
            reports[-1].append(FlowReport(t_grid, poset.ids(inside),
                                          cutoffs[0], cutoffs[1:]))
    return reports


# --------------------------------------------------------------------------
# mu-equivalence of truth objects


def _stage_sections(weights, truth, stage: StageVR):
    """(members, sections): the member rows of a truth object at a stage
    and their measures on the lower set of the stage context, one
    (N, lower set) array (SpectralPresheaf.sections)."""
    poset = truth.presheaf.poset
    rows = truth.members_at(stage)
    below = poset.leq[:, poset.index_of(stage.context_id)]
    return rows, truth.presheaf.sections(rows, weights)[:, below]


@dataclass
class MuEquivalenceResult:
    equivalent: bool
    stage: StageVR
    max_gap: float
    size_a: int
    size_b: int


def mu_equivalent(state: State, truth_a, truth_b,
                  stage: StageVR) -> MuEquivalenceResult:
    """Weak equivalence at a stage: the multisets of measure sections of
    the two member stacks coincide within the state's eps_measure (some
    bijection preserves sections; ties allowed).  Each member of A in
    turn takes the unused member of B with the nearest section (the
    first on ties), the largest difference over the lower set."""
    eps = state.tol.eps_measure
    weights = truth_a.presheaf.weights(state.matrix)
    _, secs_a = _stage_sections(weights, truth_a, stage)
    _, secs_b = _stage_sections(weights, truth_b, stage)
    sizes = len(secs_a), len(secs_b)
    if sizes[0] != sizes[1]:
        return MuEquivalenceResult(False, stage, float("inf"), *sizes)
    unused = np.ones(len(secs_b), dtype=bool)
    worst = 0.0
    for sa in secs_a:
        gaps = np.where(unused, np.abs(secs_b - sa).max(axis=1), np.inf)
        j = int(gaps.argmin())
        if gaps[j] > eps:
            return MuEquivalenceResult(False, stage, float(gaps[j]), *sizes)
        unused[j] = False
        worst = max(worst, float(gaps[j]))
    return MuEquivalenceResult(True, stage, worst, *sizes)


@dataclass
class StrongMuEquivalenceResult:
    equivalent: bool
    matchings: dict          # stage -> list of (index in A, index in B)
    naturality_gap: int      # number of squares that fail to commute


def strong_mu_equivalence(state: State, truth_a, truth_b,
                          stages) -> StrongMuEquivalenceResult:
    """Strong equivalence: at every stage the measure sections match the
    members of the two truth objects one-to-one, within the state's
    eps_measure (AmbiguousMatch if some section is shared by several
    distinct member rows), and the induced matching commutes with
    restriction of stages to smaller contexts: the restricted rows of a
    matched pair at the larger stage, looked up by their mask bytes,
    must be matched at the smaller one."""
    eps = state.tol.eps_measure
    presheaf = truth_a.presheaf
    weights = presheaf.weights(state.matrix)
    matchings = {}
    members = {}
    for stage in stages:
        ma, secs_a = _stage_sections(weights, truth_a, stage)
        mb, secs_b = _stage_sections(weights, truth_b, stage)
        members[stage] = (ma, mb)
        if len(ma) != len(mb):
            return StrongMuEquivalenceResult(False, matchings, 0)
        pairing = []
        taken = set()
        for i, sa in enumerate(secs_a):
            hits = np.flatnonzero(np.abs(secs_b - sa).max(axis=1) <= eps)
            if not hits.size:
                return StrongMuEquivalenceResult(False, matchings, 0)
            if len({mb[j].tobytes() for j in hits}) > 1:
                raise AmbiguousMatch(
                    f"measure section of member {i} at stage "
                    f"({stage.context_id}, r={stage.r}) matches "
                    f"{len(hits)} distinct members",
                    stage=stage,
                    candidates=[mb[j] for j in hits],
                )
            j = int(hits[0])
            if j in taken:
                return StrongMuEquivalenceResult(False, matchings, 0)
            taken.add(j)
            pairing.append((i, j))
        matchings[stage] = pairing

    # naturality: restriction of stages commutes with the matching
    poset = presheaf.poset
    bad = 0
    for big in stages:
        for small in stages:
            if big == small or big.r != small.r:
                continue
            lo, hi = (poset.index_of(x.context_id) for x in (small, big))
            if not poset.leq[lo, hi]:
                continue
            keep = poset.leq[presheaf.owner, lo]
            ma_big, mb_big = members[big]
            ma_small, mb_small = members[small]
            match_small = dict(matchings[small])
            # first index of each row, as list.index would give
            index_small_a = {}
            for ia, row in enumerate(ma_small):
                index_small_a.setdefault(row.tobytes(), ia)
            for i, j in matchings[big]:
                ra, rb = ((m & keep).tobytes() for m in (ma_big[i], mb_big[j]))
                jb = match_small.get(index_small_a.get(ra))
                if jb is None or mb_small[jb].tobytes() != rb:
                    bad += 1
    return StrongMuEquivalenceResult(bool(bad == 0), matchings, bad)


# --------------------------------------------------------------------------
# expectation values through daseinisation


@dataclass
class ExpectationResult:
    value: float              # sum_i a_i min_V mu(d(P_i))(V)
    trace_value: float        # tr(rho A)
    eigenvalues: list
    inserted_context: bool

    @property
    def residual(self) -> float:
        return abs(self.value - self.trace_value)


def _spectral_projections(a, tol: TolerancePolicy):
    from .algebra import _cluster

    am = as_complex_matrix(a)
    w, u = hermitian_eig(am, tol)
    scale = max(1.0, float(np.max(np.abs(w))))
    groups = _cluster(w, tol.eps_eig * scale)
    out = []
    for idx in groups:
        cols = u[:, idx]
        out.append((float(np.mean(w[idx])), cols @ dagger(cols)))
    return out


def expectation_value(a, state: State,
                      presheaf: SpectralPresheaf) -> ExpectationResult:
    """Expectation of a Hermitian operator recovered from measures of
    outer approximations: each spectral projection P contributes its
    eigenvalue times the minimum of mu(d(P)) over the presheaf's contexts,
    under its thresholds, and, unless one equals it, the operator's
    eigencontext, where tr(rho P) is attained, under the state's."""
    tol = state.tol
    am = as_complex_matrix(a)
    if not is_hermitian(am, tol):
        raise NotHermitian("expectation values need a Hermitian operator")
    spectral = _spectral_projections(am, tol)
    trace_value = float(np.real(np.trace(state.matrix @ am)))
    if len(spectral) == 1:
        return ExpectationResult(value=spectral[0][0],
                                 trace_value=trace_value,
                                 eigenvalues=[spectral[0][0]],
                                 inserted_context=False)
    eigctx = context_from_operators([am], context_id="eig", tol=tol)
    inserted = presheaf.poset.find_equal(eigctx) is None
    weights = presheaf.weights(state.matrix)
    least = presheaf.sections(presheaf.dasein_masks(
        [proj for _, proj in spectral]), weights).min(axis=-1)
    total = 0.0
    for (eigval, proj), best in zip(spectral, least):
        if inserted:
            best = min(best, block_sums(eigctx.weights(state.matrix)[
                list(dasein_indices(proj, eigctx, tol))]))
        total += eigval * float(best)
    return ExpectationResult(value=total, trace_value=trace_value,
                             eigenvalues=[e for e, _ in spectral],
                             inserted_context=inserted)
