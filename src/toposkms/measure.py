"""States, measures on clopen sub-objects, and state reconstruction.

A density matrix assigns to each clopen sub-object the section
V -> tr(rho * P_{S_V}); these sections are order-reversing because outer
restriction only grows the supporting projection.  Every such value is
read off the block weights of the state, tr(rho P_{S_V}) =
sum_{i in S_V} tr(rho Q_i), without forming P_{S_V}: the weights of every
context lie on the presheaf's flat character axis
(SpectralPresheaf.weights), and ClopenSubobject.measure sums them over
the sub-object's mask at all contexts at once.  A moved projection is
handled by moving the state instead, tr(rho U P U*) = tr(U* rho U P),
through SpectralPresheaf.action and ClopenSubobject.moved.  A measure
table is three arrays on the same axis (AbstractMeasure), and the
converse direction recovers a density matrix from one by least squares
over rho = I/n + sum_k c_k B_k: its values, the design matrix (the block
weights of the traceless Hermitian basis B_k), the ranks and the fit
residual are all sums over each row's bits, added as block_sums adds.

The measure axioms are checked on one stacked mask array: the pairs
(S, T) come as mask and domain arrays, no pair is a ClopenSubobject,
and each pair is a row of S, T, S ^ T, S v T, ~S, S ^ ~S and S v ~S;
all seven rows are checked as sub-objects in one pass (check_masks),
and every measure, the full and empty sub-objects' as an all-ones and
an all-zeros row, comes from one SpectralPresheaf.sections call; a
flow's moved states have their weights read in one stacked weights
call.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContextMissing,
    DimMismatch,
    DomainMismatch,
    Infeasible,
    InconsistentTable,
    NotAdditive,
    NotAState,
)
from .index import tiles
from .numerics import as_complex_matrix, dagger, is_hermitian
from .presheaf import (
    ClopenSubobject,
    SpectralPresheaf,
    _ragged,
    check_masks,
)
from .tolerances import DEFAULT_TOL, TolerancePolicy


class State:
    """Density matrix: Hermitian, unit trace, positive semi-definite.

    tol is the policy the matrix was validated against; checks on the
    state (faithfulness, the modular data) read it from here."""

    __slots__ = ("matrix", "dim", "eigenvalues", "tol")

    def __init__(self, matrix, tol: TolerancePolicy = DEFAULT_TOL):
        m = as_complex_matrix(matrix)
        if not is_hermitian(m, tol):
            raise NotAState("density matrix must be Hermitian")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > tol.eps_eig:
            raise NotAState(f"trace is {tr!r}, expected 1")
        w = np.linalg.eigvalsh(m)
        if w[0] < -tol.eps_eig:
            raise NotAState(f"negative eigenvalue {w[0]!r}")
        self.matrix = m
        self.matrix.setflags(write=False)
        self.dim = m.shape[0]
        self.eigenvalues = w
        self.tol = tol

    def is_faithful(self) -> bool:
        return bool(self.eigenvalues[0] > self.tol.eps_eig)

    @classmethod
    def pure(cls, vector, tol: TolerancePolicy = DEFAULT_TOL) -> "State":
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise NotAState("zero vector")
        v = v / nrm
        return cls(np.outer(v, v.conj()), tol)


def measure_of(state: State, sub: ClopenSubobject) -> dict:
    """mu(S) of the state, context id -> tr(rho * P_{S_V}), over the
    sub-object domain in index order."""
    values = sub.measure(sub.presheaf.weights(state.matrix))[sub.domain]
    return dict(zip(sub.presheaf.poset.ids(sub.domain), values.tolist()))


@dataclass
class MeasurePropertyReport:
    normalization: float
    empty: float
    monotonicity: float
    modularity: float
    order_reversal: float
    complement_meet: float
    strictness_witness: float  # largest observed 1 - mu(S v ~S); > 0 = strict
    pairs_checked: int
    passed: bool


def _worst(values, start: float) -> float:
    """Largest of start and the values, NaN (outside a domain) ignored."""
    return float(np.fmax.reduce(np.ravel(values), initial=start))


def verify_measure_properties(state: State, presheaf: SpectralPresheaf,
                              masks, domains) -> MeasurePropertyReport:
    """Check the measure axioms on a stack of sub-object pairs.

    masks (pairs, 2, characters) and domains (pairs, 2, contexts) hold
    each pair (S, T) as two rows.  For each pair: normalization of the
    full/empty sub-objects, monotonicity through meet and join, the
    modular law mu(SvT) + mu(S^T) = mu(S) + mu(T) stage-wise,
    order-reversal of every section, and the complement laws
    mu(S ^ ~S) = 0, mu(S v ~S) <= 1 (recording how far below 1 the join
    gets), each within the presheaf's eps_measure.  A pair's domains
    must be equal (DomainMismatch).

    The pairs are one stack of masks (pairs, 7, characters): S, T, S ^ T,
    S v T, ~S, S ^ ~S and S v ~S, the Heyting negation ~S a scatter
    over the restriction edges in slices of pairs.  All seven rows are
    checked as clopen sub-objects in pair order (check_masks), and every
    measure, the full and empty sub-objects' (an all-ones and an
    all-zeros row) too, is read from one sections call under one set of
    flat block weights of the state.  Each residual is an np.fmax
    reduction, NaN (outside a domain) ignored, order reversal's folded
    over slices of strict pairs; every slice holds at most SLICE_BYTES.
    The normalization residual is raised to max mu(S v ~S) - 1 when some
    pair exceeds 1 + eps_measure.
    """
    ph = presheaf
    eps = ph.tol.eps_measure
    s, t = np.asarray(masks, dtype=bool).reshape(
        -1, 2, len(ph.owner)).transpose(1, 0, 2)
    domains, other = np.asarray(domains, dtype=bool).reshape(
        -1, 2, len(ph.poset)).transpose(1, 0, 2)
    n_pairs = len(s)
    unequal = (domains != other).any(axis=1)
    hit = s.copy()
    # 25 bytes a (pair, edge): the gathered mask and three index arrays
    for part, _ in tiles(n_pairs, 1, 25 * len(ph.dst)):
        rows, edges = np.nonzero(s[part, ph.dst])
        hit[part][rows, ph.src[edges]] = True
    neg = domains[:, ph.owner] & ~hit
    stack = np.stack([s, t, s & t, s | t, neg, s & neg, s | neg], axis=1)
    # the first pair with unequal domains, unless a row of an earlier
    # pair fails first
    first = int(unequal.argmax()) if unequal.any() else n_pairs
    check_masks(ph, stack[:first], domains[:first, None])
    if first < n_pairs:
        raise DomainMismatch("meet needs equal domains")

    whole = np.ones(len(ph.owner), dtype=bool)
    mu = ph.sections(np.concatenate([stack.reshape(-1, len(ph.owner)),
                                     [whole, ~whole]]),
                     ph.weights(state.matrix))
    full_mu, empty_mu = mu[-2], mu[-1]
    ms, mt, mmeet, mjoin, _, mneg_meet, mneg_join = np.where(
        domains[:, None], mu[:-2].reshape(stack.shape[:2] + (len(ph.poset),)),
        np.nan).transpose(1, 0, 2)
    small, large = ph.poset.strict_pairs.T
    sections = np.stack([ms, mt, mmeet, mjoin])

    res_norm = _worst(np.abs(full_mu - 1.0), 0.0)
    if (mneg_join > 1.0 + eps).any():
        res_norm = max(res_norm, _worst(mneg_join, 0.0) - 1.0)
    res_empty = _worst(np.abs(empty_mu), 0.0)
    res_mono = _worst([mmeet - ms, mmeet - mt, ms - mjoin, mt - mjoin], 0.0)
    res_mod = _worst(np.abs(mjoin + mmeet - ms - mt), 0.0)
    res_rev = 0.0
    # 24 bytes a (section, strict pair): two gathers and their difference
    for part, _ in tiles(len(large), 1, 24 * sections[..., 0].size):
        res_rev = _worst(sections[..., large[part]]
                         - sections[..., small[part]], res_rev)
    res_cmeet = _worst(np.abs(mneg_meet), 0.0)
    strict = _worst(1.0 - mneg_join, 0.0)

    passed = max(res_norm, res_empty, res_mono, res_mod, res_rev,
                 res_cmeet) <= eps
    return MeasurePropertyReport(
        normalization=res_norm, empty=res_empty, monotonicity=res_mono,
        modularity=res_mod, order_reversal=res_rev,
        complement_meet=res_cmeet,
        strictness_witness=strict, pairs_checked=n_pairs, passed=passed,
    )


@dataclass
class FlowReport:
    """A flow check over (samples, contexts): row k of lhs and rhs
    belongs to the parameter samples[k], column j to the domain context
    context_ids[j], in poset index order.  External C1 also records
    where rhs was read off the poset (on_poset) and the poset lookup vs
    direct evaluation gap; internal C1 reads the spread of rhs over the
    samples.  A row of lhs is broadcast over the samples."""

    samples: np.ndarray
    context_ids: list
    lhs: np.ndarray
    rhs: np.ndarray
    on_poset: np.ndarray | None = None
    consistency_gap: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        self.lhs = np.broadcast_to(self.lhs, self.rhs.shape)

    @property
    def residuals(self) -> np.ndarray:
        return np.abs(self.lhs - self.rhs)

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max(initial=0.0))

    @property
    def spreads(self) -> np.ndarray:
        """max - min of rhs over the samples, per context."""
        return self.rhs.max(axis=0) - self.rhs.min(axis=0)

    def spread_on(self, context_ids) -> float:
        """The largest spread at the given contexts."""
        keep = set(context_ids)
        inside = np.array([c in keep for c in self.context_ids], dtype=bool)
        return float(self.spreads[inside].max(initial=0.0))

    @property
    def max_spread(self) -> float:
        return self.spread_on(self.context_ids)


def group_action_check(state: State, flow, sub: ClopenSubobject,
                       t_values) -> FlowReport:
    """Compare the pulled-back measure with the measure of the moved state.

    For each context V and parameter t the two sides are
        lhs = tr(rho * U_t'* P_{S at U_t V U_t*} U_t)
        rhs = tr(U_t rho U_t* * P_{S_V})
    which agree for every sub-object exactly when the state is invariant
    under the flow.  Both are block-weight sums of rho_t = U_t rho U_t*:
    lhs at the moved context (ClopenSubobject.moved, whose pulled state
    U_t* rho_t U_t is rho itself).  The weights of every rho_t are read
    in one stacked SpectralPresheaf.weights call.
    """
    ph = sub.presheaf
    us = [flow.unitary(t) for t in t_values]
    rhs = sub.measure(ph.weights(np.reshape(
        [u @ state.matrix @ dagger(u) for u in us],
        (-1,) + state.matrix.shape)))
    lhs = [sub.moved(moved, ph.action(u, sub.domain)[0], state.matrix)[0]
           for u, moved in zip(us, rhs)]
    return FlowReport(t_values, ph.poset.ids(sub.domain),
                      np.reshape(lhs, rhs.shape)[:, sub.domain],
                      rhs[:, sub.domain])


# --------------------------------------------------------------------------
# abstract measures and reconstruction


def _row_sums(presheaf: SpectralPresheaf, contexts, subsets,
              weights) -> np.ndarray:
    """For each table row, the flat weights (..., characters) at the
    slots of its context whose bit is set in its subset, added left to
    right as block_sums adds: (..., rows), one slot at a time."""
    start = presheaf.offsets[contexts]
    total = None
    for s in range(presheaf.width):
        term = np.take(weights, start + s, axis=-1, mode="clip")
        term[..., (subsets >> s) & 1 == 0] = 0.0
        total = term if total is None else np.add(total, term, out=total)
    return total


@dataclass
class AbstractMeasure:
    """A measure table as parallel arrays: row r gives values[r] to the
    character subset with bitmask subsets[r] of context contexts[r].

    Construction checks, each for its first failing row: the context, the
    bitmask and the value in [0, 1]; full sets at 1 and empty sets at 0,
    within eps_measure; additivity to 10 eps_measure over the disjoint
    pairs of rows of one context whose union is a row (contexts by first
    row)."""

    presheaf: SpectralPresheaf
    contexts: np.ndarray
    subsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        poset, eps = self.presheaf.poset, self.presheaf.tol.eps_measure
        self.contexts = np.asarray(self.contexts, dtype=np.intp)
        self.subsets = np.asarray(self.subsets, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        missing = (self.contexts < 0) | (self.contexts >= len(poset))
        ks = np.diff(self.presheaf.offsets)[np.where(missing, 0, self.contexts)]
        wide = (self.subsets < 0) | (self.subsets >> ks != 0)
        bad = missing | wide | (self.values < -eps) | (self.values > 1 + eps)
        if bad.any():
            r = int(bad.argmax())
            if missing[r]:
                raise ContextMissing(
                    f"no context with index {int(self.contexts[r])}")
            if wide[r]:
                raise DimMismatch("character index out of range for "
                                  f"{poset.contexts[self.contexts[r]].id}")
            raise NotAdditive(f"value {float(self.values[r])!r} outside [0, 1]")
        full = self.subsets == (1 << ks) - 1
        bad = ((full & (np.abs(self.values - 1.0) > eps))
               | ((self.subsets == 0) & (np.abs(self.values) > eps)))
        if bad.any():
            r = int(bad.argmax())
            raise NotAdditive(f"{'full' if full[r] else 'empty'} set at "
                              f"{poset.contexts[self.contexts[r]].id} has "
                              f"value {float(self.values[r])!r}")
        order = np.argsort(self.contexts, kind="stable")
        cuts = np.flatnonzero(np.diff(self.contexts[order])) + 1
        for rows in sorted(np.split(order, cuts) if order.size else [],
                           key=lambda g: g[0]):
            s, v = self.subsets[rows], self.values[rows]
            a, b = np.triu_indices(len(rows), 1)
            union = s[a] | s[b]
            # the first row of each union, if any: a search in s sorted stably
            by_s = np.argsort(s, kind="stable")
            u = by_s[np.searchsorted(s, union, sorter=by_s).clip(max=len(s) - 1)]
            fails = (((s[a] & s[b]) == 0) & (s[u] == union)
                     & (np.abs(v[u] - v[a] - v[b]) > 10 * eps))
            if fails.any():
                i = int(fails.argmax())
                left, right = (np.flatnonzero(x >> np.arange(ks[rows[0]]) & 1)
                               .tolist() for x in (s[a[i]], s[b[i]]))
                raise NotAdditive("additivity fails at "
                                  f"{poset.contexts[self.contexts[rows[0]]].id}: "
                                  f"{left} + {right}")


def measure_table_of_state(state: State,
                           presheaf: SpectralPresheaf) -> AbstractMeasure:
    """The full measure table of a state: every character subset of every
    context, contexts in index order and subsets by increasing bitmask."""
    sizes = 1 << np.diff(presheaf.offsets)
    contexts, subsets = np.repeat(np.arange(len(sizes)), sizes), _ragged(sizes)
    return AbstractMeasure(presheaf, contexts, subsets,
                           _row_sums(presheaf, contexts, subsets,
                                     presheaf.weights(state.matrix)))


def _traceless_hermitian_basis(n: int):
    """Generalized Gell-Mann matrices: an orthogonal basis of traceless
    Hermitian n x n matrices (n^2 - 1 elements)."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            for upper, lower in ((1.0, 1.0), (-1.0j, 1.0j)):
                m = np.zeros((n, n), dtype=np.complex128)
                m[i, j], m[j, i] = upper, lower
                basis.append(m)
    for l in range(1, n):
        m = np.diag(np.r_[np.ones(l), -float(l), np.zeros(n - l - 1)])
        basis.append(m.astype(np.complex128) * np.sqrt(2.0 / (l * (l + 1))))
    return basis


@dataclass
class ReconstructionResult:
    state: State
    fit_residual: float       # max |tr(rho_hat P) - value| over table rows
    spanned_dim: int          # rank of the design matrix (<= n^2 - 1)
    underdetermined: bool


def _check_consistency(coords, ranks, values, tol) -> None:
    """InconsistentTable for the first pair of rows, in row order, with
    equal projections and values more than 10 eps_measure apart.

    Projections of different rank are at least 1 apart, farther than any
    eps_order < 1; for equal ranks ||P - Q||_F^2 = ||a_P - a_Q||^2 / 2
    (tr(B_k B_l) = 2 delta_kl), a sum of squared coordinate differences,
    so nothing cancels.
    """
    for i in range(len(values)):
        later = np.flatnonzero(ranks[i + 1:] == ranks[i]) + i + 1
        dist2 = ((coords[later] - coords[i]) ** 2).sum(axis=1) / 2
        clash = later[(dist2 <= tol.eps_order ** 2)
                      & (np.abs(values[later] - values[i]) > 10 * tol.eps_measure)]
        if clash.size:
            raise InconsistentTable(
                f"equal projections carry values {float(values[i])!r} and "
                f"{float(values[clash[0]])!r}")


def state_from_measure(measure: AbstractMeasure) -> ReconstructionResult:
    """Least-squares density matrix matching an abstract measure table.

    The fit runs over rho = I/n + sum_k c_k B_k with a traceless
    Hermitian basis, so the trace constraint is exact.  Row (V, S), S a
    proper non-empty subset, of the design matrix is tr(B_k P_S), the
    flat block weights of B_k summed over S (_row_sums, as are the ranks
    and the fit residual), with target value - rank(S)/n.  First, on the
    same coordinates, rows whose projections coincide must carry equal
    values (InconsistentTable).  Eigenvalues in [-1e-6, 0) are clipped
    and the state renormalized; anything lower is Infeasible.  The result
    flags an underdetermined fit when the rows span fewer than n^2 - 1
    traceless directions.  n is the dimension of the poset (its index's
    dim), and the thresholds are the presheaf's.
    """
    ph = measure.presheaf
    ks = np.diff(ph.offsets)[measure.contexts]
    keep = (measure.subsets != 0) & (measure.subsets != (1 << ks) - 1)
    if not keep.any():
        raise InconsistentTable("table has no informative rows")
    contexts, subsets, values = (x[keep] for x in (
        measure.contexts, measure.subsets, measure.values))
    n = ph.poset.index.dim
    inside = np.bincount(contexts, minlength=len(ph.poset)) > 0
    sums = functools.partial(_row_sums, ph, contexts, subsets)

    basis = _traceless_hermitian_basis(n)
    a = np.ascontiguousarray(
        sums(ph.weights(np.array(basis), inside)).T)
    ranks = sums(np.concatenate([v.ranks for v in ph.poset.contexts]))
    _check_consistency(a, ranks, values, ph.tol)
    coeff, _, rank, _ = np.linalg.lstsq(a, values - ranks / n, rcond=None)
    rho = sum((c * bk for c, bk in zip(coeff, basis)),
              np.eye(n, dtype=np.complex128) / n)

    w, u = np.linalg.eigh(rho)
    if w[0] < -1e-6:
        raise Infeasible("no density matrix fits the table: minimal "
                         f"eigenvalue {float(w[0])!r}")
    rho_hat = (u * np.clip(w, 0.0, None)) @ dagger(u)
    rho_hat = rho_hat / float(np.real(np.trace(rho_hat)))
    state = State(rho_hat, ph.tol)
    fitted = sums(ph.weights(state.matrix, inside))
    return ReconstructionResult(
        state=state,
        fit_residual=float(np.abs(fitted - values).max()),
        spanned_dim=int(rank),
        underdetermined=bool(rank < n * n - 1),
    )
