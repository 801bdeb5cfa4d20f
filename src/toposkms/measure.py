"""States, measures on clopen sub-objects, and state reconstruction.

A density matrix assigns to each clopen sub-object the global section
V -> tr(rho * P_{S_V}); these sections are order-reversing because outer
restriction only grows the supporting projection.  Every such value is
read off the block weights of the state, tr(rho P_{S_V}) =
sum_{i in S_V} tr(rho Q_i), without forming P_{S_V}: the weights of every
context lie on the presheaf's flat character axis
(SpectralPresheaf.weights), and ClopenSubobject.measure sums them over
the sub-object's mask at all contexts at once.  A check holding a state
computes its weights once.  A moved projection is handled by moving the
state instead, tr(rho U P U*) = tr(U* rho U P); contexts move through
SpectralPresheaf.action, and ClopenSubobject.moved reads mu(S) at the
moved contexts.  The converse direction recovers a density matrix from
an abstract measure table by least squares over the traceless Hermitian
parametrization rho = I/n + sum_k c_k B_k, whose design matrix is the
block weights of the basis elements B_k: no P_S is formed there either.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ContextPoset
from .errors import (
    DimMismatch,
    Infeasible,
    InconsistentTable,
    NotAdditive,
    NotAState,
    PosetNotClosed,
)
from .numerics import as_complex_matrix, dagger, is_hermitian
from .presheaf import (
    ClopenSubobject,
    SpectralPresheaf,
    empty_subobject,
    full_subobject,
    heyting_negation,
    subobject_join,
    subobject_meet,
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


@dataclass
class GlobalSection:
    """A real-valued assignment on contexts, checked order-reversing:
    smaller contexts carry larger (or equal) values, within the poset's
    eps_measure."""

    poset: ContextPoset
    values: dict

    def __post_init__(self):
        # NaN marks contexts outside the domain; comparisons with it fail
        vals = np.full(len(self.poset), np.nan)
        for cid, x in self.values.items():
            if cid in self.poset.by_id:
                vals[self.poset.by_id[cid]] = x
        pairs = self.poset.strict_pairs
        bad = vals[pairs[:, 0]] < vals[pairs[:, 1]] - self.poset.tol.eps_measure
        if bad.any():
            small_id, large_id = self.poset.comparable_pairs()[int(bad.argmax())]
            lo, hi = self.values[large_id], self.values[small_id]
            raise PosetNotClosed(
                f"section increases from {small_id} to {large_id}: "
                f"{hi!r} < {lo!r}"
            )

    def __getitem__(self, context_id: str) -> float:
        return self.values[context_id]


def weight_sum(weights, indices) -> float:
    """tr(rho P) for the block sum P over the given indices of one
    context, from its block weights: the sum in index order."""
    return float(sum(weights[i] for i in sorted(indices)))


def measure_of(state: State, sub: ClopenSubobject) -> GlobalSection:
    """Section V -> tr(rho * P_{S_V}) over the sub-object domain."""
    poset = sub.presheaf.poset
    values = sub.measure(sub.presheaf.weights(state.matrix))[sub.domain]
    return GlobalSection(poset, dict(zip(poset.ids(sub.domain),
                                         values.tolist())))


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
                              pairs) -> MeasurePropertyReport:
    """Check the measure axioms on a list of sub-object pairs.

    For each (S, T): normalization of the full/empty sub-objects on the
    union domain, monotonicity through meet and join, the modular law
    mu(SvT) + mu(S^T) = mu(S) + mu(T) stage-wise, order-reversal of every
    section, and the complement laws mu(S ^ ~S) = 0, mu(S v ~S) <= 1
    (recording how far below 1 the join gets), each within the
    presheaf's eps_measure.  Every measure is read from one set of flat
    block weights of the state.
    """
    eps = presheaf.tol.eps_measure
    res_mono = res_mod = res_rev = res_cmeet = 0.0
    cjoin_max = 0.0
    strict = 0.0
    weights = presheaf.weights(state.matrix)
    small, large = presheaf.poset.strict_pairs.T

    res_norm = _worst(np.abs(full_subobject(presheaf).measure(weights) - 1.0), 0.0)
    res_empty = _worst(np.abs(empty_subobject(presheaf).measure(weights)), 0.0)

    n_pairs = 0
    for s, t in pairs:
        n_pairs += 1
        ms, mt, mmeet, mjoin = (x.measure(weights) for x in (
            s, t, subobject_meet(s, t), subobject_join(s, t)))
        res_mono = _worst([mmeet - ms, mmeet - mt, ms - mjoin, mt - mjoin],
                          res_mono)
        res_mod = _worst(np.abs(mjoin + mmeet - ms - mt), res_mod)
        for mu in (ms, mt, mmeet, mjoin):
            res_rev = _worst(mu[large] - mu[small], res_rev)
        neg = heyting_negation(s)
        mneg_meet = subobject_meet(s, neg).measure(weights)
        mneg_join = subobject_join(s, neg).measure(weights)
        res_cmeet = _worst(np.abs(mneg_meet), res_cmeet)
        cjoin_max = _worst(mneg_join, cjoin_max)
        strict = _worst(1.0 - mneg_join, strict)
        if (mneg_join > 1.0 + eps).any():
            res_norm = max(res_norm, cjoin_max - 1.0)

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
    U_t* rho_t U_t is rho itself).
    """
    ph = sub.presheaf
    lhs, rhs = [], []
    for t in t_values:
        u = flow.unitary(t)
        moved = sub.measure(ph.weights(u @ state.matrix @ dagger(u)))
        pulled, _ = sub.moved(moved, ph.action(u, sub.domain)[0],
                              state.matrix)
        lhs.append(pulled[sub.domain])
        rhs.append(moved[sub.domain])
    shape = (len(lhs), int(sub.domain.sum()))
    return FlowReport(t_values, ph.poset.ids(sub.domain),
                      np.reshape(lhs, shape), np.reshape(rhs, shape))


# --------------------------------------------------------------------------
# abstract measures and reconstruction


@dataclass
class AbstractMeasure:
    """A table (context id, frozen character set) -> value in [0, 1].

    Construction checks intra-context coherence where the table allows:
    normalization on the full set, vanishing on the empty set, and
    additivity over disjoint unions present in the table, within the
    poset's eps_measure.
    """

    poset: ContextPoset
    table: dict

    def __post_init__(self):
        eps = self.poset.tol.eps_measure
        cleaned = {}
        for (cid, subset), value in self.table.items():
            v = self.poset.context(cid)  # raises ContextMissing
            subset = frozenset(int(i) for i in subset)
            if subset and (min(subset) < 0 or max(subset) >= v.k):
                raise DimMismatch(f"character index out of range for {cid}")
            value = float(value)
            if value < -eps or value > 1 + eps:
                raise NotAdditive(f"value {value!r} outside [0, 1]")
            cleaned[(cid, subset)] = value
        self.table = cleaned
        for (cid, subset), value in self.table.items():
            v = self.poset.context(cid)
            if len(subset) == v.k and abs(value - 1.0) > eps:
                raise NotAdditive(f"full set at {cid} has value {value!r}")
            if not subset and abs(value) > eps:
                raise NotAdditive(f"empty set at {cid} has value {value!r}")
        self._check_additivity()

    def _check_additivity(self):
        by_context = {}
        for (cid, subset), value in self.table.items():
            by_context.setdefault(cid, {})[subset] = value
        for cid, rows in by_context.items():
            subsets = list(rows)
            for i, a in enumerate(subsets):
                for b in subsets[i + 1:]:
                    if a & b:
                        continue
                    union = a | b
                    if union in rows:
                        gap = abs(rows[union] - rows[a] - rows[b])
                        if gap > 10 * self.poset.tol.eps_measure:
                            raise NotAdditive(
                                f"additivity fails at {cid}: "
                                f"{sorted(a)} + {sorted(b)}"
                            )


def measure_table_of_state(state: State, poset: ContextPoset) -> AbstractMeasure:
    """The full measure table of a state: every character subset of every
    context, value tr(rho * P_subset)."""
    table = {}
    for v in poset.contexts:
        weights = v.weights(state.matrix)
        for mask in range(1 << v.k):
            subset = frozenset(i for i in range(v.k) if mask & (1 << i))
            table[(v.id, subset)] = weight_sum(weights, subset)
    return AbstractMeasure(poset, table)


def _traceless_hermitian_basis(n: int):
    """Generalized Gell-Mann matrices: an orthogonal basis of traceless
    Hermitian n x n matrices (n^2 - 1 elements)."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[i, j] = m[j, i] = 1.0
            basis.append(m)
            m = np.zeros((n, n), dtype=np.complex128)
            m[i, j] = -1.0j
            m[j, i] = 1.0j
            basis.append(m)
    for l in range(1, n):
        m = np.zeros((n, n), dtype=np.complex128)
        for i in range(l):
            m[i, i] = 1.0
        m[l, l] = -float(l)
        basis.append(m * np.sqrt(2.0 / (l * (l + 1))))
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
    Hermitian basis, so the trace constraint is exact.  Row (V, S) of the
    design matrix is read off block weights, tr(B_k P_S) = sum_{i in S}
    Context.weights(B_k)[i], with target value - rank(S)/n.  First, on the
    same coordinates, rows whose projections coincide must carry equal
    values (InconsistentTable).  Eigenvalues in [-1e-6, 0) are clipped
    and the state renormalized; anything lower is Infeasible.  The result
    flags an underdetermined fit when the rows span fewer than n^2 - 1
    traceless directions.  n is the dimension of the table's contexts,
    and the thresholds are the poset's.
    """
    tol = measure.poset.tol
    rows = [(measure.poset.context(cid), sorted(subset), value)
            for (cid, subset), value in measure.table.items()]
    rows = [row for row in rows if 0 < len(row[1]) < row[0].k]
    if not rows:
        raise InconsistentTable("table has no informative rows")
    n = rows[0][0].dim
    if any(v.dim != n for v, _, _ in rows):
        raise DimMismatch("mixed dimensions in measure table")

    basis = _traceless_hermitian_basis(n)
    contexts = {v.id: v for v, _, _ in rows}
    # per context, the block weights of the basis, (n^2 - 1, k)
    columns = {cid: np.array([v.weights(bk) for bk in basis])
               for cid, v in contexts.items()}
    a = np.array([columns[v.id][:, subset].sum(axis=1)
                  for v, subset, _ in rows])
    ranks = np.array([sum(v.ranks[i] for i in subset) for v, subset, _ in rows])
    values = np.array([value for _, _, value in rows])
    _check_consistency(a, ranks, values, tol)
    coeff, _, rank, _ = np.linalg.lstsq(a, values - ranks / n, rcond=None)
    rho = sum((c * bk for c, bk in zip(coeff, basis)),
              np.eye(n, dtype=np.complex128) / n)

    w, u = np.linalg.eigh(rho)
    if w[0] < -1e-6:
        raise Infeasible("no density matrix fits the table: minimal "
                         f"eigenvalue {float(w[0])!r}")
    rho_hat = (u * np.clip(w, 0.0, None)) @ dagger(u)
    rho_hat = rho_hat / float(np.real(np.trace(rho_hat)))
    state = State(rho_hat, tol)
    fitted = {cid: v.weights(state.matrix) for cid, v in contexts.items()}
    fit_res = max(abs(weight_sum(fitted[v.id], subset) - value)
                  for v, subset, value in rows)
    return ReconstructionResult(
        state=state,
        fit_residual=fit_res,
        spanned_dim=int(rank),
        underdetermined=bool(rank < n * n - 1),
    )
