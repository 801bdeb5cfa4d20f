"""Modular structure of a faithful state: Tomita operators on the
Hilbert-Schmidt space, the modular flow, and antiunitary symmetries
acting on the context poset.

M_n becomes a Hilbert space under <x, y> = tr(x* y) with row-major
vectorization; the cyclic vector of a faithful rho is Omega = rho^(1/2)
and the algebra acts by left multiplication.  The closure of
A Omega -> A* Omega is solved on a spanning set, giving the modular
operator Delta = S*S (= conjugation x -> rho x rho^(-1)) and the
modular conjugation J = S Delta^(-1/2) (= adjoint x -> x*).

Antilinear operators are stored as the matrix M of v -> M conj(v):
composition of two is the linear matrix M2 conj(M1), and the adjoint is
the transpose.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Context, ContextPoset
from .errors import (
    InvalidImage,
    NotCyclicSeparating,
    NotFaithful,
    NotUnitary,
    PosetNotClosed,
)
from .kms_external import AutomorphismFlow
from .measure import State
from .numerics import (
    as_complex_matrix,
    dagger,
    frob,
    hermitian_eig,
    is_unitary,
    unvec,
    vec,
)
from .tolerances import DEFAULT_TOL, TolerancePolicy


class AntilinearOp:
    """v -> M conj(v) on C^(n^2), acting on matrices through row-major
    vectorization."""

    __slots__ = ("m", "n")

    def __init__(self, m):
        self.m = np.asarray(m, dtype=np.complex128)
        self.n = int(round(np.sqrt(self.m.shape[0])))

    def apply_vec(self, v) -> np.ndarray:
        return self.m @ np.conj(np.asarray(v, dtype=np.complex128))

    def apply(self, x) -> np.ndarray:
        return unvec(self.m @ np.conj(vec(x)), self.n)

    def adjoint(self) -> "AntilinearOp":
        return AntilinearOp(self.m.T)

    def after_antilinear(self, other: "AntilinearOp") -> np.ndarray:
        """self . other is linear; returns its matrix."""
        return self.m @ np.conj(other.m)

    def after_linear(self, l) -> "AntilinearOp":
        return AntilinearOp(self.m @ np.conj(np.asarray(l)))


class GNSSpace:
    """The representation of M_n on its Hilbert-Schmidt space built from
    a state: Omega = rho^(1/2), pi(A) = left multiplication."""

    def __init__(self, state: State):
        self.state = state
        self.n = state.dim
        w, u = hermitian_eig(state.matrix, state.tol)
        self.rho_eigvals = w
        self._u = u
        self.omega = (u * np.sqrt(np.clip(w, 0.0, None))) @ dagger(u)
        self.omega_vec = vec(self.omega)

    def pi_matrix(self, a) -> np.ndarray:
        """Left multiplication as an n^2 x n^2 matrix (row-major).

        Declared oracle: the package's checks never form this dense
        A (x) 1; tests compare the structured products against it."""
        am = as_complex_matrix(a)
        return np.kron(am, np.eye(self.n, dtype=np.complex128))

    def right_matrix(self, b) -> np.ndarray:
        """Right multiplication x -> x b (row-major: I (x) b^T).

        Declared oracle, like pi_matrix."""
        bm = as_complex_matrix(b)
        return np.kron(np.eye(self.n, dtype=np.complex128), bm.T)

    def cyclic_rank(self) -> int:
        """Rank of {A Omega : A in M_n}; n^2 iff Omega is cyclic (and,
        equivalently here, separating)."""
        n = self.n
        cols = np.zeros((n * n, n * n), dtype=np.complex128)
        k = 0
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=np.complex128)
                e[i, j] = 1.0
                cols[:, k] = vec(e @ self.omega)
                k += 1
        s = np.linalg.svd(cols, compute_uv=False)
        cutoff = max(1.0, float(s[0])) * 1e-12 * n * n
        return int(np.sum(s > cutoff))


@dataclass
class ModularData:
    dim: int
    omega: np.ndarray
    s: AntilinearOp
    j: AntilinearOp
    delta: np.ndarray            # n^2 x n^2 positive matrix
    delta_spectrum: np.ndarray   # ascending
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def tomita_operators(state: State) -> ModularData:
    """Solve S(A Omega) = A* Omega on the matrix units, then split off
    Delta = S*S and J = S Delta^(-1/2).

    The construction is verified on the spot: S^2 = 1, Delta positive
    with spectrum {a_i / a_j}, J antiunitary symmetric involution fixing
    Omega, the polar identity S = J Delta^(1/2), and the closed forms
    Delta(x) = rho x rho^(-1), J(x) = x*, S(x) = rho^(-1/2) x* rho^(1/2).
    Residuals of all of these travel with the result.
    """
    gns = GNSSpace(state)
    n = gns.n
    n2 = n * n
    if gns.cyclic_rank() < n2:
        raise NotCyclicSeparating(
            "Omega is not cyclic for the left action (state not faithful)"
        )
    b = np.zeros((n2, n2), dtype=np.complex128)
    c = np.zeros((n2, n2), dtype=np.complex128)
    k = 0
    for i in range(n):
        for j_ in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j_] = 1.0
            b[:, k] = vec(e @ gns.omega)
            c[:, k] = vec(dagger(e) @ gns.omega)
            k += 1
    # M_S conj(B) = C
    m_s = np.linalg.solve(np.conj(b).T, c.T).T
    s_op = AntilinearOp(m_s)
    delta = s_op.adjoint().after_antilinear(s_op)   # S* S, linear
    delta = 0.5 * (delta + dagger(delta))
    w, u = np.linalg.eigh(delta)
    if w[0] <= 0:
        raise NotCyclicSeparating(
            f"modular operator is not positive definite (min {w[0]!r})"
        )
    inv_sqrt = (u * (1.0 / np.sqrt(w))) @ dagger(u)
    j_op = s_op.after_linear(inv_sqrt)

    rho = state.matrix
    wr = gns.rho_eigvals
    rho_inv = (gns._u * (1.0 / wr)) @ dagger(gns._u)
    rho_sqrt = gns.omega
    rho_inv_sqrt = (gns._u * (1.0 / np.sqrt(wr))) @ dagger(gns._u)

    eye2 = np.eye(n2, dtype=np.complex128)
    res = {}
    res["s_squared"] = frob(s_op.after_antilinear(s_op) - eye2)
    res["j_antiunitary"] = frob(dagger(j_op.m) @ j_op.m - eye2)
    res["j_symmetric"] = frob(j_op.m - j_op.m.T)
    res["j_squared"] = frob(j_op.after_antilinear(j_op) - eye2)
    res["delta_fixes_omega"] = float(
        np.linalg.norm(delta @ gns.omega_vec - gns.omega_vec))
    res["j_fixes_omega"] = float(
        np.linalg.norm(j_op.apply_vec(gns.omega_vec) - gns.omega_vec))
    sqrt_delta = (u * np.sqrt(w)) @ dagger(u)
    res["polar"] = frob(m_s - j_op.after_linear(sqrt_delta).m)
    # closed forms, checked on the matrix units
    cf_delta = cf_j = cf_s = 0.0
    for i in range(n):
        for j_ in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j_] = 1.0
            cf_delta = max(cf_delta, frob(
                unvec(delta @ vec(e), n) - rho @ e @ rho_inv))
            cf_j = max(cf_j, frob(j_op.apply(e) - dagger(e)))
            cf_s = max(cf_s, frob(
                s_op.apply(e) - rho_inv_sqrt @ dagger(e) @ rho_sqrt))
    res["closed_form_delta"] = cf_delta
    res["closed_form_j"] = cf_j
    res["closed_form_s"] = cf_s

    return ModularData(
        dim=n,
        omega=gns.omega,
        s=s_op,
        j=j_op,
        delta=delta,
        delta_spectrum=np.sort(w),
        residuals=res,
    )


def expected_delta_spectrum(state: State) -> np.ndarray:
    """{a_i / a_j} over eigenvalue pairs of the state, ascending."""
    w = np.linalg.eigvalsh(state.matrix)
    ratios = [wi / wj for wi in w for wj in w]
    return np.sort(np.asarray(ratios))


def modular_flow(state: State, beta: float = 1.0,
                 convention: str = "modular") -> AutomorphismFlow:
    """The flow generated by the state itself.

    Under the modular convention the generator is -(1/beta) log rho and
    the flow carries temperature beta (conjugation by rho^(-it/beta));
    under the hamiltonian convention the generator is -log rho at unit
    temperature.  Both agree with the flow of the physical Hamiltonian
    whenever the state is its Gibbs state at matching temperature.  The
    flow carries the state's policy.
    """
    if not state.is_faithful():
        raise NotFaithful("the modular flow needs a faithful state")
    w, u = hermitian_eig(state.matrix, state.tol)
    log_rho = (u * np.log(w)) @ dagger(u)
    if convention == "modular":
        return AutomorphismFlow(-log_rho / beta, beta, "modular", state.tol)
    if convention == "hamiltonian":
        return AutomorphismFlow(-log_rho, 1.0, "hamiltonian", state.tol)
    raise ValueError(f"unknown convention {convention!r}")


@dataclass
class CommutantSwapReport:
    max_commutator: float
    max_right_residual: float
    checked: int
    cyclic_rank: int

    @property
    def max_residual(self) -> float:
        return max(self.max_commutator, self.max_right_residual)


def _matrix_units(n: int):
    units = []
    for i in range(n):
        for j_ in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j_] = 1.0
            units.append(e)
    return units


# basis elements commuted with one swapped operator per pair of GEMMs
_SWAP_BLOCK = 4


def commutant_swap_check(state: State, basis=None,
                         data: ModularData | None = None
                         ) -> CommutantSwapReport:
    """J pi(A) J lands in the commutant of the left action: it commutes
    with every pi(B) and equals right multiplication by A*.

    `basis` declares the sub-algebra being swapped (a spanning list of
    matrices); by default all matrix units of M_n.  The cyclic vector
    must stay cyclic for the declared sub-algebra: the orbit
    {B Omega : B in span(basis)} has to fill the representation space,
    otherwise the swap is meaningless and NotCyclicSeparating is raised.

    pi(B) = B (x) 1 is never formed.  For an n^2 x n^2 matrix X
    (row-major), (B (x) 1) X is B @ X.reshape(n, n^3), and X (B (x) 1)
    contracts B with the third index of X.reshape(n, n, n, n).  Each
    swapped operator J pi(A) J is formed once, compared with R(A*),
    commuted with the basis _SWAP_BLOCK elements at a time (two GEMMs
    per block) and dropped, so only a few n^2 x n^2 matrices are alive
    at once.  For N basis elements this costs 2 N^2 n^5 complex
    multiply-adds, 2 n^9 on the matrix units (dense products with pi(B)
    would cost 2 n^10).  Every pair (A, B) is still checked through the
    Frobenius norm of its full commutator matrix.
    """
    data = data or tomita_operators(state)
    n = state.dim
    n2 = n * n
    if basis is None:
        basis = _matrix_units(n)
    basis = np.stack([as_complex_matrix(b) for b in basis])

    cols = np.stack([vec(b @ data.omega) for b in basis], axis=1)
    sv = np.linalg.svd(cols, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
    if rank < n2:
        raise NotCyclicSeparating(
            "cyclic vector orbit under the declared sub-algebra has rank "
            f"{rank} < {n2}"
        )

    jm = data.j.m
    diag = np.arange(n)
    # rows (b, i) hold b[i, :] for (B (x) 1) X, and b[:, i] for X (B (x) 1)
    left_rows = basis.reshape(-1, n)
    right_rows = basis.transpose(0, 2, 1).reshape(-1, n)
    # the left and right products of one block
    prods = np.empty((2, _SWAP_BLOCK * n, n2 * n), dtype=np.complex128)
    worst_right = 0.0
    worst_comm = 0.0
    count = 0
    for a in basis:
        sw = jm @ np.conj((a @ jm.reshape(n, n2 * n)).reshape(n2, n2))
        # R(A*) = 1 (x) conj(A): subtract conj(A) from the diagonal blocks
        right = sw.copy()
        right.reshape(n, n, n, n)[diag, :, diag, :] -= np.conj(a)
        worst_right = max(worst_right, frob(right))
        sw_i = sw.reshape(n, n2 * n)
        # sw[r, (k, l)] regrouped as rows k, columns (r, l)
        sw_k = sw.reshape(n2, n, n).transpose(1, 0, 2).reshape(n, n2 * n)
        for start in range(0, len(basis), _SWAP_BLOCK):
            m = min(_SWAP_BLOCK, len(basis) - start)
            rows = slice(start * n, (start + m) * n)
            left = np.matmul(left_rows[rows], sw_i, out=prods[0, :m * n])
            rgt = np.matmul(right_rows[rows], sw_k, out=prods[1, :m * n])
            # sw (B (x) 1) - (B (x) 1) sw, written over the left products
            comm = left.reshape(m, n2, n, n)
            np.subtract(rgt.reshape(m, n, n2, n).transpose(0, 2, 1, 3),
                        comm, out=comm)
            for c in comm.reshape(m, n2, n2):
                worst_comm = max(worst_comm, frob(c))
            count += m
    return CommutantSwapReport(max_commutator=worst_comm,
                               max_right_residual=worst_right,
                               checked=count, cyclic_rank=rank)


# --------------------------------------------------------------------------
# antiunitary symmetries on the context poset


class AntiunitaryJ:
    """An involutive antiunitary v -> W conj(v); the unitary part must be
    symmetric so the square is the identity."""

    __slots__ = ("w", "dim")

    def __init__(self, w):
        wm = as_complex_matrix(w)
        if not is_unitary(wm, 1e-10):
            raise NotUnitary("antiunitary part is not unitary")
        if frob(wm - wm.T) > 1e-10:
            raise NotUnitary(
                "W must be symmetric for an involutive antiunitary"
            )
        self.w = wm
        self.dim = wm.shape[0]

    def apply(self, v) -> np.ndarray:
        return self.w @ np.conj(np.asarray(v, dtype=np.complex128))

    def conjugate_operator(self, a) -> np.ndarray:
        """J A J as a linear operator: W conj(A) W*."""
        return self.w @ np.conj(as_complex_matrix(a)) @ dagger(self.w)

    def image_context(self, v: Context, tol: TolerancePolicy = DEFAULT_TOL
                      ) -> Context:
        blocks = [self.conjugate_operator(v.block(i)) for i in range(v.k)]
        try:
            return Context(blocks, tol=tol)
        except Exception as exc:  # pragma: no cover - mathematically impossible
            raise InvalidImage(f"image of {v.id} is not a context: {exc}")


def swap_unitary(n_a: int, n_b: int) -> np.ndarray:
    """The tensor-factor swap on C^(n_a) (x) C^(n_b)."""
    w = np.zeros((n_a * n_b, n_a * n_b), dtype=np.complex128)
    for i in range(n_a):
        for j in range(n_b):
            w[j * n_a + i, i * n_b + j] = 1.0
    return w


@dataclass
class JMapReport:
    mapping: dict          # context id -> image context id (or None)
    total: bool            # every image present in the poset
    injective: bool


def jmap_on_contexts(j: AntiunitaryJ, poset: ContextPoset) -> JMapReport:
    """The induced map V -> J V J on the poset, where defined, under the
    poset's policy."""
    mapping = {}
    for v in poset.contexts:
        img = j.image_context(v, poset.tol)
        mapping[v.id] = poset.find_equal(img)
    images = [m for m in mapping.values() if m is not None]
    return JMapReport(
        mapping=mapping,
        total=all(m is not None for m in mapping.values()),
        injective=len(set(images)) == len(images),
    )


def _all_lower_sets(poset: ContextPoset, cap: int = 100_000):
    """Every lower set of the poset (order ideals), as frozensets of
    context ids."""
    n = len(poset.contexts)
    order = sorted(range(n),
                   key=lambda i: int(np.sum(poset.leq[:, i])))
    ideals = [frozenset()]
    for i in order:
        below = {poset.contexts[k].id for k in range(n)
                 if poset.leq[k, i] and k != i}
        cid = poset.contexts[i].id
        new = []
        for ideal in ideals:
            new.append(ideal)
            if below <= ideal:
                new.append(ideal | {cid})
        ideals = new
        if len(ideals) > cap:
            raise PosetNotClosed(
                f"more than {cap} lower sets; refusing to enumerate"
            )
    return ideals


@dataclass
class OrderContinuityReport:
    order_preserving: bool
    continuous: bool       # preimages of lower sets are lower sets
    lower_sets_checked: int
    verdicts_agree: bool   # order preservation vs continuity

    @property
    def passed(self) -> bool:
        return self.order_preserving and self.continuous and self.verdicts_agree


def check_order_continuity(j: AntiunitaryJ, poset: ContextPoset,
                           cap: int = 100_000) -> OrderContinuityReport:
    """Exhaustive comparison of two readings of 'the symmetry respects
    coarse-graining': (a) V' <= V implies J V' J <= J V J on all
    comparable pairs, and (b) the induced self-map is continuous for the
    lower-set topology (preimage of every lower set is a lower set).
    The two verdicts must agree; the report records both."""
    report = jmap_on_contexts(j, poset)
    if not report.total:
        raise PosetNotClosed("the poset is not closed under the symmetry")
    mapping = report.mapping
    idx = {v.id: i for i, v in enumerate(poset.contexts)}

    preserving = True
    for a in poset.contexts:
        for b in poset.contexts:
            le_ab = bool(poset.leq[idx[a.id], idx[b.id]])
            le_img = bool(poset.leq[idx[mapping[a.id]], idx[mapping[b.id]]])
            if le_ab and not le_img:
                preserving = False

    ideals = _all_lower_sets(poset, cap)
    continuous = True
    for ideal in ideals:
        preimage = np.array([mapping[v.id] in ideal for v in poset.contexts],
                            dtype=bool)
        if not poset.is_lower_set(preimage):
            continuous = False
            break

    return OrderContinuityReport(
        order_preserving=preserving,
        continuous=continuous,
        lower_sets_checked=len(ideals),
        verdicts_agree=(preserving == continuous),
    )
