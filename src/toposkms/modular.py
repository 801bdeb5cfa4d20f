"""Modular structure of a faithful state: Tomita operators on the
Hilbert-Schmidt space, the modular flow, and the commutant swap.

M_n becomes a Hilbert space under <x, y> = tr(x* y) with row-major
vectorization; the cyclic vector of a faithful rho is Omega = rho^(1/2)
and the algebra acts by left multiplication.  The closure of
A Omega -> A* Omega is solved on the matrix units, whose orbit
[vec(E_ij Omega)] is the one matrix 1 (x) Omega^T, giving the modular
operator Delta = S*S (= conjugation x -> rho x rho^(-1)) and the
modular conjugation J = S Delta^(-1/2) (= adjoint x -> x*).  Those
closed forms are checked on every matrix unit at once: the image of
E_ij under Delta, J or S is column (i, j) of the operator's matrix, so
each check compares a whole matrix with one broadcast of entries.

The commutant swap reads X = J pi(E_kl) J off its n x n blocks X[a, b]:
the commutator with pi(E_ij) = E_ij (x) 1 holds the blocks X[a, i]
(a != i), -X[j, b] (b != j) and X[i, i] - X[j, j] at disjoint positions,
so its squared norm is a sum of block norms.  The (k, l) pairs run in
batches, one stacked product each, whose X holds at most
index.SLICE_BYTES; the gaps X[i, i] - X[j, j] are formed for i < j only.
All n^4 pairs cost O(n^7) instead of the 2 n^9 of commuting with
pi(E_ij) as a matrix.

Antilinear operators are stored as the matrix M of v -> M conj(v):
composition of two is the linear matrix M2 conj(M1), and the adjoint is
the transpose.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotCyclicSeparating, NotFaithful
from .kms_external import AutomorphismFlow
from .measure import State
from . import index as context_index
from .numerics import dagger, frob, hermitian_eig, vec


class AntilinearOp:
    """v -> M conj(v) on C^(n^2), acting on matrices through row-major
    vectorization."""

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = np.asarray(m, dtype=np.complex128)

    def apply_vec(self, v) -> np.ndarray:
        return self.m @ np.conj(np.asarray(v, dtype=np.complex128))

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
        # column (i, j) is vec(E_ij Omega): the orbit of the matrix units
        self.orbit = np.kron(np.eye(self.n, dtype=np.complex128),
                             self.omega.T)

    def cyclic_rank(self) -> int:
        """Rank of {A Omega : A in M_n}; n^2 iff Omega is cyclic (and,
        equivalently here, separating)."""
        s = np.linalg.svd(self.orbit, compute_uv=False)
        cutoff = max(1.0, float(s[0])) * 1e-12 * self.n * self.n
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


def _sq_norms(z: np.ndarray) -> np.ndarray:
    """Squared norms along the last axis of a complex array, one row-wise
    dot product over its float64 view."""
    v = np.ascontiguousarray(z).reshape(-1, z.shape[-1]).view(np.float64)
    return np.einsum("ij,ij->i", v, v).reshape(z.shape[:-1])


def _closed_forms(gns: GNSSpace, delta, m_j, m_s) -> tuple:
    """Largest Frobenius distance, over the matrix units E_ij, of
    Delta(E_ij), J(E_ij) and S(E_ij) from rho E_ij rho^(-1), E_ji and
    rho^(-1/2) E_ji rho^(1/2).

    E_ij is real and vec(E_ij) is unit vector i n + j, so the image of
    E_ij is column i n + j of the operator's matrix, taken exactly: row
    i n + j of the transpose is its vec.  Each closed form is one
    broadcast product of matrix entries over [i, j, a, b], e.g.
    rho[a, i] rho^(-1)[j, b] for Delta, in the same [ij, ab] layout, and
    each residual is the largest of n^2 row norms."""
    n = gns.n
    u, wr = gns._u, gns.rho_eigvals
    rho_inv = (u * (1.0 / wr)) @ dagger(u)
    rho_inv_sqrt = (u * (1.0 / np.sqrt(wr))) @ dagger(u)
    eye = np.eye(n, dtype=np.complex128)
    forms = ((delta, gns.state.matrix.T[:, None, :, None],
              rho_inv[None, :, None, :]),
             (m_j, eye[:, None, None, :], eye[None, :, :, None]),
             (m_s, gns.omega[:, None, None, :],
              rho_inv_sqrt.T[None, :, :, None]))
    out = []
    for m, a, b in forms:
        gap = (a * b).reshape(n * n, n * n)   # the closed form, [ij, ab]
        gap -= m.T
        out.append(float(np.sqrt(_sq_norms(gap).max())))
    return tuple(out)


def tomita_operators(state: State) -> ModularData:
    """Solve S(A Omega) = A* Omega on the matrix units, then split off
    Delta = S*S and J = S Delta^(-1/2).

    The construction is verified on the spot: S^2 = 1, Delta positive
    with spectrum {a_i / a_j}, J antiunitary symmetric involution fixing
    Omega, the polar identity S = J Delta^(1/2), and the closed forms
    Delta(x) = rho x rho^(-1), J(x) = x*, S(x) = rho^(-1/2) x* rho^(1/2),
    read off the columns of the three matrices for all matrix units at
    once (_closed_forms).  Residuals of all of these travel with the
    result.
    """
    gns = GNSSpace(state)
    n = gns.n
    n2 = n * n
    if gns.cyclic_rank() < n2:
        raise NotCyclicSeparating(
            "Omega is not cyclic for the left action (state not faithful)"
        )
    b = gns.orbit
    # column (i, j) is vec(E_ij* Omega) = vec(E_ji Omega)
    c = b[:, np.arange(n2).reshape(n, n).T.ravel()]
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
    (res["closed_form_delta"], res["closed_form_j"],
     res["closed_form_s"]) = _closed_forms(gns, delta, j_op.m, m_s)

    return ModularData(
        dim=n,
        omega=gns.omega,
        s=s_op,
        j=j_op,
        delta=delta,
        delta_spectrum=w,
        residuals=res,
    )


def expected_delta_spectrum(state: State) -> np.ndarray:
    """{a_i / a_j} over eigenvalue pairs of the state, ascending."""
    w = np.linalg.eigvalsh(state.matrix)
    return np.sort(np.divide.outer(w, w).ravel())


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

    @property
    def max_residual(self) -> float:
        return max(self.max_commutator, self.max_right_residual)


def commutant_swap_check(state: State, *, data: ModularData | None = None
                         ) -> CommutantSwapReport:
    """J pi(E_kl) J lands in the commutant of the left action: for every
    pair of matrix units it commutes with pi(E_ij) and equals right
    multiplication by E_kl*, the matrix 1 (x) E_kl.

    No n^2 x n^2 commutator is formed.  With M the matrix of J,
    (E_kl (x) 1) M holds row block l of M at row block k, so
    X = J pi(E_kl) J is the one product M[:, block k] conj(M[block l, :]).
    With X[a, b] its n x n blocks, [X, pi(E_ij)] holds X[a, i] at block
    (a, j) for a != i, -X[j, b] at block (i, b) for b != j,
    X[i, i] - X[j, j] at block (i, j), and zeros elsewhere.  These
    positions do not overlap, so

        ||[X, pi(E_ij)]||_F^2 = C[i] + R[j] + ||X[i, i] - X[j, j]||_F^2,

    where C[i] sums the squared norms of the blocks X[a, i], a != i, and
    R[j] those of X[j, b], b != j.  One (n, n) table per (k, l) gives all
    n^2 commutators, each a sum of non-negative terms.  C[i] is not a
    column total minus its diagonal block: the diagonal blocks are near
    E_kl, of order 1, and the subtraction would leave rounding noise.
    The gap ||X[i, i] - X[j, j]||_F^2 is formed for i < j and added at
    both (i, j) and (j, i).  The right residual subtracts E_kl from every
    diagonal block.

    The pairs are taken k-major in batches whose X, one stacked product
    of 16 n^4 bytes a pair, holds at most SLICE_BYTES (at least one
    pair); a batch bounds X alone, and its gap temporaries d[iu], d[ju]
    and their difference add about 1.5 times X.  Every block norm and
    gap is a row-wise squared norm of a contiguous segment.
    Cost: n^2 products of n^5 multiply-adds, O(n^7) in all, where
    commuting with each pi(E_ij) as a matrix would cost 2 n^9.
    """
    data = data or tomita_operators(state)
    n = state.dim
    n2 = n * n
    jm = data.j.m
    cols = jm.reshape(n2, n, n).transpose(1, 0, 2)   # cols[k] = M[:, block k]
    rows = np.conj(jm).reshape(n, n, n2)   # rows[l] = conj(M[block l, :])
    diag = np.arange(n)
    iu, ju = np.triu_indices(n, 1)
    worst_comm = worst_right = 0.0
    for part, _ in context_index.tiles(n2, 1, 16 * n2 ** 2):
        k, l = np.divmod(np.arange(n2)[part], n)
        m = len(k)
        # x[p, a, :, b, :] = X[a, b] of pair p = (k[p], l[p])
        x = np.matmul(cols[k], rows[l]).reshape(m, n, n, n, n)
        norms = _sq_norms(x).sum(axis=2)           # [p, a, b]
        norms[:, diag, diag] = 0.0
        d = x[:, diag, :, diag, :]                 # d[a, p] = X[a, a]
        comm = norms.sum(axis=1)[:, :, None] + norms.sum(axis=2)[:, None, :]
        gaps = _sq_norms((d[iu] - d[ju]).reshape(len(iu), m, n2)).T
        comm[:, iu, ju] += gaps
        comm[:, ju, iu] += gaps
        worst_comm = max(worst_comm, float(comm.max()))
        d[:, np.arange(m), k, l] -= 1.0
        right = norms.sum(axis=(1, 2)) + _sq_norms(
            d.reshape(n, m, n2)).sum(axis=0)
        worst_right = max(worst_right, float(right.max()))
    return CommutantSwapReport(max_commutator=float(np.sqrt(worst_comm)),
                               max_right_residual=float(np.sqrt(worst_right)),
                               checked=n ** 4)
