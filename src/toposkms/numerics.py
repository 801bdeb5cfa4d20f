"""Dense complex linear algebra kernels.

Everything downstream (contexts, presheaves, flows, modular data) sits on
the routines here: a deterministically phase-fixed Hermitian
eigendecomposition, the projection order test, and null spaces.

Matrices are plain complex128 ndarrays; a Projection wraps one after
validating hermiticity, idempotency and spectral membership.
"""
from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NoConvergence, NotHermitian, NotProjection
from .tolerances import DEFAULT_TOL, TolerancePolicy


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains non-finite entries")
    return m


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def is_hermitian(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    return frob(a - dagger(a)) <= tol.eps_herm


def hermitian_eig(a, tol: TolerancePolicy = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    Eigenvalues are returned in ascending order.  Each eigenvector's phase
    is fixed by rotating its largest-magnitude component (lowest index on
    ties) onto the positive real axis, so repeated runs and repeated calls
    produce bit-identical results.
    """
    m = as_complex_matrix(a)
    if not is_hermitian(m, tol):
        raise NotHermitian(
            f"matrix is not Hermitian within {tol.eps_herm}: "
            f"||A - A*||_F = {frob(m - dagger(m)):.3e}"
        )
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NoConvergence(str(exc)) from exc
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        mag = abs(pivot)
        if mag > 0.0:
            u[:, j] = col * (pivot.conjugate() / mag)
    return w, u


class Projection:
    """A validated orthogonal projection matrix.

    Validation checks hermiticity (eps_herm), idempotency (eps_idem) and
    that every eigenvalue lies within eps_eig of {0, 1}.  The rank is the
    rounded trace.
    """

    __slots__ = ("matrix", "rank", "dim")

    def __init__(self, matrix, tol: TolerancePolicy = DEFAULT_TOL):
        m = as_complex_matrix(matrix)
        if frob(m - dagger(m)) > tol.eps_herm:
            raise NotProjection("projection candidate is not Hermitian")
        if frob(m @ m - m) > max(tol.eps_idem, 1e2 * tol.eps_idem * frob(m)):
            raise NotProjection(
                f"not idempotent: ||P^2 - P||_F = {frob(m @ m - m):.3e}"
            )
        w = np.linalg.eigvalsh((m + dagger(m)) / 2.0)
        dist = np.minimum(np.abs(w), np.abs(w - 1.0))
        if np.max(dist) > tol.eps_eig:
            raise NotProjection(
                f"spectrum not within {tol.eps_eig} of {{0,1}}: worst {np.max(dist):.3e}"
            )
        tr = float(np.real(np.trace(m)))
        rank = int(round(tr))
        if abs(tr - rank) > tol.eps_eig * m.shape[0]:
            raise NotProjection(f"trace {tr} is not close to an integer")
        m = m.copy()
        m.flags.writeable = False
        self.matrix = m
        self.rank = rank
        self.dim = m.shape[0]

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank})"


def as_matrix(p) -> np.ndarray:
    return p.matrix if isinstance(p, Projection) else as_complex_matrix(p)


def proj_leq(p, q, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Order test P <= Q, i.e. range(P) inside range(Q).

    Equivalent to (1 - Q) P = 0; tested as ||(1-Q) P||_F <= eps_order.
    """
    pm, qm = as_matrix(p), as_matrix(q)
    if pm.shape != qm.shape:
        raise DimMismatch(f"projection shapes differ: {pm.shape} vs {qm.shape}")
    eye = np.eye(pm.shape[0], dtype=np.complex128)
    return frob((eye - qm) @ pm) <= tol.eps_order


def null_space(a: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of a, via SVD."""
    m = np.asarray(a, dtype=np.complex128)
    _, s, vh = np.linalg.svd(m)
    cutoff = rtol * max(1.0, (s[0] if s.size else 0.0))
    rank = int(np.sum(s > cutoff))
    return dagger(vh)[:, rank:]


def is_unitary(u, tol: float) -> bool:
    m = as_complex_matrix(u)
    eye = np.eye(m.shape[0], dtype=np.complex128)
    return frob(dagger(m) @ m - eye) <= tol


def vec(x: np.ndarray) -> np.ndarray:
    """Row-major flattening of a matrix into a column vector."""
    return np.asarray(x, dtype=np.complex128).reshape(-1)
