"""Projection arithmetic, vectorisation, and the guarded eigensolver."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from toposkms.errors import NotHermitian, NotProjection
from toposkms.numerics import (
    Projection,
    as_complex_matrix,
    dagger,
    frob,
    hermitian_eig,
    is_hermitian,
    null_space,
    proj_leq,
    vec,
)
from toposkms.tolerances import DEFAULT_TOL

from conftest import random_projection
from oracles import proj_join, proj_meet, unvec, zero_projection


def test_projection_validates_hermiticity():
    with pytest.raises(NotProjection):
        Projection(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_projection_validates_idempotence():
    with pytest.raises(NotProjection):
        Projection(np.array([[0.5, 0.0], [0.0, 0.5]]))


def test_identity_and_zero():
    n = 4
    assert frob(zero_projection(n).matrix) == 0.0


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 5))
def test_vec_unvec_roundtrip(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert np.array_equal(unvec(vec(x), n), x)


@given(seed=st.integers(0, 2**31 - 1))
def test_dagger_is_conjugate_transpose(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(dagger(x), x.conj().T)
    assert np.array_equal(dagger(dagger(x)), x)


def test_as_complex_matrix_handles_transposed_views(rng):
    # transposed views are not C-contiguous; finiteness checking must not
    # reinterpret the underlying buffer
    x = rng.normal(size=(4, 4))
    out = as_complex_matrix(x.T)
    assert out.shape == (4, 4)
    assert np.allclose(out, x.T)
    with pytest.raises(Exception):
        as_complex_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 5))
def test_meet_join_bound_the_pair(seed, n):
    rng = np.random.default_rng(seed)
    p = Projection(random_projection(rng, n))
    q = Projection(random_projection(rng, n))
    m = proj_meet(p, q)
    j = proj_join(p, q)
    assert proj_leq(m, p) and proj_leq(m, q)
    assert proj_leq(p, j) and proj_leq(q, j)
    assert proj_leq(m, j)


def test_meet_join_on_commuting_pair():
    p = Projection(np.diag([1.0, 1.0, 0.0, 0.0]))
    q = Projection(np.diag([0.0, 1.0, 1.0, 0.0]))
    assert frob(proj_meet(p, q).matrix - np.diag([0.0, 1.0, 0.0, 0.0])) < 1e-12
    assert frob(proj_join(p, q).matrix - np.diag([1.0, 1.0, 1.0, 0.0])) < 1e-12


def test_leq_is_a_partial_order():
    p = Projection(np.diag([1.0, 0.0, 0.0]))
    q = Projection(np.diag([1.0, 1.0, 0.0]))
    assert proj_leq(p, p)
    assert proj_leq(p, q) and not proj_leq(q, p)


def test_null_space_is_orthonormal_kernel(rng):
    p = random_projection(rng, 5, rank=2)
    ker = null_space(p, 1e-10)
    assert ker.shape[1] == 3
    assert frob(p @ ker) < 1e-10
    assert frob(ker.conj().T @ ker - np.eye(3)) < 1e-10


def test_hermitian_eig_reconstructs(rng):
    a = rng.normal(size=(4, 4))
    a = a + a.T
    w, v = hermitian_eig(a)
    assert np.all(np.diff(w) >= 0)
    assert frob(v @ np.diag(w) @ v.conj().T - a) < 1e-10


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [2.0, 0.0]]))


@given(seed=st.integers(0, 2**31 - 1))
def test_is_hermitian_detects_perturbation(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    a = a + a.T
    assert is_hermitian(a, DEFAULT_TOL)
    a[0, 1] += 1e-6
    assert not is_hermitian(a, DEFAULT_TOL)
