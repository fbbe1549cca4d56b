"""Unit and property tests for the shared linear algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import gauss_matrix
from optrig import (
    DimensionMismatch,
    ZeroOperator,
    as_operator,
    as_operator_pair,
    as_vector,
    block_matvec,
    block_norms,
    block_vdot,
    haar_unit_vector,
    hermitian_min_eig,
    hermitian_part,
    inner,
    maximizing_subspace,
    operator_norm,
    operator_norms,
    phase_normalize,
    sigma_min,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=1, max_value=6)


def test_as_operator_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        as_operator(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        as_operator(np.ones(4))


def test_as_operator_rejects_non_finite():
    with pytest.raises(ValueError):
        as_operator(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_operator(np.array([[1.0, 1j * np.inf], [0.0, 1.0]]))


def test_as_operator_pair_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatch):
        as_operator_pair(np.eye(2), np.eye(3))


def test_as_vector_checks_length():
    v = as_vector([1.0, 2.0], n=2)
    assert v.dtype == np.complex128
    with pytest.raises(DimensionMismatch):
        as_vector([1.0, 2.0], n=3)
    with pytest.raises(DimensionMismatch):
        as_vector(np.ones((2, 2)))


@given(seeds, dims)
def test_inner_is_sesquilinear(seed, n):
    rng = np.random.default_rng(seed)
    u = haar_unit_vector(rng, n)
    v = haar_unit_vector(rng, n)
    w = haar_unit_vector(rng, n)
    a = complex(rng.standard_normal(), rng.standard_normal())
    assert inner(a * u + w, v) == pytest.approx(a * inner(u, v) + inner(w, v))
    assert inner(u, a * v) == pytest.approx(np.conj(a) * inner(u, v))
    assert inner(u, v) == pytest.approx(np.conj(inner(v, u)))
    assert inner(u, u) == pytest.approx(1.0)


@given(seeds, dims)
def test_adjoint_moves_across_inner(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    x = haar_unit_vector(rng, n)
    y = haar_unit_vector(rng, n)
    assert inner(T @ x, y) == pytest.approx(inner(x, T.conj().T @ y))


@given(seeds, dims)
def test_operator_norm_bounds_image(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    nt = operator_norm(T)
    for _ in range(10):
        x = haar_unit_vector(rng, n)
        assert np.linalg.norm(T @ x) <= nt + 1e-12


@given(seeds, dims)
def test_operator_norm_homogeneous_and_subadditive(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    S = gauss_matrix(rng, n)
    c = float(rng.standard_normal())
    assert operator_norm(c * T) == pytest.approx(abs(c) * operator_norm(T))
    assert operator_norm(T + S) <= operator_norm(T) + operator_norm(S) + 1e-12


def test_sigma_min_detects_singularity():
    assert sigma_min(np.diag([1.0, 0.0])) == 0.0
    assert sigma_min(np.diag([2.0, 3.0])) == pytest.approx(2.0)


@given(seeds, dims)
def test_hermitian_min_eig_is_quadratic_form_floor(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    floor = hermitian_min_eig(T)
    H = hermitian_part(T)
    assert np.allclose(H, H.conj().T)
    for _ in range(10):
        x = haar_unit_vector(rng, n)
        assert np.real(inner(T @ x, x)) >= floor - 1e-10


@given(seeds, dims)
def test_maximizing_subspace_attains_norm(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    sub = maximizing_subspace(T)
    V = sub.basis
    assert 1 <= sub.dimension <= n
    assert np.allclose(V.conj().T @ V, np.eye(sub.dimension), atol=1e-12)
    for j in range(sub.dimension):
        assert np.linalg.norm(T @ V[:, j]) == pytest.approx(
            sub.sigma_max, rel=1e-7
        )
    assert sub.sigma_max == pytest.approx(operator_norm(T))


def test_maximizing_subspace_merges_degenerate_directions():
    sub = maximizing_subspace(np.diag([1.0, 1.0, 0.5]))
    assert sub.dimension == 2


def test_maximizing_subspace_rejects_zero():
    with pytest.raises(ZeroOperator):
        maximizing_subspace(np.zeros((2, 2)))


@given(seeds, dims)
def test_phase_normalize_anchors_peak(seed, n):
    rng = np.random.default_rng(seed)
    v = haar_unit_vector(rng, n)
    w = phase_normalize(v)
    j = int(np.argmax(np.abs(w)))
    assert w[j].imag == pytest.approx(0.0, abs=1e-12)
    assert w[j].real > 0.0
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v))
    # same ray, so normalizing twice changes nothing
    assert np.allclose(phase_normalize(w), w)
    phase = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    assert np.allclose(phase_normalize(phase * v), w)


def test_phase_normalize_keeps_zero_vector():
    z = np.zeros(2, dtype=np.complex128)
    assert np.array_equal(phase_normalize(z), z)


@given(seeds, dims)
def test_haar_unit_vector_is_unit(seed, n):
    rng = np.random.default_rng(seed)
    assert np.linalg.norm(haar_unit_vector(rng, n)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_block_kernels_round_as_one_vector_calls(n, layout):
    # bit for bit, in either memory layout of the block: the oracles rely on
    # it to reproduce their one-point-at-a-time results
    rng = np.random.default_rng(n)
    M = gauss_matrix(rng, n)
    V = gauss_matrix(rng, n)[:, : max(1, n - 1)]
    X = np.array(gauss_matrix(rng, 40)[:n], order=layout)
    Y = np.array(gauss_matrix(rng, 40)[:n], order=layout)
    Z = np.array(gauss_matrix(rng, 40)[: V.shape[1]], order=layout)
    # the one-vector calls get contiguous vectors, as the oracles' loops did
    xs, ys, zs = (list(np.ascontiguousarray(B.T)) for B in (X, Y, Z))
    assert np.array_equal(block_norms(X), [np.linalg.norm(x) for x in xs])
    assert np.array_equal(block_vdot(X, Y), [np.vdot(x, y) for x, y in zip(xs, ys)])
    assert np.array_equal(block_matvec(M, X), np.stack([M @ x for x in xs], axis=1))
    assert np.array_equal(block_matvec(V, Z), np.stack([V @ z for z in zs], axis=1))


def test_operator_norms_match_operator_norm():
    rng = np.random.default_rng(3)
    stack = np.stack([gauss_matrix(rng, 3) for _ in range(7)])
    assert np.array_equal(operator_norms(stack), [operator_norm(m) for m in stack])
