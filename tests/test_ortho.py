"""Tests for norm-attaining pairing intervals and Birkhoff-James orthogonality."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import gauss_matrix, invertible_matrix, unitary_matrix
from optrig import (
    ZeroOperator,
    attain_pairing_target,
    attaining_interval,
    is_real_orthogonal,
    is_total_orthogonal,
    maximizing_subspace,
    operator_norm,
    real_center_of_mass,
    total_center_of_mass,
    total_pairing_min,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=1, max_value=4)


def real_pairing(T, A, x):
    return float(np.real(np.vdot(A @ x, T @ x)))


def test_interval_of_operator_against_itself_is_norm_squared():
    rng = np.random.default_rng(3)
    T = gauss_matrix(rng, 3)
    iv = attaining_interval(T, T)
    nt2 = operator_norm(T) ** 2
    assert iv.lo == pytest.approx(nt2, rel=1e-9)
    assert iv.hi == pytest.approx(nt2, rel=1e-9)


def test_interval_for_degenerate_pair_collapses_to_zero():
    iv = attaining_interval(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert iv.lo == 0.0
    assert iv.hi == 0.0


def test_interval_rejects_zero_operator():
    with pytest.raises(ZeroOperator):
        attaining_interval(np.zeros((2, 2)), np.eye(2))


@given(seeds, dims)
def test_interval_bounds_hold_on_attaining_vectors(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    A = gauss_matrix(rng, n)
    iv = attaining_interval(T, A)
    assert iv.lo <= iv.hi
    for x, target in ((iv.attaining_lo, iv.lo), (iv.attaining_hi, iv.hi)):
        assert np.linalg.norm(x) == pytest.approx(1.0)
        assert np.linalg.norm(T @ x) == pytest.approx(operator_norm(T), rel=1e-7)
        assert real_pairing(T, A, x) == pytest.approx(target, abs=1e-9)


@given(seeds, dims)
def test_sampled_pairings_stay_inside_interval(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    A = gauss_matrix(rng, n)
    iv = attaining_interval(T, A)
    V = maximizing_subspace(T).basis
    k = V.shape[1]
    for _ in range(60):
        y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        y /= np.linalg.norm(y)
        val = real_pairing(T, A, V @ y)
        assert iv.lo - 1e-8 <= val <= iv.hi + 1e-8


@given(seeds, st.floats(0.05, 0.95))
def test_interior_targets_are_attained(seed, frac):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, 3)
    A = gauss_matrix(rng, 3)
    iv = attaining_interval(T, A)
    target = iv.lo + frac * (iv.hi - iv.lo)
    x = attain_pairing_target(T, A, target)
    assert np.linalg.norm(x) == pytest.approx(1.0)
    assert np.linalg.norm(T @ x) == pytest.approx(operator_norm(T), rel=1e-6)
    assert real_pairing(T, A, x) == pytest.approx(target, abs=1e-6)


def test_total_pairing_min_zero_for_sign_straddling_diagonal():
    value, x = total_pairing_min(np.diag([1.0, -1.0]), np.eye(2))
    assert value <= 1e-7
    assert np.linalg.norm(x) == pytest.approx(1.0)


def test_total_pairing_min_positive_when_zero_unreachable():
    # <Tx, x> for T = diag(1, i) runs along the segment from 1 to i
    value, _ = total_pairing_min(np.diag([1.0, 1.0j]), np.eye(2))
    assert value == pytest.approx(np.sqrt(0.5), abs=1e-6)


def test_real_orthogonality_of_sign_straddling_diagonal():
    v = is_real_orthogonal(np.diag([1.0, -1.0]), np.eye(2))
    assert v.orthogonal and v.route_w0 and v.route_norm
    assert v.witness is not None
    assert abs(real_pairing(np.diag([1.0, -1.0]), np.eye(2), v.witness)) <= 1e-8


def test_real_orthogonality_rejected_for_definite_pairing():
    v = is_real_orthogonal(np.diag([1.0, 2.0]), np.eye(2))
    assert not v.orthogonal and not v.route_w0 and not v.route_norm
    assert v.witness is None


def test_total_orthogonality_requires_modulus_zero():
    # real part straddles zero for diag(i, 1) paired with I, but the
    # modulus never vanishes, so only the real variant sees orthogonality
    T = np.diag([1.0j, 1.0])
    assert is_real_orthogonal(T, np.eye(2)).orthogonal
    assert not is_total_orthogonal(T, np.eye(2)).orthogonal
    T2 = np.diag([1.0, -1.0j, 1.0j])
    v = is_total_orthogonal(T2, np.eye(3))
    assert v.orthogonal
    assert v.witness is not None
    pairing = abs(complex(np.vdot(v.witness, T2 @ v.witness)))
    assert pairing <= 1e-6


def test_degenerate_pair_is_orthogonal_both_ways():
    T = np.diag([1.0, 0.0])
    A = np.diag([0.0, 1.0])
    assert is_real_orthogonal(T, A).orthogonal
    assert is_total_orthogonal(T, A).orthogonal


@given(seeds, dims)
def test_norm_route_agrees_with_direct_norm_inequality(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    A = invertible_matrix(rng, n)
    v = is_real_orthogonal(T, A)
    grid = np.linspace(-4.0, 4.0, 2001)
    dips = min(
        operator_norm(T + s * A) for s in grid
    )
    if v.orthogonal:
        assert dips >= operator_norm(T) - 1e-5
    else:
        assert dips < operator_norm(T) + 1e-12


@given(seeds, st.integers(min_value=2, max_value=4))
def test_center_shift_is_orthogonal_to_relative_operator(seed, n):
    # n = 1 is excluded: there the shift is exactly zero in real arithmetic,
    # so the numerical residue is dust with no orthogonality structure
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    A = invertible_matrix(rng, n)
    rc = real_center_of_mass(T, A)
    assert is_real_orthogonal(T - rc.epsilon0 * A, A).orthogonal
    tc = total_center_of_mass(T, A)
    assert is_total_orthogonal(T - tc.lambda0 * A, A).orthogonal


@given(seeds)
def test_unitary_relative_operator_keeps_routes_consistent(seed):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, 3)
    A = unitary_matrix(rng, 3)
    v = is_real_orthogonal(T, A)
    assert v.route_w0 == v.route_norm
    w = is_total_orthogonal(T, A)
    assert w.route_w0 == w.route_norm


def test_real_verdict_builds_the_pairing_form_once(monkeypatch):
    import optrig.ortho as ortho

    calls = []
    original = ortho.maximizing_subspace

    def counting(T, *args, **kwargs):
        calls.append(T)
        return original(T, *args, **kwargs)

    monkeypatch.setattr(ortho, "maximizing_subspace", counting)
    verdict = is_real_orthogonal(np.diag([2.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert verdict.orthogonal
    assert verdict.witness is not None
    assert len(calls) == 1
