"""Tests for antieigenvalue quantities and the min-max identity."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import accretive_matrix, gauss_matrix, hpd_matrix, unitary_matrix
from optrig import (
    NotAccretive,
    RouteDisagreement,
    SingularOperator,
    SphereOptConfig,
    ZeroImage,
    best_complex_scale,
    best_real_scale,
    cos_t,
    cos_via_center,
    minmax_check_complex,
    minmax_check_real,
    sin_t,
    total_cos_t,
    total_cos_via_center,
    total_trig_report,
    trig_report,
)
from optrig import cli
from optrig.trig import _total_cos_bounds

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=2, max_value=4)
FAST = SphereOptConfig(restarts=12)

# Hermitian positive definite with eigenvalues 0.2715, 0.2769, 2.916, 3.562,
# the two smallest nearly repeated. Seeded sphere searches for its cosine and
# total cosine stopped 1.05e-5 above the closed form, which failed the route
# cross-check.
HPD_NEAR_REPEATED = np.array(
    [
        [
            (1.7535241324486428+0j), (-0.4112423226057886-0.5353725097299958j),
            (0.13009465776912216+1.38354374744313j), (0.12312812888086462-0.2673335585392341j),
        ],
        [
            (-0.4112423226057886+0.5353725097299958j), (2.2592104861184987+0j),
            (0.16847366381918888-0.3250616773080921j), (1.1912800878965752-0.15029180234688827j),
        ],
        [
            (0.13009465776912216-1.38354374744313j), (0.16847366381918888+0.3250616773080921j),
            (1.878023538122739+0j), (0.23857598136447783-0.25925686846371965j),
        ],
        [
            (0.12312812888086462+0.2673335585392341j), (1.1912800878965752+0.15029180234688827j),
            (0.23857598136447783+0.25925686846371965j), (1.1359129155796868+0j),
        ],
    ]
)


# Invertible 2x2 with 0 in its numerical range, so total cos = 0. A seeded
# sphere search stalled at 1.41e-4 on the kink of |<Tx, x>| at its zero.
NEAR_ZERO_TOTAL_COS = np.array(
    [
        [(0.12119599505874902+0.17128335646020432j), (-0.46876375954100624-0.5972789534705533j)],
        [(1.5167839459181536+0.41726654416757963j), (0.7420483454740311+0.40181823535103933j)],
    ]
)


def kantorovich_cos(m, M):
    return 2.0 * np.sqrt(m * M) / (m + M)


def hpd_cos(T):
    lam = np.linalg.eigvalsh(T)
    return kantorovich_cos(lam[0], lam[-1])


@pytest.mark.parametrize("m,M", [(1.0, 4.0), (0.5, 2.0), (1.0, 9.0)])
def test_positive_diagonal_matches_closed_forms(m, M):
    T = np.diag([m, M])
    c, x = cos_t(T, FAST)
    assert c == pytest.approx(kantorovich_cos(m, M), abs=1e-9)
    s, eps0 = sin_t(T)
    assert s == pytest.approx((M - m) / (M + m), abs=1e-9)
    assert eps0 == pytest.approx(2.0 / (m + M), abs=1e-8)
    assert s * s + c * c == pytest.approx(1.0, abs=1e-9)
    # the antieigenvector balances the extreme eigenvalues
    assert abs(x[0]) ** 2 == pytest.approx(M / (m + M), abs=1e-6)


def test_total_cos_of_positive_diagonal_equals_cos():
    T = np.diag([1.0, 4.0])
    c, _ = cos_t(T, FAST)
    tc, _ = total_cos_t(T, FAST)
    assert tc == pytest.approx(c, abs=1e-9)


def test_identity_has_cos_one():
    c, _ = cos_t(np.eye(3), FAST)
    assert c == pytest.approx(1.0, abs=1e-12)
    s, eps0 = sin_t(np.eye(3))
    assert s == pytest.approx(0.0, abs=1e-9)
    assert eps0 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "T",
    [pytest.param(HPD_NEAR_REPEATED, id="near-repeated")]
    + [
        pytest.param(hpd_matrix(np.random.default_rng(n), n), id=f"n{n}")
        for n in (2, 3, 4, 8, 16, 32, 64)
    ],
)
def test_cos_of_hermitian_positive_definite_matches_closed_form(T):
    c, _ = cos_t(T)
    assert c == pytest.approx(hpd_cos(T), abs=1e-12)
    # a positive definite T has total cos T = cos T
    tc, _ = total_cos_t(T)
    assert tc == pytest.approx(hpd_cos(T), abs=1e-12)


@pytest.mark.parametrize(
    "args",
    [["cos"], ["sin"], ["minmax", "--verify"], ["total-cos"], ["minmax", "--verify", "--complex"]],
    ids=["cos", "sin", "minmax", "total-cos", "minmax-complex"],
)
def test_cli_accepts_near_repeated_hermitian_spectrum(tmp_path, monkeypatch, capsys, args):
    path = tmp_path / "hpd.json"
    entries = [[[z.real, z.imag] for z in row] for row in HPD_NEAR_REPEATED.tolist()]
    path.write_text(json.dumps({"n": 4, "entries": entries}))
    monkeypatch.delenv("OPTRIG_SEED", raising=False)
    code = cli.main([args[0], "--matrix", str(path), *args[1:], "--output", "json"])
    assert code == 0, capsys.readouterr().out


def test_cos_ignores_search_config(rng):
    T = accretive_matrix(rng, 4)
    c0, x0 = cos_t(T)
    for seed, restarts in [(0, 1), (1, 12), (7, 32), (2**31 - 1, 5)]:
        c, x = cos_t(T, SphereOptConfig(seed=seed, restarts=restarts))
        assert c == c0
        assert np.array_equal(x, x0)


def test_total_cos_ignores_search_config(rng):
    for T in (accretive_matrix(rng, 4), gauss_matrix(rng, 2) + 3.0 * np.eye(2)):
        c0, x0 = total_cos_t(T)
        for seed, restarts in [(0, 1), (1, 12), (7, 32), (2**31 - 1, 5)]:
            c, x = total_cos_t(T, SphereOptConfig(seed=seed, restarts=restarts))
            assert c == c0
            assert np.array_equal(x, x0)


def two_by_two_suite():
    rng = np.random.default_rng(2026)
    thin = [
        np.array([[1.0, b], [0.0, -1.0 + eps * 1j]])
        for b in (0.01, 0.03, 0.05)
        for eps in (0.1, 0.2)
    ]
    return (
        [gauss_matrix(rng, 2) for _ in range(100)]
        + [gauss_matrix(rng, 2) + 3.0 * np.eye(2) for _ in range(100)]
        + thin
        + [np.exp(1j * phi) * T for T in thin for phi in (0.3, 2.0, -2.5)]
    )


def test_total_cos_matches_center_route_on_two_by_two_suite():
    # n = 2, where the max-over-angles identity rests on the ellipsoid argument
    # of the total_cos_t docstring, and the thin W(T) whose positive arc of
    # angles is narrow
    for T in two_by_two_suite():
        value, x = total_cos_t(T)
        assert value == pytest.approx(total_cos_via_center(T)[0], abs=1e-10)
        Tx = T @ x
        assert abs(np.vdot(x, Tx)) / np.linalg.norm(Tx) == pytest.approx(value, abs=1e-15)
        upper, lower, _ = _total_cos_bounds(T)
        assert upper == value
        if lower == 0.0:  # 0 lies in W(T)
            assert upper <= 1e-12
        else:
            assert upper - lower <= 1e-12 * upper


def test_total_cos_of_normal_operator_with_three_eigenvalues_on_the_optimal_face():
    # At the optimal angle three eigenvectors share the bottom of the dual, so
    # the witness must mix all three to zero the imaginary part. The exact value
    # minimizes |sum p_i mu_i| / sqrt(sum p_i |mu_i|^2) over the simplex at
    # p = (0.78025, 0.11779, 0.10196), solved to 40 digits. The lower bound
    # sits on a kink of cos(e^{it} T) in t, so its gap closes only to ~4e-12.
    T = np.diag([0.25026016 - 0.00409725j, 0.67569125 + 0.76453582j, 1.7404211 - 1.40365267j])
    upper, lower, x = _total_cos_bounds(T)
    assert upper == pytest.approx(0.5522288912087553, abs=1e-14)
    assert upper - lower <= 1e-11 * upper
    assert np.count_nonzero(np.abs(x) > 0.1) == 3


def test_total_cos_near_zero_is_not_refused():
    rep = total_trig_report(NEAR_ZERO_TOTAL_COS)
    assert rep.total_cos_direct <= 1e-12
    assert rep.total_cos_via_center == pytest.approx(0.0, abs=1e-10)


def test_total_cos_of_singular_operator_is_zero_off_the_kernel():
    m = gauss_matrix(np.random.default_rng(3), 3)
    # rank 1 with T*k = 0 on the kernel, rank 1 nilpotent, rank 2
    singular = (np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), m @ np.diag([1.0, 1.0, 0.0]) @ m)
    for T in singular:
        value, x = total_cos_t(T, allow_singular=True)
        assert value == 0.0
        assert np.linalg.norm(x) == pytest.approx(1.0)
        Tx = T @ x
        assert np.linalg.norm(Tx) > 1e-9
        assert abs(np.vdot(x, Tx)) / np.linalg.norm(Tx) <= 1e-8


@given(seeds, dims)
def test_cos_invariant_under_positive_scaling(seed, n):
    rng = np.random.default_rng(seed)
    # a Hermitian input has a multiple bottom eigenvalue at the dual optimum
    for T in (accretive_matrix(rng, n), hpd_matrix(rng, n)):
        c1, _ = cos_t(T, FAST)
        for s in (3.7, 1e-8, 1e8):
            c2, _ = cos_t(s * T, FAST)
            assert c2 == pytest.approx(c1, abs=1e-12)


@given(seeds, dims)
def test_cos_invariant_under_unitary_similarity(seed, n):
    rng = np.random.default_rng(seed)
    T = accretive_matrix(rng, n)
    U = unitary_matrix(rng, n)
    c1, _ = cos_t(T, FAST)
    c2, _ = cos_t(U.conj().T @ T @ U, FAST)
    assert c1 == pytest.approx(c2, abs=1e-8)


def test_non_accretive_operator_refused():
    with pytest.raises(NotAccretive):
        cos_t(np.diag([1.0, -1.0]))
    # Re T = 1e-16 I passes the first test, but Re(T^-1) rounds to indefinite
    m = gauss_matrix(np.random.default_rng(1), 3)
    with pytest.raises(NotAccretive):
        cos_t((m - m.conj().T) / 2.0 + 1e-16 * np.eye(3))
    with pytest.raises(NotAccretive):
        sin_t(np.diag([1.0, 0.0]))
    with pytest.raises(NotAccretive):
        minmax_check_real(np.diag([-1.0, 2.0]))


def test_singular_operator_refused_unless_allowed():
    T = np.diag([1.0, 0.0])
    with pytest.raises(SingularOperator):
        total_cos_t(T)
    value, x = total_cos_t(T, FAST, allow_singular=True)
    # off the kernel, <Tx, x>/||Tx|| = |x1| which can dip to the guard level
    assert value >= 0.0
    assert np.linalg.norm(x) == pytest.approx(1.0)
    with pytest.raises(SingularOperator):
        total_cos_t(np.zeros((2, 2)), allow_singular=True)


@given(seeds, dims)
def test_best_real_scale_minimizes_pointwise_distance(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y /= np.linalg.norm(y)
    eps = best_real_scale(T, y)
    base = np.linalg.norm(eps * (T @ y) - y)
    for probe in rng.uniform(-3.0, 3.0, size=10):
        assert base <= np.linalg.norm(float(probe) * (T @ y) - y) + 1e-10


@given(seeds, dims)
def test_best_complex_scale_minimizes_pointwise_distance(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y /= np.linalg.norm(y)
    lam = best_complex_scale(T, y)
    base = np.linalg.norm(lam * (T @ y) - y)
    for _ in range(10):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert base <= np.linalg.norm(z * (T @ y) - y) + 1e-10


def test_best_scale_rejects_kernel_vector():
    T = np.diag([1.0, 0.0])
    with pytest.raises(ZeroImage):
        best_real_scale(T, np.array([0.0, 1.0]))
    with pytest.raises(ZeroImage):
        best_complex_scale(T, np.array([0.0, 1.0]))


@given(seeds, dims)
def test_minmax_identity_real(seed, n):
    rng = np.random.default_rng(seed)
    T = accretive_matrix(rng, n)
    lhs, rhs = minmax_check_real(T, FAST)
    assert lhs == pytest.approx(rhs, abs=1e-5)


@given(seeds, dims)
def test_minmax_identity_complex(seed, n):
    rng = np.random.default_rng(seed)
    T = accretive_matrix(rng, n)
    lhs, rhs = minmax_check_complex(T, FAST)
    assert lhs == pytest.approx(rhs, abs=1e-5)


@given(seeds, dims)
def test_center_route_agrees_with_direct_search(seed, n):
    rng = np.random.default_rng(seed)
    T = accretive_matrix(rng, n)
    direct, _ = cos_t(T, FAST)
    via, w = cos_via_center(T)
    assert via == pytest.approx(direct, abs=1e-6)
    assert np.linalg.norm(w) == pytest.approx(1.0)
    td, _ = total_cos_t(T, FAST)
    tv, _ = total_cos_via_center(T)
    assert tv == pytest.approx(td, abs=1e-6)


@given(seeds, dims)
def test_total_cos_dominates_cos(seed, n):
    rng = np.random.default_rng(seed)
    T = accretive_matrix(rng, n)
    c, _ = cos_t(T, FAST)
    tc, _ = total_cos_t(T, FAST)
    assert tc >= c - 1e-9


def test_reports_bundle_consistent_quantities():
    T = np.diag([1.0, 4.0])
    rep = trig_report(T)
    assert rep.cos_direct == pytest.approx(0.8, abs=1e-9)
    assert rep.sin_value == pytest.approx(0.6, abs=1e-9)
    assert rep.epsilon0 == pytest.approx(0.4, abs=1e-8)
    assert rep.minmax_lhs == pytest.approx(0.36, abs=1e-9)
    assert rep.minmax_rhs == pytest.approx(0.36, abs=1e-9)
    tot = total_trig_report(T)
    assert tot.total_cos_direct == pytest.approx(0.8, abs=1e-9)
    assert tot.lambda0 == pytest.approx(0.4, abs=1e-7)


def test_report_cross_check_can_be_forced_to_fail():
    # a non-normal input: on a diagonal one the two routes can agree to the bit
    with pytest.raises(RouteDisagreement):
        trig_report(np.array([[2.0, 1.0], [0.0, 3.0]]), cross_tol=1e-18)
