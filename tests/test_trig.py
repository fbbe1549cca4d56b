"""Tests for antieigenvalue quantities and the min-max identity."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import accretive_matrix, gauss_matrix, unitary_matrix
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

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=2, max_value=4)
FAST = SphereOptConfig(restarts=12)

# Hermitian positive definite with eigenvalues 0.2715, 0.2769, 2.916, 3.562,
# the two smallest nearly repeated. A seeded sphere search for its cosine
# stopped 1.05e-5 above the closed form, which failed the route cross-check.
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


def kantorovich_cos(m, M):
    return 2.0 * np.sqrt(m * M) / (m + M)


def hpd_cos(T):
    lam = np.linalg.eigvalsh(T)
    return kantorovich_cos(lam[0], lam[-1])


def hpd_matrix(rng, n):
    U = unitary_matrix(rng, n)
    return U @ np.diag(rng.uniform(0.1, 5.0, n)) @ U.conj().T


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


@pytest.mark.parametrize(
    "args", [["cos"], ["sin"], ["minmax", "--verify"]], ids=["cos", "sin", "minmax"]
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
    with pytest.raises(RouteDisagreement):
        trig_report(np.diag([1.0, 4.0]), cross_tol=1e-18)
