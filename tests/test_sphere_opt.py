"""Tests for the multi-restart projected gradient search on the unit sphere.

Objectives and gradients are column-wise: they take an (n, m) block of unit
columns and return m values, or the (n, m) block of gradients.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import gauss_matrix
from optrig import (
    NonFiniteObjective,
    SphereOptConfig,
    haar_unit_vector,
    minimize_on_sphere,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=1, max_value=5)


def rayleigh(H):
    def value(X):
        return np.real((X.conj() * (H @ X)).sum(axis=0))

    def gradient(X):
        return 2.0 * (H @ X)

    return value, gradient


@given(seeds, dims)
def test_minimizes_rayleigh_quotient_to_smallest_eigenvalue(seed, n):
    rng = np.random.default_rng(seed)
    m = gauss_matrix(rng, n)
    H = (m + m.conj().T) / 2.0
    lo = float(np.linalg.eigvalsh(H)[0])
    value, gradient = rayleigh(H)
    res = minimize_on_sphere(value, n, SphereOptConfig(restarts=8), gradient)
    assert res.value == pytest.approx(lo, abs=1e-7)
    assert np.linalg.norm(res.argmin) == pytest.approx(1.0)
    assert res.restarts_agreeing >= 1


def test_finite_difference_fallback_matches_analytic():
    rng = np.random.default_rng(5)
    m = gauss_matrix(rng, 3)
    H = (m + m.conj().T) / 2.0
    value, gradient = rayleigh(H)
    with_g = minimize_on_sphere(value, 3, SphereOptConfig(restarts=4), gradient)
    without_g = minimize_on_sphere(value, 3, SphereOptConfig(restarts=4))
    assert with_g.value == pytest.approx(without_g.value, abs=1e-6)


def test_deterministic_for_fixed_seed():
    rng = np.random.default_rng(11)
    m = gauss_matrix(rng, 4)
    H = (m + m.conj().T) / 2.0
    value, gradient = rayleigh(H)
    cfg = SphereOptConfig(restarts=6, seed=123)
    a = minimize_on_sphere(value, 4, cfg, gradient)
    b = minimize_on_sphere(value, 4, cfg, gradient)
    assert a.value == b.value
    assert np.array_equal(a.argmin, b.argmin)
    other = minimize_on_sphere(value, 4, SphereOptConfig(restarts=6, seed=124), gradient)
    assert other.value == pytest.approx(a.value, abs=1e-7)


def test_descends_objective_with_zero_floor():
    # |<x, K x>|^2 for K = i * diag(-1/2, 1/2) bottoms out at exactly zero
    # along |x1| = |x2|; the search must not stall partway down the valley.
    K = np.diag([-0.5j, 0.5j])

    def value(X):
        q = (X.conj() * (K @ X)).sum(axis=0)
        return q.real * q.real + q.imag * q.imag

    res = minimize_on_sphere(value, 2, SphereOptConfig(restarts=8))
    assert res.value <= 1e-14


def test_rejection_sentinel_skips_infeasible_starts():
    def value(X):
        a = np.abs(X[0])
        return np.where(a < 0.2, np.inf, a)

    res = minimize_on_sphere(value, 2, SphereOptConfig(restarts=8))
    assert 0.2 <= res.value <= 0.2 + 1e-2


def test_nan_objective_raises():
    def value(X):
        return np.full(X.shape[1], np.nan)

    with pytest.raises(NonFiniteObjective):
        minimize_on_sphere(value, 2, SphereOptConfig(restarts=2))


def test_everywhere_infeasible_raises():
    def value(X):
        return np.full(X.shape[1], np.inf)

    with pytest.raises(NonFiniteObjective):
        minimize_on_sphere(value, 2, SphereOptConfig(restarts=2))


def test_config_validation():
    with pytest.raises(ValueError):
        SphereOptConfig(restarts=0)
    with pytest.raises(ValueError):
        SphereOptConfig(max_iters=0)
    with pytest.raises(ValueError):
        SphereOptConfig(step_tol=0.0)
    with pytest.raises(ValueError):
        SphereOptConfig(value_tol=-1.0)
    with pytest.raises(ValueError):
        minimize_on_sphere(lambda X: np.zeros(X.shape[1]), 0)


@given(seeds)
def test_result_beats_random_probes(seed):
    rng = np.random.default_rng(seed)
    m = gauss_matrix(rng, 3)
    H = (m + m.conj().T) / 2.0
    value, gradient = rayleigh(H)
    res = minimize_on_sphere(value, 3, SphereOptConfig(restarts=4), gradient)
    for _ in range(50):
        assert res.value <= value(haar_unit_vector(rng, 3)[:, None])[0] + 1e-9


def sequential_reference(objective, n, cfg, gradient=None):
    """The search as a loop over restarts, each on one vector at a time.

    Runs the same rules as the lockstep block for a single column, with the
    block's arithmetic applied to one column (dot and unit below), so the
    two differ only where the objective's own kernels round a block and a
    single column differently. Returns the winning value, restarts_agreeing, the
    winner's converged flag and the number of iterations each restart ran.
    """

    def dot(u, v):
        return (u.conj() * v).sum()

    def unit(v):
        return v / np.sqrt(dot(v, v).real)

    def f(x):
        v = float(objective(x[:, None])[0])
        if np.isnan(v) or v == -np.inf:
            raise NonFiniteObjective("objective returned NaN or -inf")
        return v

    def fd_gradient(x, fx):
        h, parts = 1e-6, []
        for direction in (1.0, 1.0j):
            for j in range(n):
                e = np.zeros(n, dtype=np.complex128)
                e[j] = h * direction
                fu = f(unit(x + e))
                fd = f(unit(x - e))
                if np.isfinite(fu) and np.isfinite(fd):
                    parts.append((fu - fd) / (2.0 * h))
                elif np.isfinite(fu):
                    parts.append((fu - fx) / h)
                elif np.isfinite(fd):
                    parts.append((fx - fd) / h)
                else:
                    parts.append(0.0)
        return np.array(parts[:n]) + 1.0j * np.array(parts[n:])

    finals, iters, best = [], [], None
    for k in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k,)))
        for _ in range(100):
            x = haar_unit_vector(rng, n)
            fx = f(x)
            if fx != np.inf:
                break
        converged, t, flat = False, 1.0, 0
        for it in range(1, cfg.max_iters + 1):
            g = gradient(x[:, None])[:, 0] if gradient is not None else fd_gradient(x, fx)
            gt = g - dot(x, g).real * x
            gn2 = dot(gt, gt).real
            if gn2 <= 1e-30:
                converged = True
                break
            t = min(2.0 * t, 1e6)
            accepted = None
            while t >= cfg.step_tol:
                cand = unit(x - t * gt)
                fc = f(cand)
                if fc <= fx - 1e-4 * t * gn2:
                    while t >= 2.0 * cfg.step_tol:
                        half = unit(x - 0.5 * t * gt)
                        fh = f(half)
                        if fh >= fc:
                            break
                        t *= 0.5
                        cand, fc = half, fh
                    accepted = (cand, fc)
                    break
                t *= 0.5
            if accepted is None:
                converged = True
                break
            drop = fx - accepted[1]
            x, fx = accepted
            flat = flat + 1 if drop <= cfg.value_tol * (abs(fx) + cfg.value_tol) else 0
            if flat >= 3:
                converged = True
                break
        finals.append(fx)
        iters.append(it)
        if best is None or fx < best[0]:
            best = (fx, converged)
    agreeing = sum(1 for v in finals if v <= best[0] + cfg.value_tol)
    return best[0], agreeing, best[1], iters


def rejecting_abs(X):
    a = np.abs(X[0])
    return np.where(a < 0.2, np.inf, a)


def capped_rayleigh(H, cap):
    """min(<Hx, x>, cap): columns starting on the cap have zero gradient."""

    def value(X):
        return np.minimum(np.real((X.conj() * (H @ X)).sum(axis=0)), cap)

    def gradient(X):
        r = np.real((X.conj() * (H @ X)).sum(axis=0))
        return np.where(r < cap, 2.0, 0.0) * (H @ X)

    return value, gradient


def assert_matches_reference(value, n, cfg, gradient=None):
    """Same winner, agreement and convergence as the sequential loop, and the
    same number of evaluated points: every restart retraces its own path."""
    columns = []

    def tallied(X):
        columns.append(X.shape[1])
        return value(X)

    ref_value, ref_agreeing, ref_converged, iters = sequential_reference(
        tallied, n, cfg, gradient
    )
    ref_columns = sum(columns)
    columns.clear()
    res = minimize_on_sphere(tallied, n, cfg, gradient)
    assert abs(res.value - ref_value) <= 1e-12
    assert res.restarts_agreeing == ref_agreeing
    assert res.converged == ref_converged
    assert sum(columns) == ref_columns
    return iters


def test_lockstep_matches_sequential_on_rayleigh_quotient():
    rng = np.random.default_rng(7)
    m = gauss_matrix(rng, 4)
    value, gradient = rayleigh((m + m.conj().T) / 2.0)
    assert_matches_reference(value, 4, SphereOptConfig(restarts=8, seed=5), gradient)


def test_lockstep_matches_sequential_with_rejected_points():
    assert_matches_reference(rejecting_abs, 2, SphereOptConfig(restarts=8))


def test_lockstep_matches_sequential_when_restarts_stop_at_different_times():
    value, gradient = capped_rayleigh(np.diag([0.0, 3e-3, 1.0]), 0.5)
    iters = assert_matches_reference(value, 3, SphereOptConfig(restarts=16), gradient)
    assert min(iters) == 1 and max(iters) >= 300


def test_starved_search_reports_not_converged():
    value, gradient = rayleigh(np.diag([0.0, 1.0, 2.0]))
    res = minimize_on_sphere(value, 3, SphereOptConfig(restarts=4, max_iters=1), gradient)
    assert not res.converged
