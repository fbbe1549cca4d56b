"""Tests for the brute-force grid and sampling oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import gauss_matrix
from optrig import (
    GridSpec,
    NonFiniteObjective,
    block_matvec,
    block_vdot,
    grid_min_complex,
    grid_min_real,
    operator_norms,
    sphere_refine_min,
    sphere_sample_min,
)
from optrig.oracles import (
    _SWEEP_PHI,
    _SWEEP_S,
    _ZOOM_MAX_ROUNDS,
    _ZOOM_POINTS,
    _ZOOM_SHRINKS,
    _sweep_vectors_c2,
    _zoom_seeds,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def rayleigh(H):
    """Column-wise Re <Hx, x>."""

    def value(X):
        return np.real(block_vdot(X, block_matvec(H, X)))

    return value


def rejecting_abs(X):
    """|x_0|, rejected (+inf) where |x_0| < 0.5."""
    a = np.abs(X[0])
    return np.where(a < 0.5, np.inf, a)


def constant(c):
    return lambda X: np.full(X.shape[1], c)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, points=2)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, refine_rounds=-1)


@given(st.floats(-3.0, 3.0), st.floats(0.1, 5.0))
def test_grid_min_real_finds_parabola_vertex(center, curvature):
    spec = GridSpec(-5.0, 5.0)
    x, v = grid_min_real(lambda t: curvature * (t - center) ** 2 + 1.0, spec)
    assert x == pytest.approx(center, abs=1e-3)
    assert v == pytest.approx(1.0, abs=1e-4)


def test_grid_min_real_honors_bounds():
    x, v = grid_min_real(lambda t: (t - 10.0) ** 2, GridSpec(-1.0, 1.0))
    assert x == pytest.approx(1.0)
    assert v == pytest.approx(81.0)


def test_grid_min_real_rejects_nan():
    with pytest.raises(NonFiniteObjective):
        grid_min_real(lambda t: np.full(t.shape, np.nan), GridSpec(0.0, 1.0))


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_grid_min_complex_finds_disk_center(re, im):
    z0 = complex(re, im)
    z, v = grid_min_complex(lambda z: abs(z - z0), 4.0, GridSpec(-4.0, 4.0, 41, 4))
    assert abs(z - z0) < 2e-3
    assert v < 2e-3


def test_grid_min_complex_validates_radius():
    with pytest.raises(ValueError):
        grid_min_complex(lambda z: abs(z), 0.0, GridSpec(-1.0, 1.0))


@given(seeds)
def test_sphere_sample_min_upper_bounds_rayleigh_floor(seed):
    rng = np.random.default_rng(seed)
    m = gauss_matrix(rng, 3)
    H = (m + m.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(H)

    value = rayleigh(H)

    v, x = sphere_sample_min(value, 3, samples=4000, seed=seed)
    assert eigs[0] - 1e-12 <= v
    # raw sampling resolution at n = 3 is coarse; allow a spread-relative gap
    assert v <= eigs[0] + 0.05 * (eigs[-1] - eigs[0]) + 1e-9
    assert value(x[:, None])[0] == pytest.approx(v)


def test_sphere_sample_min_exact_on_c2_sweep():
    # the n = 2 deterministic sweep covers the sphere finely enough that
    # a smooth objective is matched to much better than the 1e-3 contract
    H = np.diag([-1.0, 2.0])
    value = rayleigh(H)

    v, _ = sphere_sample_min(value, 2, samples=10, seed=0)
    assert v == pytest.approx(-1.0, abs=1e-4)


def test_sphere_sample_min_skips_rejected_points():
    v, x = sphere_sample_min(rejecting_abs, 2, samples=500, seed=1)
    assert v >= 0.5
    assert np.isfinite(v)


def test_sphere_sample_min_rejects_nan_and_empty():
    with pytest.raises(NonFiniteObjective):
        sphere_sample_min(constant(np.nan), 2, samples=3, seed=0)
    with pytest.raises(NonFiniteObjective):
        sphere_sample_min(constant(np.inf), 3, samples=3, seed=0)
    with pytest.raises(ValueError):
        sphere_sample_min(constant(0.0), 2, samples=0, seed=0)


def test_sphere_sample_min_deterministic():
    def value(X):
        return np.abs(X[0])

    a = sphere_sample_min(value, 3, samples=200, seed=9)
    b = sphere_sample_min(value, 3, samples=200, seed=9)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_sphere_refine_min_resolves_rayleigh_floor():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = g + g.conj().T
        value = rayleigh(H)

        lo = float(np.linalg.eigvalsh(H)[0])
        v, x = sphere_refine_min(value, n, samples=2000, seed=0)
        assert v >= lo - 1e-12
        assert v == pytest.approx(lo, abs=1e-4)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)


def test_sphere_refine_min_beats_plain_sampling():
    # Modulus pairing objective with a zero floor: plain sampling stalls,
    # the resampling stages should get within 1e-6 of zero.
    K = np.diag([-0.5j, 0.5j])

    def value(X):
        return np.abs(block_vdot(X, block_matvec(K, X)))

    v, _ = sphere_refine_min(value, 2, samples=2000, seed=3)
    assert v < 1e-6


def test_sphere_refine_min_is_upper_bound_and_deterministic():
    def value(X):
        return np.abs(X[0]) ** 2 + 0.25

    a = sphere_refine_min(value, 3, samples=300, rounds=4, seed=7)
    b = sphere_refine_min(value, 3, samples=300, rounds=4, seed=7)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])
    assert a[0] >= 0.25


def test_sphere_refine_min_validates_and_rejects_nan():
    with pytest.raises(ValueError):
        sphere_refine_min(constant(0.0), 2, samples=0)
    with pytest.raises(ValueError):
        sphere_refine_min(constant(0.0), 2, chains=0)
    with pytest.raises(ValueError):
        sphere_refine_min(constant(0.0), 2, rounds=-1)
    with pytest.raises(NonFiniteObjective):
        sphere_refine_min(constant(np.nan), 2, samples=3)
    with pytest.raises(NonFiniteObjective):
        sphere_refine_min(constant(np.inf), 2, samples=3)


# --- block evaluation against a one-point-at-a-time reference ---------------


class Reference:
    """The oracles as loops that score one point per objective call.

    Each follows the same rules as the block oracles: same grids, same
    stream order of samples and perturbations, strict improvement so the
    first minimum wins, +inf skipped by the samplers. Rounds counts, for
    sphere_refine_min, the improvements each chain round made.
    """

    def __init__(self, objective):
        self.objective = objective
        self.rounds = []

    def scalar(self, z):
        v = float(self.objective(np.array([z]))[0])
        if not np.isfinite(v):
            raise NonFiniteObjective("grid objective returned a non-finite value")
        return v

    def vector(self, x):
        v = float(self.objective(x[:, None])[0])
        if np.isnan(v) or v == -np.inf:
            raise NonFiniteObjective("sphere objective returned NaN or -inf")
        return v

    def grid_min_real(self, spec):
        lo, hi = spec.lo, spec.hi
        best_x, best_v = lo, np.inf
        for _ in range(spec.refine_rounds + 1):
            for x in np.linspace(lo, hi, spec.points):
                v = self.scalar(float(x))
                if v < best_v:
                    best_x, best_v = float(x), v
            span = hi - lo
            half = max(span / 20.0, span / (spec.points - 1))
            lo, hi = max(spec.lo, best_x - half), min(spec.hi, best_x + half)
        return best_x, best_v

    def grid_min_complex(self, radius, spec):
        re_lo, re_hi, im_lo, im_hi = -radius, radius, -radius, radius
        best_z, best_v = 0j, np.inf
        for _ in range(spec.refine_rounds + 1):
            for re in np.linspace(re_lo, re_hi, spec.points):
                for im in np.linspace(im_lo, im_hi, spec.points):
                    v = self.scalar(complex(re, im))
                    if v < best_v:
                        best_z, best_v = complex(re, im), v
            span = max(re_hi - re_lo, im_hi - im_lo)
            half = max(span / 20.0, span / (spec.points - 1))
            re_lo, re_hi = max(-radius, best_z.real - half), min(radius, best_z.real + half)
            im_lo, im_hi = max(-radius, best_z.imag - half), min(radius, best_z.imag + half)
        return best_z, best_v

    def pool(self, rng, n, samples):
        pool = []
        while len(pool) < samples:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if np.linalg.norm(v) >= 1e-12:
                pool.append(v / np.linalg.norm(v))
        if n == 2:
            pool.extend(_sweep_vectors_c2())
        return pool

    def zoom(self, s, phi, best_v, best_x):
        ws, wp = 1.0 / (_SWEEP_S - 1), 2.0 * np.pi / _SWEEP_PHI
        local_v, shrinks = np.inf, 0
        for _ in range(_ZOOM_MAX_ROUNDS):
            grid_s = np.linspace(max(0.0, s - ws), min(1.0, s + ws), _ZOOM_POINTS)
            grid_p = np.linspace(phi - wp, phi + wp, _ZOOM_POINTS)
            pick = None
            for a, si in enumerate(grid_s):
                for b, pi in enumerate(grid_p):
                    x = np.array([np.sqrt(1.0 - si), np.sqrt(si) * np.exp(1j * pi)])
                    v = self.vector(x)
                    if v < local_v:
                        local_v, pick = v, (a, b, float(si), float(pi))
                    if v < best_v:
                        best_v, best_x = v, x
            on_edge = False
            if pick is not None:
                a, b, s, phi = pick
                on_edge = (
                    (a == 0 and grid_s[0] > 0.0)
                    or (a == _ZOOM_POINTS - 1 and grid_s[-1] < 1.0)
                    or b in (0, _ZOOM_POINTS - 1)
                )
            if not on_edge:
                ws, wp, shrinks = ws * 0.15, wp * 0.15, shrinks + 1
                if shrinks >= _ZOOM_SHRINKS:
                    break
        return best_v, best_x

    def sphere_sample_min(self, n, samples, seed):
        pool = self.pool(np.random.default_rng(seed), n, samples)
        values = np.array([self.vector(x) for x in pool])
        if not np.isfinite(values).any():
            raise NonFiniteObjective("every sampled point was rejected")
        best_v, best_x = np.inf, None
        for v, x in zip(values, pool):
            if v < best_v:
                best_v, best_x = float(v), x
        if n == 2:
            for s, phi in _zoom_seeds(np.array(pool), values, samples):
                best_v, best_x = self.zoom(s, phi, best_v, best_x)
        return best_v, best_x

    def sphere_refine_min(self, n, samples, rounds=8, chains=4, chain_samples=300, seed=0):
        rng = np.random.default_rng(seed)
        scored = [(self.vector(x), x) for x in self.pool(rng, n, samples)]
        scored = sorted([p for p in scored if p[0] != np.inf], key=lambda p: p[0])
        best_v, best_x = scored[0]
        for v, x in scored[:chains]:
            sigma = 0.4
            for _ in range(rounds):
                improved = 0
                for _ in range(chain_samples):
                    cand = x + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                    cand = cand / np.linalg.norm(cand)
                    fc = self.vector(cand)
                    if fc < v:
                        v, x, improved = fc, cand, improved + 1
                self.rounds.append(improved)
                sigma *= 0.35
            if v < best_v:
                best_v, best_x = v, x
        return best_v, best_x


def counted(objective, calls):
    def value(arg):
        calls.append(arg.shape)
        return objective(arg)

    return value


def assert_same(got, ref):
    assert abs(got[0] - ref[0]) <= 1e-12
    assert np.array_equal(got[1], ref[1])


def norm_distance(T, A):
    """||T - s*A|| for each scalar s, a convex objective with a unique minimum."""
    return lambda s: operator_norms(T - s[:, None, None] * A)


def flat_scalar(s):
    """max(|s| - 1, 0): flat (exactly 0) on the unit interval or disk."""
    return np.maximum(np.abs(s) - 1.0, 0.0)


GRID_OBJECTIVES = [
    pytest.param(norm_distance(np.diag([1.0, 3.0, -2.0]), np.eye(3)), id="norm"),
    pytest.param(flat_scalar, id="flat"),
]


@pytest.mark.parametrize("f", GRID_OBJECTIVES)
def test_grid_min_real_matches_reference(f):
    spec = GridSpec(-3.0, 2.5)
    assert_same(grid_min_real(f, spec), Reference(f).grid_min_real(spec))


@pytest.mark.parametrize("f", GRID_OBJECTIVES)
def test_grid_min_complex_matches_reference(f):
    spec = GridSpec(-3.0, 3.0, points=21, refine_rounds=2)
    got = grid_min_complex(f, 3.0, spec)
    ref = Reference(f).grid_min_complex(3.0, spec)
    assert abs(got[1] - ref[1]) <= 1e-12
    assert got[0] == ref[0]


def _rayleigh2():
    return rayleigh(np.array([[1.0, 0.5 - 0.3j], [0.5 + 0.3j, -0.4]]))


def _rayleigh3():
    m = gauss_matrix(np.random.default_rng(5), 3)
    return rayleigh((m + m.conj().T) / 2.0)


def _flat(X):
    """max(|x_0|^2, 0.3): every point with |x_0|^2 <= 0.3 ties for the minimum."""
    return np.maximum(np.abs(X[0]) ** 2, 0.3)


SPHERE_OBJECTIVES = [
    pytest.param(_rayleigh2(), 2, id="rayleigh-n2"),
    pytest.param(_rayleigh3(), 3, id="rayleigh-n3"),
    pytest.param(rejecting_abs, 2, id="rejecting"),
    pytest.param(_flat, 3, id="flat"),
]


@pytest.mark.parametrize("objective,n", SPHERE_OBJECTIVES)
def test_sphere_sample_min_matches_reference(objective, n):
    got = sphere_sample_min(objective, n, samples=300, seed=4)
    assert_same(got, Reference(objective).sphere_sample_min(n, samples=300, seed=4))


@pytest.mark.parametrize("objective,n", SPHERE_OBJECTIVES)
def test_sphere_refine_min_matches_reference(objective, n):
    got = sphere_refine_min(objective, n, samples=300, rounds=3, chain_samples=100, seed=2)
    ref = Reference(objective).sphere_refine_min(
        n, samples=300, rounds=3, chain_samples=100, seed=2
    )
    assert_same(got, ref)


def test_sphere_refine_min_chain_walks_each_improvement_in_one_call():
    # one bad start: the first round of its chain improves many times
    objective = _rayleigh3()
    calls = []
    got = sphere_refine_min(counted(objective, calls), 3, samples=1, chains=1, seed=6)
    reference = Reference(objective)
    assert_same(got, reference.sphere_refine_min(3, samples=1, chains=1, seed=6))
    assert reference.rounds[0] >= 8
    # the pool, then one call per improvement plus one per round
    assert len(calls) == 1 + sum(k + 1 for k in reference.rounds)


def test_grid_min_complex_scores_one_row_per_call():
    calls = []
    spec = GridSpec(-2.0, 2.0, points=31, refine_rounds=2)
    grid_min_complex(counted(flat_scalar, calls), 2.0, spec)
    assert calls == [(spec.points,)] * (spec.points * (spec.refine_rounds + 1))


@pytest.mark.parametrize(
    "run",
    [
        lambda f: grid_min_real(lambda s: f(s)[:-1], GridSpec(0.0, 1.0)),
        lambda f: grid_min_complex(lambda s: f(s)[:, None], 1.0, GridSpec(-1.0, 1.0, 5, 0)),
        lambda f: sphere_sample_min(lambda X: f(X[0])[1:], 2, samples=5),
        lambda f: sphere_refine_min(lambda X: np.full(X.shape, 1.0), 3, samples=5),
    ],
    ids=["grid-real", "grid-complex", "sample", "refine"],
)
def test_wrong_output_shape_raises(run):
    with pytest.raises(ValueError, match="one value per"):
        run(np.abs)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_grid_min_complex_rejects_infinite_values(bad):
    with pytest.raises(NonFiniteObjective):
        grid_min_complex(lambda s: np.full(s.shape, bad), 1.0, GridSpec(-1.0, 1.0, 5, 0))
