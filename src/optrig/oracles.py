"""Brute-force verification oracles: dense scalar grids and sphere sampling.

These deliberately share no optimization machinery with the rest of the
package. Everything is direct evaluation: scalar grids with recursive
refinement around the incumbent, and Haar sampling plus an exhaustive
two-dimensional parameterized sweep. A grid or sample minimum is an upper
bound on the true minimum, so main-module results must come in at or below
oracle results (up to tolerance).

Objectives are evaluated a block at a time:

- a grid objective maps a 1-D array of scalars (real for grid_min_real,
  complex for grid_min_complex) to one value per scalar. A real grid scores
  a whole round in one call; a complex grid makes one call per grid row.
- a sphere objective maps an (n, m) block of unit columns to m values.

The first minimum wins on ties, as argmin does. NaN and -inf raise
NonFiniteObjective, and so does +inf on a grid; the sphere samplers skip
+inf as a rejected point. An output of the wrong shape raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteObjective
from .linalg import block_norms

_SHRINK = 10.0
_SWEEP_S = 500
_SWEEP_PHI = 64
_ZOOM_SHRINKS = 5
_ZOOM_MAX_ROUNDS = 40
_ZOOM_POINTS = 17
_ZOOM_SEEDS = 6


@dataclass(frozen=True)
class GridSpec:
    """Scalar grid: [lo, hi] (or a disk radius for complex grids), point count, refinement rounds."""

    lo: float
    hi: float
    points: int = 401
    refine_rounds: int = 3

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("grid requires lo < hi")
        if self.points < 3:
            raise ValueError("grid requires at least 3 points")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")


def _grid_values(f: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    v = np.asarray(f(points), dtype=np.float64)
    if v.shape != points.shape:
        raise ValueError(
            f"grid objective must return one value per point: expected shape "
            f"{points.shape}, got {v.shape}"
        )
    if not np.isfinite(v).all():
        raise NonFiniteObjective("oracle objective returned a non-finite value")
    return v


def grid_min_real(
    f: Callable[[np.ndarray], np.ndarray], spec: GridSpec
) -> tuple[float, float]:
    """Minimum of a real function on [lo, hi] by dense scan plus refinement.

    f maps a 1-D array of points to their values; each round is one call.
    """
    lo, hi = spec.lo, spec.hi
    best_x, best_v = lo, np.inf
    for _ in range(spec.refine_rounds + 1):
        xs = np.linspace(lo, hi, spec.points)
        vals = _grid_values(f, xs)
        k = int(np.argmin(vals))
        if vals[k] < best_v:
            best_x, best_v = float(xs[k]), float(vals[k])
        span = hi - lo
        half = max(span / (2.0 * _SHRINK), span / (spec.points - 1))
        lo = max(spec.lo, best_x - half)
        hi = min(spec.hi, best_x + half)
    return best_x, best_v


def grid_min_complex(
    f: Callable[[np.ndarray], np.ndarray], radius: float, spec: GridSpec
) -> tuple[complex, float]:
    """Minimum of a real function of a complex scalar over the square [-r, r]^2.

    f maps a 1-D complex array to its values. Each call scores one grid row
    (fixed real part, spec.points imaginary parts), which bounds what a
    caller stacks per call by spec.points whatever its own size.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    re_lo, re_hi = -radius, radius
    im_lo, im_hi = -radius, radius
    best_z, best_v = 0.0 + 0.0j, np.inf
    for _ in range(spec.refine_rounds + 1):
        res = np.linspace(re_lo, re_hi, spec.points)
        ims = np.linspace(im_lo, im_hi, spec.points)
        for re in res:
            row = np.empty(spec.points, dtype=np.complex128)
            row.real, row.imag = re, ims
            vals = _grid_values(f, row)
            k = int(np.argmin(vals))
            if vals[k] < best_v:
                best_z, best_v = complex(row[k]), float(vals[k])
        span = max(re_hi - re_lo, im_hi - im_lo)
        half = max(span / (2.0 * _SHRINK), span / (spec.points - 1))
        re_lo = max(-radius, best_z.real - half)
        re_hi = min(radius, best_z.real + half)
        im_lo = max(-radius, best_z.imag - half)
        im_hi = min(radius, best_z.imag + half)
    return best_z, best_v


def _sample_sphere(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """m Haar unit vectors in C^n as the rows of an (m, n) array.

    Each vector is n real parts, then n imaginary parts, from the stream; a
    draw of norm below 1e-12 is dropped and the next draw takes its place.
    """
    rows = []
    while m > 0:
        z = rng.standard_normal((m, 2, n))
        v = z[:, 0] + 1j * z[:, 1]
        nrm = block_norms(v.T)
        keep = nrm >= 1e-12
        rows.append(v[keep] / nrm[keep, None])
        m -= int(np.count_nonzero(keep))
    return np.concatenate(rows)


def _sphere_values(objective: Callable[[np.ndarray], np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The objective on the rows of an (m, n) array, passed as one (n, m) block."""
    v = np.asarray(objective(rows.T), dtype=np.float64)
    if v.shape != (rows.shape[0],):
        raise ValueError(
            f"sphere objective must return one value per column: expected shape "
            f"{(rows.shape[0],)}, got {v.shape}"
        )
    if not (v > -np.inf).all():
        raise NonFiniteObjective("oracle objective returned NaN or -inf")
    return v


def _sweep_vectors_c2() -> np.ndarray:
    """Deterministic cover of the C^2 sphere modulo global phase."""
    s = np.linspace(0.0, 1.0, _SWEEP_S)
    phi = np.linspace(0.0, 2.0 * np.pi, _SWEEP_PHI, endpoint=False)
    return _c2_vectors(s, phi)


def _c2_vectors(s: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(sqrt(1-s), sqrt(s)*e^{i*phi}) for every (s, phi) pair, s-major, as rows."""
    out = np.empty((s.size, phi.size, 2), dtype=np.complex128)
    out[:, :, 0] = np.sqrt(1.0 - s)[:, None]
    out[:, :, 1] = np.sqrt(s)[:, None] * np.exp(1j * phi)[None, :]
    return out.reshape(-1, 2)


def _c2_params(x: np.ndarray) -> tuple[float, float]:
    """(s, phi) with x ~ (sqrt(1-s), sqrt(s)*e^{i*phi}) up to global phase."""
    s = float(min(1.0, abs(x[1]) ** 2))
    if abs(x[0]) < 1e-12 or abs(x[1]) < 1e-12:
        return s, 0.0
    return s, float(np.angle(x[1]) - np.angle(x[0]))


def _zoom_c2(
    objective: Callable[[np.ndarray], np.ndarray],
    s: float,
    phi: float,
    best_v: float,
    best_x: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Pattern sweep around a (s, phi) cell: travel, then shrink.

    The base grid's phi step is ~0.1 rad, which caps its accuracy near sharp
    minima well above the 1e-3 the cross-checks expect. The window recenters
    on its best point every round; while that point sits on the window edge
    the width is kept (a shallow diagonal trough can put the true minimum
    several cells away from the coarse winner), once it lands inside the
    window shrinks. Deterministic, direct evaluation only; each round's
    window is one objective call.
    """
    ws, wp = 1.0 / (_SWEEP_S - 1), 2.0 * np.pi / _SWEEP_PHI
    local_v = np.inf
    shrinks = 0
    for _ in range(_ZOOM_MAX_ROUNDS):
        grid_s = np.linspace(max(0.0, s - ws), min(1.0, s + ws), _ZOOM_POINTS)
        grid_p = np.linspace(phi - wp, phi + wp, _ZOOM_POINTS)
        window = _c2_vectors(grid_s, grid_p)
        vals = _sphere_values(objective, window)
        k = int(np.argmin(vals))
        on_edge = False
        if vals[k] < local_v:
            local_v = vals[k]
            a, b = divmod(k, _ZOOM_POINTS)
            s, phi = float(grid_s[a]), float(grid_p[b])
            # a clipped s border is a domain boundary, not a travel signal
            on_edge = (
                (a == 0 and grid_s[0] > 0.0)
                or (a == _ZOOM_POINTS - 1 and grid_s[-1] < 1.0)
                or b in (0, _ZOOM_POINTS - 1)
            )
        if vals[k] < best_v:
            best_v, best_x = float(vals[k]), window[k]
        if not on_edge:
            ws *= 0.15
            wp *= 0.15
            shrinks += 1
            if shrinks >= _ZOOM_SHRINKS:
                break
    return best_v, best_x


def _zoom_seeds(
    candidates: np.ndarray, values: np.ndarray, sweep_start: int
) -> list[tuple[float, float]]:
    """Distinct (s, phi) cells worth zooming.

    The global best alone is not enough: a narrow valley can dip lower than
    the coarse grid's winner while registering higher at every coarse point,
    so the best few well-separated sweep cells are zoomed too.
    """
    seeds = [_c2_params(candidates[int(np.argmin(values))])]
    order = np.argsort(values[sweep_start:], kind="stable") + sweep_start
    min_ds = 3.0 / (_SWEEP_S - 1)
    min_dp = 3.0 * 2.0 * np.pi / _SWEEP_PHI
    for idx in order[:40]:
        if not np.isfinite(values[idx]):
            break
        s, phi = _c2_params(candidates[idx])
        separated = True
        for s0, p0 in seeds:
            dp = abs((phi - p0 + np.pi) % (2.0 * np.pi) - np.pi)
            if abs(s - s0) < min_ds and dp < min_dp:
                separated = False
                break
        if separated:
            seeds.append((s, phi))
        if len(seeds) >= _ZOOM_SEEDS:
            break
    return seeds


def _pool(rng: np.random.Generator, n: int, samples: int) -> np.ndarray:
    """Haar samples, followed for n = 2 by the exact sweep, as rows."""
    pool = _sample_sphere(rng, n, samples)
    if n == 2:
        pool = np.concatenate([pool, _sweep_vectors_c2()])
    return pool


def sphere_sample_min(
    objective: Callable[[np.ndarray], np.ndarray],
    n: int,
    samples: int = 10_000,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Minimum of the objective over Haar samples (plus an exact sweep for n = 2).

    The whole pool is scored in one call. Points where the objective
    returns +inf are skipped (rejected by the caller's own guard); NaN and
    -inf raise NonFiniteObjective.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pool = _pool(np.random.default_rng(seed), n, samples)
    values = _sphere_values(objective, pool)
    k = int(np.argmin(values))
    if values[k] == np.inf:
        raise NonFiniteObjective("every sampled point was rejected")
    best_v, best_x = float(values[k]), pool[k]
    if n == 2:
        for s, phi in _zoom_seeds(pool, values, samples):
            best_v, best_x = _zoom_c2(objective, s, phi, best_v, best_x)
    return best_v, best_x.copy()


def _chain(
    objective: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    v: float,
    x: np.ndarray,
    rounds: int,
    chain_samples: int,
) -> tuple[float, np.ndarray]:
    """Local resampling from x: each round tries chain_samples Gaussian
    perturbations in stream order and moves to each strict improvement.

    A round draws all its perturbations up front, then scores every
    candidate left from the current point in one call; the first
    improvement is taken and the candidates after it are rebuilt from the
    new point. That is the sequential walk in (improvements + 1) calls.
    """
    sigma = 0.4
    for _ in range(rounds):
        z = rng.standard_normal((chain_samples, 2, x.size))
        steps = sigma * (z[:, 0] + 1j * z[:, 1])
        i = 0
        while i < chain_samples:
            cand = x + steps[i:]
            cand = cand / block_norms(cand.T)[:, None]
            values = _sphere_values(objective, cand)
            better = np.flatnonzero(values < v)
            if better.size == 0:
                break
            j = int(better[0])
            v, x = float(values[j]), cand[j]
            i += j + 1
        sigma *= 0.35
    return v, x


def sphere_refine_min(
    objective: Callable[[np.ndarray], np.ndarray],
    n: int,
    samples: int = 4000,
    rounds: int = 8,
    chains: int = 4,
    chain_samples: int = 300,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Sampling oracle with local resampling, for dimensions the raw
    sampler cannot resolve (pure Haar sampling stalls around 1e-1 gaps
    for n = 4 at any affordable sample count).

    Stage one scores Haar samples (plus the exact n = 2 sweep) in one call.
    Stage two reruns `rounds` of Gaussian perturbations around the best
    `chains` starting points with the scale shrinking each round. Still
    direct evaluation only, and still an upper bound on the true minimum.
    """
    if samples < 1 or chains < 1 or chain_samples < 1:
        raise ValueError("samples, chains, and chain_samples must be >= 1")
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    rng = np.random.default_rng(seed)
    pool = _pool(rng, n, samples)
    values = _sphere_values(objective, pool)
    kept = np.flatnonzero(values != np.inf)
    if kept.size == 0:
        raise NonFiniteObjective("every sampled point was rejected")
    order = kept[np.argsort(values[kept], kind="stable")]
    best_v, best_x = float(values[order[0]]), pool[order[0]]
    for k in order[:chains]:
        v, x = _chain(objective, rng, float(values[k]), pool[k], rounds, chain_samples)
        if v < best_v:
            best_v, best_x = v, x
    return best_v, best_x.copy()
