"""Seeded multi-restart minimization of real objectives on the complex unit sphere.

The engine is projected gradient descent: steepest descent in the ambient
space, projected onto the tangent space of the sphere, retracted by
renormalization, with Armijo backtracking on the step size.

All restarts run in lockstep as the columns of one n x R block. Each column
keeps its own start, step size, line-search phase, flat-streak counter and
stop, so it follows the same trajectory it would follow alone; a round of
the line search evaluates every column still searching in one call.

Objective convention: objectives and gradients are column-wise. objective(X)
takes X of shape (n, m) with unit columns and returns an array of m real
values; gradient(X) returns the (n, m) block of ambient gradients. A value
of +inf marks a rejected point (for example inside a ||Tx|| ~ 0 guard
region); the line search skips such candidates and starting points are
redrawn. NaN or -inf raises NonFiniteObjective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteObjective
from .linalg import _col_vdot, haar_unit_vector

Objective = Callable[[np.ndarray], np.ndarray]
Gradient = Callable[[np.ndarray], np.ndarray]

_ARMIJO = 1e-4
_FD_STEP = 1e-6
_MAX_STEP = 1e6
_START_ATTEMPTS = 100


@dataclass(frozen=True)
class SphereOptConfig:
    """Restart count, iteration budget, tolerances, and base seed."""

    restarts: int = 32
    max_iters: int = 500
    step_tol: float = 1e-12
    value_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")
        if self.step_tol <= 0 or self.value_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class SphereOptResult:
    value: float
    argmin: np.ndarray
    converged: bool
    restarts_agreeing: int


def _checked(objective: Objective, X: np.ndarray) -> np.ndarray:
    v = np.asarray(objective(X), dtype=np.float64)
    if v.shape != (X.shape[1],):
        raise ValueError(
            f"objective must return one value per column: expected shape "
            f"{(X.shape[1],)}, got {v.shape}"
        )
    if not (v > -np.inf).all():
        raise NonFiniteObjective("objective returned NaN or -inf on the sphere")
    return v


def _fd_gradient(objective: Objective, X: np.ndarray, fX: np.ndarray) -> np.ndarray:
    """Column-wise central-difference gradient, falling back to one-sided
    differences when a probe lands in a rejected (+inf) region next to the
    iterate. All 4n probes of all columns go through one objective call."""
    n, m = X.shape
    h = _FD_STEP
    # steps h*e_j, then h*i*e_j, along axis 1; columns of X along axis 2
    E = (np.concatenate([np.eye(n), 1j * np.eye(n)], axis=1) * h)[:, :, None]
    probes = np.concatenate([X[:, None, :] + E, X[:, None, :] - E], axis=1).reshape(n, -1)
    probes /= np.sqrt(_col_vdot(probes, probes).real)
    fu, fd = _checked(objective, probes).reshape(2, 2 * n, m)
    up, dn = np.isfinite(fu), np.isfinite(fd)
    with np.errstate(invalid="ignore"):
        # rejected on both sides: no usable slope in this coordinate
        slope = np.select(
            [up & dn, up, dn], [(fu - fd) / (2.0 * h), (fu - fX) / h, (fX - fd) / h], 0.0
        )
    return slope[:n] + 1.0j * slope[n:]


def _starts(objective: Objective, n: int, cfg: SphereOptConfig) -> tuple[np.ndarray, np.ndarray]:
    """Starting block: column k is drawn from its own seed (spawn key k) and
    redrawn from that seed's stream while the objective rejects it."""
    rngs = [
        np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k,)))
        for k in range(cfg.restarts)
    ]
    X = np.empty((n, cfg.restarts), dtype=np.complex128)
    fX = np.empty(cfg.restarts)
    pending = np.arange(cfg.restarts)
    for _ in range(_START_ATTEMPTS):
        for k in pending:
            X[:, k] = haar_unit_vector(rngs[k], n)
        fX[pending] = _checked(objective, X[:, pending])
        pending = pending[fX[pending] == np.inf]
        if pending.size == 0:
            return X, fX
    raise NonFiniteObjective("objective rejected every sampled starting point")


def _line_search(
    objective: Objective,
    X: np.ndarray,
    fX: np.ndarray,
    G: np.ndarray,
    gn2: np.ndarray,
    t: np.ndarray,
    step_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Armijo backtracking along -G from the steps t, column by column.

    A column halves its step until the weak decrease test passes or the
    step drops below step_tol (then it found no step). The first step
    passing the test can be the oscillating overshoot of a quadratic valley
    (it flips the iterate across the basin with barely any drop), so a
    column that passed greedily probes half steps and keeps them while they
    do better. Updates t in place; returns the new points, their values and
    the mask of columns that found a step.
    """
    Y = X.copy()
    fY = np.full(fX.shape, np.inf)
    found = np.zeros(fX.shape, dtype=bool)
    searching = np.ones(fX.shape, dtype=bool)
    while True:
        searching &= t >= np.where(found, 2.0 * step_tol, step_tol)
        ids = searching.nonzero()[0]
        if ids.size == 0:
            return Y, fY, found
        probe = found[ids]
        ts = t[ids]
        C = X[:, ids] - np.where(probe, 0.5 * ts, ts) * G[:, ids]
        C /= np.sqrt(_col_vdot(C, C).real)
        fC = _checked(objective, C)
        better = np.where(probe, fC < fY[ids], fC <= fX[ids] - _ARMIJO * ts * gn2[ids])
        take = ids[better]
        Y[:, take] = C[:, better]
        fY[take] = fC[better]
        found[take] = True
        # halve after a half step that helped or a step that failed the test
        t[ids[probe == better]] *= 0.5
        searching[ids[probe & ~better]] = False


def minimize_on_sphere(
    objective: Objective,
    n: int,
    cfg: SphereOptConfig | None = None,
    gradient: Gradient | None = None,
) -> SphereOptResult:
    """Minimize a real column-wise objective over unit vectors in C^n.

    Deterministic given cfg.seed: each restart draws from its own derived
    seed, the winner is the lowest value with ties broken by the lowest
    restart index. restarts_agreeing counts restarts whose final value lies
    within value_tol of the winner.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    cfg = cfg if cfg is not None else SphereOptConfig()
    X, fX = _starts(objective, n, cfg)
    t = np.ones(cfg.restarts)
    flat = np.zeros(cfg.restarts, dtype=np.int64)
    live = np.arange(cfg.restarts)
    for _ in range(cfg.max_iters):
        x = X[:, live]
        g = gradient(x) if gradient is not None else _fd_gradient(objective, x, fX[live])
        gt = g - _col_vdot(x, g).real * x
        gn2 = _col_vdot(gt, gt).real
        if not np.isfinite(gn2).all():
            raise NonFiniteObjective("gradient evaluated to a non-finite value")
        # a vanishing tangent gradient stops its column as converged
        moving = gn2 > 1e-30
        live = live[moving]
        step = np.minimum(2.0 * t[live], _MAX_STEP)
        Y, fY, found = _line_search(
            objective, x[:, moving], fX[live], gt[:, moving], gn2[moving], step, cfg.step_tol
        )
        t[live] = step
        # a column whose line search found no step stops as converged
        live = live[found]
        drop = fX[live] - fY[found]
        X[:, live] = Y[:, found]
        fX[live] = fY[found]
        # relative to |f| with a value_tol^2 floor so objectives bottoming
        # out at zero keep descending instead of stalling at ~value_tol
        level = drop <= cfg.value_tol * (np.abs(fX[live]) + cfg.value_tol)
        flat[live] = np.where(level, flat[live] + 1, 0)
        live = live[flat[live] < 3]
        if live.size == 0:
            break
    converged = np.ones(cfg.restarts, dtype=bool)
    converged[live] = False  # still descending when the iteration budget ran out
    k = int(np.argmin(fX))
    agreeing = int(np.count_nonzero(fX <= fX[k] + cfg.value_tol))
    return SphereOptResult(
        value=float(fX[k]),
        argmin=X[:, k].copy(),
        converged=bool(converged[k]),
        restarts_agreeing=agreeing,
    )

