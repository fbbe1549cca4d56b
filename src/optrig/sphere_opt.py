"""Configuration of the former seeded sphere search, kept for compatibility.

No library route searches the unit sphere any more: cos_t and total_cos_t
are eigenvalue searches that use no seed. Every function that takes a
SphereOptConfig accepts and ignores it, and the CLI still builds one from
--restarts and --seed, so existing callers and JSON output are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SphereOptConfig:
    """Restart count, iteration budget, tolerances, and base seed (all unused)."""

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
