"""Shared fixtures: seeded matrix builders and a deterministic hypothesis profile."""

import hypothesis
import numpy as np
import pytest

from optrig import hermitian_min_eig

hypothesis.settings.register_profile(
    "ci", derandomize=True, max_examples=25, deadline=None
)
hypothesis.settings.load_profile("ci")


def gauss_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex Ginibre matrix with unit-variance entries."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def accretive_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random matrix shifted so the hermitian part stays above 0.12."""
    m = gauss_matrix(rng, n)
    floor = hermitian_min_eig(m)
    if floor < 0.12:
        m = m + (0.12 - floor) * np.eye(n)
    return m


def invertible_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random matrix with singular values clipped away from zero."""
    m = gauss_matrix(rng, n)
    u, s, vh = np.linalg.svd(m)
    return u @ np.diag(np.clip(s, 0.1, None)) @ vh


def unitary_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(gauss_matrix(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def hpd_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian positive definite U diag(lam) U* with lam uniform in [0.1, 5]."""
    U = unitary_matrix(rng, n)
    return U @ np.diag(rng.uniform(0.1, 5.0, n)) @ U.conj().T


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
