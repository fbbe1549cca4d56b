"""Complex linear algebra primitives shared by every other module.

Operators are square complex ndarrays, vectors are 1-d complex ndarrays,
and a block of m vectors is an (n, m) ndarray with one vector per column.
The inner product is linear in the first slot and conjugate-linear in the
second, so ``inner(u, v) == np.vdot(v, u)``.

The ``block_*`` kernels and ``operator_norms`` evaluate a whole block or
stack in one call and round every entry exactly as the one-vector (or
one-matrix) numpy call rounds it, so a block evaluation reproduces a loop
over vectors bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroOperator


def as_operator(a) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def as_operator_pair(T, A) -> tuple[np.ndarray, np.ndarray]:
    """Validate two operators acting on the same space."""
    T = as_operator(T)
    A = as_operator(A)
    if T.shape != A.shape:
        raise DimensionMismatch(f"operator shapes differ: {T.shape} vs {A.shape}")
    return T, A


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Validate and return a finite complex vector, optionally of length n."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if n is not None and v.size != n:
        raise DimensionMismatch(f"expected a vector of length {n}, got {v.size}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector entries must be finite")
    return v


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Inner product, linear in u and conjugate-linear in v."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise DimensionMismatch(f"vector shapes differ: {u.shape} vs {v.shape}")
    return complex(np.vdot(v, u))


def operator_norm(T: np.ndarray) -> float:
    """Largest singular value of T, i.e. max of ||Tx|| over unit x."""
    T = np.asarray(T, dtype=np.complex128)
    if T.size == 0:
        return 0.0
    return float(np.linalg.svd(T, compute_uv=False)[0])


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """operator_norm of each matrix in an (m, n, n) stack, by one stacked SVD."""
    stack = np.asarray(stack, dtype=np.complex128)
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entry i is u[i] @ v[i], one BLAS dot per row as np.dot does for one pair."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def block_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each column of an (n, m) complex block."""
    P = np.asarray(X, dtype=np.complex128).T
    # a complex norm is sqrt(re . re + im . im), each a dot over a strided view
    return np.sqrt(_row_dots(P.real, P.real) + _row_dots(P.imag, P.imag))


def block_vdot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """np.vdot(X[:, j], Y[:, j]) for each column j of two (n, m) blocks.

    This rounds as np.vdot does on contiguous vectors; that takes contiguous
    rows of the transposed blocks, which are copied when they are not.
    """
    P = np.ascontiguousarray(np.asarray(X, dtype=np.complex128).T)
    Q = np.ascontiguousarray(np.asarray(Y, dtype=np.complex128).T)
    return _row_dots(P.conj(), Q)


def block_matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The block whose column j is M @ X[:, j], for an (n, m) block X."""
    P = np.asarray(X).T
    return (M @ P[:, :, None])[:, :, 0].T


def sigma_min(T: np.ndarray) -> float:
    """Smallest singular value of T; zero iff T is singular."""
    T = np.asarray(T, dtype=np.complex128)
    return float(np.linalg.svd(T, compute_uv=False)[-1])


def hermitian_part(T: np.ndarray) -> np.ndarray:
    """The Hermitian part (T + T*) / 2."""
    T = np.asarray(T, dtype=np.complex128)
    return (T + T.conj().T) / 2.0


def hermitian_min_eig(T: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part.

    Positive iff T is strongly accretive, and then it equals the infimum
    of Re inner(Tx, x) over unit x.
    """
    return float(np.linalg.eigvalsh(hermitian_part(T))[0])


@dataclass(frozen=True)
class MaximizingSubspace:
    """Span of the right singular vectors of T that attain the norm.

    basis holds orthonormal columns (shape n x k); every basis column b
    satisfies ||Tb|| within tol_subspace * sigma_max of sigma_max.
    """

    basis: np.ndarray
    sigma_max: float

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def maximizing_subspace(T: np.ndarray, tol_subspace: float = 1e-8) -> MaximizingSubspace:
    """Orthonormal basis of the norm-attaining right singular subspace.

    Singular values within a relative tol_subspace of the largest are
    merged into one subspace so that near-degenerate directions are kept.
    """
    T = as_operator(T)
    _, s, vh = np.linalg.svd(T)
    smax = float(s[0])
    if smax == 0.0:
        raise ZeroOperator("maximizing subspace undefined for the zero operator")
    keep = s >= (1.0 - tol_subspace) * smax
    return MaximizingSubspace(basis=vh[keep].conj().T.copy(), sigma_max=smax)


def haar_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniformly random unit vector on the complex sphere in C^n."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    nrm = np.linalg.norm(v)
    while nrm < 1e-12:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nrm = np.linalg.norm(v)
    return v / nrm


def phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude component is real positive.

    Anchoring on the peak (first peak on ties) keeps the convention stable
    under the ~1e-6 noise optimization leaves in near-zero components.
    """
    v = np.asarray(v, dtype=np.complex128)
    mags = np.abs(v)
    peak = float(mags.max(initial=0.0))
    if peak == 0.0:
        return v.copy()
    j = int(np.argmax(mags))
    return v * (np.conj(v[j]) / mags[j])
