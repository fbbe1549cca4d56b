"""Property sweeps over seeded random ensembles, printing worst-case gaps.

Checks, per matrix or pair:
  - the real and total min-max identities: the "min-max gap" is the distance
    between 1 - cos^2 from the direct route and the squared residual of the
    center-of-mass route
  - sin^2 + cos^2 = 1 and total_cos >= cos on accretive matrices
  - both orthogonality decision routes agree, and the center shifts
    T - eps0*A, T - lambda0*A are orthogonal to A
  - near the real verdict boundary, how often the two routes of
    is_real_orthogonal disagree: 40 orthogonal pairs (T, A), each with A
    moved to A + f 1e-6 ||A|| T/||T|| for 60 values of f in [0.2, 3], which
    turns the verdict near f = 1 at the default tol 1e-6. The two thresholds
    match only to first order, so some disagreements are expected there; the
    count is printed, not asserted.

Usage: python3 scripts/run_ensemble_checks.py [--count N] [--pairs N] [--seed S]
"""

import argparse
import time

import numpy as np

from optrig import (
    RouteDisagreement,
    cos_t,
    hermitian_min_eig,
    is_real_orthogonal,
    is_total_orthogonal,
    minmax_check_complex,
    minmax_check_real,
    real_center_of_mass,
    sin_t,
    total_center_of_mass,
    total_cos_t,
)


def gauss(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def accretive(rng: np.random.Generator, n: int) -> np.ndarray:
    m = gauss(rng, n)
    floor = hermitian_min_eig(m)
    if floor < 0.12:
        m = m + (0.12 - floor) * np.eye(n)
    return m


def invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    u, s, vh = np.linalg.svd(gauss(rng, n))
    return u @ np.diag(np.clip(s, 0.1, None)) @ vh


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(gauss(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def orthogonal_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """T = U diag(sigma) V* with sigma_1 simple, and A = U M V* with M[0, 0] = 0:
    the top right singular vector of T pairs to 0, so T is orthogonal to A."""
    sigma = np.concatenate([[1.5], np.sort(rng.uniform(0.1, 1.0, n - 1))[::-1]])
    U, V = unitary(rng, n), unitary(rng, n)
    M = gauss(rng, n)
    M[0, 0] = 0.0
    return (U * sigma) @ V.conj().T, U @ M @ V.conj().T


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=50, help="matrices per ensemble")
    ap.add_argument("--pairs", type=int, default=100, help="orthogonality pairs")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    sizes = [2, 3, 4]

    t0 = time.perf_counter()
    worst_real = worst_total = worst_identity = worst_order = 0.0
    for i in range(args.count):
        n = sizes[i % 3]
        T = accretive(rng, n)
        lhs, rhs = minmax_check_real(T)
        worst_real = max(worst_real, abs(lhs - rhs))
        c, _ = cos_t(T)
        s, _ = sin_t(T)
        tc, _ = total_cos_t(T)
        worst_identity = max(worst_identity, abs(s * s + c * c - 1.0))
        worst_order = max(worst_order, c - tc)
        S = invertible(rng, n)
        lhs, rhs = minmax_check_complex(S)
        worst_total = max(worst_total, abs(lhs - rhs))
    print(f"min-max gap, real variant      {worst_real:.3e}")
    print(f"min-max gap, total variant     {worst_total:.3e}")
    print(f"sin^2 + cos^2 - 1              {worst_identity:.3e}")
    print(f"cos - total_cos (should be <0) {worst_order:.3e}")

    agree = 0
    for i in range(args.pairs):
        n = sizes[i % 3]
        T = gauss(rng, n)
        A = invertible(rng, n)
        rv = is_real_orthogonal(T, A)
        tv = is_total_orthogonal(T, A)
        assert rv.route_w0 == rv.route_norm and tv.route_w0 == tv.route_norm
        rc = real_center_of_mass(T, A)
        assert is_real_orthogonal(T - rc.epsilon0 * A, A).orthogonal
        tcm = total_center_of_mass(T, A)
        assert is_total_orthogonal(T - tcm.lambda0 * A, A).orthogonal
        agree += 1
    print(f"orthogonality routes agreed on {agree}/{args.pairs} pairs; center shifts orthogonal")

    brng = np.random.default_rng([args.seed, 1])
    shifts = np.linspace(0.2, 3.0, 60)
    disagree = 0
    for i in range(40):
        T, A = orthogonal_pair(brng, sizes[i % 3])
        step = 1e-6 * np.linalg.norm(A, 2) / np.linalg.norm(T, 2) * T
        for f in shifts:
            try:
                is_real_orthogonal(T, A + f * step)
            except RouteDisagreement:
                disagree += 1
    print(f"real verdict routes disagreed near the boundary on {disagree}/{40 * len(shifts)} pairs")
    print(f"elapsed {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
