"""Birkhoff-James orthogonality of T to A, decided by two independent routes.

Route one works on the maximizing subspace of T: the values Re <Tx, Ax>
over norm-attaining unit x form a closed interval (the restriction of the
pairing to that subspace is a Hermitian quadratic form, so the interval is
its eigenvalue range), and T is real-orthogonal to A exactly when the
interval contains zero. The total variant asks for a norm-attaining x with
<Tx, Ax> ~ 0 in modulus: the distance from 0 to the (convex) numerical
range of the pairing form, read off eigenvectors without seeds.

Route two goes through the center of mass: T is real-orthogonal to A
exactly when 0 minimizes eps -> ||T - eps*A|| (totally: when no complex
shift beats ||T||). The two routes must agree; disagreement signals a
numerical failure and raises RouteDisagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .center_of_mass import (
    _real_form_witness,
    _total_form_witness,
    real_center_of_mass,
    total_center_of_mass,
)
from .errors import RouteDisagreement, ZeroOperator, ZeroRelativeOperator
from .linalg import as_operator_pair, maximizing_subspace, operator_norm, phase_normalize
from .sphere_opt import SphereOptConfig


@dataclass(frozen=True)
class AttainingInterval:
    """Range of Re <Tx, Ax> over norm-attaining unit vectors of T."""

    lo: float
    hi: float
    attaining_lo: np.ndarray
    attaining_hi: np.ndarray


@dataclass(frozen=True)
class OrthogonalityVerdict:
    orthogonal: bool
    route_w0: bool
    route_norm: bool
    witness: np.ndarray | None
    # what route_w0 was decided from: the attaining interval (real verdicts)
    # or the minimum of |<Tx, Ax>| over norm-attaining x (total verdicts)
    interval: AttainingInterval | None = None
    pairing_min: float | None = None


def _pairing_matrix(T: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis V of the maximizing subspace of T and K with <TVy, AVy> = y* K y."""
    V = maximizing_subspace(T).basis
    K = (A @ V).conj().T @ (T @ V)
    return V, K


def attaining_interval(T, A) -> AttainingInterval:
    """Interval [lo, hi] realized by Re <Tx, Ax> on the maximizing subspace of T.

    lo and hi are the extreme eigenvalues of the Hermitian part of the
    restricted pairing form; the attaining vectors are the corresponding
    eigenvectors pushed back to the full space.
    """
    T, A = as_operator_pair(T, A)
    if operator_norm(T) == 0.0:
        raise ZeroOperator("attaining interval undefined for the zero operator")
    return _interval_of(*_pairing_matrix(T, A))


def _interval_of(V: np.ndarray, K: np.ndarray) -> AttainingInterval:
    """Attaining interval from the pairing form K on the maximizing basis V."""
    kh = (K + K.conj().T) / 2.0
    lam, vec = np.linalg.eigh(kh)
    return AttainingInterval(
        lo=float(lam[0]),
        hi=float(lam[-1]),
        attaining_lo=phase_normalize(V @ vec[:, 0]),
        attaining_hi=phase_normalize(V @ vec[:, -1]),
    )


def attain_pairing_target(
    T, A, target: float, cfg: SphereOptConfig | None = None
) -> np.ndarray:
    """Unit x in the maximizing subspace of T with Re <Tx, Ax> = target.

    Demonstrates that the attaining interval fills up: x = sqrt(1 - t) x_lo +
    sqrt(t) x_hi with t = (target - lo) / (hi - lo) hits any target in it,
    a target outside gets the nearer end. cfg is accepted and ignored.
    """
    T, A = as_operator_pair(T, A)
    if operator_norm(T) == 0.0:
        raise ZeroOperator("attaining interval undefined for the zero operator")
    V, K = _pairing_matrix(T, A)
    y, _ = _real_form_witness(K, target)
    return phase_normalize(V @ y)


def total_pairing_min(
    T, A, cfg: SphereOptConfig | None = None
) -> tuple[float, np.ndarray]:
    """Minimum of |<Tx, Ax>| over norm-attaining unit x, with a minimizer.

    cfg is accepted for compatibility and ignored: nothing here is seeded.
    """
    T, A = as_operator_pair(T, A)
    if operator_norm(T) == 0.0:
        raise ZeroOperator("pairing minimum undefined for the zero operator")
    V, K = _pairing_matrix(T, A)
    y, value = _total_form_witness(K)
    return value, phase_normalize(V @ y)


def is_real_orthogonal(T, A, tol: float = 1e-6) -> OrthogonalityVerdict:
    """Whether ||T + s*A|| >= ||T|| for every real s.

    route_w0: the attaining interval contains 0 (within tol, scaled by
    ||T|| ||A||). route_norm: 0 lies in the flat interval of the real
    center of mass (within tol, scaled by ||T||/||A||; the two thresholds
    correspond to first order, which keeps the routes consistent near the
    decision boundary). Raises RouteDisagreement if the routes differ.
    """
    T, A = as_operator_pair(T, A)
    nt = operator_norm(T)
    na = operator_norm(A)
    if nt == 0.0:
        raise ZeroOperator("orthogonality undefined for the zero operator")
    if na == 0.0:
        raise ZeroRelativeOperator("relative operator A is zero")
    V, K = _pairing_matrix(T, A)
    iv = _interval_of(V, K)
    tau_pairing = tol * nt * na
    via_w0 = iv.lo <= tau_pairing and iv.hi >= -tau_pairing
    rc = real_center_of_mass(T, A)
    tau_eps = tol * nt / na
    via_norm = (rc.flat_interval[0] - tau_eps) <= 0.0 <= (rc.flat_interval[1] + tau_eps)
    if via_w0 != via_norm:
        raise RouteDisagreement(
            f"real orthogonality routes differ: pairing interval "
            f"[{iv.lo:.3e}, {iv.hi:.3e}] vs center {rc.epsilon0:.3e} "
            f"(flat {rc.flat_interval}, tol {tol:g})"
        )
    witness = phase_normalize(V @ _real_form_witness(K)[0]) if via_w0 else None
    return OrthogonalityVerdict(
        orthogonal=via_w0,
        route_w0=via_w0,
        route_norm=via_norm,
        witness=witness,
        interval=iv,
    )


def is_total_orthogonal(
    T, A, tol: float = 1e-6, cfg: SphereOptConfig | None = None
) -> OrthogonalityVerdict:
    """Whether ||T + z*A|| >= ||T|| for every complex z.

    route_w0: some norm-attaining x has |<Tx, Ax>| below tol (scaled by
    ||T|| ||A||). route_norm: the total center of mass leaves the residual
    at ||T|| (within a relative tol). Raises RouteDisagreement if the
    routes differ. cfg is accepted and ignored: neither route is seeded.
    """
    T, A = as_operator_pair(T, A)
    nt = operator_norm(T)
    na = operator_norm(A)
    if nt == 0.0:
        raise ZeroOperator("orthogonality undefined for the zero operator")
    if na == 0.0:
        raise ZeroRelativeOperator("relative operator A is zero")
    pairing_min, x = total_pairing_min(T, A)
    via_w0 = pairing_min <= tol * nt * na
    tc = total_center_of_mass(T, A)
    via_norm = tc.residual >= nt * (1.0 - tol)
    if via_w0 != via_norm:
        raise RouteDisagreement(
            f"total orthogonality routes differ: min pairing {pairing_min:.3e} "
            f"vs residual {tc.residual:.6e} against ||T|| {nt:.6e} (tol {tol:g})"
        )
    witness = x if via_w0 else None
    return OrthogonalityVerdict(
        orthogonal=via_w0,
        route_w0=via_w0,
        route_norm=via_norm,
        witness=witness,
        pairing_min=pairing_min,
    )
