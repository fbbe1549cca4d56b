"""Antieigenvalue quantities of an operator and their cross-checked routes.

cos_t is the infimum of Re <Tx, x> / ||Tx|| over unit x (defined here for
strongly accretive T, which keeps Tx away from zero); total_cos_t replaces
the real part by the modulus and only needs invertibility. sin_t is the
minimum over eps > 0 of ||eps*T - I||, and sin^2 + cos^2 = 1 for strongly
accretive T.

Each quantity has two independent computations. The direct route for cos is
a seed-free eigenvalue search on the dual of the min-max equality (eigh of
Hermitian pencils Re T - a T*T); for total cos it is a seeded sphere search.
The center-of-mass route (SVD norms) takes the witness of the center of I
relative to T, which attains the antieigenvalue. The min-max checks compare
the left side sup_x min_eps ||(eps*T - I)x||^2, which the min-max equality
makes 1 - cos^2 (1 - total cos^2 in the complex variant) and which is taken
from the direct route, with the squared center residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .center_of_mass import _real_form_witness, real_center_of_mass, total_center_of_mass
from .errors import NotAccretive, RouteDisagreement, SingularOperator, ZeroImage
from .linalg import (
    _col_vdot,
    as_operator,
    as_vector,
    hermitian_min_eig,
    hermitian_part,
    operator_norm,
    phase_normalize,
    sigma_min,
)
from .sphere_opt import SphereOptConfig, minimize_on_sphere

_IMAGE_GUARD = 1e-12
# eigenvalues of Re T - a T*T this close to the bottom, relative to its
# largest, count as the bottom cluster of the cosine dual
_CLUSTER = 1e-10


@dataclass(frozen=True)
class TrigReport:
    cos_direct: float
    cos_via_center: float
    antieigenvector: np.ndarray
    epsilon0: float
    sin_value: float
    minmax_lhs: float
    minmax_rhs: float


@dataclass(frozen=True)
class TotalTrigReport:
    total_cos_direct: float
    total_cos_via_center: float
    antieigenvector: np.ndarray
    lambda0: complex
    minmax_lhs: float
    minmax_rhs: float


def _accretive_or_raise(T: np.ndarray) -> float:
    m = hermitian_min_eig(T)
    if m <= 0.0:
        raise NotAccretive(
            f"operator is not strongly accretive: hermitian part min eigenvalue {m:.6e}"
        )
    return m


def _invertible_or_raise(T: np.ndarray) -> float:
    smin = sigma_min(T)
    if smin <= 1e-12 * max(1.0, operator_norm(T)):
        raise SingularOperator(
            f"operator is numerically singular: sigma_min {smin:.6e}"
        )
    return smin


def _cos_ratio(T: np.ndarray, x: np.ndarray) -> float:
    Tx = T @ x
    return float(np.real(np.vdot(x, Tx)) / np.linalg.norm(Tx))


def _total_cos_ratio(T: np.ndarray, x: np.ndarray) -> float:
    Tx = T @ x
    return float(abs(np.vdot(x, Tx)) / np.linalg.norm(Tx))


def _guarded_ratio(num: np.ndarray, den: np.ndarray, guard: float) -> np.ndarray:
    """num / den per column, +inf (the rejection sentinel) where den, a power
    of ||Tx||, lies below its guard."""
    return np.divide(num, den, out=np.full_like(den, np.inf), where=den >= guard)


def cos_t(T, cfg: SphereOptConfig | None = None) -> tuple[float, np.ndarray]:
    """First antieigenvalue: min of Re <Tx, x> / ||Tx|| over unit x.

    The search uses no seed, so cfg is accepted and ignored. By the min-max
    equality cos T = 2 max sqrt(a b) over a, b >= 0 with Re T >= a T*T + b I.
    Here b = beta(a) = lambda_min(Re T - a T*T) is concave, so
    -log a - log beta(a) is convex on (0, lambda_min(Re(T^-1))), where beta
    is positive (T^-* Re T T^-1 = Re(T^-1)). Bisection on the sign of its
    subgradient a x*T*Tx - beta (x a bottom eigenvector) finds the optimum a.
    Its bottom eigenvectors hold the antieigenvector: the mix x with
    x*T*Tx = beta/a has Re <Tx, x> / ||Tx|| = 2 sqrt(a beta). The value
    returned is the ratio at that x, an upper bound on cos T; 2 sqrt(a beta)
    is a lower bound.
    """
    T = as_operator(T)
    _accretive_or_raise(T)
    H, G = hermitian_part(T), T.conj().T @ T
    lo, hi, bottom = 0.0, hermitian_min_eig(np.linalg.inv(T)), None
    while lo < (a := 0.5 * (lo + hi)) < hi:
        w, V = np.linalg.eigh(H - a * G)
        if w[0] > 0.0 and a * np.vdot(V[:, 0], G @ V[:, 0]).real < w[0]:
            lo, bottom = a, (w, V)
        else:
            hi = a
    if bottom is None:
        raise NotAccretive(
            "operator is not strongly accretive to working precision: "
            "hermitian part of its inverse is not positive definite"
        )
    w, V = bottom
    C = V[:, w <= w[0] + _CLUSTER * w[-1]]
    TC = T @ C
    x = C @ _real_form_witness(TC.conj().T @ TC, float(w[0]) / lo)[0]
    return _cos_ratio(T, x), phase_normalize(x)


def total_cos_t(
    T, cfg: SphereOptConfig | None = None, allow_singular: bool = False
) -> tuple[float, np.ndarray]:
    """Total antieigenvalue: min of |<Tx, x>| / ||Tx|| over unit x.

    Singular T is refused unless allow_singular is set, in which case the
    search runs over the complement of the kernel (||Tx|| above a guard).
    """
    T = as_operator(T)
    guard = _IMAGE_GUARD
    if allow_singular:
        guard = max(guard, 1e-8 * max(1.0, operator_norm(T)))
        if operator_norm(T) == 0.0:
            raise SingularOperator("zero operator has no nonzero image")
    else:
        _invertible_or_raise(T)
    TH = T.conj().T

    def value(X: np.ndarray) -> np.ndarray:
        TX = T @ X
        w = np.linalg.norm(TX, axis=0)
        ac = np.abs(_col_vdot(X, TX))
        return _guarded_ratio(ac, w, guard)

    def gradient(X: np.ndarray) -> np.ndarray:
        TX = T @ X
        w = np.linalg.norm(TX, axis=0)
        c = _col_vdot(X, TX)
        ac = np.abs(c)
        # |<Tx, x>| has no gradient where it vanishes; those columns get zero
        kink = ac < 1e-300
        g = (np.conj(c) * TX + c * (TH @ X)) / (np.where(kink, 1.0, ac) * w) - (
            ac / w**3
        ) * (TH @ TX)
        g[:, kink] = 0.0
        return g

    res = minimize_on_sphere(value, T.shape[0], cfg, gradient)
    return res.value, phase_normalize(res.argmin)


def sin_t(T) -> tuple[float, float]:
    """Minimum of ||eps*T - I|| over eps > 0, and the minimizing eps.

    For strongly accretive T the unconstrained real minimizer is strictly
    positive, so the positivity constraint is inactive; this is asserted.
    """
    T = as_operator(T)
    _accretive_or_raise(T)
    rc = real_center_of_mass(np.eye(T.shape[0]), T)
    assert rc.epsilon0 > 0.0, "accretive operator produced a nonpositive scale"
    return rc.residual, rc.epsilon0


def best_real_scale(T, y) -> float:
    """Real eps minimizing ||(eps*T - I)y||^2 for a fixed unit y.

    The minimum value equals 1 - Re<Ty,y>^2 / ||Ty||^2.
    """
    T = as_operator(T)
    y = as_vector(y, T.shape[0])
    Ty = T @ y
    w2 = float(np.real(np.vdot(Ty, Ty)))
    if w2 < _IMAGE_GUARD**2:
        raise ZeroImage("||Ty|| is numerically zero; no finite best scale")
    return float(np.real(np.vdot(y, Ty))) / w2


def best_complex_scale(T, y) -> complex:
    """Complex lam minimizing ||(lam*T - I)y||^2 for a fixed unit y.

    The minimum value equals 1 - |<Ty,y>|^2 / ||Ty||^2.
    """
    T = as_operator(T)
    y = as_vector(y, T.shape[0])
    Ty = T @ y
    w2 = float(np.real(np.vdot(Ty, Ty)))
    if w2 < _IMAGE_GUARD**2:
        raise ZeroImage("||Ty|| is numerically zero; no finite best scale")
    return complex(np.vdot(Ty, y)) / w2


def minmax_check_real(T, cfg: SphereOptConfig | None = None) -> tuple[float, float]:
    """Both sides of the real min-max identity, by independent code paths.

    lhs: sup over unit x of the per-vector minimum of ||(eps*T - I)x||^2,
    which is 1 - Re<Tx,x>^2 / ||Tx||^2, so lhs = 1 - cos^2 from the direct
    route (cos_t, eigenvalues of Hermitian pencils).
    rhs: min over eps > 0 of ||eps*T - I||^2 via center-of-mass search.
    """
    T = as_operator(T)
    lhs = 1.0 - cos_t(T, cfg)[0] ** 2
    rc = real_center_of_mass(np.eye(T.shape[0]), T)
    assert rc.epsilon0 > 0.0, "accretive operator produced a nonpositive scale"
    return lhs, rc.residual**2


def minmax_check_complex(T, cfg: SphereOptConfig | None = None) -> tuple[float, float]:
    """Both sides of the complex min-max identity, by independent code paths.

    lhs: sup over unit x of the per-vector minimum of ||(lam*T - I)x||^2 over
    complex lam, which is 1 - |<Tx,x>|^2 / ||Tx||^2, so lhs = 1 - total cos^2
    from the direct route (total_cos_t, a sphere search).
    rhs: min over complex lam of ||lam*T - I||^2 via the total center.
    """
    T = as_operator(T)
    lhs = 1.0 - total_cos_t(T, cfg)[0] ** 2
    tc = total_center_of_mass(np.eye(T.shape[0]), T)
    return lhs, tc.residual**2


def cos_via_center(T) -> tuple[float, np.ndarray]:
    """First antieigenvalue through the center-of-mass witness.

    The witness x of the real center of I relative to T (norm-attaining
    for I - eps0*T with Re <(I - eps0*T)x, Tx> ~ 0) attains the cosine:
    the returned value is Re <Tx, x> / ||Tx|| at that witness.
    """
    T = as_operator(T)
    _accretive_or_raise(T)
    rc = real_center_of_mass(np.eye(T.shape[0]), T)
    return _cos_ratio(T, rc.witness), rc.witness


def total_cos_via_center(T) -> tuple[float, np.ndarray]:
    """Total antieigenvalue through the total-center witness."""
    T = as_operator(T)
    _invertible_or_raise(T)
    tc = total_center_of_mass(np.eye(T.shape[0]), T)
    return _total_cos_ratio(T, tc.witness), tc.witness


def trig_report(
    T, cfg: SphereOptConfig | None = None, cross_tol: float = 1e-5
) -> TrigReport:
    """All real-variant quantities with their cross-checks enforced."""
    T = as_operator(T)
    _accretive_or_raise(T)
    direct, vec = cos_t(T, cfg)
    rc = real_center_of_mass(np.eye(T.shape[0]), T)
    assert rc.epsilon0 > 0.0, "accretive operator produced a nonpositive scale"
    via = _cos_ratio(T, rc.witness)
    sin_value = rc.residual
    if abs(direct - via) > cross_tol:
        raise RouteDisagreement(
            f"cos routes differ: direct {direct:.8e} vs center {via:.8e}"
        )
    # the min-max gap (1 - direct^2) - residual^2 is this same deviation
    if abs(sin_value**2 + direct**2 - 1.0) > cross_tol:
        raise RouteDisagreement(
            f"sin^2 + cos^2 = {sin_value**2 + direct**2:.8e} deviates from 1"
        )
    return TrigReport(
        cos_direct=direct,
        cos_via_center=via,
        antieigenvector=vec,
        epsilon0=rc.epsilon0,
        sin_value=sin_value,
        minmax_lhs=1.0 - direct**2,
        minmax_rhs=sin_value**2,
    )


def total_trig_report(
    T, cfg: SphereOptConfig | None = None, cross_tol: float = 1e-5
) -> TotalTrigReport:
    """All total-variant quantities with their cross-checks enforced."""
    T = as_operator(T)
    _invertible_or_raise(T)
    direct, vec = total_cos_t(T, cfg)
    tc = total_center_of_mass(np.eye(T.shape[0]), T)
    via = _total_cos_ratio(T, tc.witness)
    lhs = 1.0 - direct**2
    rhs = tc.residual**2
    if abs(direct - via) > cross_tol:
        raise RouteDisagreement(
            f"total cos routes differ: direct {direct:.8e} vs center {via:.8e}"
        )
    if abs(lhs - rhs) > cross_tol:
        raise RouteDisagreement(f"min-max gap {abs(lhs - rhs):.3e} exceeds {cross_tol:g}")
    return TotalTrigReport(
        total_cos_direct=direct,
        total_cos_via_center=via,
        antieigenvector=vec,
        lambda0=tc.lambda0,
        minmax_lhs=lhs,
        minmax_rhs=rhs,
    )
