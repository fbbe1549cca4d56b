"""Antieigenvalue quantities of an operator and their cross-checked routes.

cos_t is the infimum of Re <Tx, x> / ||Tx|| over unit x (defined here for
strongly accretive T, which keeps Tx away from zero); total_cos_t replaces
the real part by the modulus and only needs invertibility. sin_t is the
minimum over eps > 0 of ||eps*T - I||, and sin^2 + cos^2 = 1 for strongly
accretive T.

Each quantity has two independent computations: direct sphere search, and
the center-of-mass route (the witness of the center of I relative to T
attains the antieigenvalue). The min-max checks compare the sup of the
per-vector minimum 1 - Re<Tx,x>^2/||Tx||^2 (closed form) with the squared
center residual; equality is the content being verified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .center_of_mass import real_center_of_mass, total_center_of_mass
from .errors import NotAccretive, RouteDisagreement, SingularOperator, ZeroImage
from .linalg import (
    _col_vdot,
    as_operator,
    as_vector,
    hermitian_min_eig,
    operator_norm,
    phase_normalize,
    sigma_min,
)
from .sphere_opt import (
    SphereOptConfig,
    SphereOptResult,
    maximize_on_sphere,
    minimize_on_sphere,
)

_IMAGE_GUARD = 1e-12


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
    of ||Tx||, lies below its guard; 1 - ratio is then the -inf rejection of
    a maximized objective."""
    return np.divide(num, den, out=np.full_like(den, np.inf), where=den >= guard)


def cos_t(T, cfg: SphereOptConfig | None = None) -> tuple[float, np.ndarray]:
    """First antieigenvalue: min of Re <Tx, x> / ||Tx|| over unit x."""
    T = as_operator(T)
    _accretive_or_raise(T)
    TH = T.conj().T

    def value(X: np.ndarray) -> np.ndarray:
        TX = T @ X
        w = np.linalg.norm(TX, axis=0)
        u = _col_vdot(X, TX).real
        return _guarded_ratio(u, w, _IMAGE_GUARD)

    def gradient(X: np.ndarray) -> np.ndarray:
        TX = T @ X
        w = np.linalg.norm(TX, axis=0)
        u = _col_vdot(X, TX).real
        return (TX + TH @ X) / w - (u / w**3) * (TH @ TX)

    res = minimize_on_sphere(value, T.shape[0], cfg, gradient)
    return res.value, phase_normalize(res.argmin)


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


def _sup_inner_min_real(T: np.ndarray, cfg: SphereOptConfig | None) -> SphereOptResult:
    """Max over unit x of 1 - Re<Tx,x>^2 / ||Tx||^2 (closed-form inner min)."""
    TH = T.conj().T

    def value(X: np.ndarray) -> np.ndarray:
        TX = T @ X
        w2 = _col_vdot(TX, TX).real
        u = _col_vdot(X, TX).real
        return 1.0 - _guarded_ratio(u * u, w2, _IMAGE_GUARD**2)

    def gradient(X: np.ndarray) -> np.ndarray:
        TX = T @ X
        w2 = _col_vdot(TX, TX).real
        u = _col_vdot(X, TX).real
        return (-2.0 * u / w2) * (TX + TH @ X) + (2.0 * u * u / w2**2) * (TH @ TX)

    return maximize_on_sphere(value, T.shape[0], cfg, gradient)


def _sup_inner_min_total(T: np.ndarray, cfg: SphereOptConfig | None) -> SphereOptResult:
    """Max over unit x of 1 - |<Tx,x>|^2 / ||Tx||^2 (closed-form inner min)."""
    TH = T.conj().T

    def value(X: np.ndarray) -> np.ndarray:
        TX = T @ X
        w2 = _col_vdot(TX, TX).real
        c = _col_vdot(X, TX)
        return 1.0 - _guarded_ratio(c.real * c.real + c.imag * c.imag, w2, _IMAGE_GUARD**2)

    def gradient(X: np.ndarray) -> np.ndarray:
        TX = T @ X
        w2 = _col_vdot(TX, TX).real
        c = _col_vdot(X, TX)
        ac2 = c.real * c.real + c.imag * c.imag
        return (-2.0 / w2) * (np.conj(c) * TX + c * (TH @ X)) + (
            2.0 * ac2 / w2**2
        ) * (TH @ TX)

    return maximize_on_sphere(value, T.shape[0], cfg, gradient)


def minmax_check_real(T, cfg: SphereOptConfig | None = None) -> tuple[float, float]:
    """Both sides of the real min-max identity, by independent code paths.

    lhs: sup over unit x of the per-vector minimum of ||(eps*T - I)x||^2.
    rhs: min over eps > 0 of ||eps*T - I||^2 via center-of-mass search.
    """
    T = as_operator(T)
    _accretive_or_raise(T)
    lhs = _sup_inner_min_real(T, cfg).value
    rc = real_center_of_mass(np.eye(T.shape[0]), T)
    assert rc.epsilon0 > 0.0, "accretive operator produced a nonpositive scale"
    return lhs, rc.residual**2


def minmax_check_complex(T, cfg: SphereOptConfig | None = None) -> tuple[float, float]:
    """Both sides of the complex min-max identity, by independent code paths."""
    T = as_operator(T)
    _invertible_or_raise(T)
    lhs = _sup_inner_min_total(T, cfg).value
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
    lhs = _sup_inner_min_real(T, cfg).value
    rhs = rc.residual**2
    if abs(direct - via) > cross_tol:
        raise RouteDisagreement(
            f"cos routes differ: direct {direct:.8e} vs center {via:.8e}"
        )
    if abs(sin_value**2 + direct**2 - 1.0) > cross_tol:
        raise RouteDisagreement(
            f"sin^2 + cos^2 = {sin_value**2 + direct**2:.8e} deviates from 1"
        )
    if abs(lhs - rhs) > cross_tol:
        raise RouteDisagreement(f"min-max gap {abs(lhs - rhs):.3e} exceeds {cross_tol:g}")
    return TrigReport(
        cos_direct=direct,
        cos_via_center=via,
        antieigenvector=vec,
        epsilon0=rc.epsilon0,
        sin_value=sin_value,
        minmax_lhs=lhs,
        minmax_rhs=rhs,
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
    lhs = _sup_inner_min_total(T, cfg).value
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
