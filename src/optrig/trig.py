"""Antieigenvalue quantities of an operator and their cross-checked routes.

cos_t is the infimum of Re <Tx, x> / ||Tx|| over unit x (defined here for
strongly accretive T, which keeps Tx away from zero); total_cos_t replaces
the real part by the modulus and only needs invertibility. sin_t is the
minimum over eps > 0 of ||eps*T - I||, and sin^2 + cos^2 = 1 for strongly
accretive T.

Each quantity has two independent computations. The direct route is a
seed-free eigenvalue search on the dual of the min-max equality: eigh of
Hermitian pencils Re T - a T*T for cos, and of Re(e^{it} T) - a T*T over the
angles t for total cos. The center-of-mass route (SVD norms) takes the
witness of the center of I relative to T, which attains the antieigenvalue.
The min-max checks compare the left side sup_x min_eps ||(eps*T - I)x||^2,
which the min-max equality makes 1 - cos^2 (1 - total cos^2 in the complex
variant) and which is taken from the direct route, with the squared center
residual.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .center_of_mass import (
    _CERTIFICATE,
    RealCenterResult,
    _real_form_witness,
    _regula_falsi,
    _total_form_witness,
    real_center_of_mass,
    total_center_of_mass,
)
from .errors import NotAccretive, RouteDisagreement, SingularOperator, ZeroImage
from .linalg import (
    as_operator,
    as_vector,
    hermitian_min_eig,
    hermitian_part,
    operator_norm,
    phase_normalize,
    sigma_min,
)
from .sphere_opt import SphereOptConfig

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


def _identity_center(T: np.ndarray) -> RealCenterResult:
    """Real center of mass of I relative to accretive T, where it is positive."""
    rc = real_center_of_mass(np.eye(T.shape[0]), T)
    assert rc.epsilon0 > 0.0, "accretive operator produced a nonpositive scale"
    return rc


def _cos_ratio(T: np.ndarray, x: np.ndarray) -> float:
    Tx = T @ x
    return float(np.real(np.vdot(x, Tx)) / np.linalg.norm(Tx))


def _total_cos_ratio(T: np.ndarray, x: np.ndarray) -> float:
    Tx = T @ x
    return float(abs(np.vdot(x, Tx)) / np.linalg.norm(Tx))


def _cos_dual(H: np.ndarray, G: np.ndarray, hi: float):
    """Maximize a * beta(a), beta(a) = lambda_min(H - a G), over a in (0, hi).

    Returns the optimal a, beta(a) and the bottom eigenvalue cluster of
    H - a G there (orthonormal columns), or None when beta(a) <= 0 at every
    probe. -log a - log beta(a) is convex; bisection on the sign of its
    subgradient a x*Gx - beta (x a bottom eigenvector) runs until the
    midpoint no longer splits the bracket, which resolves a kink of beta
    (a multiple bottom eigenvalue) to the last bit.
    """
    lo, bottom = 0.0, None
    while lo < (a := 0.5 * (lo + hi)) < hi:
        w, V = np.linalg.eigh(H - a * G)
        if w[0] > 0.0 and a * np.vdot(V[:, 0], G @ V[:, 0]).real < w[0]:
            lo, bottom = a, (w, V)
        else:
            hi = a
    if bottom is None:
        return None
    w, V = bottom
    return lo, float(w[0]), V[:, w <= w[0] + _CLUSTER * w[-1]]


def _singular_witness(T: np.ndarray) -> np.ndarray:
    """Unit x off the kernel of a nonzero singular T with |<Tx, x>| / ||Tx|| small.

    With k in ker T and y orthogonal to k, x = a k + b y has
    <Tx, x> = conj(a) b <Ty, k> + |b|^2 <Ty, y>. For y along T*k,
    <Ty, k> = ||T*k|| > 0 and a, b are chosen to cancel the two terms. If
    T*k = 0, every such x has ratio |b| |<Ty, y>| / ||Ty||, and b = 1e-8
    keeps x off the kernel.
    """
    _, s, vh = np.linalg.svd(T)
    k = vh[-1].conj()
    y = T.conj().T @ k
    if np.linalg.norm(y) <= _IMAGE_GUARD * s[0]:
        x = k + 1e-8 * vh[0].conj()
    else:
        y /= np.linalg.norm(y)
        Ty = T @ y
        x = np.conj(np.vdot(k, Ty)) * y - np.conj(np.vdot(y, Ty)) * k
    return phase_normalize(x / np.linalg.norm(x))


def cos_t(T, cfg: SphereOptConfig | None = None) -> tuple[float, np.ndarray]:
    """First antieigenvalue: min of Re <Tx, x> / ||Tx|| over unit x.

    The search uses no seed, so cfg is accepted and ignored. By the min-max
    equality cos T = 2 max sqrt(a b) over a, b >= 0 with Re T >= a T*T + b I.
    Here b = beta(a) = lambda_min(Re T - a T*T) is concave, so
    -log a - log beta(a) is convex on (0, lambda_min(Re(T^-1))), where beta
    is positive (T^-* Re T T^-1 = Re(T^-1)); _cos_dual finds the optimum a.
    Its bottom eigenvectors hold the antieigenvector: the mix x with
    x*T*Tx = beta/a has Re <Tx, x> / ||Tx|| = 2 sqrt(a beta). The value
    returned is the ratio at that x, an upper bound on cos T; 2 sqrt(a beta)
    is a lower bound.
    """
    T = as_operator(T)
    _accretive_or_raise(T)
    dual = _cos_dual(hermitian_part(T), T.conj().T @ T, hermitian_min_eig(np.linalg.inv(T)))
    if dual is None:
        raise NotAccretive(
            "operator is not strongly accretive to working precision: "
            "hermitian part of its inverse is not positive definite"
        )
    a, beta, C = dual
    TC = T @ C
    x = C @ _real_form_witness(TC.conj().T @ TC, beta / a)[0]
    return _cos_ratio(T, x), phase_normalize(x)


def _total_cos_bounds(T: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Upper and lower bound on total cos T for invertible T, and the witness
    of the upper bound.

    The angles t with Re(e^{it} T) > 0 form an arc, empty exactly when 0 is
    in the numerical range W(T) and total cos T = 0. On the arc the
    superlevel sets of cos(e^{it} T) are arcs, so it is unimodal. If z0 is
    the point of W(T) nearest 0 (_total_form_witness), t0 = -arg z0 gives
    Re(e^{it0} T) >= |z0| I, so t0 lies in the arc, and the arc lies within
    pi/2 of t0. The derivative of cos(e^{it} T) in t is
    -Im(e^{it} <Tx, x>) / ||Tx|| at its minimizer x, so the sign of h(t), the
    sine of the phase of e^{it} <Tx, x>, tells on which side of t the maximum
    lies. _regula_falsi walks the angle bracket; its first probe,
    t0 - arcsin h(t0), turns <Tx, x> at t0 onto the positive axis.

    At each angle, _cos_dual gives a, beta and the bottom cluster C. The
    witness x = C y makes both x*T*Tx = beta/a and Im(e^{it} <Tx, x>) = 0,
    or comes as near as C allows: y is a point of the numerical range of
    C*(T*T - beta/a)C + i C*Im(e^{it} T)C nearest 0, by _total_form_witness
    again. (For a normal T the optimal face can hold three eigenvectors, and
    mixing two of them misses.) The ratio at a witness is an upper bound and
    2 sqrt(a beta) a lower bound; the search stops when they agree to a
    relative 1e-12, or when the bracket holds no float.
    """
    y, dist = _total_form_witness(T)
    best = [_total_cos_ratio(T, y), 0.0, y]  # upper bound, lower bound, witness
    if dist == 0.0:
        return best[0], best[1], best[2]
    t0 = -cmath.phase(complex(np.vdot(y, T @ y)))
    G, T_inv = T.conj().T @ T, np.linalg.inv(T)

    def slope_sign(t: float) -> float | None:
        u = cmath.exp(1j * t)
        hi = hermitian_min_eig(T_inv / u)  # lambda_min(Re((e^{it} T)^-1)), as in cos_t
        dual = _cos_dual(hermitian_part(u * T), G, hi) if hi > 0.0 else None
        if dual is None:  # Re(e^{it} T) is not positive definite: t is off the arc
            return math.copysign(math.inf, t - t0)
        a, beta, C = dual
        P = C.conj().T @ (u * T) @ C
        K = C.conj().T @ G @ C - (beta / a) * np.eye(C.shape[1]) + (P - P.conj().T) / 2.0
        x = C @ _total_form_witness(K)[0]
        Tx = T @ x
        z = u * complex(np.vdot(x, Tx))
        ratio = abs(z) / float(np.linalg.norm(Tx))
        if ratio < best[0]:
            best[0], best[2] = ratio, x
        best[1] = max(best[1], 2.0 * math.sqrt(a * beta))
        if best[0] - best[1] <= _CERTIFICATE * best[0]:
            return None
        return z.imag / abs(z)

    h0 = slope_sign(t0)
    if h0 is not None and math.isfinite(h0):
        first = t0 - math.asin(h0)
        if h0 < 0.0:
            _regula_falsi(slope_sign, t0, t0 + 0.5 * math.pi, h0, math.inf, first)
        else:
            _regula_falsi(slope_sign, t0 - 0.5 * math.pi, t0, -math.inf, h0, first)
    return best[0], best[1], best[2]


def total_cos_t(
    T, cfg: SphereOptConfig | None = None, allow_singular: bool = False
) -> tuple[float, np.ndarray]:
    """Total antieigenvalue: min of |<Tx, x>| / ||Tx|| over unit x.

    The search uses no seed, so cfg is accepted and ignored. Singular T is
    refused unless allow_singular is set. Then the infimum over x off the
    kernel is 0 for nonzero T (_singular_witness builds x with ratio 0, or
    at most 1e-8 where the infimum is not attained), and 0.0 is returned.

    total cos T = max(0, max over t of cos(e^{it} T)). One side holds for
    every x: |<Tx, x>| >= Re(e^{it} <Tx, x>). For the other, let
    R = {(<Tx, x>, ||Tx||^2) : ||x|| = 1}, H = conv R and c > 0 with
    |z| >= c sqrt(w) on R. The set S = {(z, w) : |z| < c sqrt(w)} is convex
    and stays in S as w grows, so it meets H only if it meets R: for n >= 3
    R = H (Au-Yeung and Poon, Southeast Asian Bull. Math. 3, 1979); for
    n = 2, R is the image of the Bloch sphere under an affine map, so it is
    convex or it is the ellipsoid surface bounding H, which a point of S in
    H reaches by growing w. Hence |z| - c sqrt(w) >= 0 on H, i.e.
    min over H of max over |u| <= 1 of Re(u z) - c sqrt(w) is >= 0. That
    function is linear in u and convex in (z, w) on the compact convex H, so
    Sion's minimax theorem swaps min and max: some u has Re(u z) >= c sqrt(w)
    on R, and t = arg u gives cos(e^{it} T) >= c.

    Each cos(e^{it} T) is the eigenvalue dual of cos_t; _total_cos_bounds
    searches the angles. The value returned is an upper bound on total cos T
    within a relative 1e-12 of a lower bound, with its witness.
    """
    T = as_operator(T)
    if allow_singular:
        nt = operator_norm(T)
        if nt == 0.0:
            raise SingularOperator("zero operator has no nonzero image")
        if sigma_min(T) <= 1e-12 * max(1.0, nt):
            return 0.0, _singular_witness(T)
    else:
        _invertible_or_raise(T)
    upper, _, x = _total_cos_bounds(T)
    return upper, phase_normalize(x)


def sin_t(T) -> tuple[float, float]:
    """Minimum of ||eps*T - I|| over eps > 0, and the minimizing eps.

    For strongly accretive T the unconstrained real minimizer is strictly
    positive, so the positivity constraint is inactive; this is asserted.
    """
    T = as_operator(T)
    _accretive_or_raise(T)
    rc = _identity_center(T)
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
    return lhs, _identity_center(T).residual**2


def minmax_check_complex(T, cfg: SphereOptConfig | None = None) -> tuple[float, float]:
    """Both sides of the complex min-max identity, by independent code paths.

    lhs: sup over unit x of the per-vector minimum of ||(lam*T - I)x||^2 over
    complex lam, which is 1 - |<Tx,x>|^2 / ||Tx||^2, so lhs = 1 - total cos^2
    from the direct route (total_cos_t, eigenvalues of Hermitian pencils).
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
    rc = _identity_center(T)
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
    rc = _identity_center(T)
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
