"""Real and total centers of mass of an operator pair.

The real center of mass of T relative to A is a real minimizer of
eps -> ||T - eps*A||; the total center is a complex minimizer of
lam -> ||T - lam*A||. Any minimizer lies in the closed interval (disk)
of radius 2||T||/||A||, which bounds every search here.

Both maps are convex, so the real center is found by golden-section
search and the total center by nested golden-section search: the outer
search runs over Re lam, the inner one returns the minimum over Im lam.
A partial minimum of a convex function is convex, so the outer objective
is convex too and the nested search is exact for any convex map, kinks
and flat minimizer sets included, with no seeds. Each inner search starts
from the previous inner minimizer and grows its bracket downhill until
convexity puts a minimizer inside, so the warm start costs no exactness.

flat_interval approximates the exact minimizer set: the sub-level set of
the residual plus a machine-noise-aware slack (never more than tol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WitnessNotFound, ZeroRelativeOperator
from .linalg import (
    _col_vdot,
    as_operator,
    as_operator_pair,
    maximizing_subspace,
    operator_norm,
    operator_norms,
    phase_normalize,
    sigma_min,
)
from .sphere_opt import SphereOptConfig, minimize_on_sphere

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_FLAT_SLACK = 1e-14
_UNIQUE_RADIUS = 1e-4


@dataclass(frozen=True)
class RealCenterResult:
    epsilon0: float
    residual: float
    flat_interval: tuple[float, float]
    unique: bool
    witness: np.ndarray


@dataclass(frozen=True)
class TotalCenterResult:
    lambda0: complex
    residual: float
    unique: bool
    witness: np.ndarray


def _golden_min(f, a: float, b: float, width: float) -> tuple[float, float]:
    """Minimum of a convex scalar function on [a, b] to the given bracket width."""
    best_x, best_v = a, f(a)
    fb = f(b)
    if fb < best_v:
        best_x, best_v = b, fb

    def note(x, v):
        nonlocal best_x, best_v
        if v < best_v:
            best_x, best_v = x, v

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    note(c, fc)
    note(d, fd)
    for _ in range(300):
        if b - a <= width:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            note(c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            note(d, fd)
    return best_x, best_v


def _bracket_min(f, x: float, step: float, lo: float, hi: float) -> tuple[float, float]:
    """Interval within [lo, hi] holding a minimizer of a convex f, grown from x.

    Walks downhill from x with doubling steps; once f no longer drops at the
    next point, convexity puts a minimizer between the last point's neighbours.
    """
    fx = f(x)
    left, right = max(lo, x - step), min(hi, x + step)
    fl, fr = f(left), f(right)
    while fl < fx and left > lo:
        right, fr, x, fx = x, fx, left, fl
        step *= 2.0
        left = max(lo, x - step)
        fl = f(left)
    while fr < fx and right < hi:
        left, fl, x, fx = x, fx, right, fr
        step *= 2.0
        right = min(hi, x + step)
        fr = f(right)
    return left, right


def _sublevel_edge(f, inside: float, outside: float, level: float) -> float:
    """Bisect for the boundary of {x : f(x) <= level} between a point in and a point out."""
    res = 1e-14 * max(1.0, abs(inside), abs(outside))
    for _ in range(100):
        if abs(outside - inside) <= res:
            break
        mid = 0.5 * (inside + outside)
        if f(mid) <= level:
            inside = mid
        else:
            outside = mid
    return inside


def _march_edge(f, start: float, bound: float, step: float, level: float) -> float:
    """Outermost point of the sub-level set, marching from start toward bound."""
    inside = start
    while True:
        nxt = inside + step
        past_bound = nxt >= bound if step > 0 else nxt <= bound
        if past_bound:
            if f(bound) <= level:
                return bound
            return _sublevel_edge(f, inside, bound, level)
        if f(nxt) <= level:
            inside = nxt
        else:
            return _sublevel_edge(f, inside, nxt, level)


def _basis_vector(n: int) -> np.ndarray:
    e = np.zeros(n, dtype=np.complex128)
    e[0] = 1.0
    return e


def real_center_of_mass(T, A, tol: float = 1e-9) -> RealCenterResult:
    """Real scalar minimizing ||T - eps*A||, with minimizer-set detection.

    epsilon0 is the midpoint of the detected flat interval (for a unique
    minimizer the interval is pointlike and this is just the minimizer).
    tol caps the value slack used for flat detection; the default slack is
    much tighter so the interval tracks the exact minimizer set.
    """
    T, A = as_operator_pair(T, A)
    na = operator_norm(A)
    if na == 0.0:
        raise ZeroRelativeOperator("relative operator A is zero")
    nt = operator_norm(T)
    n = T.shape[0]
    if nt == 0.0:
        return RealCenterResult(
            epsilon0=0.0,
            residual=0.0,
            flat_interval=(0.0, 0.0),
            unique=True,
            witness=_basis_vector(n),
        )
    radius = 2.0 * nt / na

    def f(eps: float) -> float:
        return float(np.linalg.svd(T - eps * A, compute_uv=False)[0])

    x0, residual = _golden_min(f, -radius, radius, width=1e-12 * max(1.0, radius))
    level = residual + min(tol, _FLAT_SLACK * max(1.0, residual))
    spacing = radius / 1000.0
    lo = _march_edge(f, x0, -radius, -spacing, level)
    hi = _march_edge(f, x0, radius, spacing, level)
    epsilon0 = 0.5 * (lo + hi)
    unique = (hi - lo) <= 2.0 * _UNIQUE_RADIUS * max(1.0, radius)
    witness = extract_witness(T, A, epsilon0, total=False)
    return RealCenterResult(
        epsilon0=epsilon0,
        residual=residual,
        flat_interval=(lo, hi),
        unique=unique,
        witness=witness,
    )


def total_center_of_mass(T, A, tol: float = 1e-9) -> TotalCenterResult:
    """Complex scalar minimizing ||T - lam*A||, with non-uniqueness probing."""
    T, A = as_operator_pair(T, A)
    na = operator_norm(A)
    if na == 0.0:
        raise ZeroRelativeOperator("relative operator A is zero")
    nt = operator_norm(T)
    n = T.shape[0]
    if nt == 0.0:
        return TotalCenterResult(
            lambda0=0.0 + 0.0j, residual=0.0, unique=True, witness=_basis_vector(n)
        )
    radius = 2.0 * nt / na

    def g(re: float, im: float) -> float:
        return float(np.linalg.svd(T - complex(re, im) * A, compute_uv=False)[0])

    width = 1e-12 * max(1.0, radius)
    # The outer search compares inner minima, whose differences near a smooth
    # outer minimum shrink quadratically, so the inner search resolves Im lam
    # a thousand times finer (still several ulps of radius).
    inner_width = 1e-15 * max(1.0, radius)
    # Each inner bracket grows from the previous inner minimizer, with a first
    # step as long as that minimizer's last move: inner minimizers settle as
    # the outer search converges. best is (residual, re, im).
    prev = [0.0, 0.0]
    best = [math.inf, 0.0, 0.0]

    def min_over_im(re: float) -> float:
        def h(im: float) -> float:
            return g(re, im)

        lo, hi = _bracket_min(h, prev[0], max(prev[1], width), -radius, radius)
        im, value = _golden_min(h, lo, hi, inner_width)
        prev[:] = im, abs(im - prev[0])
        if value < best[0]:
            best[:] = value, re, im
        return value

    _golden_min(min_over_im, -radius, radius, width)
    residual, re0, im0 = best
    lambda0 = complex(re0, im0)

    probe_r = _UNIQUE_RADIUS * max(1.0, radius)
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    ring = lambda0 + probe_r * np.exp(1j * angles)
    ring_vals = operator_norms(T - ring[:, None, None] * A)
    level = residual + min(tol, _FLAT_SLACK * max(1.0, residual))
    unique = not bool(np.any(ring_vals <= level))

    witness = extract_witness(T, A, lambda0, total=True)
    return TotalCenterResult(lambda0=lambda0, residual=residual, unique=unique, witness=witness)


def center_uniqueness(A, tol: float = 1e-9) -> bool:
    """Whether the center of mass relative to A is certified unique.

    In finite dimension the certificate is sigma_min(A) > tol: then no
    unit sequence can annihilate A and the minimizer of ||T - eps*A|| is
    a single point. A false return means no certificate, not a proof of
    non-uniqueness (a center result carries the observed flat interval).
    """
    A = as_operator(A)
    return bool(sigma_min(A) > tol)


def _real_form_witness(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit y minimizing |Re <BVy, AVy>| = |y* herm(K) y|, by eigendecomposition.

    The quadratic form ranges over [lmin, lmax]; if the interval straddles
    zero an exact zero is hit by mixing the extreme eigenvectors.
    """
    kh = (K + K.conj().T) / 2.0
    lam, vec = np.linalg.eigh(kh)
    lmin, lmax = float(lam[0]), float(lam[-1])
    if lmin >= 0.0:
        return vec[:, 0], lmin
    if lmax <= 0.0:
        return vec[:, -1], lmax
    t = lmax / (lmax - lmin)
    y = math.sqrt(t) * vec[:, 0] + math.sqrt(1.0 - t) * vec[:, -1]
    return y, float(np.real(np.vdot(y, kh @ y)))


def _total_form_witness(
    K: np.ndarray, cfg: SphereOptConfig | None = None
) -> tuple[np.ndarray, float]:
    """Unit y minimizing |<BVy, AVy>| = |y* K y|, by seeded sphere search.

    The objective is the plain modulus, not its square: when the minimizer
    zeroes out a coordinate the squared form is quartically flat there and
    gradient descent stalls, while the modulus stays quadratic.
    """
    k = K.shape[0]
    if k == 1:
        y = np.ones(1, dtype=np.complex128)
        return y, abs(complex(K[0, 0]))
    KH = K.conj().T

    def value(Y: np.ndarray) -> np.ndarray:
        return np.abs(_col_vdot(Y, K @ Y))

    def gradient(Y: np.ndarray) -> np.ndarray:
        KY = K @ Y
        q = _col_vdot(Y, KY)
        aq = np.abs(q)
        # the modulus has no gradient where the form vanishes; zero there
        kink = aq < 1e-300
        g = (np.conj(q) * KY + q * (KH @ Y)) / np.where(kink, 1.0, aq)
        g[:, kink] = 0.0
        return g

    res = minimize_on_sphere(
        value, k, cfg if cfg is not None else SphereOptConfig(), gradient=gradient
    )
    y, best = res.argmin, res.value

    # scipy.optimize is imported here, not at module level: it takes about
    # half a second to import and nothing else in the package needs it.
    from scipy.optimize import minimize

    # Near a zero of the form the valley is a cone far steeper across than
    # along, which caps gradient steps at ~|q| and stalls the sphere search;
    # a simplex polish adapts its shape to the valley and finishes the job.
    def packed(p: np.ndarray) -> float:
        z = p[:k] + 1j * p[k:]
        nrm = np.linalg.norm(z)
        if nrm < 1e-12:
            return np.inf
        return float(value((z / nrm)[:, None])[0])

    nm = minimize(
        packed,
        np.concatenate([y.real, y.imag]),
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 6000, "maxfev": 9000},
    )
    if float(nm.fun) < best:
        z = nm.x[:k] + 1j * nm.x[k:]
        y = z / np.linalg.norm(z)
        best = float(nm.fun)
    return y, best


def extract_witness(
    T, A, center: complex | float, total: bool = False, witness_tol: float = 1e-6
) -> np.ndarray:
    """Unit vector certifying the center: norm-attaining for B = T - center*A,
    with Re <Bx, Ax> ~ 0 (real case) or <Bx, Ax> ~ 0 (total case).

    The search runs over the maximizing subspace of B, where norm-attaining
    vectors live. For B ~ 0 every unit vector qualifies; e1 by convention.
    """
    T, A = as_operator_pair(T, A)
    n = T.shape[0]
    B = T - complex(center) * A
    nb = operator_norm(B)
    na = operator_norm(A)
    if nb <= 1e-12 * max(1.0, operator_norm(T)):
        return _basis_vector(n)
    V = maximizing_subspace(B).basis
    K = (A @ V).conj().T @ (B @ V)
    if total:
        y, value = _total_form_witness(K)
    else:
        y, value = _real_form_witness(K)
    if abs(value) > witness_tol * max(1.0, nb * na):
        kind = "total" if total else "real"
        raise WitnessNotFound(
            f"best {kind} witness pairing {value:.3e} exceeds tolerance; "
            "center is likely not a minimizer"
        )
    return phase_normalize(V @ y)
