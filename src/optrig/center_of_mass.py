"""Real and total centers of mass of an operator pair.

The real center of mass of T relative to A is a real minimizer of
eps -> ||T - eps*A||; the total center is a complex minimizer of
lam -> ||T - lam*A||. Any minimizer lies in the closed interval (disk)
of radius 2||T||/||A||, which bounds every search here.

Both maps are convex. The real center is found by bisection on the sign of
the subgradient -Re u*Av, (u, v) a top singular pair of T - eps*A. The total
center is found by the centre-of-gravity method (Levin 1965;
Newman 1965): a polygon holding every minimizer, starting as the square
around that disk, is cut through its centroid by the half-plane that one
top singular pair of T - lam*A certifies. Each cut removes at least 4/9 of
the area (Grunbaum 1960) and no minimizer. The search compares no function
values and uses no seeds, and is exact for kinks and flat minimizer sets.

flat_interval approximates the exact minimizer set: the sub-level set of
the residual plus a slack of 1e-14 ||T|| (never more than tol ||T||), which
sits above the rounding of the norms. Every threshold is relative to ||T||
or to the search radius, so the results scale with T -> sT, A -> tA.

Witnesses come, with no seeds, from eigenvectors of the Hermitian parts of
the pairing form K on the maximizing subspace of T - c*A (total: of e^{it} K).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import WitnessNotFound, ZeroRelativeOperator
from .linalg import (
    as_operator,
    as_operator_pair,
    maximizing_subspace,
    operator_norm,
    operator_norms,
    phase_normalize,
    sigma_min,
)

_FLAT_SLACK = 1e-14  # value slack of the flat minimizer set, relative to ||T||
_UNIQUE_RADIUS = 1e-4  # relative to the search radius
# relative gap between an upper and a lower bound that ends an angle walk
_CERTIFICATE = 1e-12
_SCAN = 16  # angles of the numerical-range scan of the total witness
_CUTS = 400  # cap on the cutting-plane steps of the total center


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


def _regula_falsi(f, lo: float, hi: float, f_lo: float, f_hi: float, first: float) -> None:
    """Shrink a bracket [lo, hi] of the sign change of a nondecreasing f.

    Each step is regula falsi with the Illinois halving of the end value that
    stays twice in a row, and a bisection whenever two steps did not halve the
    bracket or an end value is infinite (an infinite value carries only a
    sign). The first probe is `first`. It stops when f returns None or the
    bracket holds no float between its ends. Two callers walk an angle with
    it: the total-cosine search and the off-range branch of
    _total_form_witness; each ends its walk through f on its own certificate.
    """
    widths, side, x = [math.inf, math.inf], 0, first
    while True:
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return
        fx = f(x)
        if fx is None:
            return
        widths = [widths[1], hi - lo]
        if fx < 0.0:
            lo, f_lo = x, fx
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = x, fx
            if side > 0:
                f_lo *= 0.5
            side = 1
        x = 0.5 * (lo + hi)
        if math.isfinite(f_lo - f_hi) and hi - lo <= 0.5 * widths[0]:
            x = lo + (hi - lo) * f_lo / (f_lo - f_hi)


def _clip(P: list, a: tuple[float, float], c: tuple[float, float]) -> list:
    """The part of the convex polygon P where a.(p - c) <= 0 (Sutherland-Hodgman)."""
    d = [a[0] * (x - c[0]) + a[1] * (y - c[1]) for x, y in P]
    out = []
    for i, (q, dq) in enumerate(zip(P, d)):
        p, dp = P[i - 1], d[i - 1]
        if dp < 0.0 < dq or dq < 0.0 < dp:  # the edge from p to q crosses the line
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        if dq <= 0.0:
            out.append(q)
    return out


def _centroid(P: list) -> tuple[float, float]:
    """Centroid of a convex polygon by the shoelace formula, or the mean of its
    vertices once rounding has flattened it to no area.

    Sums run relative to the first vertex: in absolute coordinates a polygon
    1e-9 wide at distance 1 from 0 loses every digit of its area.
    """
    x0, y0 = P[0]
    area = cx = cy = 0.0
    for (x1, y1), (x2, y2) in zip(P[1:], P[2:]):
        x1, y1, x2, y2 = x1 - x0, y1 - y0, x2 - x0, y2 - y0
        w = x1 * y2 - x2 * y1
        area, cx, cy = area + w, cx + w * (x1 + x2), cy + w * (y1 + y2)
    if area <= 0.0:
        return x0 + sum(x - x0 for x, _ in P) / len(P), y0 + sum(y - y0 for _, y in P) / len(P)
    return x0 + cx / (3.0 * area), y0 + cy / (3.0 * area)


def _march_edge(f, inside: float, bound: float, step: float, level: float, res: float) -> float:
    """Outermost point of the sub-level set {f <= level} of a convex f: march
    from a point inside toward bound by step, then bisect the last step to res."""
    while True:
        outside = min(inside + step, bound) if step > 0 else max(inside + step, bound)
        if f(outside) > level:
            break
        if outside == bound:
            return bound
        inside = outside
    while abs(outside - inside) > res:
        mid = 0.5 * (inside + outside)
        if f(mid) <= level:
            inside = mid
        else:
            outside = mid
    return inside


def _basis_vector(n: int) -> np.ndarray:
    e = np.zeros(n, dtype=np.complex128)
    e[0] = 1.0
    return e


def real_center_of_mass(T, A, tol: float = 1e-9) -> RealCenterResult:
    """Real scalar minimizing ||T - eps*A||, with minimizer-set detection.

    The flat interval is marched out on values from the bisection point, a
    minimizer to an ulp of the radius. epsilon0 is that point when the
    interval is within the unique radius (rounding decides where the edges
    of a smooth minimum cross the slack level), and its midpoint otherwise.
    tol caps the value slack, relative to ||T||; the default slack is much
    tighter so the interval tracks the exact minimizer set.
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

    # bisection on the sign of the subgradient -Re u*Av of f at a top singular
    # pair (u, v) of T - eps*A, down to a zero subgradient or residual or an ulp
    lo, hi = -radius, radius
    while True:
        x0 = 0.5 * (lo + hi)
        u, s, vh = np.linalg.svd(T - x0 * A)
        g = -np.vdot(u[:, 0], A @ vh[0].conj()).real
        if g == 0.0 or s[0] == 0.0 or hi - lo <= 2.0**-52 * radius:
            break
        lo, hi = (lo, x0) if g > 0.0 else (x0, hi)
    residual = float(s[0])
    level = residual + min(tol, _FLAT_SLACK) * nt
    spacing, res = radius / 1000.0, 1e-14 * radius
    lo = _march_edge(f, x0, -radius, -spacing, level, res)
    hi = _march_edge(f, x0, radius, spacing, level, res)
    unique = (hi - lo) <= 2.0 * _UNIQUE_RADIUS * radius
    epsilon0 = x0 if unique else 0.5 * (lo + hi)
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
    # Central cutting planes. A top singular pair (u, v) of T - cA, g = u*Av, gives
    # ||T - mu A|| >= ||T - cA|| + a.(mu - c), a = (-Re g, Im g), so the cut
    # a.(mu - c) <= 0 through the centroid c of P keeps every minimizer mu. A cut
    # that removes nothing, for a = 0 (c is a minimizer) or a flat P, would recur.
    P = [(-radius, -radius), (radius, -radius), (radius, radius), (-radius, radius)]
    for _ in range(_CUTS):
        c = _centroid(P)
        u, s, vh = np.linalg.svd(T - complex(*c) * A)
        g = complex(np.vdot(u[:, 0], A @ vh[0].conj()))
        cut = _clip(P, (-g.real, g.imag), c)
        if cut == P or len(cut) < 3 or np.ptp(cut, axis=0).max() <= 1e-15 * radius:
            break
        P = cut
    lambda0, residual = complex(*c), float(s[0])

    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    ring = lambda0 + _UNIQUE_RADIUS * radius * np.exp(1j * angles)
    ring_vals = operator_norms(T - ring[:, None, None] * A)
    level = residual + min(tol, _FLAT_SLACK) * nt
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


def _real_form_witness(K: np.ndarray, target: float = 0.0) -> tuple[np.ndarray, float]:
    """Unit y with y* herm(K) y nearest the target, and the miss y* herm(K) y - target.

    The form ranges over [lmin, lmax]; mixing the orthogonal extreme eigenvectors
    with weights t = (lmax - target) / (lmax - lmin) and 1 - t hits any target in it.
    """
    kh = (K + K.conj().T) / 2.0
    lam, vec = np.linalg.eigh(kh)
    lmin, lmax = float(lam[0]), float(lam[-1])
    if lmin >= target:
        return vec[:, 0], lmin - target
    if lmax <= target:
        return vec[:, -1], lmax - target
    t = (lmax - target) / (lmax - lmin)
    y = math.sqrt(t) * vec[:, 0] + math.sqrt(1.0 - t) * vec[:, -1]
    return y, float(np.real(np.vdot(y, kh @ y))) - target


def _total_form_witness(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit y minimizing |y* K y| (= |<BVy, AVy>|): a point of W(K) nearest 0.

    With e^{it} K = M(t) + i N(t), M and N Hermitian, a chord point mixes
    the extreme eigenvectors u, v of M(t) so that x* M(t) x = 0, phased to
    bring Im(e^{it} x*Kx) = c + 2ab Re(e^{i phi} u* N(t) v) to 0 or nearest
    it (to 0 for k = 2 if 0 is in W(K)). Chords are taken at 16 angles, then
    c(t) = -c(t + pi) is bisected to a chord holding 0. Failing that, 0 may
    lie outside W(K): lambda_min(M(t)), unimodal near its maximum, is
    maximized by _regula_falsi on the sign of its slope, from the best scan
    angle, until it meets the least |x*Kx| of the bottom eigenvectors x to a
    relative 1e-12. Short of that (a kink, or a thin W(K) whose bottom
    eigenvectors swing with t), the chord on the line to the nearest point
    competes with them. For k > 2 two final vectors of a search (the bracket
    ends of a walk) are joined by solving K on their span.
    """
    k = K.shape[0]
    if k == 1:
        return np.ones(1, dtype=np.complex128), abs(complex(K[0, 0]))
    H, S = (K + K.conj().T) / 2.0, (K - K.conj().T) / 2.0j

    def eig(t):  # M(t) for an angle or an array of angles
        t = np.asarray(t)[..., None, None]
        return np.linalg.eigh(np.cos(t) * H - np.sin(t) * S)

    def chord(t, lam, vec):
        lo, hi = float(lam[0]), float(lam[-1])
        if not lo < 0.0 < hi:
            return None
        u, v = vec[:, 0], vec[:, -1]
        a, b = math.sqrt(hi / (hi - lo)), math.sqrt(-lo / (hi - lo))
        N = math.sin(t) * H + math.cos(t) * S
        c = a * a * np.vdot(u, N @ u).real + b * b * np.vdot(v, N @ v).real
        w = complex(np.vdot(u, N @ v))
        r = abs(w)
        rho = min(r, max(-r, -c / (2.0 * a * b)))  # Re(e^{i phi} w), Im >= 0
        phase = (rho + 1j * math.sqrt(r * r - rho * rho)) * w.conjugate() / (r * r) if r else 1
        return a * u + b * phase * v, c, abs(c) <= 2.0 * a * b * r

    def joined(x1, x2):
        G = np.linalg.qr(np.column_stack([x1, x2]))[0]
        return G @ _total_form_witness(G.conj().T @ K @ G)[0]

    step = 2.0 * math.pi / _SCAN
    angles = step * np.arange(_SCAN)
    lams, vecs = eig(angles)
    top = max(zip(lams[:, 0].tolist(), angles.tolist()))  # best (lambda_min, t)
    chords = [chord(t, lam, vec) for t, lam, vec in zip(angles, lams, vecs)]
    found = [ch[0] for ch in chords if ch]
    hit = any(ch and ch[2] for ch in chords)
    turns = [j for j in range(_SCAN) if chords[j - 1] and chords[j]
             and chords[j - 1][1] * chords[j][1] < 0.0]
    if not hit and top[0] < 0.0 and turns:
        j = turns[0]
        ends = {ch[1] < 0.0: (t, ch) for t, ch in
                ((angles[j] - step, chords[j - 1]), (angles[j], chords[j]))}
        for _ in range(64):
            mid = 0.5 * (ends[True][0] + ends[False][0])
            lam, vec = eig(mid)
            # no chord at mid: 0 is outside W(K), on the side of mid or mid + pi
            top = max(top, (float(lam[0]), mid), (-float(lam[-1]), mid + math.pi))
            ch = chord(mid, lam, vec)
            if ch is None:
                break
            found.append(ch[0])
            ends[ch[1] < 0.0] = (mid, ch)
            hit = ch[2]
            if hit:
                break
        if not hit and k > 2:
            found.append(joined(ends[True][1][0], ends[False][1][0]))
    if not hit:
        # lambda_min(M(t)) <= dist(0, W(K)) <= |x*Kx| for a bottom eigenvector x of
        # M(t), and lambda_min(M(t)) has slope -h(t), h(t) = x*N(t)x, so the walk
        # brackets the maximum on the sign of h until the two bounds agree
        ends, upper = {}, math.inf

        def certified():
            return upper - top[0] <= _CERTIFICATE * upper

        def slope(t):
            nonlocal top, upper
            lam, vec = eig(t)
            x = vec[:, 0]
            z = cmath.exp(1j * t) * complex(np.vdot(x, K @ x))
            found.append(x)
            top, upper = max(top, (float(lam[0]), t)), min(upper, abs(z))
            ends[z.imag >= 0.0] = (t, x)
            width = ends[True][0] - ends[False][0] if len(ends) == 2 else math.inf
            return None if certified() or width <= 2.0**-52 * math.pi else z.imag

        _regula_falsi(slope, top[1] - step, top[1] + step, -math.inf, math.inf, top[1])
        if not certified():
            # a kink of lambda_min (its eigenvalue is multiple at the maximum), or a
            # thin W(K) whose bottom eigenvectors swing with t: the bracket ends
            # meet on their span, and the chord runs on the line to the nearest point
            ch = chord(top[1] + 0.5 * math.pi, *eig(top[1] + 0.5 * math.pi))
            found += [ch[0]] if ch else []
            if k > 2 and len(ends) == 2:
                found.append(joined(ends[False][1], ends[True][1]))
    values = [abs(complex(np.vdot(y, K @ y))) for y in found]
    best = int(np.argmin(values))
    return found[best], values[best]


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
    y, value = (_total_form_witness if total else _real_form_witness)(K)
    if abs(value) > witness_tol * max(1.0, nb * na):
        kind = "total" if total else "real"
        raise WitnessNotFound(
            f"best {kind} witness pairing {value:.3e} exceeds tolerance; "
            "center is likely not a minimizer"
        )
    return phase_normalize(V @ y)
