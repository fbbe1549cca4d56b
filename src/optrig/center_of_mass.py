"""Real and total centers of mass of an operator pair.

The real center of mass of T relative to A is a real minimizer of
eps -> ||T - eps*A||; the total center is a complex minimizer of
lam -> ||T - lam*A||. Any minimizer lies in the closed interval (disk)
of radius 2||T||/||A||, which bounds every search here.

Both maps are convex, and one solver (_solve) runs both: the setup, the
search, the uniqueness certificate and the witness. The real search bisects
on the sign of the subgradient -Re u*Av, (u, v) a top singular pair of
T - eps*A. The total search is the centre-of-gravity method (Levin 1965;
Newman 1965): a polygon holding every minimizer, starting as the square
around that disk, is cut through its centroid by the half-plane that one
top singular pair of T - lam*A certifies. Each cut removes at least 4/9 of
the area (Grunbaum 1960) and no minimizer. Neither search compares function
values or uses seeds; both are exact for kinks and flat minimizer sets.

A minimum m taken on a segment forces Ax = 0 for a unit x attaining it at
the midpoint (the Hilbert norm is strictly convex), so m = m0 = ||T on ker A||.
`unique` certifies a single center by m0 = 0 or residual > m0. ker A is
spanned by the right singular vectors of A whose sigma * radius is within
the value slack of 1e-14 ||T|| (never more than tol ||T||), and m0 is read
as the Frobenius norm of T on them, an upper bound that is exact on a line.
flat_interval is then (epsilon0, epsilon0), and otherwise the sub-level set
of the residual plus the slack.

c is a center exactly when a norm-attaining x of T - c*A has <(T - cA)x, Ax>
= 0 (its real part, for the real center). The witness x comes, with no
seeds, from the full SVD the search took at the reported point (one more at
the midpoint of a flat interval): eigenvectors of the Hermitian parts of the
pairing form K on the maximizing subspace of T - c*A (total: of e^{it} K).
A pairing above 1e-6 ||T|| ||A|| raises WitnessNotFound, so a search that
stopped off the minimizer cannot pass (not ||T - cA|| ||A||: at a kink, rounding
leaves a pairing of the order of the residual). Every threshold is relative to
||T||, ||T|| ||A|| or the radius, so the results scale with T -> sT, A -> tA.
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
    operator_norm,
    pairing_form,
    phase_normalize,
    sigma_min,
    top_singular_basis,
)

_FLAT_SLACK = 1e-14  # value slack of the flat minimizer set, relative to ||T||
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


def _level_edge(T, A, inside: float, outside: float, level: float, res: float) -> float:
    """Edge of the sub-level set {eps : ||T - eps*A|| <= level} between a point
    inside it and one outside, bisected to res on the sign of the excess."""
    while abs(outside - inside) > res:
        mid = 0.5 * (inside + outside)
        below = np.linalg.svd(T - mid * A, compute_uv=False)[0] <= level
        inside, outside = (mid, outside) if below else (inside, mid)
    return inside


def _certified_unique(T, A, sa, radius: float, residual: float, slack: float) -> bool:
    """Whether ||T - c*A|| has a single minimizer, by the ker A certificate of
    the module docstring; sa are the singular values of A."""
    if sa[-1] * radius > slack:  # ker A = {0}
        return True
    s, vh = np.linalg.svd(A)[1:]
    m0 = float(np.linalg.norm(T @ vh[s * radius <= slack].conj().T))
    return m0 <= slack or residual > m0 + slack


def _probe(T, A, c):
    """Full SVD of T - c*A, and g = u*Av at its top singular pair (u, v):
    ||T - mu*A|| >= ||T - c*A|| + a.(mu - c) with a = (-Re g, Im g)."""
    svd = np.linalg.svd(T - c * A)
    return svd, complex(np.vdot(svd[0][:, 0], A @ svd[2][0].conj()))


def _bisect(T, A, radius: float):
    """Last point and its full SVD of the bisection of [-radius, radius] on the
    sign of -Re g, down to a zero subgradient or residual or an ulp."""
    lo, hi = -radius, radius
    while True:
        c = 0.5 * (lo + hi)
        svd, g = _probe(T, A, c)
        if g.real == 0.0 or svd[1][0] == 0.0 or hi - lo <= 2.0**-52 * radius:
            return c, svd
        lo, hi = (lo, c) if g.real < 0.0 else (c, hi)


def _cut(T, A, radius: float):
    """Last centroid and its full SVD of central cuts of a polygon P holding every
    minimizer: a.(mu - c) <= 0 through the centroid c keeps them all. The loop
    stops on a cut that removes nothing (a = 0, c a minimizer, or P flat)."""
    P = [(-radius, -radius), (radius, -radius), (radius, radius), (-radius, radius)]
    for _ in range(_CUTS):
        c = _centroid(P)
        svd, g = _probe(T, A, complex(*c))
        cut = _clip(P, (-g.real, g.imag), c)
        if cut == P or len(cut) < 3 or np.ptp(cut, axis=0).max() <= 1e-15 * radius:
            break
        P = cut
    return complex(*c), svd


def _solve(T, A, tol: float, total: bool):
    """(center, residual, flat_interval, unique, witness) of the real (_bisect)
    or total (_cut) center. T = 0 needs no case of its own: the radius is 0,
    so the search returns c = 0 at residual 0, and the witness is e1."""
    T, A = as_operator_pair(T, A)
    sa = np.linalg.svd(A, compute_uv=False)
    if sa[0] == 0.0:
        raise ZeroRelativeOperator("relative operator A is zero")
    nt, na = operator_norm(T), float(sa[0])
    radius, slack = 2.0 * nt / na, min(tol, _FLAT_SLACK) * nt
    c, svd = (_cut if total else _bisect)(T, A, radius)
    residual = float(svd[1][0])
    unique = _certified_unique(T, A, sa, radius, residual, slack)
    flat = (c, c)
    if not (unique or total):  # the minimizers form a segment in [-radius, radius]
        level, res = residual + slack, 1e-14 * radius
        flat = tuple(_level_edge(T, A, c, b, level, res) for b in (-radius, radius))
        c = 0.5 * (flat[0] + flat[1])
        svd = np.linalg.svd(T - c * A)
    return c, residual, flat, unique, _witness(T - c * A, A, svd, nt, na, total)


def real_center_of_mass(T, A, tol: float = 1e-9) -> RealCenterResult:
    """Real scalar minimizing ||T - eps*A||, with its minimizer set.

    epsilon0 is the bisection point, a minimizer to an ulp of the radius, if
    the ker A certificate holds (`unique`). Otherwise the edges of the flat
    interval are bisected on values, and epsilon0 is its midpoint. tol caps
    the value slack, relative to ||T||; the default slack is much tighter.
    """
    return RealCenterResult(*_solve(T, A, tol, total=False))


def total_center_of_mass(T, A, tol: float = 1e-9) -> TotalCenterResult:
    """Complex scalar minimizing ||T - lam*A||; `unique` is the ker A certificate."""
    lam, residual, _, unique, witness = _solve(T, A, tol, total=True)
    return TotalCenterResult(lam, residual, unique, witness)


def center_uniqueness(A, tol: float = 1e-9) -> bool:
    """Whether the center of mass relative to A is certified unique.

    In finite dimension the certificate is sigma_min(A) > tol: then no
    unit sequence can annihilate A and the minimizer of ||T - eps*A|| is
    a single point. A false return means no certificate, not a proof of
    non-uniqueness; a center's `unique` is the stronger ker A certificate.
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


def _witness(B, A, svd, nt: float, na: float, total: bool, witness_tol: float = 1e-6):
    """The witness of the center c from a full SVD of B = T - c*A (see
    extract_witness); nt and na are ||T|| and ||A||."""
    if svd[1][0] <= 1e-12 * nt:
        return np.eye(1, B.shape[0], dtype=np.complex128)[0]  # e1
    V = top_singular_basis(*svd[1:])
    y, value = (_total_form_witness if total else _real_form_witness)(pairing_form(B, A, V))
    if abs(value) > witness_tol * nt * na:
        raise WitnessNotFound(
            f"best {'total' if total else 'real'} witness pairing {value:.3e} exceeds "
            "tolerance; center is likely not a minimizer"
        )
    return phase_normalize(V @ y)


def extract_witness(
    T, A, center: complex | float, total: bool = False, witness_tol: float = 1e-6
) -> np.ndarray:
    """Unit vector certifying the center: norm-attaining for B = T - center*A,
    with Re <Bx, Ax> ~ 0 (real case) or <Bx, Ax> ~ 0 (total case), to
    witness_tol * ||T|| ||A||.

    The search runs over the maximizing subspace of B, where norm-attaining
    vectors live. For ||B|| <= 1e-12 ||T|| every unit vector qualifies; e1
    by convention. Raises WitnessNotFound when no vector qualifies.
    """
    T, A = as_operator_pair(T, A)
    B = T - center * A
    return _witness(B, A, np.linalg.svd(B), operator_norm(T), operator_norm(A), total, witness_tol)
