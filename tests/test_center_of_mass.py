"""Tests for the scalar centers of mass of one operator relative to another."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    accretive_matrix,
    gauss_matrix,
    hpd_matrix,
    invertible_matrix,
    unitary_matrix,
)
from optrig import (
    SphereOptConfig,
    WitnessNotFound,
    ZeroRelativeOperator,
    block_matvec,
    block_vdot,
    center_uniqueness,
    extract_witness,
    is_real_orthogonal,
    is_total_orthogonal,
    minmax_check_complex,
    minmax_check_real,
    operator_norm,
    real_center_of_mass,
    sin_t,
    sphere_refine_min,
    total_center_of_mass,
    total_cos_t,
    total_pairing_min,
    total_trig_report,
    trig_report,
)
from optrig import center_of_mass
from optrig.center_of_mass import _total_form_witness

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=1, max_value=4)


def residual_at(T, A, scalar):
    return operator_norm(np.asarray(T, dtype=complex) - scalar * np.asarray(A, dtype=complex))


def test_real_center_of_real_diagonal_is_chebyshev_center():
    # min over eps of max_i |d_i - eps| is the midpoint of the range
    T = np.diag([1.0, 2.0, 7.0])
    rc = real_center_of_mass(T, np.eye(3))
    assert rc.epsilon0 == pytest.approx(4.0, abs=1e-9)
    # the kink at the center makes the residual error ~ bracket width
    assert rc.residual == pytest.approx(3.0, abs=1e-8)
    assert rc.unique


def test_total_center_of_two_point_diagonal_is_midpoint():
    T = np.diag([1.0, 1.0 + 1.0j])
    tc = total_center_of_mass(T, np.eye(2))
    assert tc.lambda0.real == pytest.approx(1.0, abs=1e-7)
    assert tc.lambda0.imag == pytest.approx(0.5, abs=1e-7)
    assert tc.residual == pytest.approx(0.5, abs=1e-9)
    assert tc.unique


def test_total_center_of_three_point_diagonal_is_circumcenter():
    # equilateral-ish triangle: the enclosing circle passes through all three
    pts = [1.0 + 0.0j, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]
    tc = total_center_of_mass(np.diag(pts), np.eye(3))
    assert abs(tc.lambda0) < 1e-7
    assert tc.residual == pytest.approx(1.0, abs=1e-9)


def test_total_center_of_identity_relative_to_non_diagonal_hpd():
    # ||I - lam*T|| = max_i |1 - lam*mu_i| over the eigenvalues mu_i of T,
    # minimized at lam = 2/(mu_min + mu_max) where the two cones meet in a
    # kink; off-diagonal T tilts the kink away from the coordinate axes.
    # Calling the center also extracts its witness, which raises
    # WitnessNotFound when the search stops off the minimizer.
    T = np.array(
        [
            [2.0631563212012303, 1.521737439354263 - 0.3299049768359532j],
            [1.521737439354263 + 0.3299049768359532j, 1.5946928948163477],
        ]
    )
    lo, hi = np.linalg.eigvalsh(T)
    tc = total_center_of_mass(np.eye(2), T)
    assert abs(tc.lambda0 - 2.0 / (lo + hi)) <= 1e-6
    assert tc.residual == pytest.approx((hi - lo) / (hi + lo), abs=1e-12)
    rep = total_trig_report(T)
    assert rep.total_cos_direct == pytest.approx(2.0 * np.sqrt(lo * hi) / (lo + hi))


@given(seeds, dims)
def test_real_residual_minimal_among_probes(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    A = invertible_matrix(rng, n)
    rc = real_center_of_mass(T, A)
    assert rc.residual == pytest.approx(residual_at(T, A, rc.epsilon0), abs=1e-8)
    for eps in rng.uniform(-3.0, 3.0, size=12):
        assert rc.residual <= residual_at(T, A, float(eps)) + 1e-10


@given(seeds, dims)
def test_total_residual_minimal_among_probes(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    A = invertible_matrix(rng, n)
    tc = total_center_of_mass(T, A)
    assert tc.residual <= rc_real_reference(T, A) + 1e-10
    for _ in range(12):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert tc.residual <= residual_at(T, A, z) + 1e-10


def rc_real_reference(T, A):
    # the complex minimum can only improve on the real one
    return real_center_of_mass(T, A).residual


@given(seeds, dims)
def test_scalar_residual_map_is_convex(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    A = gauss_matrix(rng, n)
    a, b = rng.uniform(-3.0, 3.0, size=2)
    lhs = residual_at(T, A, 0.5 * (a + b))
    rhs = 0.5 * (residual_at(T, A, a) + residual_at(T, A, b))
    assert lhs <= rhs + 1e-10


@given(seeds, dims)
def test_flat_interval_contains_center_and_stays_level(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    A = invertible_matrix(rng, n)
    rc = real_center_of_mass(T, A)
    lo, hi = rc.flat_interval
    assert lo <= rc.epsilon0 <= hi
    assert residual_at(T, A, lo) <= rc.residual + 1e-8
    assert residual_at(T, A, hi) <= rc.residual + 1e-8


def test_flat_pair_reports_full_interval_and_non_uniqueness():
    T = np.diag([1.0, 0.0])
    A = np.diag([0.0, 1.0])
    rc = real_center_of_mass(T, A)
    assert rc.residual == pytest.approx(1.0)
    assert rc.flat_interval[0] <= -0.99
    assert rc.flat_interval[1] >= 0.99
    assert not rc.unique
    assert not center_uniqueness(A)
    tc = total_center_of_mass(T, A)
    assert tc.residual == pytest.approx(1.0)
    assert not tc.unique


def singular_pair():
    # the Ginibre pair of default_rng(11), A drawn first, with sigma_3(A) set to 0
    rng = np.random.default_rng(11)
    u, s, vh = np.linalg.svd(gauss_matrix(rng, 3))
    A = (u * [s[0], s[1], 0.0]) @ vh
    return gauss_matrix(rng, 3), A, vh[2].conj()


def test_singular_relative_certifies_unique_centers_above_the_kernel_norm():
    # residual 2.1176 > m0 = ||T on ker A|| = 1.3710: no flat minimum, though
    # A is singular, so the flat interval is the point epsilon0
    T, A, null = singular_pair()
    rc, tc = real_center_of_mass(T, A), total_center_of_mass(T, A)
    assert rc.residual == pytest.approx(2.1176, abs=1e-4)
    assert np.linalg.norm(T @ null) == pytest.approx(1.3710, abs=1e-4)
    assert rc.unique and tc.unique
    assert rc.flat_interval == (rc.epsilon0, rc.epsilon0)
    assert not center_uniqueness(A)


def test_knife_edge_minimum_at_the_kernel_norm_is_not_certified():
    # ||diag(1, -eps, 2 - eps)|| = max(1, |eps|, |2 - eps|) takes its minimum
    # m = m0 = 1 at the single point 1: unique, but residual = m0 leaves the
    # ker A certificate unmet, so `unique` reports no certificate
    T, A = np.diag([1.0, 0.0, 2.0]), np.diag([0.0, 1.0, 1.0])
    rc, tc = real_center_of_mass(T, A), total_center_of_mass(T, A)
    assert rc.unique is False and tc.unique is False
    assert rc.flat_interval == pytest.approx((1.0, 1.0), abs=1e-12)
    assert rc.epsilon0 == pytest.approx(1.0, abs=1e-12)
    assert abs(tc.lambda0 - 1.0) <= 1e-12


def test_zero_operator_centers_at_origin():
    rc = real_center_of_mass(np.zeros((2, 2)), np.eye(2))
    assert rc.epsilon0 == 0.0
    assert rc.residual == 0.0
    assert rc.unique
    tc = total_center_of_mass(np.zeros((2, 2)), np.eye(2))
    assert tc.lambda0 == 0.0
    assert tc.residual == 0.0


def test_zero_relative_operator_is_refused():
    with pytest.raises(ZeroRelativeOperator):
        real_center_of_mass(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ZeroRelativeOperator):
        total_center_of_mass(np.eye(2), np.zeros((2, 2)))


@given(seeds, dims)
def test_certified_uniqueness_for_invertible_relative(seed, n):
    rng = np.random.default_rng(seed)
    A = invertible_matrix(rng, n)
    rc = real_center_of_mass(gauss_matrix(rng, n), A)
    assert center_uniqueness(A)


@given(seeds, dims)
def test_real_witness_attains_norm_with_vanishing_pairing(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    A = invertible_matrix(rng, n)
    rc = real_center_of_mass(T, A)
    w = rc.witness
    assert np.linalg.norm(w) == pytest.approx(1.0)
    B = T - rc.epsilon0 * A
    nb = operator_norm(B)
    assert np.linalg.norm(B @ w) == pytest.approx(nb, rel=1e-6)
    pairing = float(np.real(np.vdot(A @ w, B @ w)))
    assert abs(pairing) <= 1e-6 * max(1.0, nb * operator_norm(A))


@given(seeds, dims)
def test_total_witness_attains_norm_with_vanishing_pairing(seed, n):
    rng = np.random.default_rng(seed)
    T = gauss_matrix(rng, n)
    A = invertible_matrix(rng, n)
    tc = total_center_of_mass(T, A)
    w = tc.witness
    B = T - tc.lambda0 * A
    nb = operator_norm(B)
    assert np.linalg.norm(B @ w) == pytest.approx(nb, rel=1e-6)
    pairing = abs(complex(np.vdot(A @ w, B @ w)))
    assert pairing <= 1e-6 * max(1.0, nb * operator_norm(A))


def test_extract_witness_rejects_non_center():
    # claiming 0 as the center of diag(1, 2) relative to I leaves the
    # pairing at 2 on the maximizing direction, far above any tolerance
    with pytest.raises(WitnessNotFound):
        extract_witness(np.diag([1.0, 2.0]), np.eye(2), 0.0)


def test_extract_witness_degenerate_residual_returns_basis_vector():
    w = extract_witness(np.eye(2), np.eye(2), 1.0)
    assert np.allclose(w, [1.0, 0.0])


@pytest.mark.parametrize("s", [1.0, 1e-4, 1e-8, 1e-13])
def test_extract_witness_rejects_non_center_at_every_scale(s):
    # the pairing at 0 is 2s^2 = ||T|| ||A||; an absolute floor of 1e-6 on the
    # tolerance (or of 1e-12 on ||B||) let small scales pass
    with pytest.raises(WitnessNotFound):
        extract_witness(s * np.diag([1.0, 2.0]), s * np.eye(2), 0.0)


_NEAR = gauss_matrix(np.random.default_rng(31), 3)
TINY_RESIDUAL_PAIRS = {
    "kink": (np.eye(2), np.diag([1.0, 1.0 + 1e-9])),
    "near-proportional": (_NEAR + 1e-11 * gauss_matrix(np.random.default_rng(32), 3), _NEAR),
}


@pytest.mark.parametrize("name", TINY_RESIDUAL_PAIRS)
def test_centers_with_a_tiny_residual_keep_their_witness(name):
    # the search resolves the minimizer only to rounding, so the pairing there
    # is of the order of the residual (5e-10 at the kink, 1e-11 ||T|| for the
    # near-proportional pair); a bound relative to ||T - cA|| ||A|| refused them
    T, A = TINY_RESIDUAL_PAIRS[name]
    rc, tc = real_center_of_mass(T, A), total_center_of_mass(T, A)
    assert rc.residual <= 1e-9 * operator_norm(T)
    assert tc.residual <= rc.residual * (1.0 + 1e-6)
    if name == "kink":  # min ||eps diag(1, 1 + d) - I|| = d / (2 + d), the path of sin_t
        assert rc.residual == pytest.approx(1e-9 / (2.0 + 1e-9), rel=1e-6)
        assert sin_t(A)[0] == rc.residual


_PAIR = (gauss_matrix(np.random.default_rng(11), 3), gauss_matrix(np.random.default_rng(12), 3))
_ACCRETIVE = accretive_matrix(np.random.default_rng(13), 3)
CENTER_CALLERS = {
    "real_center_of_mass": lambda: real_center_of_mass(*_PAIR),
    "total_center_of_mass": lambda: total_center_of_mass(*_PAIR),
    "is_real_orthogonal": lambda: is_real_orthogonal(*_PAIR),
    "is_total_orthogonal": lambda: is_total_orthogonal(*_PAIR),
    "trig_report": lambda: trig_report(_ACCRETIVE),
    "total_trig_report": lambda: total_trig_report(_ACCRETIVE),
    "sin_t": lambda: sin_t(_ACCRETIVE),
    "minmax_check_real": lambda: minmax_check_real(_ACCRETIVE),
    "minmax_check_complex": lambda: minmax_check_complex(_ACCRETIVE),
}


@pytest.mark.parametrize("name", CENTER_CALLERS)
def test_a_center_search_stopped_off_the_minimizer_is_refused(monkeypatch, name):
    # every caller of a center, also those that read only its residual, gets
    # the witness check, so a wrong center cannot pass as a value
    CENTER_CALLERS[name]()
    for attr in ("_bisect", "_cut"):  # return the point moved by 1e-3 radius, with its SVD
        def moved(T, A, radius, search=getattr(center_of_mass, attr)):
            c = search(T, A, radius)[0] + 1e-3 * radius
            return c, np.linalg.svd(T - c * A)

        monkeypatch.setattr(center_of_mass, attr, moved)
    with pytest.raises(WitnessNotFound):
        CENTER_CALLERS[name]()


def fast_path_pairs():
    rng = np.random.default_rng(21)
    pairs = [(gauss_matrix(rng, n), gauss_matrix(rng, n)) for n in (1, 2, 3, 4, 8) for _ in range(2)]
    for n in (2, 3, 4, 16):
        pairs += [(np.eye(n), hpd_matrix(rng, n)), (np.eye(n), accretive_matrix(rng, n))]
    return pairs + [(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))]


def test_center_witness_is_the_public_check_bit_for_bit():
    # the solver reads the witness off the SVD its search took at the reported
    # point (for the flat pair, the interval midpoint); extract_witness takes
    # that SVD afresh and must land on the same vector
    for T, A in fast_path_pairs():
        rc, tc = real_center_of_mass(T, A), total_center_of_mass(T, A)
        assert np.array_equal(rc.witness, extract_witness(T, A, rc.epsilon0))
        assert np.array_equal(tc.witness, extract_witness(T, A, tc.lambda0, total=True))


@given(seeds)
def test_commuting_normal_pair_matches_pointwise_chebyshev(seed):
    # for diagonal T and A the norm is max_i |t_i - eps * a_i|, whose
    # minimum over eps can be cross-checked by dense scanning
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = a + np.sign(a.real + 1e-9) * 0.5  # keep entries away from zero
    T, A = np.diag(t), np.diag(a)
    rc = real_center_of_mass(T, A)
    grid = np.linspace(-4.0, 4.0, 20001)
    vals = np.max(np.abs(t[None, :] - grid[:, None] * a[None, :]), axis=1)
    assert rc.residual <= vals.min() + 1e-6


# --- the total-witness kernel: least |y* K y| over unit y ---------------------


def form_value(K, y):
    return abs(complex(np.vdot(y, K @ y)))


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_total_form_witness_on_thin_near_hermitian_form(k):
    # W(K) is the real segment of an indefinite H lifted at most ~1e-9 off
    # the axis: the bottom eigenvector at the best angle of the support
    # function is no witness there, while a chord through 0 is.
    rng = np.random.default_rng(40 + k)
    if k == 2:
        H = rotation(0.7) @ np.diag([0.28, -2.57]).astype(complex) @ rotation(-0.7)
        P = np.array([[1.3, 0.4 - 0.2j], [0.4 + 0.2j, 0.3]])
    else:
        G = gauss_matrix(rng, k)
        H = (G + G.conj().T) / 2.0
        L = gauss_matrix(rng, k)[:, : k - 1]
        P = L @ L.conj().T  # positive semidefinite, rank k - 1
    assert np.linalg.eigvalsh(H)[0] < 0.0 < np.linalg.eigvalsh(H)[-1]
    K = H + 1e-9j * P
    y, value = _total_form_witness(K)
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
    assert value == form_value(K, y)
    assert value <= 1e-8


def test_total_form_witness_is_attained_and_beats_the_sphere_oracle():
    rng = np.random.default_rng(2009)
    for k in (2, 3, 4):
        for shift in (0.0, 0.5, 1.5):
            K = gauss_matrix(rng, k) + shift * np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(k)
            y, value = _total_form_witness(K)
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
            assert value == form_value(K, y)
            oracle, _ = sphere_refine_min(
                lambda X, K=K: np.abs(block_vdot(X, block_matvec(K, X))), k, seed=0
            )
            assert value <= oracle + 1e-12


def support_distance(K):
    """max over t of lambda_min(herm(e^{it} K)): a 3600-angle scan, then a
    3600-angle scan across the best cell."""
    H = (K + K.conj().T) / 2.0
    S = (K - K.conj().T) / 2.0j

    def lam_min(t):
        return np.linalg.eigvalsh(np.cos(t)[:, None, None] * H - np.sin(t)[:, None, None] * S)[:, 0]

    coarse = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    best = coarse[np.argmax(lam_min(coarse))]
    cell = coarse[1] - coarse[0]
    return float(lam_min(np.linspace(best - cell, best + cell, 3600)).max())


def test_total_form_witness_matches_the_support_function_off_the_origin():
    rng = np.random.default_rng(1978)
    for k in (2, 3, 4):
        for _ in range(3):
            K = gauss_matrix(rng, k) + 3.0 * np.eye(k)
            d = support_distance(K)
            assert d > 0.0
            _, value = _total_form_witness(K)
            assert value == pytest.approx(d, abs=1e-9)


def test_total_form_witness_finds_the_nearest_point_of_a_polygon():
    # normal K: W(K) is the convex hull of the eigenvalues, here a triangle
    # whose nearest point to 0 lies inside an edge, where lambda_min of the
    # support function is a double eigenvalue
    Q = unitary_matrix(np.random.default_rng(5), 3)
    K = Q @ np.diag([1.0 + 1.0j, 1.0 - 2.0j, 3.0 + 0.5j]) @ Q.conj().T
    y, value = _total_form_witness(K)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert complex(np.vdot(y, K @ y)) == pytest.approx(1.0, abs=1e-9)
    # and 0 inside the triangle is hit exactly
    y, value = _total_form_witness(K - 1.5 * np.eye(3))
    assert value <= 1e-14


def test_total_witnesses_do_not_depend_on_the_seed(monkeypatch):
    # diag(1, -1) has a circle of zeros of |x* K x|, so a seeded search
    # lands on a seed-dependent one
    T, A = np.diag([1.0, -1.0]), np.eye(2)

    def results(seed):
        # a config built with defaults inside the library would carry the seed too
        defaults = tuple(
            seed if f.name == "seed" else f.default for f in dataclasses.fields(SphereOptConfig)
        )
        monkeypatch.setattr(SphereOptConfig.__init__, "__defaults__", defaults)
        cfg = SphereOptConfig(seed=seed)
        value, x = total_pairing_min(T, A, cfg)
        verdict = is_total_orthogonal(T, A, cfg=cfg)
        witness = total_center_of_mass(T, A).witness
        return value, x.tobytes(), verdict.pairing_min, verdict.witness.tobytes(), witness.tobytes()

    assert results(0) == results(1)


# --- the total center against the nested golden-section search ---------------


def _golden_min(f, a, b, width):
    """Minimum of a convex scalar function on [a, b] to the given bracket width,
    by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    best_x, best_v = a, f(a)
    fb = f(b)
    if fb < best_v:
        best_x, best_v = b, fb

    def note(x, v):
        nonlocal best_x, best_v
        if v < best_v:
            best_x, best_v = x, v

    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    note(c, fc)
    note(d, fd)
    for _ in range(300):
        if b - a <= width:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
            note(c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
            note(d, fd)
    return best_x, best_v


def _bracket_min(f, x, step, lo, hi):
    """Interval within [lo, hi] holding a minimizer of a convex f, grown downhill from x."""
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


def nested_reference(T, A):
    """Minimum of ||T - lam*A|| by nested golden-section search, the total
    center's search before cutting planes: the outer search runs over Re lam,
    the inner one, warm-started from the previous inner minimizer, over Im lam.
    A partial minimum of a convex map is convex, so the search is exact for
    kinks and flat minimizer sets, at about 3,200 SVDs a call."""
    radius = 2.0 * operator_norm(T) / operator_norm(A)
    width = 1e-12 * max(1.0, radius)
    prev, best = [0.0, 0.0], [np.inf, 0.0, 0.0]

    def min_over_im(re):
        def h(im):
            return residual_at(T, A, complex(re, im))

        lo, hi = _bracket_min(h, prev[0], max(prev[1], width), -radius, radius)
        im, value = _golden_min(h, lo, hi, 1e-15 * max(1.0, radius))
        prev[:] = im, abs(im - prev[0])
        if value < best[0]:
            best[:] = value, re, im
        return value

    _golden_min(min_over_im, -radius, radius, width)
    return best[0]


def orthogonal_pair(rng, n):
    # T = U diag(sigma) V* with sigma_1 simple and A = U M V*, M[0, 0] = 0:
    # the top right singular vector of T pairs to 0, so lam = 0 is a center
    sigma = np.concatenate([[1.5], np.sort(rng.uniform(0.1, 1.0, n - 1))[::-1]])
    U, V = unitary_matrix(rng, n), unitary_matrix(rng, n)
    M = gauss_matrix(rng, n)
    M[0, 0] = 0.0
    return (U * sigma) @ V.conj().T, U @ M @ V.conj().T


def thin_pairs():
    # I relative to [[1, b], [0, -1 + eps i]] and its rotations: W(T) is a
    # thin ellipse across 0
    thin = [
        np.array([[1.0, b], [0.0, -1.0 + eps * 1j]]) for b in (0.01, 0.03, 0.05) for eps in (0.1, 0.2)
    ]
    return [(np.eye(2), np.exp(1j * phi) * T) for T in thin for phi in (0.0, 0.3, 2.0, -2.5)]


def center_suite(n):
    rng = np.random.default_rng(1965 + n)
    pairs = []
    for _ in range(3):
        T = gauss_matrix(rng, n)
        pairs += [
            (T, gauss_matrix(rng, n)),
            (np.eye(n), accretive_matrix(rng, n)),
            (np.eye(n), invertible_matrix(rng, n)),
            (np.eye(n), hpd_matrix(rng, n)),
            orthogonal_pair(rng, n),
            (T, T),
        ]
    return pairs + (thin_pairs() if n == 2 else [])


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_total_center_is_no_worse_than_the_nested_reference(n):
    for T, A in center_suite(n):
        tc = total_center_of_mass(T, A)
        ref = nested_reference(T, A)
        assert tc.residual <= ref + 1e-14 * max(1.0, ref)
        assert tc.residual <= operator_norm(T) * (1.0 + 1e-12)
        assert tc.residual == pytest.approx(residual_at(T, A, tc.lambda0), rel=1e-14, abs=1e-15)


def counting(monkeypatch, name="svd"):
    calls = [0]
    func = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return func(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_total_center_stops_on_a_zero_subgradient(monkeypatch):
    # ||diag(1, -lam)|| = max(1, |lam|): the first centroid, 0, is a minimizer
    # with top singular pair e1, e1, and u*Av = 0 there; its cut removes
    # nothing, and a loop that went on would repeat that centroid to the cap
    calls = counting(monkeypatch)
    tc = total_center_of_mass(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert tc.lambda0 == 0.0
    assert tc.residual == 1.0
    assert not tc.unique
    assert calls[0] <= 10


def test_total_center_svd_budget(monkeypatch):
    rng = np.random.default_rng(4)
    T, A = gauss_matrix(rng, 4), gauss_matrix(rng, 4)
    calls = counting(monkeypatch)
    total_center_of_mass(T, A)
    assert calls[0] <= 150


def test_real_center_svd_budget(monkeypatch):
    # bisection on the subgradient sign to an ulp of the radius, then the ker A
    # certificate; a march out of the flat interval on values took 137 SVDs on
    # the Ginibre pair and 136 on the orthogonal one, and 1,083 on the flat
    # pair, whose edges are now bisected. A witness search with SVDs of its own
    # took 61, 60 and 102; it now reads the search's last SVD
    rng = np.random.default_rng(4)
    pairs = [(gauss_matrix(rng, 4), gauss_matrix(rng, 4)), orthogonal_pair(np.random.default_rng(7), 4)]
    pairs.append((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    for (T, A), budget in zip(pairs, (57, 56, 99)):
        calls = counting(monkeypatch)
        real_center_of_mass(T, A)
        assert calls[0] <= budget
        monkeypatch.undo()


def test_uniqueness_certificate_svd_count_on_the_total_center(monkeypatch):
    # the certificate reads sigma_min(A) off the SVD that gives ||A||, and takes
    # a full SVD of A only when ker A is not {0}; a 16-point ring probe took 109
    # SVDs on the Ginibre pair, 105 on the orthogonal one, and 8 on the flat pair,
    # and a witness search with SVDs of its own 108, 104 and 8
    rng = np.random.default_rng(4)
    pairs = [(gauss_matrix(rng, 4), gauss_matrix(rng, 4)), orthogonal_pair(np.random.default_rng(7), 4)]
    pairs.append((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    for (T, A), budget in zip(pairs, (104, 100, 4)):
        calls = counting(monkeypatch)
        total_center_of_mass(T, A)
        assert calls[0] <= budget
        monkeypatch.undo()


@pytest.mark.parametrize("n", [4, 16, 64])
def test_total_form_witness_eigh_budget_off_the_range(monkeypatch, n):
    # HPD K: W(K) is the segment of its eigenvalues, 0 lies outside it and the
    # nearest point is the bottom eigenvalue, at the scan angle 0
    K = hpd_matrix(np.random.default_rng(n), n)
    calls = counting(monkeypatch, "eigh")
    _, value = _total_form_witness(K)
    assert calls[0] <= 20
    assert value == pytest.approx(np.linalg.eigvalsh(K)[0], rel=1e-12)


def test_total_cos_eigh_budget_on_hpd_input(monkeypatch):
    T = hpd_matrix(np.random.default_rng(16), 16)
    calls = counting(monkeypatch, "eigh")
    total_cos_t(T)
    assert calls[0] <= 100


SCALES = [1e-8, 1.0, 1e8]
# B and A of the scale tests: the real 3x3 standard normals of default_rng(5)
# and default_rng(6), and T = A = diag(0, 1), whose ker A is killed by T
# (m0 = 0) and whose residual is 0
PAIRS = [
    (np.random.default_rng(5).standard_normal((3, 3)), np.random.default_rng(6).standard_normal((3, 3))),
    (np.diag([0.0, 1.0]), np.diag([0.0, 1.0])),
]


@pytest.mark.parametrize("t", SCALES)
@pytest.mark.parametrize("s", SCALES)
def test_real_center_is_scale_equivariant(s, t):
    for B, A in PAIRS:
        base, rc = real_center_of_mass(B, A), real_center_of_mass(s * B, t * A)
        assert rc.epsilon0 * t / s == pytest.approx(base.epsilon0, rel=1e-12)
        assert np.array(rc.flat_interval) * t / s == pytest.approx(base.flat_interval, rel=1e-12)
        assert rc.unique and base.unique
        assert is_real_orthogonal(s * B, t * A).orthogonal == is_real_orthogonal(B, A).orthogonal


@pytest.mark.parametrize("t", SCALES)
@pytest.mark.parametrize("s", SCALES)
def test_total_center_is_scale_equivariant(s, t):
    for B, A in PAIRS:
        base, tc = total_center_of_mass(B, A), total_center_of_mass(s * B, t * A)
        assert tc.lambda0 * t / s == pytest.approx(base.lambda0, rel=1e-12)
        assert tc.unique and base.unique


# (1 + i) G + 2I, G the standard normal 3x3 of default_rng(3), and a Ginibre
# matrix of default_rng(3) plus 2I: scaled by 1e8, with an absolute floor in
# the search width, their centers missed the witness tolerance
G3 = np.array(
    [
        [2.04091912, -2.55566503, 0.41809885],
        [-0.56776961, -0.45264929, -0.21559716],
        [-2.01998613, -0.23193238, -0.86521308],
    ]
)


@pytest.mark.parametrize(
    "T",
    [(1.0 + 1.0j) * G3 + 2.0 * np.eye(3), gauss_matrix(np.random.default_rng(3), 3) + 2.0 * np.eye(3)],
    ids=["real-G", "ginibre"],
)
def test_total_trig_report_of_a_large_operator(T):
    rep, ref = total_trig_report(1e8 * T), total_trig_report(T)
    assert rep.total_cos_via_center == pytest.approx(ref.total_cos_via_center, abs=1e-10)
    assert abs(rep.lambda0 * 1e8 - ref.lambda0) <= 1e-12  # |ref.lambda0| < 1
