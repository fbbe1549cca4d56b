"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test prints a single "criterion NN PASS ..." line (visible with -s or
in the captured-output section), and its pytest verdict line doubles as the
pass/fail record under -v. Runtime budgets are asserted where they are part
of the guarantee.
"""

import functools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import accretive_matrix, gauss_matrix, invertible_matrix, unitary_matrix
from optrig import (
    GridSpec,
    SphereOptConfig,
    attain_pairing_target,
    attaining_interval,
    block_matvec,
    block_norms,
    block_vdot,
    center_uniqueness,
    cos_t,
    grid_min_complex,
    grid_min_real,
    haar_unit_vector,
    inner,
    is_real_orthogonal,
    is_total_orthogonal,
    maximizing_subspace,
    minmax_check_complex,
    minmax_check_real,
    operator_norm,
    operator_norms,
    real_center_of_mass,
    sin_t,
    sphere_refine_min,
    sphere_sample_min,
    total_center_of_mass,
    total_cos_t,
    total_trig_report,
    trig_report,
)

PKG_ROOT = Path(__file__).resolve().parent.parent

T_GOLDEN = np.diag([1.0 + 0.0j, 1.0 + 1.0j])
SQ2 = math.sqrt(2.0)


def _passed(num: int, detail: str) -> None:
    print(f"criterion {num:02d} PASS {detail}")


def _sizes(count: int) -> list[int]:
    return [(2, 3, 4)[i % 3] for i in range(count)]


@functools.lru_cache(maxsize=1)
def _accretive_ensemble() -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(20240814)
    return tuple(accretive_matrix(rng, n) for n in _sizes(50))


@functools.lru_cache(maxsize=1)
def _invertible_ensemble() -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(20240815)
    return tuple(invertible_matrix(rng, n) for n in _sizes(50))


def test_criterion_01_real_golden_case():
    start = time.perf_counter()
    rep = trig_report(T_GOLDEN)
    elapsed = time.perf_counter() - start

    assert rep.cos_direct == pytest.approx(1.0 / SQ2, abs=1e-6)
    assert rep.epsilon0 == pytest.approx(0.5, abs=1e-6)
    direct_norm = operator_norm(rep.epsilon0 * T_GOLDEN - np.eye(2))
    assert direct_norm == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert rep.minmax_lhs == pytest.approx(0.5, abs=1e-5)
    assert rep.minmax_rhs == pytest.approx(0.5, abs=1e-5)
    assert elapsed < 1.0
    _passed(1, f"real golden case ({elapsed:.2f}s)")


def test_criterion_02_total_golden_case():
    start = time.perf_counter()
    rep = total_trig_report(T_GOLDEN)
    elapsed = time.perf_counter() - start

    assert rep.total_cos_direct == pytest.approx(math.sqrt(2.0 * SQ2 - 2.0), abs=1e-6)
    lam = rep.lambda0
    assert lam.real == pytest.approx(1.0 / SQ2, abs=1e-6)
    assert lam.imag == pytest.approx(-(SQ2 - 1.0) / SQ2, abs=1e-6)
    direct_norm = operator_norm(lam * T_GOLDEN - np.eye(2))
    assert direct_norm == pytest.approx(SQ2 - 1.0, abs=1e-6)
    weight = abs(rep.antieigenvector[1]) ** 2
    assert weight == pytest.approx(SQ2 - 1.0, abs=1e-4)
    assert elapsed < 2.0
    _passed(2, f"total golden case ({elapsed:.2f}s)")


def test_criterion_03_non_unique_center():
    T = np.diag([1.0, 0.0])
    A = np.diag([0.0, 1.0])
    res = real_center_of_mass(T, A)
    assert res.residual == pytest.approx(1.0, abs=1e-9)
    lo, hi = res.flat_interval
    assert lo <= -0.99 and hi >= 0.99
    assert res.unique is False
    assert center_uniqueness(A) is False
    _passed(3, "degenerate pair keeps a flat interval and drops uniqueness")


def test_criterion_04_minmax_property_suite():
    start = time.perf_counter()
    cfg = SphereOptConfig(restarts=16)
    worst_real = 0.0
    for T in _accretive_ensemble():
        lhs, rhs = minmax_check_real(T, cfg)
        worst_real = max(worst_real, abs(lhs - rhs))
    worst_total = 0.0
    for T in _invertible_ensemble():
        lhs, rhs = minmax_check_complex(T, cfg)
        worst_total = max(worst_total, abs(lhs - rhs))
    elapsed = time.perf_counter() - start

    assert worst_real <= 1e-5
    assert worst_total <= 1e-5
    assert elapsed < 60.0
    _passed(
        4,
        f"min-max gaps real {worst_real:.2e}, total {worst_total:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_05_trig_identity_suite():
    cfg = SphereOptConfig(restarts=16)
    worst_identity = 0.0
    worst_order = -math.inf
    for T in _accretive_ensemble():
        c, _ = cos_t(T, cfg)
        s, _ = sin_t(T)
        tc, _ = total_cos_t(T, cfg)
        worst_identity = max(worst_identity, abs(s * s + c * c - 1.0))
        worst_order = max(worst_order, c - tc)
    assert worst_identity <= 1e-5
    assert worst_order <= 1e-9
    _passed(
        5,
        f"identity gap {worst_identity:.2e}, cos - total_cos <= {worst_order:.2e}",
    )


def test_criterion_06_orthogonality_equivalence_suite():
    rng = np.random.default_rng(777)
    cfg = SphereOptConfig(restarts=16)
    for i in range(200):
        n = (2, 3, 4)[i % 3]
        T = gauss_matrix(rng, n)
        A = invertible_matrix(rng, n)

        real_verdict = is_real_orthogonal(T, A)
        assert real_verdict.route_w0 == real_verdict.route_norm
        total_verdict = is_total_orthogonal(T, A, cfg=cfg)
        assert total_verdict.route_w0 == total_verdict.route_norm

        rc = real_center_of_mass(T, A)
        shifted = T - rc.epsilon0 * A
        assert is_real_orthogonal(shifted, A).orthogonal

        tc = total_center_of_mass(T, A)
        shifted = T - tc.lambda0 * A
        assert is_total_orthogonal(shifted, A, cfg=cfg).orthogonal
    _passed(6, "both decision routes agree on 200 pairs; center shifts are orthogonal")


def test_criterion_07_pairing_interval_suite():
    rng = np.random.default_rng(2024)
    for i in range(50):
        n = (2, 3, 4)[i % 3]
        T = gauss_matrix(rng, n)
        A = gauss_matrix(rng, n)
        iv = attaining_interval(T, A)
        V = maximizing_subspace(T).basis
        k = V.shape[1]
        for _ in range(40):
            x = V @ haar_unit_vector(rng, k)
            val = float(np.real(inner(T @ x, A @ x)))
            assert iv.lo - 1e-8 <= val <= iv.hi + 1e-8

    # Interior targets need a pair whose interval has interior; a scaled
    # unitary T makes the whole space norm-attaining, so the interval is
    # generically nondegenerate.
    cfg = SphereOptConfig(restarts=16)
    hit = 0
    while hit < 20:
        n = (2, 3, 4)[hit % 3]
        T = 1.5 * unitary_matrix(rng, n)
        A = gauss_matrix(rng, n)
        iv = attaining_interval(T, A)
        if iv.hi - iv.lo < 1e-3:
            continue
        frac = rng.uniform(0.1, 0.9)
        target = iv.lo + frac * (iv.hi - iv.lo)
        x = attain_pairing_target(T, A, target, cfg)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)
        got = float(np.real(inner(T @ x, A @ x)))
        assert got == pytest.approx(target, abs=1e-6)
        hit += 1
    _passed(7, "sampled pairings stay inside W0; 20 interior targets attained")


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(11)
    cfg = SphereOptConfig(restarts=16)

    # sphere problems: exact n = 2 sweep, then refined sampling up to n = 4
    for n in (2, 3, 4):
        for _ in range(2):
            T = accretive_matrix(rng, n)
            c, _ = cos_t(T, cfg)

            def cos_val(X, T=T):
                TX = block_matvec(T, X)
                w = block_norms(TX)
                with np.errstate(divide="ignore", invalid="ignore"):
                    return np.where(w < 1e-12, np.inf, np.real(block_vdot(X, TX)) / w)

            if n == 2:
                oracle, _ = sphere_sample_min(cos_val, 2, samples=4000, seed=0)
                assert abs(c - oracle) <= 1e-3
            oracle, _ = sphere_refine_min(cos_val, n, seed=0)
            assert c <= oracle + 1e-6
            assert abs(c - oracle) <= 1e-3

            S = invertible_matrix(rng, n)
            t, _ = total_cos_t(S, cfg)

            def total_val(X, S=S):
                SX = block_matvec(S, X)
                w = block_norms(SX)
                with np.errstate(divide="ignore", invalid="ignore"):
                    return np.where(w < 1e-12, np.inf, np.abs(block_vdot(X, SX)) / w)

            if n == 2:
                oracle, _ = sphere_sample_min(total_val, 2, samples=4000, seed=0)
                assert abs(t - oracle) <= 1e-3
            oracle, _ = sphere_refine_min(total_val, n, seed=0)
            assert t <= oracle + 1e-6
            assert abs(t - oracle) <= 1e-3

    # scalar problems: dense grids over the bracketed search ranges
    for n in (2, 3):
        T = accretive_matrix(rng, n)
        s, eps0 = sin_t(T)
        radius = 2.0 / operator_norm(T)
        _, gv = grid_min_real(
            lambda e: operator_norms(e[:, None, None] * T - np.eye(n)),
            GridSpec(-radius, radius),
        )
        assert abs(s - gv) <= 1e-3

        A = invertible_matrix(rng, n)
        B = gauss_matrix(rng, n)
        scale = max(1.0, operator_norm(B))
        rc = real_center_of_mass(B, A)
        radius = 2.0 * operator_norm(B) / operator_norm(A) + 1.0
        _, gv = grid_min_real(
            lambda e: operator_norms(B - e[:, None, None] * A), GridSpec(-radius, radius)
        )
        assert abs(rc.residual - gv) <= 1e-3 * scale

        tc = total_center_of_mass(B, A)
        _, gv = grid_min_complex(
            lambda lam: operator_norms(B - lam[:, None, None] * A),
            radius,
            GridSpec(-radius, radius, points=81, refine_rounds=4),
        )
        assert abs(tc.residual - gv) <= 1e-3 * scale

        S = invertible_matrix(rng, n)
        _, rhs = minmax_check_complex(S, cfg)
        radius = 2.0 / min(np.linalg.svd(S, compute_uv=False))

        def shifted_norm_sq(e, S=S, n=n):
            return operator_norms(e[:, None, None] * S - np.eye(n)) ** 2

        _, gv = grid_min_real(shifted_norm_sq, GridSpec(0.0, radius))
        assert abs(rhs - gv) <= 1e-3 * max(1.0, gv)
    _passed(8, "optima match sweep, sampling, and grid oracles within 1e-3")


def _library_battery(seed: int) -> list:
    cfg = SphereOptConfig(restarts=8, seed=seed)
    rng = np.random.default_rng(99)
    out = []
    for n in (2, 3):
        T = accretive_matrix(rng, n)
        A = invertible_matrix(rng, n)
        rep = trig_report(T, cfg)
        tot = total_trig_report(T, cfg)
        rc = real_center_of_mass(T, A)
        tc = total_center_of_mass(T, A)
        verdict = is_total_orthogonal(T, A, cfg=cfg)
        out.append(
            (
                rep.cos_direct,
                rep.antieigenvector.tolist(),
                rep.epsilon0,
                rep.sin_value,
                rep.minmax_lhs,
                tot.total_cos_direct,
                tot.lambda0,
                tot.antieigenvector.tolist(),
                rc.epsilon0,
                rc.flat_interval,
                tc.lambda0,
                tc.residual,
                verdict.orthogonal,
                verdict.route_w0,
                verdict.route_norm,
            )
        )
    return out


def _cli_battery() -> bytes:
    env = dict(os.environ)
    env.pop("OPTRIG_SEED", None)
    commands = [
        ["cos", "--matrix", "data/ex35.json", "--verify"],
        ["total-cos", "--matrix", "data/ex35.json", "--verify"],
        ["sin", "--matrix", "data/ex35.json", "--verify"],
        ["center-of-mass", "--matrix", "data/ex35.json", "--complex", "--verify"],
        ["orthogonal", "--matrix", "data/t10.json", "--relative-to", "data/a01.json"],
        ["w0", "--matrix", "data/ex35.json", "--relative-to", "data/a01.json"],
        ["minmax", "--matrix", "data/ex35.json", "--complex"],
    ]
    blob = b""
    for args in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "optrig.cli", *args, "--seed", "3", "--output", "json"],
            capture_output=True,
            cwd=PKG_ROOT,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        blob += proc.stdout
    return blob


def test_criterion_09_deterministic_reports():
    first = _library_battery(5)
    second = _library_battery(5)
    assert first == second

    cli_first = _cli_battery()
    cli_second = _cli_battery()
    assert cli_first == cli_second
    _passed(9, "library and CLI batteries are byte-identical across reruns")
