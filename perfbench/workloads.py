"""Workloads of the optrig benchmark: seeded inputs, operations and reference checks.

A workload is an endless sequence of rounds. Round ``r`` of seed ``s`` draws
its matrices from ``numpy.random.default_rng([s, r])``, so the same seed
always yields the same inputs. A round of a library workload holds two
operations for every (operation kind, size) slot: one on a family with a
known answer and one on seeded Ginibre, accretive or invertible matrices.

Every operation carries a check. A check returns ``None`` when the result is
right and a one-line reason when it misses its reference. The reference
values are computed here with plain numpy, never with optrig.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import optrig

CROSS_TOL = 1e-5  # the library's own default cross_tol
REL_TOL = 1e-6  # relative slack for norms, pairings and centers

KINDS = (
    "trig_report",
    "total_trig_report",
    "is_real_orthogonal",
    "is_total_orthogonal",
    "real_center_of_mass",
    "total_center_of_mass",
    "attain_pairing_target",
)
SIZES = {"reports-small": (2, 3, 4), "reports-large": (16, 32, 64)}
# Rounds a traced run executes: a fixed amount of work, so counts repeat exactly.
TRACE_ROUNDS = {"reports-small": 2, "reports-large": 1, "cli-cold": 1}
# Wall seconds of one round on the reference machine (2 vCPUs of a shared
# Xeon host at 2.1 GHz, BLAS on one thread); sizes an untimed run.
ROUND_S = {"reports-small": 4.0, "reports-large": 35.0, "cli-cold": 28.0}
_WARMUP_SEED = 12345

Check = Callable[[Any], "str | None"]


@dataclass
class Op:
    """One operation: a call on prepared inputs and the check of its result."""

    label: str
    call: Callable[[], Any]
    check: Check


# --- matrix families -------------------------------------------------------


def gauss(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex Ginibre matrix with unit-variance entries."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(gauss(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def accretive(rng: np.random.Generator, n: int) -> np.ndarray:
    """Ginibre matrix shifted so its Hermitian part stays above 0.12."""
    m = gauss(rng, n)
    floor = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    if floor < 0.12:
        m = m + (0.12 - floor) * np.eye(n)
    return m


def invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Ginibre matrix with singular values clipped to at least 0.1."""
    u, s, vh = np.linalg.svd(gauss(rng, n))
    return (u * np.clip(s, 0.1, None)) @ vh


def hpd(rng: np.random.Generator, n: int) -> tuple[np.ndarray, float, float]:
    """Hermitian positive definite U diag(lam) U* with its closed-form cos and sin."""
    lam = np.exp(rng.uniform(math.log(0.25), math.log(4.0), n))
    u = unitary(rng, n)
    t = (u * lam) @ u.conj().T
    lo, hi = float(lam.min()), float(lam.max())
    return (t + t.conj().T) / 2, 2 * math.sqrt(lo * hi) / (lo + hi), (hi - lo) / (hi + lo)


def orthogonal_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """T = U diag(sigma) V* with sigma_1 simple and A = U M V* with M[0,0] = 0.

    The top right singular vector v of T pairs to <Tv, Av> = sigma_1 M[0,0] = 0,
    so T is (totally) Birkhoff-James orthogonal to A.
    """
    sigma = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
    sigma[0] = 1.5
    u, v = unitary(rng, n), unitary(rng, n)
    m = gauss(rng, n)
    m[0, 0] = 0.0
    return (u * sigma) @ v.conj().T, u @ m @ v.conj().T


def multi_top(rng: np.random.Generator, n: int) -> np.ndarray:
    """T whose top singular value has multiplicity 2 (3 from n = 4 on)."""
    k = 2 if n < 4 else 3
    sigma = np.concatenate([np.ones(k), rng.uniform(0.1, 0.8, n - k)])
    return (unitary(rng, n) * sigma) @ unitary(rng, n).conj().T


# --- reference quantities (plain numpy) ------------------------------------


def norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def pairing(t: np.ndarray, a: np.ndarray, x: np.ndarray) -> complex:
    """<Tx, Ax>, linear in the first slot."""
    return complex(np.vdot(a @ x, t @ x))


def attaining_range(t: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """Extremes of Re <Tx, Ax> over unit x in the top right singular subspace of T."""
    _, s, vh = np.linalg.svd(t)
    v = vh[s >= (1.0 - 1e-8) * s[0]].conj().T
    k = (a @ v).conj().T @ (t @ v)
    w = np.linalg.eigvalsh((k + k.conj().T) / 2)
    return float(w[0]), float(w[-1])


def _far(got: float, want: float, tol: float) -> bool:
    return not abs(got - want) <= tol


# --- checks of library results ---------------------------------------------


def check_trig(t: np.ndarray, ref: tuple[float, float] | None) -> Check:
    def check(rep) -> str | None:
        x = rep.antieigenvector
        tx = t @ x
        at_vector = float(np.vdot(x, tx).real) / float(np.linalg.norm(tx))
        if _far(at_vector, rep.cos_direct, 1e-9):
            return f"antieigenvector gives {at_vector:.9e}, report says {rep.cos_direct:.9e}"
        if _far(rep.sin_value**2 + rep.cos_direct**2, 1.0, CROSS_TOL):
            return "sin^2 + cos^2 deviates from 1"
        if ref is not None:
            c, s = ref
            if _far(rep.cos_direct, c, CROSS_TOL):
                return f"cos {rep.cos_direct:.9e} misses closed form {c:.9e}"
            if _far(rep.sin_value, s, CROSS_TOL):
                return f"sin {rep.sin_value:.9e} misses closed form {s:.9e}"
        return None

    return check


def check_total_trig(t: np.ndarray, ref: float | None) -> Check:
    def check(rep) -> str | None:
        x = rep.antieigenvector
        tx = t @ x
        at_vector = abs(complex(np.vdot(x, tx))) / float(np.linalg.norm(tx))
        if _far(at_vector, rep.total_cos_direct, 1e-9):
            return f"antieigenvector gives {at_vector:.9e}, report says {rep.total_cos_direct:.9e}"
        if _far(rep.minmax_lhs, rep.minmax_rhs, CROSS_TOL):
            return "min-max sides differ"
        if ref is not None and _far(rep.total_cos_direct, ref, CROSS_TOL):
            return f"total cos {rep.total_cos_direct:.9e} misses closed form {ref:.9e}"
        return None

    return check


def check_verdict(t: np.ndarray, a: np.ndarray, total: bool, expect: bool | None) -> Check:
    nt, na = norm(t), norm(a)

    def check(v) -> str | None:
        if not v.route_w0 == v.route_norm == v.orthogonal:
            return "verdict disagrees with its routes"
        if expect is not None and v.orthogonal != expect:
            return f"verdict {v.orthogonal}, expected {expect}"
        if v.orthogonal:
            if v.witness is None:
                return "orthogonal verdict without a witness"
            w = v.witness
            if float(np.linalg.norm(t @ w)) < nt * (1 - REL_TOL):
                return "witness does not attain ||T||"
            p = pairing(t, a, w)
            if (abs(p) if total else abs(p.real)) > REL_TOL * nt * na:
                return f"witness pairing {abs(p):.3e} is not zero"
        return None

    return check


def check_center(t: np.ndarray, a: np.ndarray, total: bool, expect: str | None) -> Check:
    """expect: "zero" when 0 is a center, "one" when 1 is the center with residual 0."""
    nt, na = norm(t), norm(a)

    def check(res) -> str | None:
        c = res.lambda0 if total else res.epsilon0
        b = t - c * a
        nb = norm(b)
        if _far(nb, res.residual, 1e-9 * max(1.0, nt)):
            return f"residual {res.residual:.9e} but ||T - c A|| = {nb:.9e}"
        if res.residual > nt * (1 + 1e-12):
            return "residual exceeds ||T||, which c = 0 attains"
        if nb > 1e-9 * nt:
            w = res.witness
            if float(np.linalg.norm(b @ w)) < nb * (1 - REL_TOL):
                return "witness does not attain ||T - c A||"
            p = pairing(b, a, w)
            if (abs(p) if total else abs(p.real)) > REL_TOL * max(1.0, nb * na):
                return f"witness pairing {abs(p):.3e} is not zero"
        if expect == "zero":
            if res.residual < nt * (1 - REL_TOL):
                return f"residual {res.residual:.9e} below ||T|| = {nt:.9e} for an orthogonal pair"
            if not total:
                lo, hi = res.flat_interval
                tau = REL_TOL * nt / na
                if not lo - tau <= 0.0 <= hi + tau:
                    return f"0 outside the flat interval [{lo:.3e}, {hi:.3e}]"
        elif expect == "one":
            if abs(c - 1.0) > 1e-5 or res.residual > REL_TOL * nt:
                return f"center {c} residual {res.residual:.3e}, expected 1 and 0"
        return None

    return check


def check_attain(t: np.ndarray, a: np.ndarray, target: float) -> Check:
    nt, na = norm(t), norm(a)

    def check(x) -> str | None:
        if _far(float(np.linalg.norm(x)), 1.0, 1e-9):
            return "result is not a unit vector"
        if float(np.linalg.norm(t @ x)) < nt * (1 - REL_TOL):
            return "result does not attain ||T||"
        got = pairing(t, a, x).real
        if _far(got, target, REL_TOL * max(1.0, nt * na)):
            return f"Re <Tx, Ax> = {got:.9e} misses target {target:.9e}"
        return None

    return check


# --- library workloads -------------------------------------------------------


def _slots(sizes: tuple[int, ...]) -> list[tuple[str, int]]:
    """(kind, n) slots: kinds cycle fastest and sizes rotate, so every kind meets
    every size once per round and any prefix of a round mixes both."""
    count = len(KINDS) * len(sizes)
    return [
        (KINDS[j % len(KINDS)], sizes[(j + j // len(KINDS)) % len(sizes)])
        for j in range(count)
    ]


def library_op(kind: str, n: int, known: bool, variant: int, rng: np.random.Generator) -> Op:
    """One library operation; known selects a family with a known answer.

    The call looks the function up on the optrig package when it runs, so a
    traced run sees the wrapped function.
    """
    label = f"{kind}/n{n}/{'known' if known else 'random'}"
    if kind in ("trig_report", "total_trig_report"):
        if known:
            t, c, s = hpd(rng, n)
        else:
            t = accretive(rng, n) if kind == "trig_report" else invertible(rng, n)
        args: tuple = (t,)
        if kind == "trig_report":
            check = check_trig(t, (c, s) if known else None)
        else:
            check = check_total_trig(t, c if known else None)
    elif kind == "attain_pairing_target":
        t = multi_top(rng, n) if known else gauss(rng, n)
        a = gauss(rng, n)
        lo, hi = attaining_range(t, a)
        target = 0.5 * (lo + hi)
        args = (t, a, target)
        check = check_attain(t, a, target)
    else:
        expect: bool | None
        if known and variant == 0:
            t, a = orthogonal_pair(rng, n)
            expect = True
        elif known:
            t = gauss(rng, n)
            a = t.copy()
            expect = False
        else:
            t, a = gauss(rng, n), gauss(rng, n)
            expect = None
        args = (t, a)
        total = "total" in kind
        if kind.startswith("is_"):
            check = check_verdict(t, a, total, expect)
        else:
            check = check_center(t, a, total, {True: "zero", False: "one", None: None}[expect])
    return Op(label, lambda: getattr(optrig, kind)(*args), check)


def library_round(workload: str, seed: int, r: int) -> list[Op]:
    """Every (kind, size) slot twice: once with a known answer, once random."""
    rng = np.random.default_rng([seed, r])
    return [
        library_op(kind, n, known=(j + half) % 2 == 0, variant=(j + r) % 2, rng=rng)
        for half in (0, 1)
        for j, (kind, n) in enumerate(_slots(SIZES[workload]))
    ]


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds a run of about `seconds` measures: a whole number, fixed for
    given seconds, so two runs with one seed do exactly the same operations."""
    return max(1, round(seconds / ROUND_S[workload]))


def library_warmup(workload: str) -> list[Op]:
    """One operation of each kind at the workload's smallest size, fixed inputs."""
    rng = np.random.default_rng(_WARMUP_SEED)
    n = SIZES[workload][0]
    return [library_op(kind, n, known=False, variant=0, rng=rng) for kind in KINDS]


# --- the CLI workload --------------------------------------------------------


@dataclass
class CliCall:
    """One CLI invocation, its expected exit code and a check of its JSON report."""

    label: str
    argv: list[str]
    exit_code: int
    check: Callable[[dict], "str | None"]


def check_cli(call: CliCall, code: int, stdout: str) -> str | None:
    """Reason the CLI outcome misses its reference, or None."""
    if code != call.exit_code:
        return f"exit code {code}, expected {call.exit_code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    if not isinstance(doc, dict):
        return "report is not a JSON object"
    try:
        return call.check(doc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"report lacks an expected field ({exc!r})"


def write_matrix(path: str, m: np.ndarray, name: str) -> None:
    doc = {
        "n": int(m.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m],
        "name": name,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _near(key: str, want: float, tol: float = CROSS_TOL) -> Callable[[dict], "str | None"]:
    def check(doc: dict) -> str | None:
        got = float(doc["results"][key])
        return None if abs(got - want) <= tol else f"{key} {got:.9e}, expected {want:.9e}"

    return check


def _all(*checks: Callable[[dict], "str | None"]) -> Callable[[dict], "str | None"]:
    def check(doc: dict) -> str | None:
        for c in checks:
            reason = c(doc)
            if reason is not None:
                return reason
        return None

    return check


def _results(pred: Callable[[dict], bool], what: str) -> Callable[[dict], "str | None"]:
    def check(doc: dict) -> str | None:
        return None if pred(doc["results"]) else what

    return check


def _error(kind: str) -> Callable[[dict], "str | None"]:
    def check(doc: dict) -> str | None:
        got = doc["error"]["type"]
        return None if got == kind else f"error {got}, expected {kind}"

    return check


def _center_json(t: np.ndarray, a: np.ndarray, total: bool, orthogonal: bool):
    nt = norm(t)

    def check(doc: dict) -> str | None:
        res = doc["results"]
        c = complex(*res["lambda0"]) if total else float(res["epsilon0"])
        nb = norm(t - c * a)
        if abs(nb - res["residual"]) > 1e-9 * max(1.0, nt):
            return "residual does not match ||T - c A||"
        if res["residual"] > nt * (1 + 1e-12):
            return "residual exceeds ||T||"
        if orthogonal and res["residual"] < nt * (1 - REL_TOL):
            return "residual below ||T|| for an orthogonal pair"
        return None

    return check


def _w0_json(t: np.ndarray, a: np.ndarray):
    lo, hi = attaining_range(t, a)
    scale = REL_TOL * max(1.0, norm(t) * norm(a))

    def check(doc: dict) -> str | None:
        res = doc["results"]
        if abs(res["lo"] - lo) > scale or abs(res["hi"] - hi) > scale:
            return f"w0 [{res['lo']:.6e}, {res['hi']:.6e}], expected [{lo:.6e}, {hi:.6e}]"
        return None

    return check


def _routes_agree(expect: bool | None):
    def check(doc: dict) -> str | None:
        res = doc["results"]
        if not res["route_w0"] == res["route_norm"] == res["orthogonal"]:
            return "verdict disagrees with its routes"
        if expect is not None and res["orthogonal"] != expect:
            return f"orthogonal {res['orthogonal']}, expected {expect}"
        return None

    return check


def _cos_routes(key: str):
    return _results(
        lambda r: abs(r[key] - r[f"{key}_via_center"]) <= CROSS_TOL and 0 < r[key] <= 1,
        f"{key} routes differ or leave (0, 1]",
    )


def _bundled_calls(data: str) -> list[CliCall]:
    """Every command and --complex variant on the bundled 2x2 files.

    ex35 = diag(1, 1+i): cos = sin = 1/sqrt(2); total cos^2 = 2 sqrt(2) - 2 at
    |x_2|^2 = sqrt(2) - 1; ||T - eps I|| is least at eps = 1 (value 1) and
    ||T - lam I|| at lam = 1 + i/2 (value 1/2). t10 = diag(1, 0) and a01 =
    diag(0, 1): ||T - eps A|| = max(1, |eps|), so every |eps| <= 1 is a
    center and T is orthogonal to A; t10 is neither accretive nor invertible.
    """
    ex35 = os.path.join(data, "ex35.json")
    t10 = os.path.join(data, "t10.json")
    a01 = os.path.join(data, "a01.json")
    pair = ["--matrix", t10, "--relative-to", a01]
    c = 1 / math.sqrt(2)
    tc2 = 2 * math.sqrt(2) - 2
    return [
        CliCall("cos/ex35", ["cos", "--matrix", ex35], 0, _near("cos", c)),
        CliCall("center/t10-a01", ["center-of-mass", *pair], 0, _all(
            _near("residual", 1.0, 1e-9),
            _results(lambda r: r["unique"] is False and r["flat_interval"][0] < 0 < r["flat_interval"][1],
                     "center of t10 relative to a01 should be the flat interval [-1, 1]"))),
        CliCall("total-cos/ex35", ["total-cos", "--matrix", ex35], 0, _near("total_cos", math.sqrt(tc2))),
        CliCall("center-complex/ex35", ["center-of-mass", "--complex", "--matrix", ex35], 0, _all(
            _near("residual", 0.5),
            _results(lambda r: abs(complex(*r["lambda0"]) - (1 + 0.5j)) <= 1e-4, "lambda0 should be 1 + i/2"))),
        CliCall("sin/ex35", ["sin", "--matrix", ex35], 0, _near("sin", c)),
        CliCall("orthogonal/t10-a01", ["orthogonal", *pair], 0, _routes_agree(True)),
        CliCall("minmax/ex35", ["minmax", "--matrix", ex35], 0, _all(_near("lhs", 0.5), _near("rhs", 0.5))),
        CliCall("orthogonal-complex/ex35", ["orthogonal", "--complex", "--matrix", ex35], 0, _routes_agree(False)),
        CliCall("minmax-complex/ex35", ["minmax", "--complex", "--matrix", ex35], 0,
                _all(_near("lhs", 1 - tc2), _near("rhs", 1 - tc2))),
        CliCall("w0/ex35", ["w0", "--matrix", ex35], 0, _all(_near("lo", 1.0, 1e-9), _near("hi", 1.0, 1e-9))),
        CliCall("center/ex35", ["center-of-mass", "--matrix", ex35], 0,
                _all(_near("epsilon0", 1.0), _near("residual", 1.0))),
        CliCall("cos/t10", ["cos", "--matrix", t10], 2, _error("NotAccretive")),
    ]


def _generated_calls(tmp: str, rng: np.random.Generator, n: int, known: bool, r: int) -> list[CliCall]:
    """Every command and --complex variant on freshly written n x n files."""
    tag = f"n{n}/{'known' if known else 'random'}"

    def save(m: np.ndarray, name: str) -> str:
        path = os.path.join(tmp, f"{name}-n{n}-r{r}.json")
        write_matrix(path, m, name)
        return path

    if known:
        h, c, s = hpd(rng, n)
        t_acc = t_inv = h
        t, a = orthogonal_pair(rng, n)
        cos_check = _all(_cos_routes("cos"), _near("cos", c))
        tcos_check = _all(_cos_routes("total_cos"), _near("total_cos", c))
        sin_check = _near("sin", s)
        mm_real = _all(_near("lhs", s * s), _near("rhs", s * s))
        mm_complex = _all(_near("lhs", 1 - c * c), _near("rhs", 1 - c * c))
        expect: bool | None = True
    else:
        t_acc, t_inv = accretive(rng, n), invertible(rng, n)
        t, a = gauss(rng, n), gauss(rng, n)
        cos_check = _cos_routes("cos")
        tcos_check = _cos_routes("total_cos")
        sin_check = _results(lambda r: 0 <= r["sin"] < 1 and r["epsilon0"] > 0, "sin outside [0, 1)")
        gap = _results(lambda r: abs(r["lhs"] - r["rhs"]) <= CROSS_TOL, "min-max sides differ")
        mm_real = mm_complex = gap
        expect = None
    acc, inv = save(t_acc, "accretive"), save(t_inv, "invertible")
    pair = ["--matrix", save(t, "T"), "--relative-to", save(a, "A")]
    orthogonal = expect is True
    return [
        CliCall(f"cos/{tag}", ["cos", "--matrix", acc], 0, cos_check),
        CliCall(f"center/{tag}", ["center-of-mass", *pair], 0, _center_json(t, a, False, orthogonal)),
        CliCall(f"total-cos/{tag}", ["total-cos", "--matrix", inv], 0, tcos_check),
        CliCall(f"orthogonal/{tag}", ["orthogonal", *pair], 0, _routes_agree(expect)),
        CliCall(f"sin/{tag}", ["sin", "--matrix", acc], 0, sin_check),
        CliCall(f"center-complex/{tag}", ["center-of-mass", "--complex", *pair], 0, _center_json(t, a, True, orthogonal)),
        CliCall(f"minmax/{tag}", ["minmax", "--matrix", acc], 0, mm_real),
        CliCall(f"orthogonal-complex/{tag}", ["orthogonal", "--complex", *pair], 0, _routes_agree(expect)),
        CliCall(f"minmax-complex/{tag}", ["minmax", "--complex", "--matrix", inv], 0, mm_complex),
        CliCall(f"w0/{tag}", ["w0", *pair], 0, _w0_json(t, a)),
    ]


def cli_round(seed: int, r: int, data: str, tmp: str) -> list[CliCall]:
    """One round of CLI calls; writes the round's generated files into tmp.

    Bundled and generated calls alternate, and n = 3 and n = 4 swap the known
    and random families between rounds and between seeds. Every other pair of
    neighbouring calls adds --verify, so a round verifies half its bundled and
    half its generated calls; the pattern flips each round. It does not turn
    with the seed: the largest child, which peak_rss_mb reports, is a
    verified call, and runs of one length must all make it.
    """
    rng = np.random.default_rng([seed, r])
    flip = (seed + r) % 2
    n3 = _generated_calls(tmp, rng, 3, known=flip == 0, r=r)
    n4 = _generated_calls(tmp, rng, 4, known=flip == 1, r=r)
    generated = [c for pair in zip(n3, n4) for c in pair]
    bundled = _bundled_calls(data)
    calls: list[CliCall] = []
    for i in range(max(len(bundled), len(generated))):
        calls.extend(batch[i] for batch in (bundled, generated) if i < len(batch))
    for i, call in enumerate(calls):
        if (i // 2 + r) % 2 == 0:
            call.argv.append("--verify")
            call.label += "/verify"
        call.argv.extend(["--output", "json"])
    return calls


def cli_warmup(data: str) -> list[CliCall]:
    """The bundled calls without --verify: every command once, on fixed inputs."""
    calls = _bundled_calls(data)
    for call in calls:
        call.argv.extend(["--output", "json"])
    return calls
