"""Command-line front end for the operator trigonometry toolkit.

Reads square complex matrices from JSON files ({"n": ..., "entries":
n x n x [re, im], optional "name"}), dispatches to the computation
modules, and prints a report as canonical JSON or flattened text. With
--verify, each result is re-checked against a brute-force oracle that
shares no machinery with the main solver.

Exit codes: 0 success; 1 I/O or malformed input (one-line cause on
stderr); 2 domain refusal (operator fails a precondition; machine-
readable error on stdout); 3 internal cross-check failure (routes or
oracle disagree; machine-readable error on stdout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from typing import Any, Callable

import numpy as np

from .center_of_mass import (
    center_uniqueness,
    real_center_of_mass,
    total_center_of_mass,
)
from .errors import (
    DimensionMismatch,
    NonFiniteObjective,
    NotAccretive,
    RouteDisagreement,
    SingularOperator,
    WitnessNotFound,
    ZeroImage,
    ZeroOperator,
    ZeroRelativeOperator,
)
from .linalg import maximizing_subspace, operator_norm, phase_normalize
from .oracles import GridSpec, grid_min_complex, grid_min_real, sphere_refine_min
from .ortho import attaining_interval, is_real_orthogonal, is_total_orthogonal
from .sphere_opt import SphereOptConfig
from .trig import minmax_check_complex, minmax_check_real, total_trig_report, trig_report

_DEFAULT_RESTARTS = 32
_ORACLE_CLOSE = 1e-3
# tie slack for the order check: near an exact-zero minimum the oracle can
# out-resolve the sphere optimizer's own stopping tolerance (~1e-7)
_ORACLE_FEASIBLE = 1e-6
_ORACLE_MAX_DIM = 4
_W0_SAMPLES = 2000
_W0_SLACK = 1e-8


class _InputError(Exception):
    """I/O or schema failure; carries the offending path and a one-line cause."""

    def __init__(self, path: str, cause: str) -> None:
        super().__init__(f"{path}: {cause}")
        self.path = path
        self.cause = cause


class OracleMismatch(Exception):
    """A --verify oracle disagreed with the main result beyond tolerance."""


def _read_matrix(path: str) -> tuple[np.ndarray, dict[str, Any]]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _InputError(path, exc.strerror or str(exc)) from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _InputError(path, f"invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise _InputError(path, "top level must be a JSON object")
    if "n" not in doc or "entries" not in doc:
        raise _InputError(path, 'missing required key "n" or "entries"')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise _InputError(path, '"n" must be a positive integer')
    entries = doc["entries"]
    try:
        arr = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise _InputError(path, f'"entries" is not numeric ({exc})') from exc
    if arr.shape != (n, n, 2):
        raise _InputError(
            path, f'"entries" has shape {arr.shape}, expected ({n}, {n}, 2)'
        )
    if not np.all(np.isfinite(arr)):
        raise _InputError(path, '"entries" contains a non-finite number')
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise _InputError(path, '"name" must be a string when present')
    matrix = arr[:, :, 0] + 1j * arr[:, :, 1]
    info = {
        "path": path,
        "sha256": hashlib.sha256(raw).hexdigest(),
        "name": name,
    }
    return matrix, info


def _pair_json(z: complex) -> list[float]:
    # + 0.0 folds negative zero into plain zero before serialization
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def _vector_json(v: np.ndarray) -> list[list[float]]:
    w = phase_normalize(np.asarray(v, dtype=np.complex128))
    return [_pair_json(complex(c)) for c in w]


def canonical_json(doc: Any) -> str:
    """Serialize a report so that parse-then-serialize is byte-identical."""
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": "), ensure_ascii=False)


def _format_number(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return f"{v:.7g}"


def _text_lines(prefix: str, node: Any, out: list[str]) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            sub = f"{prefix}.{key}" if prefix else str(key)
            _text_lines(sub, node[key], out)
    elif isinstance(node, list):
        if node and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in node
        ):
            out.append(f"{prefix} = {' '.join(_format_number(v) for v in node)}")
        elif not node:
            out.append(f"{prefix} = []")
        else:
            for i, v in enumerate(node):
                _text_lines(f"{prefix}[{i}]", v, out)
    elif isinstance(node, (bool, int, float)):
        out.append(f"{prefix} = {_format_number(node)}")
    elif node is None:
        out.append(f"{prefix} = null")
    else:
        out.append(f"{prefix} = {node}")


def render_text(doc: dict[str, Any]) -> str:
    lines: list[str] = []
    _text_lines("", doc, lines)
    return "\n".join(lines)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise _InputError("--seed", "must be a nonnegative integer")
        return args.seed
    env = os.environ.get("OPTRIG_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise _InputError("OPTRIG_SEED", f"not an integer: {env!r}") from exc
        if seed < 0:
            raise _InputError("OPTRIG_SEED", "must be a nonnegative integer")
        return seed
    return 0


def _cos_objective(T: np.ndarray) -> Callable[[np.ndarray], float]:
    def value(x: np.ndarray) -> float:
        Tx = T @ x
        w = float(np.linalg.norm(Tx))
        if w < 1e-12:
            return math.inf
        return float(np.real(np.vdot(x, Tx))) / w

    return value


def _total_cos_objective(T: np.ndarray) -> Callable[[np.ndarray], float]:
    def value(x: np.ndarray) -> float:
        Tx = T @ x
        w = float(np.linalg.norm(Tx))
        if w < 1e-12:
            return math.inf
        return float(abs(np.vdot(x, Tx))) / w

    return value


def _check_sampling_oracle(label: str, main: float, oracle: float, n: int) -> float:
    """Feasible-side check: the optimizer must match or beat the sampler."""
    delta = oracle - main
    if main > oracle + _ORACLE_FEASIBLE:
        raise OracleMismatch(
            f"{label}: main result {main:.9e} exceeds sampling oracle {oracle:.9e}"
        )
    if n <= _ORACLE_MAX_DIM and delta > _ORACLE_CLOSE:
        raise OracleMismatch(
            f"{label}: sampling oracle {oracle:.9e} is {delta:.3e} above "
            f"main result {main:.9e} (tolerance {_ORACLE_CLOSE:g})"
        )
    return delta


def _check_grid_oracle(label: str, main: float, oracle: float, scale: float) -> float:
    delta = oracle - main
    if abs(delta) > _ORACLE_CLOSE * scale:
        raise OracleMismatch(
            f"{label}: grid oracle {oracle:.9e} differs from main result "
            f"{main:.9e} by {delta:.3e} (tolerance {_ORACLE_CLOSE * scale:.3e})"
        )
    return delta


def _scalar_range(T: np.ndarray, A: np.ndarray) -> float:
    return max(2.0 * operator_norm(T) / operator_norm(A), 1e-6)


def _cmd_cos(T: np.ndarray, args: argparse.Namespace, cfg: SphereOptConfig) -> dict:
    cross_tol = args.tol if args.tol is not None else 1e-5
    rep = trig_report(T, cfg, cross_tol=cross_tol)
    results = {
        "cos": rep.cos_direct,
        "cos_via_center": rep.cos_via_center,
        "epsilon0": rep.epsilon0,
    }
    witnesses = {"antieigenvector": _vector_json(rep.antieigenvector)}
    diagnostics: dict[str, Any] = {
        "route_delta": abs(rep.cos_direct - rep.cos_via_center),
        "tolerances": {"cross": cross_tol},
    }
    if args.verify:
        oracle, _ = sphere_refine_min(_cos_objective(T), T.shape[0], seed=cfg.seed)
        delta = _check_sampling_oracle("cos", rep.cos_direct, oracle, T.shape[0])
        diagnostics["oracle"] = {"sphere_refine_min": oracle, "delta": delta}
    return {"results": results, "witnesses": witnesses, "diagnostics": diagnostics}


def _cmd_total_cos(T: np.ndarray, args: argparse.Namespace, cfg: SphereOptConfig) -> dict:
    cross_tol = args.tol if args.tol is not None else 1e-5
    rep = total_trig_report(T, cfg, cross_tol=cross_tol)
    results = {
        "total_cos": rep.total_cos_direct,
        "total_cos_via_center": rep.total_cos_via_center,
        "lambda0": _pair_json(rep.lambda0),
    }
    witnesses = {"antieigenvector": _vector_json(rep.antieigenvector)}
    diagnostics: dict[str, Any] = {
        "route_delta": abs(rep.total_cos_direct - rep.total_cos_via_center),
        "tolerances": {"cross": cross_tol},
    }
    if args.verify:
        oracle, _ = sphere_refine_min(
            _total_cos_objective(T), T.shape[0], seed=cfg.seed
        )
        delta = _check_sampling_oracle(
            "total-cos", rep.total_cos_direct, oracle, T.shape[0]
        )
        diagnostics["oracle"] = {"sphere_refine_min": oracle, "delta": delta}
    return {"results": results, "witnesses": witnesses, "diagnostics": diagnostics}


def _cmd_sin(T: np.ndarray, args: argparse.Namespace, cfg: SphereOptConfig) -> dict:
    cross_tol = args.tol if args.tol is not None else 1e-5
    rep = trig_report(T, cfg, cross_tol=cross_tol)
    results = {"sin": rep.sin_value, "epsilon0": rep.epsilon0}
    diagnostics: dict[str, Any] = {
        "identity_gap": abs(rep.sin_value**2 + rep.cos_direct**2 - 1.0),
        "tolerances": {"cross": cross_tol},
    }
    if args.verify:
        radius = max(2.0 / operator_norm(T), 1e-6)
        eye = np.eye(T.shape[0])

        def f(eps: float) -> float:
            return operator_norm(eps * T - eye)

        _, oracle = grid_min_real(f, GridSpec(-radius, radius))
        delta = _check_grid_oracle("sin", rep.sin_value, oracle, 1.0)
        diagnostics["oracle"] = {"grid_min": oracle, "delta": delta}
    return {"results": results, "witnesses": {}, "diagnostics": diagnostics}


def _cmd_center(
    T: np.ndarray, A: np.ndarray, args: argparse.Namespace, cfg: SphereOptConfig
) -> dict:
    del cfg
    tol = args.tol if args.tol is not None else 1e-9
    scale = max(1.0, operator_norm(T))
    diagnostics: dict[str, Any] = {"tolerances": {"center": tol}}
    if args.use_complex:
        tc = total_center_of_mass(T, A, tol=tol)
        results: dict[str, Any] = {
            "lambda0": _pair_json(tc.lambda0),
            "residual": tc.residual,
            "unique": tc.unique,
            "relative_nonsingular": center_uniqueness(A, tc),
        }
        witnesses = {"witness": _vector_json(tc.witness)}
        if args.verify:
            radius = _scalar_range(T, A)

            def g(z: complex) -> float:
                return operator_norm(T - z * A)

            _, oracle = grid_min_complex(g, radius, GridSpec(-radius, radius, 81, 4))
            delta = _check_grid_oracle("center-of-mass", tc.residual, oracle, scale)
            diagnostics["oracle"] = {"grid_min": oracle, "delta": delta}
    else:
        rc = real_center_of_mass(T, A, tol=tol)
        results = {
            "epsilon0": rc.epsilon0,
            "residual": rc.residual,
            "flat_interval": [rc.flat_interval[0], rc.flat_interval[1]],
            "unique": rc.unique,
            "relative_nonsingular": center_uniqueness(A, rc),
        }
        witnesses = {"witness": _vector_json(rc.witness)}
        if args.verify:
            radius = _scalar_range(T, A)

            def f(eps: float) -> float:
                return operator_norm(T - eps * A)

            _, oracle = grid_min_real(f, GridSpec(-radius, radius))
            delta = _check_grid_oracle("center-of-mass", rc.residual, oracle, scale)
            diagnostics["oracle"] = {"grid_min": oracle, "delta": delta}
    return {"results": results, "witnesses": witnesses, "diagnostics": diagnostics}


def _cmd_orthogonal(
    T: np.ndarray, A: np.ndarray, args: argparse.Namespace, cfg: SphereOptConfig
) -> dict:
    tol = args.tol if args.tol is not None else 1e-6
    nt = operator_norm(T)
    diagnostics: dict[str, Any] = {"tolerances": {"verdict": tol}}
    if args.use_complex:
        verdict = is_total_orthogonal(T, A, tol=tol, cfg=cfg)
        results: dict[str, Any] = {
            "orthogonal": verdict.orthogonal,
            "route_w0": verdict.route_w0,
            "route_norm": verdict.route_norm,
            "total_pairing_min": verdict.pairing_min,
        }
    else:
        verdict = is_real_orthogonal(T, A, tol=tol)
        results = {
            "orthogonal": verdict.orthogonal,
            "route_w0": verdict.route_w0,
            "route_norm": verdict.route_norm,
            "w0": [verdict.interval.lo, verdict.interval.hi],
        }
    witnesses = (
        {"witness": _vector_json(verdict.witness)} if verdict.witness is not None else {}
    )
    if args.verify:
        radius = _scalar_range(T, A)
        scale = max(1.0, nt)
        if args.use_complex:

            def g(z: complex) -> float:
                return operator_norm(T + z * A)

            _, oracle = grid_min_complex(g, radius, GridSpec(-radius, radius, 81, 4))
        else:

            def f(eps: float) -> float:
                return operator_norm(T + eps * A)

            _, oracle = grid_min_real(f, GridSpec(-radius, radius))
        delta = oracle - nt
        if verdict.orthogonal and delta < -_ORACLE_CLOSE * scale:
            raise OracleMismatch(
                f"orthogonal: verdict true but grid found ||T + s*A|| = "
                f"{oracle:.9e} below ||T|| = {nt:.9e}"
            )
        if not verdict.orthogonal and delta > _ORACLE_CLOSE * scale:
            raise OracleMismatch(
                f"orthogonal: verdict false but grid minimum {oracle:.9e} "
                f"stays above ||T|| = {nt:.9e}"
            )
        diagnostics["oracle"] = {"grid_min": oracle, "delta": delta}
    return {"results": results, "witnesses": witnesses, "diagnostics": diagnostics}


def _cmd_w0(
    T: np.ndarray, A: np.ndarray, args: argparse.Namespace, cfg: SphereOptConfig
) -> dict:
    iv = attaining_interval(T, A)
    results = {"lo": iv.lo, "hi": iv.hi}
    witnesses = {
        "attaining_lo": _vector_json(iv.attaining_lo),
        "attaining_hi": _vector_json(iv.attaining_hi),
    }
    diagnostics: dict[str, Any] = {}
    if args.verify:
        sub = maximizing_subspace(T)
        V = sub.basis
        k = V.shape[1]
        rng = np.random.default_rng(cfg.seed)
        worst = 0.0
        for _ in range(_W0_SAMPLES):
            y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            y /= np.linalg.norm(y)
            x = V @ y
            val = float(np.real(np.vdot(A @ x, T @ x)))
            worst = max(worst, iv.lo - val, val - iv.hi)
            if val < iv.lo - _W0_SLACK or val > iv.hi + _W0_SLACK:
                raise OracleMismatch(
                    f"w0: sampled pairing {val:.9e} escapes "
                    f"[{iv.lo:.9e}, {iv.hi:.9e}]"
                )
        diagnostics["oracle"] = {"samples": _W0_SAMPLES, "max_violation": worst}
    return {"results": results, "witnesses": witnesses, "diagnostics": diagnostics}


def _cmd_minmax(T: np.ndarray, args: argparse.Namespace, cfg: SphereOptConfig) -> dict:
    tol = args.tol if args.tol is not None else 1e-5
    if args.use_complex:
        lhs, rhs = minmax_check_complex(T, cfg)
    else:
        lhs, rhs = minmax_check_real(T, cfg)
    gap = abs(lhs - rhs)
    if gap > tol:
        raise RouteDisagreement(f"min-max gap {gap:.3e} exceeds {tol:g}")
    results = {"lhs": lhs, "rhs": rhs, "gap": gap}
    diagnostics: dict[str, Any] = {"tolerances": {"gap": tol}}
    if args.verify:
        radius = max(2.0 / operator_norm(T), 1e-6)
        eye = np.eye(T.shape[0])
        if args.use_complex:

            def g(z: complex) -> float:
                return operator_norm(z * T - eye)

            _, oracle = grid_min_complex(g, radius, GridSpec(-radius, radius, 81, 4))
        else:

            def f(eps: float) -> float:
                return operator_norm(eps * T - eye)

            _, oracle = grid_min_real(f, GridSpec(-radius, radius))
        delta = _check_grid_oracle("minmax", rhs, oracle**2, 1.0)
        diagnostics["oracle"] = {"grid_min_squared": oracle**2, "delta": delta}
    return {"results": results, "witnesses": {}, "diagnostics": diagnostics}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optrig",
        description="Operator trigonometry: antieigenvalues, centers of mass, "
        "and Birkhoff-James orthogonality for complex matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, pair: bool, allow_complex: bool):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--matrix", required=True, metavar="FILE", help="JSON matrix T")
        if pair:
            p.add_argument(
                "--relative-to",
                metavar="FILE",
                default=None,
                help="JSON matrix A (default: identity)",
            )
        if allow_complex:
            p.add_argument(
                "--complex",
                dest="use_complex",
                action="store_true",
                help="use the total (complex-scalar) variant",
            )
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument(
            "--restarts",
            type=int,
            default=_DEFAULT_RESTARTS,
            help="sphere-search restarts",
        )
        p.add_argument("--seed", type=int, default=None, help="base seed")
        p.add_argument(
            "--verify", action="store_true", help="re-check against brute-force oracle"
        )
        p.add_argument(
            "--output", choices=("json", "text"), default="text", help="report format"
        )
        return p

    add("cos", "first antieigenvalue of T", pair=False, allow_complex=False)
    add("total-cos", "total antieigenvalue of T", pair=False, allow_complex=False)
    add("sin", "minimum of ||eps*T - I|| over eps > 0", pair=False, allow_complex=False)
    add(
        "center-of-mass",
        "scalar center of T relative to A",
        pair=True,
        allow_complex=True,
    )
    add(
        "orthogonal",
        "Birkhoff-James orthogonality of T to A",
        pair=True,
        allow_complex=True,
    )
    add(
        "w0",
        "attaining interval of Re <Tx, Ax> over norm-attaining x",
        pair=True,
        allow_complex=False,
    )
    add(
        "minmax",
        "both sides of the min-max identity for T",
        pair=False,
        allow_complex=True,
    )
    return parser


_PAIR_COMMANDS = {"center-of-mass", "orthogonal", "w0"}


def _dispatch(args: argparse.Namespace) -> dict[str, Any]:
    if args.tol is not None and args.tol <= 0:
        raise _InputError("--tol", "must be positive")
    if args.restarts < 1:
        raise _InputError("--restarts", "must be >= 1")
    seed = _resolve_seed(args)
    cfg = SphereOptConfig(restarts=args.restarts, seed=seed)
    T, t_info = _read_matrix(args.matrix)
    inputs: dict[str, Any] = {"matrix": t_info}
    if args.command in _PAIR_COMMANDS:
        if args.relative_to is not None:
            A, a_info = _read_matrix(args.relative_to)
            inputs["relative_to"] = a_info
        else:
            A = np.eye(T.shape[0], dtype=np.complex128)
            inputs["relative_to"] = {"identity": True}
        if A.shape != T.shape:
            raise DimensionMismatch(
                f"matrix is {T.shape[0]}x{T.shape[0]} but relative-to is "
                f"{A.shape[0]}x{A.shape[0]}"
            )
    if args.command == "cos":
        body = _cmd_cos(T, args, cfg)
    elif args.command == "total-cos":
        body = _cmd_total_cos(T, args, cfg)
    elif args.command == "sin":
        body = _cmd_sin(T, args, cfg)
    elif args.command == "center-of-mass":
        body = _cmd_center(T, A, args, cfg)
    elif args.command == "orthogonal":
        body = _cmd_orthogonal(T, A, args, cfg)
    elif args.command == "w0":
        body = _cmd_w0(T, A, args, cfg)
    else:
        body = _cmd_minmax(T, args, cfg)
    diagnostics = body["diagnostics"]
    diagnostics["seed"] = seed
    diagnostics["restarts"] = args.restarts
    return {
        "command": args.command,
        "inputs": inputs,
        "results": body["results"],
        "witnesses": body["witnesses"],
        "diagnostics": diagnostics,
    }


def _emit_error(exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(canonical_json(doc))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = _dispatch(args)
    except _InputError as exc:
        print(f"{exc.path}: {exc.cause}", file=sys.stderr)
        return 1
    except (
        DimensionMismatch,
        NotAccretive,
        SingularOperator,
        ZeroImage,
        ZeroOperator,
        ZeroRelativeOperator,
    ) as exc:
        _emit_error(exc)
        return 2
    except (NonFiniteObjective, OracleMismatch, RouteDisagreement, WitnessNotFound) as exc:
        _emit_error(exc)
        return 3
    if args.output == "json":
        print(canonical_json(report))
    else:
        print(render_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
