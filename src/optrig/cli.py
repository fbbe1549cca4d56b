"""Command-line front end for the operator trigonometry toolkit.

Reads square complex matrices from JSON files ({"n": ..., "entries":
n x n x [re, im], optional "name"}), dispatches to the computation
modules, and prints a report as canonical JSON or flattened text. With
--verify, each result is re-checked against a brute-force oracle that
shares no machinery with the main solver.

Each subcommand is one entry of `_COMMANDS`: its help, whether it takes
--relative-to and --complex, its --tol default and its handler. The
parser and the dispatch are both built from that table.

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
from dataclasses import dataclass
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
from .linalg import (
    block_matvec,
    block_norms,
    block_vdot,
    maximizing_subspace,
    operator_norm,
    operator_norms,
    phase_normalize,
)
from .oracles import GridSpec, grid_min_complex, grid_min_real, sphere_refine_min
from .ortho import attaining_interval, is_real_orthogonal, is_total_orthogonal
from .sphere_opt import SphereOptConfig
from .trig import minmax_check_complex, minmax_check_real, total_trig_report, trig_report

_DEFAULT_RESTARTS = 32
_ORACLE_CLOSE = 1e-3
# tie slack for the order check: how far the main result may sit above the
# sampler's best point before the main route counts as wrong
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


def _modulus(z: np.ndarray) -> np.ndarray:
    # np.hypot rounds as abs() of one complex does; np.abs of an array does not
    return np.hypot(z.real, z.imag)


def _sampling_objective(
    T: np.ndarray, part: Callable[[np.ndarray], np.ndarray]
) -> Callable[[np.ndarray], np.ndarray]:
    """part(<Tx, x>) / ||Tx|| for each column x: np.real gives the cosine,
    _modulus the total cosine. Columns with ||Tx|| < 1e-12 get +inf."""

    def value(X: np.ndarray) -> np.ndarray:
        TX = block_matvec(T, X)
        w = block_norms(TX)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = part(block_vdot(X, TX)) / w
        return np.where(w < 1e-12, math.inf, q)

    return value


def _sampling_oracle(
    label: str, T: np.ndarray, part: Callable[[np.ndarray], np.ndarray], main: float, seed: int
) -> dict[str, float]:
    """Feasible-side check: the optimizer must match or beat the sampler."""
    n = T.shape[0]
    oracle, _ = sphere_refine_min(_sampling_objective(T, part), n, seed=seed)
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
    return {"sphere_refine_min": oracle, "delta": delta}


def _check_grid_oracle(label: str, main: float, oracle: float, scale: float) -> float:
    delta = oracle - main
    if abs(delta) > _ORACLE_CLOSE * scale:
        raise OracleMismatch(
            f"{label}: grid oracle {oracle:.9e} differs from main result "
            f"{main:.9e} by {delta:.3e} (tolerance {_ORACLE_CLOSE * scale:.3e})"
        )
    return delta


def _grid_min(
    norm_at: Callable[[np.ndarray], np.ndarray], radius: float, use_complex: bool
) -> float:
    """Grid minimum of a norm over real s in [-radius, radius] or complex s in the square.

    norm_at maps a 1-D array of scalars s to the norm at each.
    """
    if use_complex:
        _, value = grid_min_complex(norm_at, radius, GridSpec(-radius, radius, 81, 4))
    else:
        _, value = grid_min_real(norm_at, GridSpec(-radius, radius))
    return value


def _pair_range(T: np.ndarray, A: np.ndarray) -> float:
    return max(2.0 * operator_norm(T) / operator_norm(A), 1e-6)


def _scaled_identity_min(T: np.ndarray, use_complex: bool) -> float:
    """Grid minimum of ||s*T - I||, the oracle for sin and the min-max sides."""
    eye = np.eye(T.shape[0])
    radius = max(2.0 / operator_norm(T), 1e-6)
    return _grid_min(lambda s: operator_norms(s[:, None, None] * T - eye), radius, use_complex)


# A command handler: (T, A, tol, args, cfg) -> (results, witnesses, diagnostics).
# A is None for single-matrix commands and tol is None for w0. Handlers call
# the library through this module's globals, which the per-layer tracer of
# perfbench patches, so the command table holds handlers, not library functions.
_Handler = Callable[
    [np.ndarray, np.ndarray | None, float | None, argparse.Namespace, SphereOptConfig],
    tuple[dict[str, Any], dict[str, Any], dict[str, Any]],
]


def _cmd_cos(T, A, tol, args, cfg):
    rep = trig_report(T, cfg, cross_tol=tol)
    results = {
        "cos": rep.cos_direct,
        "cos_via_center": rep.cos_via_center,
        "epsilon0": rep.epsilon0,
    }
    witnesses = {"antieigenvector": _vector_json(rep.antieigenvector)}
    diagnostics: dict[str, Any] = {"route_delta": abs(rep.cos_direct - rep.cos_via_center)}
    if args.verify:
        diagnostics["oracle"] = _sampling_oracle("cos", T, np.real, rep.cos_direct, cfg.seed)
    return results, witnesses, diagnostics


def _cmd_total_cos(T, A, tol, args, cfg):
    rep = total_trig_report(T, cfg, cross_tol=tol)
    results = {
        "total_cos": rep.total_cos_direct,
        "total_cos_via_center": rep.total_cos_via_center,
        "lambda0": _pair_json(rep.lambda0),
    }
    witnesses = {"antieigenvector": _vector_json(rep.antieigenvector)}
    diagnostics: dict[str, Any] = {
        "route_delta": abs(rep.total_cos_direct - rep.total_cos_via_center)
    }
    if args.verify:
        diagnostics["oracle"] = _sampling_oracle(
            "total-cos", T, _modulus, rep.total_cos_direct, cfg.seed
        )
    return results, witnesses, diagnostics


def _cmd_sin(T, A, tol, args, cfg):
    rep = trig_report(T, cfg, cross_tol=tol)
    results = {"sin": rep.sin_value, "epsilon0": rep.epsilon0}
    diagnostics: dict[str, Any] = {
        "identity_gap": abs(rep.sin_value**2 + rep.cos_direct**2 - 1.0)
    }
    if args.verify:
        oracle = _scaled_identity_min(T, use_complex=False)
        delta = _check_grid_oracle("sin", rep.sin_value, oracle, 1.0)
        diagnostics["oracle"] = {"grid_min": oracle, "delta": delta}
    return results, {}, diagnostics


def _cmd_center(T, A, tol, args, cfg):
    if args.use_complex:
        center = total_center_of_mass(T, A, tol=tol)
        results: dict[str, Any] = {"lambda0": _pair_json(center.lambda0)}
    else:
        center = real_center_of_mass(T, A, tol=tol)
        results = {"epsilon0": center.epsilon0, "flat_interval": list(center.flat_interval)}
    results["residual"] = center.residual
    results["unique"] = center.unique
    results["relative_nonsingular"] = center_uniqueness(A)
    witnesses = {"witness": _vector_json(center.witness)}
    diagnostics: dict[str, Any] = {}
    if args.verify:
        oracle = _grid_min(
            lambda s: operator_norms(T - s[:, None, None] * A), _pair_range(T, A), args.use_complex
        )
        scale = max(1.0, operator_norm(T))
        delta = _check_grid_oracle("center-of-mass", center.residual, oracle, scale)
        diagnostics["oracle"] = {"grid_min": oracle, "delta": delta}
    return results, witnesses, diagnostics


def _cmd_orthogonal(T, A, tol, args, cfg):
    if args.use_complex:
        verdict = is_total_orthogonal(T, A, tol=tol, cfg=cfg)
        results: dict[str, Any] = {"total_pairing_min": verdict.pairing_min}
    else:
        verdict = is_real_orthogonal(T, A, tol=tol)
        results = {"w0": [verdict.interval.lo, verdict.interval.hi]}
    results["orthogonal"] = verdict.orthogonal
    results["route_w0"] = verdict.route_w0
    results["route_norm"] = verdict.route_norm
    witnesses = (
        {"witness": _vector_json(verdict.witness)} if verdict.witness is not None else {}
    )
    diagnostics: dict[str, Any] = {}
    if args.verify:
        oracle = _grid_min(
            lambda s: operator_norms(T + s[:, None, None] * A), _pair_range(T, A), args.use_complex
        )
        nt = operator_norm(T)
        delta = oracle - nt
        slack = _ORACLE_CLOSE * max(1.0, nt)
        if verdict.orthogonal and delta < -slack:
            raise OracleMismatch(
                f"orthogonal: verdict true but grid found ||T + s*A|| = "
                f"{oracle:.9e} below ||T|| = {nt:.9e}"
            )
        if not verdict.orthogonal and delta > slack:
            raise OracleMismatch(
                f"orthogonal: verdict false but grid minimum {oracle:.9e} "
                f"stays above ||T|| = {nt:.9e}"
            )
        diagnostics["oracle"] = {"grid_min": oracle, "delta": delta}
    return results, witnesses, diagnostics


def _cmd_w0(T, A, tol, args, cfg):
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
        # (samples, 2, k) takes the stream as the per-sample re, then im, draws did
        z = np.random.default_rng(cfg.seed).standard_normal((_W0_SAMPLES, 2, k))
        Y = (z[:, 0] + 1j * z[:, 1]).T
        Y = Y / block_norms(Y)
        X = block_matvec(V, Y)
        vals = block_vdot(block_matvec(A, X), block_matvec(T, X)).real
        escaped = np.flatnonzero((vals < iv.lo - _W0_SLACK) | (vals > iv.hi + _W0_SLACK))
        if escaped.size:
            raise OracleMismatch(
                f"w0: sampled pairing {vals[escaped[0]]:.9e} escapes "
                f"[{iv.lo:.9e}, {iv.hi:.9e}]"
            )
        worst = max(0.0, float(np.max(iv.lo - vals)), float(np.max(vals - iv.hi)))
        diagnostics["oracle"] = {"samples": _W0_SAMPLES, "max_violation": worst}
    return results, witnesses, diagnostics


def _cmd_minmax(T, A, tol, args, cfg):
    if args.use_complex:
        lhs, rhs = minmax_check_complex(T, cfg)
    else:
        lhs, rhs = minmax_check_real(T, cfg)
    gap = abs(lhs - rhs)
    if gap > tol:
        raise RouteDisagreement(f"min-max gap {gap:.3e} exceeds {tol:g}")
    results = {"lhs": lhs, "rhs": rhs, "gap": gap}
    diagnostics: dict[str, Any] = {}
    if args.verify:
        squared = _scaled_identity_min(T, args.use_complex) ** 2
        delta = _check_grid_oracle("minmax", rhs, squared, 1.0)
        diagnostics["oracle"] = {"grid_min_squared": squared, "delta": delta}
    return results, {}, diagnostics


@dataclass(frozen=True)
class _Command:
    """One subcommand: its help, its flags, its --tol default and its handler."""

    help: str
    handler: _Handler
    pair: bool = False  # takes --relative-to
    allow_complex: bool = False  # takes --complex
    tol_key: str | None = None  # name of --tol under diagnostics.tolerances
    tol_default: float | None = None


_COMMANDS: dict[str, _Command] = {
    "cos": _Command("first antieigenvalue of T", _cmd_cos, tol_key="cross", tol_default=1e-5),
    "total-cos": _Command(
        "total antieigenvalue of T", _cmd_total_cos, tol_key="cross", tol_default=1e-5
    ),
    "sin": _Command(
        "minimum of ||eps*T - I|| over eps > 0", _cmd_sin, tol_key="cross", tol_default=1e-5
    ),
    "center-of-mass": _Command(
        "scalar center of T relative to A",
        _cmd_center,
        pair=True,
        allow_complex=True,
        tol_key="center",
        tol_default=1e-9,
    ),
    "orthogonal": _Command(
        "Birkhoff-James orthogonality of T to A",
        _cmd_orthogonal,
        pair=True,
        allow_complex=True,
        tol_key="verdict",
        tol_default=1e-6,
    ),
    "w0": _Command(
        "attaining interval of Re <Tx, Ax> over norm-attaining x", _cmd_w0, pair=True
    ),
    "minmax": _Command(
        "both sides of the min-max identity for T",
        _cmd_minmax,
        allow_complex=True,
        tol_key="gap",
        tol_default=1e-5,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optrig",
        description="Operator trigonometry: antieigenvalues, centers of mass, "
        "and Birkhoff-James orthogonality for complex matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--matrix", required=True, metavar="FILE", help="JSON matrix T")
        if cmd.pair:
            p.add_argument(
                "--relative-to",
                metavar="FILE",
                default=None,
                help="JSON matrix A (default: identity)",
            )
        if cmd.allow_complex:
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
            help="ignored; kept for compatibility",
        )
        p.add_argument("--seed", type=int, default=None, help="base seed")
        p.add_argument(
            "--verify", action="store_true", help="re-check against brute-force oracle"
        )
        p.add_argument(
            "--output", choices=("json", "text"), default="text", help="report format"
        )
    return parser


def _dispatch(args: argparse.Namespace) -> dict[str, Any]:
    if args.tol is not None and args.tol <= 0:
        raise _InputError("--tol", "must be positive")
    if args.restarts < 1:
        raise _InputError("--restarts", "must be >= 1")
    seed = _resolve_seed(args)
    cfg = SphereOptConfig(restarts=args.restarts, seed=seed)
    cmd = _COMMANDS[args.command]
    T, t_info = _read_matrix(args.matrix)
    inputs: dict[str, Any] = {"matrix": t_info}
    A = None
    if cmd.pair:
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
    tol = None
    if cmd.tol_key is not None:
        tol = cmd.tol_default if args.tol is None else args.tol
    results, witnesses, diagnostics = cmd.handler(T, A, tol, args, cfg)
    if tol is not None:
        diagnostics["tolerances"] = {cmd.tol_key: tol}
    diagnostics["seed"] = seed
    diagnostics["restarts"] = args.restarts
    return {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "witnesses": witnesses,
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
