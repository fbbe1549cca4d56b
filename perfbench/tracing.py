"""Per-layer tracing of optrig, installed from outside the package.

``Tracer.install`` replaces each layer's public functions with wrappers at
every place an optrig module has bound them (including the package
namespace), and wraps ``numpy.linalg.svd``, ``eigh`` and ``eigvalsh`` to
count calls. ``Tracer.uninstall`` puts the originals back. Nothing inside
optrig changes.

A span is recorded for each wrapped call: name, parent span, operation id,
start and end (``perf_counter_ns``). Spans stay in memory until ``dump``.
A span's self time is its duration minus the durations of its direct
children. A call counts as an entry into a layer when its parent span
belongs to another layer, so ``maximize_on_sphere`` calling
``minimize_on_sphere`` is one ``sphere_opt`` call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable

LAYERS = ("cli", "trig", "ortho", "center_of_mass", "sphere_opt", "oracles", "linalg")

# Span names that split center_of_mass by stage; other functions use the module name.
_STAGE = {
    "real_center_of_mass": "center_of_mass.real",
    "total_center_of_mass": "center_of_mass.total",
    "extract_witness": "center_of_mass.witness",
    # private, but ortho imports them: the witness stage of the verdicts
    "_real_form_witness": "center_of_mass.witness",
    "_total_form_witness": "center_of_mass.witness",
}
_ORACLE_ENTRIES = (
    "grid_min_real",
    "grid_flat_interval",
    "grid_min_complex",
    "sphere_sample_min",
    "sphere_sample_max",
    "sphere_refine_min",
)

# Span names reported with calls, busy_s and self_s.
SPANS = (
    "cli",
    "trig",
    "ortho",
    "center_of_mass.real",
    "center_of_mass.total",
    "center_of_mass.witness",
    "sphere_opt",
    "oracles",
    "linalg",
)
# Span names reported with the share of SVD'd matrices made directly in them.
SVD_SHARES = (
    "trig",
    "ortho",
    "center_of_mass.real",
    "center_of_mass.total",
    "center_of_mass.witness",
)

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{s}.{field}", unit) for s in SPANS for field, unit in
      (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))),
    *((f"{s}.svd_matrices", "count") for s in SVD_SHARES),
    ("sphere_opt.objective_evals", "count"),
    ("sphere_opt.gradient_evals", "count"),
    ("sphere_opt.restarts", "count"),
    ("sphere_opt.nonconverged", "count"),
    ("sphere_opt.agree_ratio", "ratio"),
    ("oracles.objective_evals", "count"),
    ("cli.import_s", "s"),
    ("cli.exit_nonzero", "count"),
    ("linalg.svd_calls", "count"),
    ("linalg.svd_matrices", "count"),
    ("linalg.svd_work_n3", "count"),
    ("linalg.eigh_calls", "count"),
    ("trace.ops", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, parent index, op id, start_ns, end_ns]
        self.counts: Counter[str] = Counter()
        self.svd_share: Counter[str] = Counter()  # SVD'd matrices by innermost span
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # --- spans ---------------------------------------------------------------

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.op, perf_counter_ns(), 0])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][4] = perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, label: str, call: Callable[[], Any]) -> Any:
        """Run one benchmark operation under a root span named op:<label>."""
        self.op = op_id
        i = self.open(f"op:{label}")
        try:
            return call()
        finally:
            self.close(i)
            self.op = -1

    # --- wrapping ------------------------------------------------------------

    def counted(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        def call(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    def _wrap(self, name: str, fn: Callable[..., Any], enter=None, leave=None):
        tracer = self
        sig = inspect.signature(fn) if enter is not None else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            outer = tracer.current() != name
            if enter is not None and outer:
                bound = sig.bind(*args, **kwargs)
                enter(tracer, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if leave is not None and outer:
                leave(tracer, result)
            return result

        return traced

    def install(self) -> None:
        import numpy

        wrappers: dict[Any, Any] = {}
        for layer in LAYERS:
            mod = sys.modules[f"optrig.{layer}"]
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in _STAGE:
                    continue
                enter = leave = None
                if layer == "sphere_opt" and attr.endswith("_on_sphere"):
                    enter, leave = _sphere_enter, _sphere_leave
                elif layer == "oracles" and attr in _ORACLE_ENTRIES:
                    enter = _oracle_enter
                elif layer == "cli" and attr == "main":
                    leave = _cli_leave
                wrappers[fn] = self._wrap(_STAGE.get(attr, layer), fn, enter, leave)
        for name, mod in list(sys.modules.items()):
            if name != "optrig" and not name.startswith("optrig."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for attr in ("svd", "eigh", "eigvalsh"):
            self._patch(numpy.linalg, attr, self._count_linalg(attr, getattr(numpy.linalg, attr)))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _patch(self, mod: Any, attr: str, value: Any) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _count_linalg(self, attr: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args: Any, **kwargs: Any) -> Any:
            if tracer._stack:  # only inside benchmark operations
                if attr == "svd":
                    shape = getattr(a, "shape", ())
                    m, n = (shape[-2], shape[-1]) if len(shape) >= 2 else (1, 1)
                    matrices = 1
                    for d in shape[:-2]:
                        matrices *= d
                    tracer.counts["linalg.svd_calls"] += 1
                    tracer.counts["linalg.svd_matrices"] += matrices
                    tracer.counts["linalg.svd_work_n3"] += matrices * m * n * min(m, n)
                    tracer.svd_share[tracer.current()] += matrices
                else:
                    tracer.counts["linalg.eigh_calls"] += 1
            return fn(a, *args, **kwargs)

        return counted

    # --- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-name calls, busy and self time, plus the counters."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, _, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter[str] = Counter()
        busy: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for i, (name, parent, _, start, end) in enumerate(spans):
            own[name] += end - start - child_ns[i]
            if parent < 0 or spans[parent][0] != name:
                calls[name] += 1
                busy[name] += end - start
        out: dict[str, float] = {}
        for s in SPANS:
            out[f"{s}.calls"] = calls[s]
            out[f"{s}.busy_s"] = busy[s] / 1e9
            out[f"{s}.self_s"] = own[s] / 1e9
        for s in SVD_SHARES:
            out[f"{s}.svd_matrices"] = self.svd_share[s]
        for key in (
            "sphere_opt.objective_evals",
            "sphere_opt.gradient_evals",
            "sphere_opt.restarts",
            "sphere_opt.nonconverged",
            "oracles.objective_evals",
            "cli.exit_nonzero",
            "linalg.svd_calls",
            "linalg.svd_matrices",
            "linalg.svd_work_n3",
            "linalg.eigh_calls",
        ):
            out[key] = self.counts[key]
        restarts = self.counts["sphere_opt.restarts"]
        agreeing = self.counts["sphere_opt.restarts_agreeing"]
        out["sphere_opt.agree_ratio"] = agreeing / restarts if restarts else 0.0
        return out

    def dump(self, path: str) -> None:
        doc = {"fields": ["name", "parent", "op", "start_ns", "end_ns"], "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _sphere_enter(tracer: Tracer, arguments: dict[str, Any]) -> None:
    from optrig.sphere_opt import SphereOptConfig

    arguments["objective"] = tracer.counted("sphere_opt.objective_evals", arguments["objective"])
    if arguments.get("gradient") is not None:
        arguments["gradient"] = tracer.counted("sphere_opt.gradient_evals", arguments["gradient"])
    cfg = arguments.get("cfg") or SphereOptConfig()
    tracer.counts["sphere_opt.restarts"] += cfg.restarts


def _sphere_leave(tracer: Tracer, result: Any) -> None:
    tracer.counts["sphere_opt.restarts_agreeing"] += result.restarts_agreeing
    tracer.counts["sphere_opt.nonconverged"] += not result.converged


def _oracle_enter(tracer: Tracer, arguments: dict[str, Any]) -> None:
    first = next(iter(arguments))
    arguments[first] = tracer.counted("oracles.objective_evals", arguments[first])


def _cli_leave(tracer: Tracer, code: int) -> None:
    tracer.counts["cli.exit_nonzero"] += code != 0
