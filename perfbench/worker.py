"""Benchmark worker: runs one workload in this process, single-threaded.

Started by run.py with BLAS pinned to one thread and PYTHONPATH set to the
checkout's src. Two modes:

  worker.py probe --workload W
      import optrig, make one warm-up call of each operation kind, then print
      time.monotonic(); run.py subtracts its launch time to get setup_s.

  worker.py run --workload W --seed S --seconds X --trace 0|1 --out DIR
      untraced: a closed loop with one caller over a fixed number of the
      workload's rounds, as many as take about X seconds on the reference
      machine (workloads.rounds_for), so a seed always measures the same
      operations; writes the per-operation latencies to DIR.
      traced: a fixed number of rounds, once untraced and once traced;
      writes the spans to DIR.
      Prints one JSON line with the measurements.

An operation fails when optrig raises OptrigError (a refusal), the CLI exits
with code 3 (a refused cross-check), or the result is incorrect: it misses
its reference, the CLI exits with another unexpected code, or the call
crashes with any other exception.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

MIN_SAMPLES = 11  # the tail percentile of a round needs ten samples beyond it
CLI_TIMEOUT_S = 60


class Outcomes:
    """Latency and outcome of every attempted operation, grouped by round.

    Every round of a workload holds the same slots in the same order, so
    position j of each round is one (operation kind, size, family) slot.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.rounds: list[list[float]] = []
        self.errors = 0
        self.misses = 0
        self.reasons: list[str] = []

    def begin_round(self) -> None:
        self.rounds.append([])

    def add(self, label: str, latency: float, error: str | None, miss: str | None) -> None:
        self.latencies.append(latency)
        self.labels.append(label)
        self.rounds[-1].append(latency)
        if error is not None:
            self.errors += 1
        if miss is not None:
            self.misses += 1
        reason = error or miss
        if reason is not None and len(self.reasons) < 20:
            self.reasons.append(f"{label}: {reason}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.errors + self.misses

    def summary(self) -> dict:
        """Robust per-run figures: medians over rounds, so one slow round
        (a host stall, or a rare slow sphere search) moves none of them.

        ops_per_s is a typical round's operations over the sum of each
        slot's median latency; latency_p50_s and latency_tail_s are the
        medians over rounds of each round's own percentile.
        """
        per_round = len(self.rounds[0])
        slot_s = [statistics.median(r[j] for r in self.rounds) for j in range(per_round)]
        tail = (per_round - MIN_SAMPLES + 1) / per_round
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "misses": self.misses,
            "reasons": self.reasons,
            "rounds": len(self.rounds),
            "ops_per_round": per_round,
            "busy_s": sum(self.latencies),
            "ops_per_s": per_round / sum(slot_s),
            "latency_p50_s": statistics.median(harrell_davis(sorted(r), 0.5) for r in self.rounds),
            "latency_tail_s": statistics.median(harrell_davis(sorted(r), tail) for r in self.rounds),
            "tail_percentile": 100.0 * tail,
        }


def harrell_davis(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile from sorted samples.

    A Beta-weighted mean of all order statistics. Per-operation latencies
    span four decades in a mixed workload, so the one or two order
    statistics a plain percentile picks jump by a quarter when a single
    operation changes rank; this estimate moves smoothly.
    """
    from scipy.special import betainc

    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], ordered)))


def _library_op(op, optrig, out: Outcomes, tracer=None, op_id: int = 0) -> None:
    error = miss = None
    t0 = time.perf_counter()
    try:
        result = op.call() if tracer is None else tracer.run_op(op_id, op.label, op.call)
    except optrig.OptrigError as exc:
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a crash is an incorrect result, not a refusal
        miss = f"crashed with {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if error is None and miss is None:
        miss = op.check(result)
    out.add(op.label, latency, error, miss)


def _cli_subprocess(call, env: dict, root: str) -> tuple[int, str]:
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "optrig.cli", *call.argv],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return -1, ""
    return proc.returncode, proc.stdout


def _cli_in_process(call, cli) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(call.argv))
    return code, buf.getvalue()


def _cli_op(call, invoke, workloads, out: Outcomes, tracer=None, op_id: int = 0) -> None:
    t0 = time.perf_counter()
    if tracer is None:
        code, stdout = invoke(call)
    else:
        code, stdout = tracer.run_op(op_id, call.label, lambda: invoke(call))
    latency = time.perf_counter() - t0
    error = miss = None
    if code == 3 and call.exit_code != 3:
        error = "exit code 3 (cross-check or oracle refused the result)"
    else:
        miss = workloads.check_cli(call, code, stdout)
    out.add(call.label, latency, error, miss)


def _round(workload: str, seed: int, r: int, data: str, tmp: str, workloads) -> list:
    """Round r of the workload: a list of library ops or CLI calls."""
    if workload == "cli-cold":
        return workloads.cli_round(seed, r, data, tmp)
    return workloads.library_round(workload, seed, r)


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def probe(workload: str, root: str) -> None:
    import optrig.cli
    import workloads

    if workload == "cli-cold":
        for call in workloads.cli_warmup(os.path.join(root, "data")):
            _cli_in_process(call, optrig.cli)
    else:
        for op in workloads.library_warmup(workload):
            op.call()
    print(repr(time.monotonic()), flush=True)


def _measure_rounds(work: list[list], measure) -> Outcomes:
    """A closed loop with one caller over the rounds, in order."""
    out = Outcomes()
    for items in work:
        out.begin_round()
        for item in items:
            measure(item, out)
    return out


def _traced(work: list[list], measure, out_dir: str, name: str) -> tuple[Outcomes, dict]:
    """The fixed work once untraced, then once traced; per-layer metrics."""
    import tracing

    plain = _measure_rounds(work, measure)
    tracer = tracing.Tracer()
    ids = iter(range(sum(len(items) for items in work)))
    tracer.install()
    try:
        traced = _measure_rounds(work, lambda item, out: measure(item, out, tracer, next(ids)))
    finally:
        tracer.uninstall()
    spans_path = os.path.join(out_dir, f"spans-{name}.json")
    tracer.dump(spans_path)
    layers = tracer.layer_metrics()
    rate = traced.summary()["ops_per_s"]
    untraced_rate = plain.summary()["ops_per_s"]
    layers["trace.ops"] = traced.attempted
    layers["trace.ops_per_s"] = rate
    layers["trace.untraced_ops_per_s"] = untraced_rate
    layers["trace.overhead"] = untraced_rate / rate - 1.0
    layers["spans"] = len(tracer.spans)
    layers["spans_file"] = spans_path
    return traced, layers


def run(args: argparse.Namespace, root: str) -> dict:
    t0 = time.perf_counter()
    import optrig.cli

    import_s = time.perf_counter() - t0
    import optrig
    import workloads

    if not os.path.abspath(optrig.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise RuntimeError(f"optrig imported from {optrig.__file__}, not from this checkout")
    cli = args.workload == "cli-cold"
    data = os.path.join(root, "data")
    env = dict(os.environ)
    os.makedirs(args.out, exist_ok=True)
    result: dict = {"environment": _environment(args.seed)}
    with tempfile.TemporaryDirectory(dir=args.out) as tmp:
        count = workloads.TRACE_ROUNDS[args.workload] if args.trace else workloads.rounds_for(args.workload, args.seconds)
        work = [_round(args.workload, args.seed, r, data, tmp, workloads) for r in range(count)]
        if not cli:
            for op in workloads.library_warmup(args.workload):
                op.call()

            def measure(op, out, tracer=None, op_id=0):
                _library_op(op, optrig, out, tracer, op_id)

        elif not args.trace:
            # one untimed launch fills the bytecode and file caches
            _cli_subprocess(workloads.cli_warmup(data)[0], env, root)

            def measure(call, out, tracer=None, op_id=0):
                _cli_op(call, lambda c: _cli_subprocess(c, env, root), workloads, out)

        else:
            for call in workloads.cli_warmup(data):
                _cli_in_process(call, optrig.cli)

            def measure(call, out, tracer=None, op_id=0):
                _cli_op(call, lambda c: _cli_in_process(c, optrig.cli), workloads, out, tracer, op_id)

        if not args.trace:
            out = _measure_rounds(work, measure)
            samples = os.path.join(args.out, f"latencies-{args.workload}-seed{args.seed}.json")
            with open(samples, "w", encoding="utf-8") as fh:
                json.dump({"label": out.labels, "latency_s": out.latencies}, fh)
            who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        else:
            out, layers = _traced(work, measure, args.out, f"{args.workload}-seed{args.seed}")
            layers["cli.import_s"] = import_s
            layers["spans_file"] = os.path.relpath(layers["spans_file"], root)
            result["layers"] = layers
    result.update(out.summary())
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("probe", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".perfbench_out")
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.mode == "probe":
        probe(args.workload, root)
        return 0
    print(json.dumps(run(args, root)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
