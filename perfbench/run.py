"""optrig benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload reports-small --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json and --trace 1 the
per-layer ones. Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

Workers run as fresh interpreters with BLAS pinned to one thread and with
PYTHONPATH set to this checkout's src, so the code measured is the code in
the checkout. setup_s is the median of SETUP_PROBES launches, each timed from
launch to import plus one warm-up call of every operation kind.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("reports-small", "reports-large", "cli-cold")
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("success_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONHOME", None)
    return env


def _run_child(args: list[str], env: dict[str, str], deadline: float) -> str:
    """Run a worker in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"worker {args[0]} overran the deadline")
    if proc.returncode != 0:
        raise ChildFailed(f"worker {args[0]} exited {proc.returncode}:\n{err.strip()}")
    return out


def _setup_seconds(workload: str, env: dict[str, str], deadline: float) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = _run_child(["probe", "--workload", workload], env, deadline)
        times.append(float(out.strip().splitlines()[-1]) - t0)
    return times


def _print_rows(rows: list[tuple[str, float, str]]) -> None:
    for name, value, unit in rows:
        print(f"  {name:34s} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    missing = [p for p in ("src/optrig/__init__.py", "data/ex35.json") if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"run.py: not an optrig checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env = _env()
    os.makedirs(OUT, exist_ok=True)
    try:
        setup = [] if args.trace else _setup_seconds(args.workload, env, deadline)
        out = _run_child(
            ["run", "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", OUT],
            env,
            deadline,
        )
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    env_rec = res["environment"]
    print(f"optrig benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print("environment: " + json.dumps(env_rec, sort_keys=True))
    print(
        f"operations: attempted={res['attempted']} failed={res['failed']} "
        f"(errors={res['errors']} misses={res['misses']}) busy={res['busy_s']:.3f} s"
    )
    for reason in res["reasons"]:
        print(f"  failure: {reason}")
    fail_share = res["failed"] / res["attempted"]
    e2e = {
        "ops_per_s": res["ops_per_s"],
        "latency_p50_s": res["latency_p50_s"],
        "latency_tail_s": res["latency_tail_s"],
        "success_share": 1.0 - fail_share,
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": res.get("peak_rss_mb", 0.0),
    }
    print(
        f"{res['rounds']} rounds of {res['ops_per_round']} operations; latency_tail_s is "
        f"p{res['tail_percentile']:.2f} of a round (ten samples beyond it), median over rounds; "
        f"fail_share = {fail_share:.6g}"
    )
    if args.trace:
        import tracing

        layers = res["layers"]
        rows = [(name, layers[name], unit) for name, unit in tracing.PER_LAYER]
        print(f"per-layer metrics ({layers['spans']} spans in {layers['spans_file']}):")
        _print_rows(rows)
    else:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
        print("end-to-end metrics:")
        rows = [(name, e2e[name], unit) for name, unit in END_TO_END]
        _print_rows(rows + [("fail_share", fail_share, "ratio")])
    print(
        json.dumps(
            {
                "correct": res["misses"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, value, unit in rows},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
