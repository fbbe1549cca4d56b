"""Self-test of the optrig benchmark.

Run from the root of a checkout:

  python3 perfbench/selftest.py

It checks that
  1. the checkers reject a deliberately perturbed library result, a perturbed
     CLI report and an unexpected CLI exit code, and accept the true ones;
  2. run.py prints every metric named in BENCHMARK.json, with its unit, in
     both modes;
  3. the counts of a traced run (SVDs, evaluations, restarts, calls) repeat
     exactly across two runs with the same seed, and so do the attempted and
     failed operations of an untraced run;
  4. run.py fails without printing a result where the program is missing.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import optrig  # noqa: E402
import optrig.cli  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def check_checkers() -> None:
    rng = np.random.default_rng(7)
    op = workloads.library_op("trig_report", 3, known=True, variant=0, rng=rng)
    rep = op.call()
    expect(op.check(rep) is None, "trig_report on a positive-definite matrix passes its closed form")
    bad = dataclasses.replace(rep, cos_direct=rep.cos_direct + 1e-3)
    expect(op.check(bad) is not None, "a cos perturbed by 1e-3 is rejected")

    op = workloads.library_op("is_total_orthogonal", 3, known=True, variant=0, rng=rng)
    verdict = op.call()
    expect(op.check(verdict) is None, "an orthogonal pair gets an orthogonal verdict")
    flipped = dataclasses.replace(verdict, orthogonal=False, route_w0=False, route_norm=False, witness=None)
    expect(op.check(flipped) is not None, "a flipped verdict is rejected")

    op = workloads.library_op("total_center_of_mass", 3, known=True, variant=1, rng=rng)
    center = op.call()
    expect(op.check(center) is None, "the total center of T relative to T is 1")
    expect(op.check(dataclasses.replace(center, lambda0=center.lambda0 + 1e-3)) is not None,
           "a center moved by 1e-3 is rejected")

    call = workloads.cli_warmup(os.path.join(ROOT, "data"))[0]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = optrig.cli.main(list(call.argv))
    report = buf.getvalue()
    expect(workloads.check_cli(call, code, report) is None, f"CLI {call.label} passes")
    expect(workloads.check_cli(call, 1, report) is not None, "an unexpected CLI exit code is rejected")
    doc = json.loads(report)
    doc["results"]["cos"] += 1e-3
    expect(workloads.check_cli(call, code, json.dumps(doc)) is not None, "a perturbed CLI report is rejected")


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench("--workload", "reports-small", "--seed", "3", "--seconds", "2", "--trace", trace)
        expect(proc.returncode == 0, f"run.py --trace {trace} exits 0")
        if proc.returncode != 0:
            print(proc.stderr)
            continue
        res = last_json(proc)
        expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], "result line has exactly its four keys")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        expect(got == want, f"--trace {trace} prints every {key} metric with its unit")
        table = proc.stdout.splitlines()[:-1]
        expect(
            all(any(line.split()[:1] == [n] and line.split()[-1] == u for line in table) for n, u in want.items()),
            f"--trace {trace} text table lists every {key} metric with its unit",
        )


def check_repeatable_counts() -> None:
    runs = [run_bench("--workload", "reports-small", "--seed", "5", "--seconds", "1", "--trace", "1") for _ in range(2)]
    if any(p.returncode != 0 for p in runs):
        expect(False, "two traced runs succeed")
        return
    a, b = (last_json(p)["metrics"] for p in runs)
    counts = {k for k, m in a.items() if m["unit"] == "count"}
    differ = sorted(k for k in counts if a[k]["value"] != b[k]["value"])
    expect(not differ, f"{len(counts)} traced counts repeat exactly for one seed {differ or ''}")
    expect(a["linalg.svd_calls"]["value"] > 0 and a["sphere_opt.objective_evals"]["value"] > 0,
           "traced counts are not empty")


def check_repeatable_outcomes() -> None:
    # seed 15 holds a refused total_trig_report in its first round
    runs = [run_bench("--workload", "reports-small", "--seed", "15", "--seconds", "1", "--trace", "0") for _ in range(2)]
    if any(p.returncode != 0 for p in runs):
        expect(False, "two untraced runs succeed")
        return
    a, b = (last_json(p) for p in runs)
    expect((a["attempted"], a["failed"]) == (b["attempted"], b["failed"]),
           f"attempted and failed repeat exactly for one seed ({a['attempted']}, {a['failed']})")


def check_fails_without_program() -> None:
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "reports-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without src/optrig run.py exits nonzero and prints no result")


def main() -> int:
    check_checkers()
    check_metrics()
    check_repeatable_counts()
    check_repeatable_outcomes()
    check_fails_without_program()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
