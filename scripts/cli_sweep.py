"""Run every valid CLI invocation over data/, and every --verify variant on
a few generated n = 3 and n = 4 matrices, and fingerprint each call.

Prints one line per call: exit code, sha256 of stdout, sha256 of stderr,
and the argv. Two checkouts behave the same on the CLI exactly when their
outputs are identical, so a refactor can be checked with

    python3 scripts/cli_sweep.py OLD_CHECKOUT > old.txt
    python3 scripts/cli_sweep.py NEW_CHECKOUT > new.txt
    diff old.txt new.txt

Each call is a cold `python -m optrig.cli` process run from the checkout
root against that checkout's src/, with OPTRIG_SEED unset and file paths
relative to the root, so the reports do not depend on where the checkout
lives. The variant list is kept here rather than read from the CLI, so the
script runs unchanged against older checkouts.

The generated matrices (an accretive and an invertible matrix, and a random
pair T, A, for each of n = 3 and 4) come from a fixed seed and are written by
this script, with numpy only, to a temporary directory; their calls run with
that directory as the working directory and bare file names, so their
reports do not depend on where it lives either.

Usage: python3 scripts/cli_sweep.py [CHECKOUT_ROOT]   (default: this checkout)
"""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

# (command, extra flags, takes --relative-to)
VARIANTS = (
    ("cos", (), False),
    ("total-cos", (), False),
    ("sin", (), False),
    ("center-of-mass", (), True),
    ("center-of-mass", ("--complex",), True),
    ("orthogonal", (), True),
    ("orthogonal", ("--complex",), True),
    ("w0", (), True),
    ("minmax", (), False),
    ("minmax", ("--complex",), False),
)


GENERATED_SEED = 20261018


def argv_for(command: str, flags, matrix: str, relative: str | None, verify: bool) -> list[str]:
    argv = [command, "--matrix", matrix, *flags]
    if relative is not None:
        argv += ["--relative-to", relative]
    if verify:
        argv.append("--verify")
    return argv + ["--output", "json"]


def invocations(files: list[str]):
    for command in dict.fromkeys(v[0] for v in VARIANTS):
        yield [command, "--help"]
    yield ["--help"]
    for (command, flags, pair), matrix, verify in itertools.product(
        VARIANTS, files, (False, True)
    ):
        for relative in [None, *files] if pair else [None]:
            yield argv_for(command, flags, matrix, relative, verify)


def write_generated(directory: pathlib.Path) -> None:
    """Write the fixed-seed n = 3, 4 matrices as n{n}_{kind}.json files."""
    rng = np.random.default_rng(GENERATED_SEED)

    def gauss(n: int) -> np.ndarray:
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)

    for n in (3, 4):
        acc = gauss(n)
        floor = float(np.linalg.eigvalsh((acc + acc.conj().T) / 2.0)[0])
        acc = acc + max(0.0, 0.12 - floor) * np.eye(n)
        u, s, vh = np.linalg.svd(gauss(n))
        inv = u @ np.diag(np.clip(s, 0.1, None)) @ vh
        for kind, m in (("accretive", acc), ("invertible", inv), ("t", gauss(n)), ("a", gauss(n))):
            entries = [[[float(z.real), float(z.imag)] for z in row] for row in m]
            doc = {"n": n, "entries": entries, "name": f"n{n} {kind}"}
            (directory / f"n{n}_{kind}.json").write_text(json.dumps(doc))


def generated_invocations():
    """--verify on each variant: single-matrix commands on the accretive and
    invertible matrices, pair commands on T relative to A and to the identity."""
    for n, (command, flags, pair) in itertools.product((3, 4), VARIANTS):
        if pair:
            for relative in (f"n{n}_a.json", None):
                yield argv_for(command, flags, f"n{n}_t.json", relative, True)
        else:
            for kind in ("accretive", "invertible"):
                yield argv_for(command, flags, f"n{n}_{kind}.json", None, True)


def run(argv: list[str], cwd, env: dict) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "optrig.cli", *argv],
        capture_output=True,
        cwd=cwd,
        env=env,
    )
    out = hashlib.sha256(proc.stdout).hexdigest()
    err = hashlib.sha256(proc.stderr).hexdigest()
    print(f"{proc.returncode} {out} {err} {' '.join(argv)}", flush=True)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    files = sorted(p.relative_to(root).as_posix() for p in (root / "data").glob("*.json"))
    env = dict(os.environ)
    env.pop("OPTRIG_SEED", None)
    env["PYTHONPATH"] = str(root / "src")
    for argv in invocations(files):
        run(argv, root, env)
    with tempfile.TemporaryDirectory() as tmp:
        write_generated(pathlib.Path(tmp))
        for argv in generated_invocations():
            run(argv, tmp, env)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
