"""Run every valid CLI invocation over data/ and fingerprint each one.

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

Usage: python3 scripts/cli_sweep.py [CHECKOUT_ROOT]   (default: this checkout)
"""

import hashlib
import itertools
import os
import pathlib
import subprocess
import sys

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


def invocations(files: list[str]):
    for command in dict.fromkeys(v[0] for v in VARIANTS):
        yield [command, "--help"]
    yield ["--help"]
    for (command, flags, pair), matrix, verify in itertools.product(
        VARIANTS, files, (False, True)
    ):
        for relative in [None, *files] if pair else [None]:
            argv = [command, "--matrix", matrix, *flags]
            if relative is not None:
                argv += ["--relative-to", relative]
            if verify:
                argv.append("--verify")
            yield argv + ["--output", "json"]


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    files = sorted(p.relative_to(root).as_posix() for p in (root / "data").glob("*.json"))
    env = dict(os.environ)
    env.pop("OPTRIG_SEED", None)
    env["PYTHONPATH"] = str(root / "src")
    for argv in invocations(files):
        proc = subprocess.run(
            [sys.executable, "-m", "optrig.cli", *argv],
            capture_output=True,
            cwd=root,
            env=env,
        )
        out = hashlib.sha256(proc.stdout).hexdigest()
        err = hashlib.sha256(proc.stderr).hexdigest()
        print(f"{proc.returncode} {out} {err} {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
