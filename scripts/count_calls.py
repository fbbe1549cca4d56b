"""Count the np.linalg.svd and eigh calls of each public entry point on fixed inputs.

Counts do not depend on the machine, so two checkouts can be compared with

    python3 scripts/count_calls.py OLD_CHECKOUT > old.txt
    python3 scripts/count_calls.py NEW_CHECKOUT > new.txt
    diff old.txt new.txt

Pairs (T, A): the 4x4 Ginibre pair of default_rng(4), a 4x4 pair with
lambda = 0 a center (default_rng(7)), and the flat pair diag(1, 0),
diag(0, 1); these are the pairs of the SVD-budget tests. Operators T: a
Hermitian positive-definite U diag(lam) U* with lam uniform in [0.1, 5] at
n = 4 and 16, so the centers run on I relative to T. The inputs are built by
the generators of this script's own tests/ (conftest.py and
test_center_of_mass.orthogonal_pair), whatever checkout is counted, so both
sides of a comparison see the same matrices as the budget tests.

Prints one line per call: input, entry point, svd count, eigh count, or the
exception it raised.

Usage: python3 scripts/count_calls.py [CHECKOUT_ROOT]   (default: this checkout)
"""

import pathlib
import sys

import numpy as np


def main() -> int:
    here = pathlib.Path(__file__).resolve().parent.parent
    root = pathlib.Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else here
    sys.path[:0] = [str(root / "src"), str(here / "tests")]
    import optrig
    from conftest import gauss_matrix, hpd_matrix
    from test_center_of_mass import orthogonal_pair

    counts = {"svd": 0, "eigh": 0}
    for name in counts:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        setattr(np.linalg, name, counted)

    rng = np.random.default_rng(4)
    pairs = {
        "ginibre-n4": (gauss_matrix(rng, 4), gauss_matrix(rng, 4)),
        "orthogonal-n4": orthogonal_pair(np.random.default_rng(7), 4),
        "flat-n2": (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
    }
    operators = {f"hpd-n{n}": hpd_matrix(np.random.default_rng(n), n) for n in (4, 16)}
    pair_entries = (
        "real_center_of_mass",
        "total_center_of_mass",
        "is_real_orthogonal",
        "is_total_orthogonal",
        "attaining_interval",
        "total_pairing_min",
    )
    operator_entries = (
        "cos_t",
        "total_cos_t",
        "sin_t",
        "cos_via_center",
        "total_cos_via_center",
        "minmax_check_real",
        "minmax_check_complex",
        "trig_report",
        "total_trig_report",
    )
    calls = [(label, entry, args) for label, args in pairs.items() for entry in pair_entries]
    for label, T in operators.items():
        I = np.eye(T.shape[0])
        calls += [(label, entry, (I, T)) for entry in ("real_center_of_mass", "total_center_of_mass")]
        calls += [(label, entry, (T,)) for entry in operator_entries]
    for label, entry, args in calls:
        counts.update(svd=0, eigh=0)
        try:
            getattr(optrig, entry)(*args)
            outcome = f"svd {counts['svd']:4d}  eigh {counts['eigh']:4d}"
        except optrig.OptrigError as exc:
            outcome = f"raises {type(exc).__name__}"
        print(f"{label:14s} {entry:22s} {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
