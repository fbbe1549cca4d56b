"""Print the five worked reference cases next to their closed forms.

Usage: python3 scripts/run_golden_cases.py
"""

import argparse
import math

import numpy as np

from optrig import (
    center_uniqueness,
    operator_norm,
    real_center_of_mass,
    total_center_of_mass,
    total_trig_report,
    trig_report,
)


def gauss(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def row(label: str, got: float, want: float) -> None:
    print(f"  {label:28s} {got: .10f}   expected {want: .10f}   err {abs(got - want):.2e}")


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    T = np.diag([1.0 + 0.0j, 1.0 + 1.0j])
    sq2 = math.sqrt(2.0)

    print("case 1: real quantities of diag(1, 1+i)")
    rep = trig_report(T)
    row("cos", rep.cos_direct, 1.0 / sq2)
    row("cos via center", rep.cos_via_center, 1.0 / sq2)
    row("epsilon0", rep.epsilon0, 0.5)
    row("sin", rep.sin_value, math.sqrt(0.5))
    row("min-max lhs", rep.minmax_lhs, 0.5)
    row("min-max rhs", rep.minmax_rhs, 0.5)

    print("case 2: total quantities of diag(1, 1+i)")
    tot = total_trig_report(T)
    row("total cos", tot.total_cos_direct, math.sqrt(2.0 * sq2 - 2.0))
    row("lambda0 real part", tot.lambda0.real, 1.0 / sq2)
    row("lambda0 imag part", tot.lambda0.imag, -(sq2 - 1.0) / sq2)
    row("residual at lambda0", operator_norm(tot.lambda0 * T - np.eye(2)), sq2 - 1.0)
    row("antieigenvector |z2|^2", abs(tot.antieigenvector[1]) ** 2, sq2 - 1.0)
    row("min-max lhs", tot.minmax_lhs, 3.0 - 2.0 * sq2)
    row("min-max rhs", tot.minmax_rhs, 3.0 - 2.0 * sq2)

    print("case 3: non-unique center of diag(1, 0) relative to diag(0, 1)")
    Td = np.diag([1.0, 0.0])
    Ad = np.diag([0.0, 1.0])
    rc = real_center_of_mass(Td, Ad)
    row("residual", rc.residual, 1.0)
    lo, hi = rc.flat_interval
    print(f"  flat interval               [{lo:+.6f}, {hi:+.6f}]   expected to cover [-0.99, 0.99]")
    print(f"  unique flag                 {rc.unique}   certified: {center_uniqueness(Ad)}")

    print("case 4: real centers at a kink, at unit scale and at scale 1e-8")
    rc = real_center_of_mass(np.eye(2), np.diag([1.0, 4.0]))  # max(|1 - eps|, |1 - 4 eps|)
    row("I rel diag(1, 4): epsilon0", rc.epsilon0, 0.4)
    row("I rel diag(1, 4): residual", rc.residual, 0.6)
    rc = real_center_of_mass(1e-8 * np.diag([1.0, 2.0, 7.0]), np.eye(3))
    row("1e-8 diag(1,2,7): eps0/1e-8", rc.epsilon0 / 1e-8, 4.0)
    row("1e-8 diag(1,2,7): res/1e-8", rc.residual / 1e-8, 3.0)

    print("case 5: a unique center relative to a singular A")
    # the complex Ginibre pair of default_rng(11), A drawn first, sigma_3(A) set
    # to 0: the residual exceeds m0 = ||T on ker A||, which rules out a flat minimum
    rng = np.random.default_rng(11)
    u, s, vh = np.linalg.svd(gauss(rng, 3))
    As = (u * [s[0], s[1], 0.0]) @ vh
    Ts = gauss(rng, 3)
    rc = real_center_of_mass(Ts, As)
    m0 = float(np.linalg.norm(Ts @ vh[2].conj()))
    print(f"  {'residual, m0':28s} {rc.residual:.10f}, {m0:.10f}   margin {rc.residual - m0:.4f}")
    lo, hi = rc.flat_interval
    print(f"  {'flat interval width':28s} {hi - lo:.1e}   unique flag {rc.unique}   center_uniqueness(A): {center_uniqueness(As)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
