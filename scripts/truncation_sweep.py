#!/usr/bin/env python3
"""Fock-oracle convergence study.

Sweeps the per-mode truncation d and tabulates the deviation of the
truncated-space Uhlmann fidelity from the closed-form value for one
mode-mixed and one squeezed thermal pair, together with the trace
deficits. The states are built with ``max_deficit=1.0``, so every row
reports a deviation, also where the truncation loses a visible part of the
trace (d = 6 here). Useful for picking truncations outside the default
regimes.
"""

import argparse
import sys
import time

from gaussfisher import closed_form, fock
from gaussfisher.states import FamilyPoint


def sweep(label, a, b, truncations):
    exact = closed_form.fidelity_special(a, b)
    print(f"\n{label}: closed-form fidelity = {exact:.15f}")
    print(f"{'d':>4} {'deficit':>12} {'|F_fock - F|':>14} {'seconds':>8}")
    for d in truncations:
        start = time.monotonic()
        rho_a = fock.family_dm(a, d, max_deficit=1.0)
        rho_b = fock.family_dm(b, d, max_deficit=1.0)
        deficit = max(rho_a.trace_deficit, rho_b.trace_deficit)
        error = abs(fock.uhlmann_fidelity(rho_a, rho_b) - exact)
        print(f"{d:>4} {deficit:>12.3e} {error:>14.3e} "
              f"{time.monotonic() - start:>8.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--truncations", default="6,10,16,24,32",
                        help="comma-separated per-mode dimensions")
    args = parser.parse_args()
    truncations = [int(v) for v in args.truncations.split(",")]

    sweep("mode-mixed pair",
          FamilyPoint.mts(0.40, 0.20, 1.30, 0.60),
          FamilyPoint.mts(0.25, 0.45, 0.70, -1.10),
          truncations)
    sweep("squeezed pair",
          FamilyPoint.sts(0.25, 0.10, 0.35, 0.40),
          FamilyPoint.sts(0.15, 0.28, 0.20, -0.90),
          truncations)
    return 0


if __name__ == "__main__":
    sys.exit(main())
