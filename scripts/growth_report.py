#!/usr/bin/env python3
"""Dense growth scan of the binary radical-inverse sequence.

Writes per-prefix values of star/extreme L2 and n * diaphony for every
n <= max_n, the running-max envelope at dyadic checkpoints, and the fitted
log-log exponents. The CSV pairs with the reference curves emitted by
`disclab scan --plot-data` for external plotting.
"""

import argparse
import csv
import math
import sys

import numpy as np

from disclab import VDC_STAR_TARGET, VanDerCorput, prefix, prefix_discrepancies


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=1 << 16)
    ap.add_argument("--out", default="vdc_growth.csv")
    ap.add_argument("--stride", type=int, default=1,
                    help="write every k-th row (envelope always uses all rows)")
    args = ap.parse_args()

    vals = prefix_discrepancies(prefix(VanDerCorput(2), args.max_n))
    ns = np.arange(1, args.max_n + 1)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "star_l2", "extreme_l2", "periodic_l2", "n_diaphony"])
        for i in range(1, args.max_n, args.stride):
            w.writerow(
                [
                    int(ns[i]),
                    f"{vals['star'][i]:.17g}",
                    f"{vals['extreme'][i]:.17g}",
                    f"{vals['periodic'][i]:.17g}",
                    f"{vals['diaphony'][i] * ns[i]:.17g}",
                ]
            )
    print(f"wrote {args.out}")

    star_env = np.maximum.accumulate(vals["star"])
    print("\ndyadic running-max envelope (star), ratio to log n:")
    for k in range(4, args.max_n.bit_length()):
        n = 2**k
        print(f"  n=2^{k:<2d} env={star_env[n - 1]:.6f} env/log n={star_env[n - 1] / math.log(n):.6f}")
    print(f"limiting constant 1/(6 log 2) = {VDC_STAR_TARGET:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
