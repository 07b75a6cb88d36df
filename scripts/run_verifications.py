#!/usr/bin/env python3
"""Run every verification suite and write one JSON report per suite.

Exit status is the number of failed suites. The vdc-constant and growth
suites are judged by the named checks that `disclab.experiments` attaches to
their reports, picked by name: the envelope slope, and the extreme and
n * diaphony exponents. The raw windowed sup and the plain star exponent are
written to the reports but not gated on, because they fail by measurement at
any reachable n (see the README notes on finite-depth behaviour).
"""

import argparse
import json
import sys
from pathlib import Path

from disclab import (
    Halton,
    VanDerCorput,
    inequality_suite,
    prefix_transference_verify,
    vdc_exponent_report,
    vdc_star_constant,
)

# Name prefixes of the experiment checks that count toward the exit status.
GATED = ("envelope_slope", "extreme_alpha", "n_diaphony_alpha")


def gate(checks: dict[str, bool]) -> bool:
    picked = [ok for name, ok in checks.items() if name.startswith(GATED)]
    return bool(picked) and all(picked)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports", help="directory for JSON reports")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--constant-max-n", type=int, default=1 << 14)
    ap.add_argument("--growth-max-n", type=int, default=1 << 16)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0

    rep = inequality_suite(trials=args.trials, dims=(1, 2), n=32, seed=args.seed)
    (out / "inequalities.json").write_text(json.dumps(rep.to_dict(), indent=2))
    print(f"inequalities: {'ok' if rep.passed else 'FAILED'} "
          f"(worst margin {min(rep.meta['worst_margins'].values()):.2e})")
    failures += not rep.passed

    for gen in (VanDerCorput(2), Halton((2, 3))):
        rep = prefix_transference_verify(gen, 256)
        name = f"lemma1_{gen.name.split('(')[0]}"
        (out / f"{name}.json").write_text(json.dumps(rep.to_dict(), indent=2))
        slack = min(c.margin for c in rep.cases)
        print(f"{name}: {'ok' if rep.passed else 'FAILED'} (min slack {slack:.4f})")
        failures += not rep.passed

    const = vdc_star_constant(args.constant_max_n, n_min=16)
    report = const.to_dict()
    (out / "vdc_constant.json").write_text(json.dumps(report, indent=2))
    slope_ok = gate(report["checks"])
    print(
        f"vdc-constant: envelope slope {const.envelope_slope:.6f} "
        f"(limit {const.target:.6f}, {'ok' if slope_ok else 'FAILED'}); "
        f"windowed sup {const.sup_ratio:.6f} at n={const.arg_n} "
        f"(sits above the limit; see README)"
    )
    failures += not slope_ok

    growth = vdc_exponent_report(max_n=args.growth_max_n)
    (out / "growth_exponents.json").write_text(json.dumps(growth, indent=2))
    fits = growth["fits"]
    print(
        "growth exponents: "
        + ", ".join(f"{k}={v['alpha']:.4f}" for k, v in fits.items())
    )
    failures += not gate(growth["checks"])

    print(f"reports written to {out}/")
    return failures


if __name__ == "__main__":
    sys.exit(main())
