"""Experiment drivers: inequality checks, prefix-maximum transference,
growth-rate scans, exponent fits, and the van der Corput star constant.

Each driver returns a report object that serializes to flat dicts, so the
CLI can emit them as JSON and the test suite can assert on the fields.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import DisclabError, GuardError
from .exact_l2 import extreme_l2, periodic_l2, star_l2
from .lp_oracle import McConfig, estimate, mc_lp
from .pointsets import PointSet
from .prefix_scan import prefix_discrepancies
from .rng import random_point_set
from .sequences import Halton, VanDerCorput, lift, prefix

__all__ = [
    "ScanRow",
    "CaseCheck",
    "VerdictReport",
    "inequality_suite",
    "prefix_transference_verify",
    "growth_scan",
    "diaphony_scan",
    "fit_log_exponent",
    "vdc_star_constant",
    "vdc_exponent_report",
    "VDC_STAR_TARGET",
]

# Inequality margins are theorems for exact evaluators; the tolerance only
# absorbs rounding.
REL_TOL = 1e-9

# limsup of star-L2 / log N along the binary radical-inverse sequence
VDC_STAR_TARGET = 1.0 / (6.0 * math.log(2.0))


@dataclass(frozen=True)
class ScanRow:
    """One scan record: value at n, the reference rate, and their ratio."""

    n: int
    value: float
    rate: float
    ratio: float


@dataclass(frozen=True)
class CaseCheck:
    claim: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    meta: dict = field(default_factory=dict)


@dataclass
class VerdictReport:
    suite: str
    cases: list[CaseCheck]
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def failures(self) -> list[CaseCheck]:
        return [c for c in self.cases if not c.passed]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "n_cases": len(self.cases),
            "n_failures": len(self.failures),
            "meta": self.meta,
            "cases": [asdict(c) for c in self.cases],
        }


def _leq(claim: str, lhs: float, rhs: float, meta: dict) -> CaseCheck:
    """lhs <= rhs up to relative tolerance; margin is rhs - lhs."""
    tol = REL_TOL * max(1.0, abs(rhs))
    return CaseCheck(claim, lhs, rhs, rhs - lhs, lhs <= rhs + tol, meta)


def _geq(claim: str, lhs: float, rhs: float, meta: dict, slack: float = 0.0) -> CaseCheck:
    """lhs >= rhs - slack (a Monte Carlo 3 sigma, else 0) up to the relative
    tolerance of `_leq`; margin is lhs - rhs."""
    tol = REL_TOL * max(1.0, abs(rhs))
    return CaseCheck(claim, lhs, rhs, lhs - rhs, lhs >= rhs - slack - tol, meta)


def inequality_suite(
    trials: int,
    dims: tuple[int, ...] = (1, 2),
    n: int = 32,
    seed: int = 0,
) -> VerdictReport:
    """Check the order relations between the discrepancy families on seeded
    random point sets.

    Per trial: extreme <= star and extreme <= periodic at p = 2 (these hold
    with constant one); wherever `estimate` has an exact supremum (d = 1 at
    any n, d = 2 for n <= 64) additionally the sandwich
    star <= extreme <= 2^d star at p = infinity. Any failure beyond rounding
    tolerance indicates an implementation bug, not randomness.

    Only failures and the worst margin per claim are kept, so reports stay
    small at thousands of trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cases: list[CaseCheck] = []
    worst: dict[str, CaseCheck] = {}

    def record(check: CaseCheck) -> None:
        if not check.passed:
            cases.append(check)
        prev = worst.get(check.claim)
        if prev is None or check.margin < prev.margin:
            worst[check.claim] = check

    for d in dims:
        for t in range(trials):
            pts = random_point_set(n, d, seed + 7919 * d + t)
            meta = {"d": d, "n": n, "trial": t, "seed": seed + 7919 * d + t}
            s2, e2, p2 = star_l2(pts), extreme_l2(pts), periodic_l2(pts)
            record(_leq("extreme_l2<=star_l2", e2, s2, meta))
            record(_leq("extreme_l2<=periodic_l2", e2, p2, meta))
            try:
                li_s = estimate(pts, "star", math.inf).value
                li_e = estimate(pts, "extreme", math.inf).value
            except GuardError:  # no exact supremum at this (d, n)
                continue
            record(_leq("linf_star<=linf_extreme", li_s, li_e, meta))
            record(_leq("linf_extreme<=2^d*linf_star", li_e, (2.0**d) * li_s, meta))
    return VerdictReport(
        suite="inequalities",
        cases=cases if cases else list(worst.values()),
        meta={
            "trials": trials,
            "dims": list(dims),
            "n": n,
            "seed": seed,
            "worst_margins": {k: c.margin for k, c in worst.items()},
        },
    )


DEFAULT_LEMMA_CAP = 1024


def prefix_transference_verify(
    gen: Halton,
    n_max: int,
    p: float = 2.0,
    mc: McConfig | None = None,
) -> VerdictReport:
    """Check the prefix-maximum transference bound.

    Lifting the first N terms of a d-dimensional sequence with the equispaced
    coordinate k/N gives an (N, d+1) point set whose extreme L_p discrepancy
    is dominated by the best prefix:

        max_{n<=N} extreme_{p,n}(sequence)
            >= 2^(1/p - 1) * extreme_{p,N}(lifted) - 2^(-d/p).

    For p = 2 both sides are exact closed forms. Other p require a Monte
    Carlo configuration; `_geq` then allows a 3 sigma slack on top of its
    relative tolerance. The report carries the realized margin per N.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > DEFAULT_LEMMA_CAP:
        raise GuardError(f"n_max={n_max} exceeds the cap {DEFAULT_LEMMA_CAP}; the lifted "
                         "closed forms cost O(N^2 d) at each dyadic N, and the prefix "
                         "closed forms O(N^3 d) in d >= 2")
    if p != 2.0 and mc is None:
        raise ValueError("p != 2 requires a Monte Carlo config")
    d = gen.d
    cases = []
    full = prefix(gen, n_max)
    values = _scan_values(full, "extreme", p, range(1, n_max + 1), mc)

    if p == 2.0:
        prefix_best = np.maximum.accumulate([v for v, _ in values.values()]).tolist()
        for n in _dyadic(0, n_max):
            lifted = lift(full, n)
            rhs = extreme_l2(lifted) / math.sqrt(2.0) - 2.0 ** (-d / 2.0)
            cases.append(_geq("prefix_max_extreme>=transferred_bound", prefix_best[n - 1],
                              rhs, {"n": n, "d": d, "p": p, "seq": gen.name}))
    else:
        assert mc is not None
        # max keeps the first n that reaches the maximum, and its stderr
        best, best_se = max(values.values(), key=lambda v_se: v_se[0])
        est = mc_lp(lift(full, n_max), mc, "extreme", p)
        rhs = 2.0 ** (1.0 / p - 1.0) * est.value - 2.0 ** (-d / p)
        sigma = 3.0 * math.hypot(best_se, (est.stderr or 0.0) * 2.0 ** (1.0 / p - 1.0))
        cases.append(_geq("prefix_max_extreme>=transferred_bound(mc)", best, rhs,
                          {"n": n_max, "d": d, "p": p, "seq": gen.name, "three_sigma": sigma},
                          slack=sigma))
    return VerdictReport(
        suite="lemma1",
        cases=cases,
        meta={"seq": gen.name, "n_max": n_max, "p": p, "d": d},
    )


def _scan_values(
    full: PointSet,
    kind: str,
    p: float,
    ns: list[int] | range,
    mc: McConfig | None,
) -> dict[int, tuple[float, float]]:
    """(value, stderr) of each requested prefix length of `full`.

    p = 2 in d = 1 goes through the incremental engine (one pass covers every
    prefix); every other prefix goes through `estimate`, with the Monte Carlo
    seed offset by n.
    """
    if full.d == 1 and p == 2.0:
        vals = prefix_discrepancies(full, kinds=(kind,))[kind]
        return {n: (float(vals[n - 1]), 0.0) for n in ns}
    values = {}
    for n in ns:
        cfg = None if mc is None else replace(mc, seed=mc.seed + n)
        est = estimate(full.prefix(n), kind, p, cfg)
        values[n] = (est.value, est.stderr or 0.0)
    return values


@dataclass
class ScanResult:
    rows: list[ScanRow]
    running_max: list[float]
    running_min: list[float]

    def to_dict(self) -> dict:
        return {
            "rows": [asdict(r) for r in self.rows],
            "running_max_ratio": self.running_max,
            "running_min_ratio": self.running_min,
        }


def growth_scan(
    gen: Halton,
    kind: str,
    p: float,
    ns: list[int],
    mc: McConfig | None = None,
) -> ScanResult:
    """Scan prefix discrepancies against the (log n)^{d/2} reference rate.

    Only the running extremes of the ratio carry meaning: the growth floor
    holds along a subsequence, so individual ratios may dip (they do, badly,
    at prefix lengths where the sequence is unusually balanced).
    """
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 2:
        raise ValueError("scan requires at least one n, and n >= 2 so that log n > 0")
    if math.isinf(p):
        raise DisclabError("scan requires finite p; use compute for p=inf")
    values = _scan_values(prefix(gen, ns[-1]), kind, p, ns, mc)
    rows = []
    for n in ns:
        rate = math.log(n) ** (gen.d / 2.0) / (n if kind == "diaphony" else 1)
        value = values[n][0]
        rows.append(ScanRow(n, value, rate, value / rate))
    ratios = [r.ratio for r in rows]
    return ScanResult(
        rows,
        running_max=list(np.maximum.accumulate(ratios)),
        running_min=list(np.minimum.accumulate(ratios)),
    )


def diaphony_scan(gen: Halton, ns: list[int]) -> ScanResult:
    """Diaphony against its (log n)^{d/2} / n reference rate."""
    return growth_scan(gen, "diaphony", 2.0, ns)


def fit_log_exponent(rows: list[ScanRow]) -> tuple[float, float, float]:
    """Least squares of log(value) on log(log(n)).

    Returns (alpha, c, rms): the best fit of value ~ e^c (log n)^alpha and
    the RMS residual in log space. Requires at least three rows, positive
    values, and n >= 3 so the regressor is positive.
    """
    return _fit_log_exponent(
        np.array([r.n for r in rows], dtype=np.float64),
        np.array([r.value for r in rows], dtype=np.float64),
    )


def _fit_log_exponent(ns: np.ndarray, vals: np.ndarray) -> tuple[float, float, float]:
    """`fit_log_exponent` of the rows with these n and values."""
    if ns.size < 3:
        raise ValueError("need at least 3 rows to fit")
    if np.any(ns < 3):
        raise ValueError("fit requires n >= 3 (log log n must be positive)")
    if np.any(vals <= 0):
        raise ValueError("fit requires positive values")
    x = np.log(np.log(ns))
    if np.allclose(x, x[0]):
        raise ValueError("degenerate fit: all n equal")
    return _line_fit(x, np.log(vals))


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares of y on x: (slope, intercept, RMS residual)."""
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    rms = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return float(coef[0]), float(coef[1]), rms


def _dyadic(k0: int, n_max: int) -> list[int]:
    """The powers of two 2^k0, 2^(k0+1), ... that are <= n_max."""
    return [2**k for k in range(k0, n_max.bit_length())]


@dataclass
class VdcConstantReport:
    """Full-scan report for the star-L2 growth constant of the binary
    radical-inverse sequence."""

    max_n: int
    n_min: int
    sup_ratio: float
    arg_n: int
    target: float
    envelope_slope: float
    window_sups: dict[str, float]
    checkpoint_sups: dict[str, float]

    def to_dict(self) -> dict:
        return {**asdict(self), "checks": _vdc_constant_checks(self)}


def _vdc_constant_checks(rep: VdcConstantReport) -> dict[str, bool]:
    """Named verdicts of the vdc-constant suite. The raw sup carries a
    +O(1/log n) excess over the limit and stays above it at any reachable n;
    its check is reported for transparency."""
    sups = [v for _, v in sorted(rep.checkpoint_sups.items(), key=lambda kv: int(kv[0]))]
    return {
        "sup_le_target_plus_0.005": rep.sup_ratio <= rep.target + 0.005,
        "running_sup_monotone": all(a <= b + 1e-12 for a, b in zip(sups, sups[1:])),
        "envelope_slope_matches_target_1pct": abs(rep.envelope_slope - rep.target)
        <= 0.01 * rep.target,
    }


def vdc_star_constant(max_n: int, n_min: int = 2) -> VdcConstantReport:
    """Scan star L2 of every binary radical-inverse prefix up to max_n.

    Reports sup over n in [n_min, max_n] of value / log n together with the
    n attaining it, per-octave window sups, running sups at dyadic
    checkpoints, and the least-squares slope of the running-max envelope
    against log n. The envelope slope is the quantity that recovers the
    asymptotic constant at reachable n: the per-n ratio carries an O(1/log n)
    excess (measured near +0.57/log n in base 2, where the peak prefix
    lengths have alternating binary digits), so the raw sup approaches the
    limit slowly from above.
    """
    if max_n < 16:
        raise ValueError("max_n must be >= 16")
    n_min = max(2, n_min)
    vals = prefix_discrepancies(prefix(VanDerCorput(2), max_n), kinds=("star",))["star"]
    ns = np.arange(1, max_n + 1)
    sel = ns >= n_min
    ratio = vals[sel] / np.log(ns[sel])
    arg = int(np.argmax(ratio))
    sup_ratio = float(ratio[arg])
    arg_n = int(ns[sel][arg])

    window_sups = {}
    for k, lo in enumerate(_dyadic(1, max_n - 1), 1):  # octaves [lo, 2 lo), lo < max_n
        w = (ns >= lo) & (ns < 2 * lo)
        window_sups[f"[2^{k},2^{k+1})"] = float((vals[w] / np.log(ns[w])).max())

    cps = np.array(_dyadic(4, max_n))
    running = np.maximum.accumulate(ratio)
    checkpoint_sups = {str(cp): float(running[cp - n_min]) for cp in cps if cp >= n_min}
    slope, _, _ = _line_fit(np.log(cps.astype(np.float64)), np.maximum.accumulate(vals)[cps - 1])
    return VdcConstantReport(
        max_n=max_n,
        n_min=n_min,
        sup_ratio=sup_ratio,
        arg_n=arg_n,
        target=VDC_STAR_TARGET,
        envelope_slope=slope,
        window_sups=window_sups,
        checkpoint_sups=checkpoint_sups,
    )


def vdc_exponent_report(max_n: int = 1 << 16) -> dict:
    """Fitted growth exponents for the binary radical-inverse sequence.

    One dense prefix scan supplies star and extreme L2 and n * diaphony for
    every n <= max_n. The fit runs on the running-max envelope sampled at
    dyadic checkpoints: the growth floors hold only along subsequences, so
    the envelope (best value seen so far) is the finite-scale object with the
    advertised order, while per-n values oscillate wildly below it.
    """
    kinds = ("star", "extreme", "diaphony")
    vals = prefix_discrepancies(prefix(VanDerCorput(2), max_n), kinds=kinds)
    ns = np.arange(1, max_n + 1, dtype=np.float64)
    cps = _dyadic(6, max_n)  # 64, 128, ... <= max_n
    at = np.array(cps, dtype=np.int64) - 1
    out: dict = {"max_n": max_n, "checkpoints": cps, "fits": {}}
    for kind in kinds:
        series = vals[kind] * (ns if kind == "diaphony" else 1.0)
        alpha, c, rms = _fit_log_exponent(ns[at], np.maximum.accumulate(series)[at])
        label = "n_diaphony" if kind == "diaphony" else kind
        out["fits"][label] = {"alpha": alpha, "c": c, "rms": rms}
    out["checks"] = _growth_checks(out["fits"])
    return out


def _growth_checks(fits: dict) -> dict[str, bool]:
    """Named verdicts of the growth suite: each fitted exponent inside a
    bracket around its asymptotic value. The star bracket applies to the
    plain log-log fit, which the bounded additive term caps near 0.83 at
    reachable n; its check is reported for transparency."""
    return {
        f"{label}_alpha_in_[{lo},{hi}]": lo <= fits[label]["alpha"] <= hi
        for label, lo, hi in (("extreme", 0.4, 0.6), ("n_diaphony", 0.4, 0.6), ("star", 0.9, 1.1))
    }
