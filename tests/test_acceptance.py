"""Acceptance suite: one test per shipping criterion, one printed verdict
line each.

The van der Corput star-L2 criteria bracket the statistics that converge at
reachable n. Star L2 of the binary radical-inverse sequence grows like
log n / (6 log 2) plus a bounded additive term (about 0.57 at the
alternating-bit peaks n = 5, 21, 85, ...). That term pins the raw sup of
value / log n at the n = 21 peak and biases a plain log-log exponent fit
low, so the constant bracket is put on the slope of the running-max envelope
against log n, and the exponent bracket on a fit of b + c (log n)^alpha that
carries the additive term. The raw sup is still checked, against its exact
rational value, and the plain exponent is printed. The CLI suites report
the raw checks unchanged.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from disclab import (
    Halton,
    McConfig,
    PointSet,
    VanDerCorput,
    diaphony,
    diaphony_truncated,
    exact_lp_1d,
    extreme_l2,
    inequality_suite,
    prefix_transference_verify,
    mc_lp,
    periodic_l2,
    prefix,
    prefix_discrepancies,
    random_point_set,
    star_l2,
    vdc_exponent_report,
    vdc_star_constant,
)
from disclab.cli import main
from disclab.experiments import VDC_STAR_TARGET


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {tag}{suffix}")
    return ok


def pset(rows):
    return PointSet(np.atleast_2d(np.asarray(rows, dtype=float)))


# 1 -------------------------------------------------------------------------


def test_acceptance_analytic_identities():
    checks = {
        "extreme singleton": (extreme_l2(pset([[0.3]])), 12.0**-0.5),
        "periodic singleton": (periodic_l2(pset([[0.9]])), 6.0**-0.5),
        "diaphony singleton": (diaphony(pset([[0.123]])), math.pi / math.sqrt(3.0)),
        "star at origin": (star_l2(pset([[0.0]])), 3.0**-0.5),
        "star=extreme at center": (star_l2(pset([[0.5]])), extreme_l2(pset([[0.5]]))),
    }
    worst = max(abs(a - b) / abs(b) for a, b in checks.values())
    ok = _verdict("analytic-identities", worst <= 1e-12, f"worst rel err {worst:.2e}")
    assert ok


# 2 -------------------------------------------------------------------------


def test_acceptance_oracle_agreement():
    t0 = time.time()
    exact = {"star": star_l2, "extreme": extreme_l2, "periodic": periodic_l2}
    exceed = 0
    total = 0
    worst_z = 0.0
    for d in (1, 2, 3):
        for i in range(20):
            p = random_point_set(32, d, 9000 + 97 * d + i)
            for kind, fn in exact.items():
                est = mc_lp(p, McConfig(10**6, 5000 + total), kind, 2.0)
                z = abs(est.value - fn(p)) / est.stderr
                worst_z = max(worst_z, z)
                exceed += z > 3.0
                total += 1
    dt = time.time() - t0
    ok = _verdict(
        "oracle-agreement",
        exceed <= 2 and total == 180,
        f"{exceed}/180 beyond 3 sigma, worst z={worst_z:.2f}, {dt:.0f}s",
    )
    assert ok
    assert dt < 60.0, f"runtime budget exceeded: {dt:.1f}s"


# 3 -------------------------------------------------------------------------


def test_acceptance_exact_1d_crosscheck():
    t0 = time.time()
    worst = 0.0
    for n in (2, 3, 16, 255, 4096):
        p = prefix(VanDerCorput(2), n)
        for kind, fn in (("star", star_l2), ("extreme", extreme_l2)):
            a, b = exact_lp_1d(p, kind, 2.0), fn(p)
            worst = max(worst, abs(a - b) / b)
    dt = time.time() - t0
    ok = _verdict("exact-1d-crosscheck", worst <= 1e-10, f"worst rel {worst:.2e}, {dt:.0f}s")
    assert ok
    assert dt < 10.0


# 4 -------------------------------------------------------------------------


def test_acceptance_order_inequalities():
    t0 = time.time()
    rep1 = inequality_suite(trials=1000, dims=(1,), n=64, seed=777)
    rep2 = inequality_suite(trials=100, dims=(2,), n=64, seed=778)
    worst = min(
        min(rep1.meta["worst_margins"].values()),
        min(rep2.meta["worst_margins"].values()),
    )
    dt = time.time() - t0
    ok = _verdict(
        "order-inequalities",
        rep1.passed and rep2.passed and worst >= -1e-9,
        f"worst margin {worst:.2e}, {dt:.0f}s",
    )
    assert ok
    assert dt < 60.0


# 5 -------------------------------------------------------------------------


def test_acceptance_prefix_transference():
    t0 = time.time()
    all_ok = True
    min_slack = math.inf
    for gen in (VanDerCorput(2), Halton((2, 3))):
        rep = prefix_transference_verify(gen, 256)
        for case in rep.cases:
            if case.meta["n"] >= 2:
                all_ok &= case.passed and case.margin >= 0.0
                min_slack = min(min_slack, case.margin)
    dt = time.time() - t0
    ok = _verdict(
        "prefix-transference",
        all_ok,
        f"min slack {min_slack:.4f} over n=2..256, both sequences, {dt:.0f}s",
    )
    assert ok
    assert dt < 120.0


# 6 -------------------------------------------------------------------------


def _radical_inverse_exact(k: int) -> Fraction:
    r, scale = Fraction(0), Fraction(1, 2)
    while k:
        k, digit = divmod(k, 2)
        r += digit * scale
        scale /= 2
    return r


def _warnock_star_sq_1d(xs: list[Fraction]) -> Fraction:
    """Squared star L2 on the count scale by Warnock's formula, in d = 1:
    n^2/3 - n sum(1 - x^2) + sum_ij (1 - max(x_i, x_j))."""
    n = len(xs)
    return (
        Fraction(n * n, 3)
        - n * sum(1 - x * x for x in xs)
        + sum(1 - max(a, b) for a in xs for b in xs)
    )


def test_acceptance_vdc_star_constant_bracket():
    rep = vdc_star_constant(1 << 14, n_min=16)
    ok = _verdict(
        "vdc-star-constant-bracket",
        0.21 <= rep.envelope_slope <= 0.2405,
        f"envelope slope {rep.envelope_slope:.6f} vs limit {rep.target:.6f}, "
        f"target bracket [0.21, 0.2405]; raw sup ratio {rep.sup_ratio:.6f} at n={rep.arg_n}",
    )
    assert ok, (
        f"envelope slope is {rep.envelope_slope:.6f}, outside [0.21, 0.2405]. The "
        f"running-max star envelope at the dyadic checkpoints 2^4..2^14 should grow by "
        f"(log 2)/(6 log 2) per octave, a slope of {rep.target:.6f} against log n."
    )

    # The raw sup of value / log n is pinned at the n = 21 peak: at the
    # alternating-bit lengths n = 5, 21, 85, 341, 1365 star L2 exceeds
    # log n / (6 log 2) by 0.568 each time, so the peak ratios sit at
    # target + 0.568 / log n and fall below 0.2405 only once log n ~ 1.1e4.
    exact_sq = _warnock_star_sq_1d([_radical_inverse_exact(k) for k in range(21)])
    assert exact_sq == Fraction(1729, 1024)
    expected = math.sqrt(exact_sq) / math.log(21)
    assert rep.arg_n == 21, f"raw sup attained at n={rep.arg_n}, expected the n=21 peak"
    assert math.isclose(rep.sup_ratio, expected, rel_tol=1e-12, abs_tol=0.0), (
        f"raw sup {rep.sup_ratio!r} differs from the exact sqrt(1729/1024)/log 21 = "
        f"{expected!r}"
    )
    assert rep.sup_ratio > rep.target


def test_acceptance_vdc_star_constant_monotone():
    rep = vdc_star_constant(1 << 14, n_min=16)
    sup_2_10 = rep.checkpoint_sups["1024"]
    sup_2_14 = rep.checkpoint_sups["16384"]
    ok = _verdict(
        "vdc-star-constant-monotone",
        sup_2_14 >= sup_2_10 - 1e-12,
        f"running sup {sup_2_10:.6f} at 2^10 -> {sup_2_14:.6f} at 2^14",
    )
    assert ok


# 7 -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exponent_report():
    return vdc_exponent_report(max_n=1 << 16)


def test_acceptance_growth_exponent_extreme(exponent_report):
    alpha = exponent_report["fits"]["extreme"]["alpha"]
    ok = _verdict(
        "growth-exponent-extreme",
        0.4 <= alpha <= 0.6,
        f"alpha {alpha:.4f}, target 0.5, bracket [0.4, 0.6]",
    )
    assert ok


def test_acceptance_growth_exponent_diaphony(exponent_report):
    alpha = exponent_report["fits"]["n_diaphony"]["alpha"]
    ok = _verdict(
        "growth-exponent-n-diaphony",
        0.4 <= alpha <= 0.6,
        f"alpha {alpha:.4f}, target 0.5, bracket [0.4, 0.6]",
    )
    assert ok


@pytest.fixture(scope="module")
def envelopes(exponent_report):
    """Running-max star and extreme envelopes at the exponent checkpoints."""
    cps = np.array(exponent_report["checkpoints"])
    gen = prefix(VanDerCorput(2), exponent_report["max_n"])
    vals = prefix_discrepancies(gen, kinds=("star", "extreme"))
    return cps, {kind: np.maximum.accumulate(v)[cps - 1] for kind, v in vals.items()}


def _offset_fit_rss(ns, values, alphas):
    """For each alpha, fit value = b + c (log n)^alpha by linear least squares
    in (b, c); return the arrays (b, c, residual sum of squares)."""
    x = np.log(ns.astype(np.float64))[None, :] ** np.asarray(alphas)[:, None]
    x_c = x - x.mean(axis=1, keepdims=True)
    y_c = values - values.mean()
    c = (x_c @ y_c) / (x_c * x_c).sum(axis=1)
    b = values.mean() - c * x.mean(axis=1)
    rss = ((y_c[None, :] - c[:, None] * x_c) ** 2).sum(axis=1)
    return b, c, rss


def _offset_fit(ns, values):
    """Fit value = b + c (log n)^alpha; alpha minimises the residual sum of
    squares over a 1e-4 grid on [0.01, 3). Returns (alpha, b, c, rss)."""
    alphas = np.arange(0.01, 3.0, 1e-4)
    b, c, rss = _offset_fit_rss(ns, values, alphas)
    i = int(np.argmin(rss))
    return float(alphas[i]), float(b[i]), float(c[i]), float(rss[i])


def test_acceptance_growth_exponent_star(exponent_report, envelopes):
    cps, env = envelopes
    plain_alpha = exponent_report["fits"]["star"]["alpha"]
    alpha, b, c, rss = _offset_fit(cps, env["star"])
    *_, rss_edges = _offset_fit_rss(cps, env["star"], [0.9, 1.1])
    control_alpha, *_ = _offset_fit(cps, env["extreme"])
    in_bracket = 0.9 <= alpha <= 1.1
    control_out = not 0.9 <= control_alpha <= 1.1
    well_determined = rss_edges.min() > 10.0 * rss
    ok = _verdict(
        "growth-exponent-star",
        in_bracket and control_out and well_determined,
        f"alpha {alpha:.4f} from b + c (log n)^alpha with b {b:.3f}, c {c:.4f} "
        f"(limit {VDC_STAR_TARGET:.4f}), rss {rss:.1e} vs {rss_edges.min():.1e} "
        f"at the bracket edges; plain log-log alpha {plain_alpha:.4f}; extreme control "
        f"alpha {control_alpha:.4f}; target 1.0, bracket [0.9, 1.1]",
    )
    assert in_bracket, (
        f"offset-fit exponent is {alpha:.4f}, outside [0.9, 1.1]. The star envelope "
        f"at n = 2^6..2^16 should be affine in log n (exponent 1) plus the bounded "
        f"term b ~ 0.5 that biases the plain log-log fit ({plain_alpha:.4f}) low."
    )
    assert control_out, (
        f"the same fit on the extreme envelope gives {control_alpha:.4f}, inside "
        f"[0.9, 1.1]; an envelope of order (log n)^(1/2) must fall outside it"
    )
    assert well_determined, (
        f"residual {rss:.2e} at alpha={alpha:.4f} is not well below the residual "
        f"{rss_edges.min():.2e} at the bracket edges"
    )


# 8 -------------------------------------------------------------------------


def test_acceptance_reproducibility(tmp_path, monkeypatch, capsys):
    # in-process with the CPU count patched, so that a cap of 8 runs eight
    # workers on any host (the cap is clamped to the CPU count)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def run(*args, threads):
        monkeypatch.setenv("DISCLAB_THREADS", threads)
        code = main(list(args))
        return code, capsys.readouterr().out

    f = tmp_path / "pts.csv"
    run("gen", "--kind", "halton", "--bases", "2,3", "--n", "32", "--out", str(f), threads="1")
    # 600000 samples are ten chunks, so all eight workers get one
    oracle_args = (
        "oracle", "--kind", "extreme", "--p", "1.5",
        "--samples", "600000", "--seed", "42", "--in", str(f),
    )
    a, b, c = (run(*oracle_args, threads=t) for t in ("1", "8", "8"))
    same_oracle = a == b == c and a[0] == 0

    # 4100 points are five block rows, fifteen block pairs for eight workers
    g = tmp_path / "pts4100.csv"
    run("gen", "--kind", "halton", "--bases", "2,3", "--n", "4100", "--out", str(g), threads="1")
    compute_args = ("compute", "--kind", "star", "--p", "2", "--in", str(g))
    one, many = (run(*compute_args, threads=t) for t in ("1", "8"))
    same_exact = one == many and one[0] == 0

    ok = _verdict(
        "reproducibility",
        same_oracle and same_exact,
        "oracle reruns byte-identical and invariant to thread cap 1 vs 8; "
        "exact kernel invariant to thread cap",
    )
    assert ok


# 9 -------------------------------------------------------------------------


def test_acceptance_diaphony_truncation():
    t0 = time.time()
    all_ok = True
    for i in range(10):
        n = 4 + (i % 13)
        p = random_point_set(min(n, 16), 1, 41000 + i)
        value, bound = diaphony_truncated(p, 10**4)
        f2 = diaphony(p) ** 2
        all_ok &= value**2 <= f2 + 1e-12 <= value**2 + bound + 1e-12
    dt = time.time() - t0
    ok = _verdict("diaphony-truncation", all_ok, f"10/10 bracketed, bound 2e-4, {dt:.0f}s")
    assert ok
    assert dt < 30.0
