import dataclasses
import math

import numpy as np
import pytest

from disclab import (
    Halton,
    McConfig,
    ScanRow,
    VanDerCorput,
    diaphony_scan,
    exact_lp_1d,
    fit_log_exponent,
    growth_scan,
    inequality_suite,
    lift,
    mc_lp,
    prefix,
    prefix_transference_verify,
    vdc_exponent_report,
    vdc_star_constant,
)
from disclab.errors import GuardError
from disclab.experiments import (
    REL_TOL,
    VDC_STAR_TARGET,
    _geq,
    _growth_checks,
    _vdc_constant_checks,
)


def test_inequality_suite_small_run_passes():
    rep = inequality_suite(trials=30, dims=(1,), n=16, seed=5)
    assert rep.passed
    assert rep.meta["worst_margins"]["extreme_l2<=star_l2"] > -1e-9


def test_inequality_suite_d2_includes_linf_sandwich():
    # the sandwich runs wherever an exact supremum exists: d = 1 at any n,
    # d = 2 for n <= 64; in d = 3 only the two p = 2 claims remain
    p2 = {"extreme_l2<=star_l2", "extreme_l2<=periodic_l2"}
    sandwich = {"linf_star<=linf_extreme", "linf_extreme<=2^d*linf_star"}
    for d, n, claims in ((2, 24, p2 | sandwich), (1, 100, p2 | sandwich), (3, 16, p2)):
        rep = inequality_suite(trials=5, dims=(d,), n=n, seed=6)
        assert set(rep.meta["worst_margins"]) == claims, (d, n)
        assert {c.claim for c in rep.cases} == claims, (d, n)
        assert rep.passed


def test_inequality_suite_report_dict_shape():
    d = inequality_suite(trials=2, dims=(1,), n=8, seed=1).to_dict()
    assert d["suite"] == "inequalities"
    assert d["passed"] is True
    assert d["n_failures"] == 0


def test_prefix_transference_vdc_ladder():
    rep = prefix_transference_verify(VanDerCorput(2), 64)
    assert rep.passed
    for c in rep.cases:
        assert c.margin >= 0.0  # realized slack, not just tolerance-pass


def test_prefix_transference_halton():
    rep = prefix_transference_verify(Halton((2, 3)), 32)
    assert rep.passed and rep.cases[-1].meta["d"] == 2


def test_prefix_transference_n1_bound_is_negative():
    rep = prefix_transference_verify(VanDerCorput(2), 1)
    (case,) = rep.cases
    assert case.lhs == pytest.approx(12.0**-0.5, rel=1e-12)
    assert case.rhs < 0.0 and case.passed


def test_prefix_transference_cap():
    with pytest.raises(GuardError):
        prefix_transference_verify(VanDerCorput(2), 2048)


def test_prefix_transference_mc_variant():
    rep = prefix_transference_verify(
        Halton((2, 3)), 8, p=1.5, mc=McConfig(20_000, 3)
    )
    assert rep.passed


@pytest.mark.parametrize("gen", [VanDerCorput(2), Halton((2, 3))])
def test_prefix_transference_mc_matches_per_prefix_loop(gen):
    p, n_max, mc = 1.5, 8, McConfig(20_000, 3)
    (case,) = prefix_transference_verify(gen, n_max, p=p, mc=mc).cases
    # reference: one evaluator call per prefix, keeping the first maximum
    full = prefix(gen, n_max)
    best, best_se = -math.inf, 0.0
    for n in range(1, n_max + 1):
        pf = full.prefix(n)
        if gen.d == 1:
            v, se = exact_lp_1d(pf, "extreme", p), 0.0
        else:
            est = mc_lp(pf, McConfig(mc.samples, mc.seed + n), "extreme", p)
            v, se = est.value, est.stderr or 0.0
        if v > best:
            best, best_se = v, se
    est = mc_lp(lift(full, n_max), McConfig(mc.samples, mc.seed), "extreme", p)
    rhs = 2.0 ** (1.0 / p - 1.0) * est.value - 2.0 ** (-gen.d / p)
    sigma = 3.0 * math.hypot(best_se, (est.stderr or 0.0) * 2.0 ** (1.0 / p - 1.0))
    assert (case.lhs, case.rhs, case.meta["three_sigma"]) == (best, rhs, sigma)


@pytest.mark.parametrize("rhs", [0.5, -0.5, 1e3, -1e3])
@pytest.mark.parametrize("slack", [0.0, 0.25])
def test_geq_slack_shares_the_relative_tolerance(rhs, slack):
    # the Monte Carlo lemma1 case passes its 3 sigma as slack; the rounding
    # tolerance on top is relative to |rhs| above 1, as for the exact cases
    tol = REL_TOL * max(1.0, abs(rhs))
    edge = rhs - slack - tol
    assert _geq("c", edge, rhs, {}, slack=slack).passed
    assert not _geq("c", edge - 2.0 * tol, rhs, {}, slack=slack).passed
    check = _geq("c", edge, rhs, {"k": 1}, slack=slack)
    assert (check.lhs, check.rhs, check.margin, check.meta) == (edge, rhs, edge - rhs, {"k": 1})


def test_fit_log_exponent_recovers_planted_exponents():
    ns = [2**k for k in range(3, 12)]
    rows = [ScanRow(n, math.log(n) ** 1.0, 1.0, 0.0) for n in ns]
    alpha, c, rms = fit_log_exponent(rows)
    assert alpha == pytest.approx(1.0, abs=1e-9)
    assert rms < 1e-12
    rows = [ScanRow(n, 5.0 * math.log(n) ** 0.5, 1.0, 0.0) for n in ns]
    alpha, c, _ = fit_log_exponent(rows)
    assert alpha == pytest.approx(0.5, abs=1e-9)
    assert c == pytest.approx(math.log(5.0), abs=1e-9)


def test_fit_log_exponent_guards():
    rows = [ScanRow(8, 1.0, 1.0, 1.0), ScanRow(16, 1.0, 1.0, 1.0)]
    with pytest.raises(ValueError):
        fit_log_exponent(rows)
    bad = [ScanRow(2, 1.0, 1.0, 1.0)] * 3
    with pytest.raises(ValueError):
        fit_log_exponent(bad)
    flat = [ScanRow(8, 1.0, 1.0, 1.0)] * 3
    with pytest.raises(ValueError):
        fit_log_exponent(flat)


def test_growth_scan_rows_and_running_extremes():
    res = growth_scan(VanDerCorput(2), "extreme", 2.0, [2, 4, 8, 16, 32])
    assert [r.n for r in res.rows] == [2, 4, 8, 16, 32]
    for r in res.rows:
        assert r.rate == pytest.approx(math.sqrt(math.log(r.n)))
        assert r.ratio == pytest.approx(r.value / r.rate)
    assert res.running_max == list(np.maximum.accumulate([r.ratio for r in res.rows]))
    assert min(res.running_min) > 0.0


def test_growth_scan_minimum_n():
    with pytest.raises(ValueError):
        growth_scan(VanDerCorput(2), "extreme", 2.0, [1, 2])
    res = growth_scan(VanDerCorput(2), "star", 2.0, [2])
    assert res.rows[0].rate == pytest.approx(math.sqrt(math.log(2.0)))


def test_growth_scan_rate_uses_dimension():
    res = growth_scan(Halton((2, 3)), "extreme", 2.0, [4, 16, 64])
    for r in res.rows:
        assert r.rate == pytest.approx(math.log(r.n))  # (log n)^{d/2}, d=2


def test_growth_scan_p_not_two_uses_exact_1d():
    res = growth_scan(VanDerCorput(2), "extreme", 1.5, [4, 8])
    from disclab import exact_lp_1d, prefix

    want = exact_lp_1d(prefix(VanDerCorput(2), 8), "extreme", 1.5)
    assert res.rows[1].value == pytest.approx(want, rel=1e-12)


def test_diaphony_scan_rate_and_positivity():
    res = diaphony_scan(VanDerCorput(2), [2, 8, 64])
    for r in res.rows:
        assert r.rate == pytest.approx(math.sqrt(math.log(r.n)) / r.n)
    assert max(res.running_max) > 0.0


def test_vdc_star_constant_report():
    rep = vdc_star_constant(2048)
    assert rep.target == pytest.approx(VDC_STAR_TARGET)
    # the envelope slope already sits within a couple percent of the limit
    # at this small scan depth
    assert rep.envelope_slope == pytest.approx(VDC_STAR_TARGET, rel=0.05)
    sups = [rep.checkpoint_sups[k] for k in sorted(rep.checkpoint_sups, key=int)]
    assert all(a <= b + 1e-12 for a, b in zip(sups, sups[1:]))
    # per-n ratio peaks sit above the limit constant at reachable depths
    assert rep.sup_ratio > rep.target


def test_vdc_exponent_report_shape():
    rep = vdc_exponent_report(max_n=4096)
    assert set(rep["fits"]) == {"star", "extreme", "n_diaphony"}
    for fit in rep["fits"].values():
        assert 0.0 < fit["alpha"] < 1.2


def test_vdc_exponent_report_needs_three_checkpoints():
    # the checkpoints start at 64, and the fit needs 64, 128 and 256
    with pytest.raises(ValueError, match="max_n must be >= 256"):
        vdc_exponent_report(max_n=255)
    assert vdc_exponent_report(max_n=256)["checkpoints"] == [64, 128, 256]


def test_vdc_constant_checks_at_their_edges():
    rep = vdc_star_constant(64)
    t = rep.target

    def checks(**changes):
        return _vdc_constant_checks(dataclasses.replace(rep, **changes))

    slope = "envelope_slope_matches_target_1pct"
    assert checks(envelope_slope=t * 1.0099)[slope]
    assert checks(envelope_slope=t * 0.9901)[slope]
    assert not checks(envelope_slope=t * 1.0101)[slope]
    assert not checks(envelope_slope=t * 0.9899)[slope]
    sup = "sup_le_target_plus_0.005"
    assert checks(sup_ratio=t + 0.005)[sup]
    assert not checks(sup_ratio=math.nextafter(t + 0.005, 1.0))[sup]
    assert not checks(checkpoint_sups={"16": 0.5, "32": 0.4})["running_sup_monotone"]
    assert rep.to_dict()["checks"] == checks()


@pytest.mark.parametrize(
    "alpha, half_ok, one_ok",
    [
        (0.4, True, False),
        (0.6, True, False),
        (0.9, False, True),
        (1.1, False, True),
        (math.nextafter(0.4, 0.0), False, False),
        (math.nextafter(0.6, 1.0), False, False),
        (math.nextafter(0.9, 0.0), False, False),
        (math.nextafter(1.1, 2.0), False, False),
    ],
)
def test_growth_checks_at_their_edges(alpha, half_ok, one_ok):
    fits = {label: {"alpha": alpha} for label in ("star", "extreme", "n_diaphony")}
    assert _growth_checks(fits) == {
        "extreme_alpha_in_[0.4,0.6]": half_ok,
        "n_diaphony_alpha_in_[0.4,0.6]": half_ok,
        "star_alpha_in_[0.9,1.1]": one_ok,
    }
