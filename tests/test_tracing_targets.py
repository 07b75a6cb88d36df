"""The benchmark tracer wraps `disclab` functions by name: a renamed or
deleted target would make every traced benchmark run fail at install."""

import importlib
import importlib.util
import sys
from pathlib import Path

from disclab import (
    Halton,
    McConfig,
    cli,
    estimate,
    exact_l2,
    lp_oracle,
    prefix,
    prefix_transference_verify,
    write_points,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look the module up
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_function_exists(monkeypatch):
    for mod_name, fn_name, _, _ in _load_tracing(monkeypatch).TRACED:
        assert callable(getattr(importlib.import_module(mod_name), fn_name, None)), (
            f"{mod_name}.{fn_name}"
        )


def test_estimate_calls_the_closed_form_bound_in_exact_l2(monkeypatch):
    pts = prefix(Halton((2, 3)), 16)
    calls = []

    def counted(points):
        calls.append(points.n)
        return original(points)

    original = exact_l2.star_l2
    monkeypatch.setattr(exact_l2, "star_l2", counted)
    assert estimate(pts, "star", 2.0).value == original(pts)
    assert calls == [16]


def test_mc_box_tests_reads_samples_points_and_dimension(monkeypatch, tmp_path):
    # the tracer counts Monte Carlo work from mc_lp's call arguments alone
    calls = []
    original = lp_oracle.mc_lp

    def recorded(*args, **kwargs):
        est = original(*args, **kwargs)
        calls.append((args, kwargs, est))
        return est

    for module in (lp_oracle, cli):
        monkeypatch.setattr(module, "mc_lp", recorded)
    pts = prefix(Halton((2, 3)), 16)
    estimate(pts, "star", 1.5, McConfig(300, 1))
    prefix_transference_verify(Halton((2, 3)), 4, p=1.5, mc=McConfig(200, 2))
    f = tmp_path / "pts.csv"
    with open(f, "w") as fh:
        write_points(pts, fh)
    assert cli.main(["oracle", "--kind", "periodic", "--p", "1.5", "--samples", "500",
                     "--in", str(f)]) == 0
    assert len(calls) == 1 + 5 + 1  # four prefixes and the lifted set, then the oracle
    box_tests = _load_tracing(monkeypatch)._mc_box_tests
    for args, kwargs, est in calls:
        assert box_tests(args, kwargs) == est.samples * est.n * est.d
