"""The benchmark tracer wraps `disclab` functions by name: a renamed or
deleted target would make every traced benchmark run fail at install."""

import importlib
import importlib.util
import sys
from pathlib import Path

from disclab import Halton, estimate, exact_l2, prefix

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
