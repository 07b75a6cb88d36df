"""The package's public names are exactly those its modules list in
`__all__`, each bound to the object its module defines."""

import importlib

import pytest

import disclab
from disclab import MonteCarloRequired, estimate, random_point_set

REEXPORTED = ("errors", "exact_l2", "experiments", "lp_oracle", "pointsets",
              "prefix_scan", "rng", "sequences")


def test_package_all_joins_the_module_lists():
    modules = [importlib.import_module(f"disclab.{m}") for m in REEXPORTED]
    joined = [name for module in modules for name in module.__all__]
    assert disclab.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(disclab, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_the_error_estimate_raises_is_exported():
    from disclab.errors import MonteCarloRequired as defined

    assert MonteCarloRequired is defined
    with pytest.raises(MonteCarloRequired):
        estimate(random_point_set(8, 2, 1), "star", 1.5)
