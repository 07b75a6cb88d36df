"""disclab: L_p discrepancies and diaphony of point sets in the unit cube.

Exact closed forms at p = 2, piecewise-exact integration in one dimension
for any p >= 1, exact suprema for low dimension, seeded Monte Carlo for
everything else, and experiment drivers for growth-rate scans.

Each module's `__all__` lists its public names; the package re-exports
those of every module but `summation` and `cli`.
"""

from . import errors, exact_l2, experiments, lp_oracle, pointsets, prefix_scan, rng, sequences
from .errors import *  # noqa: F403
from .exact_l2 import *  # noqa: F403
from .experiments import *  # noqa: F403
from .lp_oracle import *  # noqa: F403
from .pointsets import *  # noqa: F403
from .prefix_scan import *  # noqa: F403
from .rng import *  # noqa: F403
from .sequences import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, exact_l2, experiments, lp_oracle, pointsets, prefix_scan, rng, sequences)
    for name in module.__all__
]
