"""disclab: L_p discrepancies and diaphony of point sets in the unit cube.

Exact closed forms at p = 2, piecewise-exact integration in one dimension
for any p >= 1, exact suprema for low dimension, seeded Monte Carlo for
everything else, and experiment drivers for growth-rate scans.
"""

from .errors import (
    CoordinateError,
    DimensionMismatchError,
    DisclabError,
    EmptyPointSetError,
    GuardError,
)
from .exact_l2 import diaphony, diaphony_truncated, extreme_l2, periodic_l2, star_l2
from .experiments import (
    VDC_STAR_TARGET,
    ScanRow,
    VerdictReport,
    diaphony_scan,
    fit_log_exponent,
    growth_scan,
    inequality_suite,
    prefix_transference_verify,
    vdc_exponent_report,
    vdc_star_constant,
)
from .lp_oracle import (
    McConfig,
    estimate,
    exact_lp_1d,
    linf_exact_small,
    linf_extreme_1d,
    linf_star_1d,
    mc_lp,
)
from .pointsets import (
    Box,
    Estimate,
    PeriodicBox,
    PointSet,
    count_points,
    local_discrepancy,
    read_points,
    write_points,
)
from .prefix_scan import prefix_discrepancies
from .rng import DEFAULT_SEED, PRNG_NAME, random_point_set, uniform01
from .sequences import Halton, VanDerCorput, lift, prefix, radical_inverse

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CoordinateError",
    "DEFAULT_SEED",
    "DimensionMismatchError",
    "DisclabError",
    "EmptyPointSetError",
    "Estimate",
    "GuardError",
    "Halton",
    "McConfig",
    "PRNG_NAME",
    "PeriodicBox",
    "PointSet",
    "ScanRow",
    "VDC_STAR_TARGET",
    "VanDerCorput",
    "VerdictReport",
    "count_points",
    "diaphony",
    "diaphony_scan",
    "diaphony_truncated",
    "estimate",
    "exact_lp_1d",
    "extreme_l2",
    "fit_log_exponent",
    "growth_scan",
    "inequality_suite",
    "prefix_transference_verify",
    "lift",
    "linf_exact_small",
    "linf_extreme_1d",
    "linf_star_1d",
    "local_discrepancy",
    "mc_lp",
    "periodic_l2",
    "prefix",
    "prefix_discrepancies",
    "radical_inverse",
    "random_point_set",
    "read_points",
    "star_l2",
    "uniform01",
    "vdc_exponent_report",
    "vdc_star_constant",
    "write_points",
]
