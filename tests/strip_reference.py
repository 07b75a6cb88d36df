"""The (value, compensation) that `summation.strip_sum` gives a matrix,
computed from the matrix built whole, as the bit-for-bit reference for how
it groups the fold's error sums.

The whole matrix is folded by `summation._fold`, comp_sum's TwoSum tree, so
the value is comp_sum's. Strip k of h rows, S = h * cols entries, owns the
stretch [k S / 2^L, (k + 1) S / 2^L) of each of the first L levels' errors,
rounded up at the end, for the h and the L fold levels a strip runs by
itself that `summation._layout` gives. A matrix of at most h rows is one
strip, whose stretches are whole levels. Each strip's stretches,
concatenated in level order, are summed by one np.sum, every later level by
one np.sum of the whole level, and math.fsum adds those sums.
"""

import math

import numpy as np

from disclab import summation


def strip_comp_sum(m: np.ndarray) -> tuple[float, float]:
    rows, cols = m.shape
    h, local = summation._layout(rows, cols)[:2]
    a = np.array(m, dtype=np.float64).ravel()
    span = h * cols
    errors = [None] * (a.size - 1).bit_length()
    value = float(summation._fold(a, errors)[0])
    strips = [
        np.concatenate([np.empty(0)] + [e[k * span >> lv : -(-(k + 1) * span >> lv)]
                                        for lv, e in enumerate(errors[:local], 1)])
        for k in range(-(-rows // h))
    ]
    return value, math.fsum([*map(np.sum, strips), *map(np.sum, errors[local:])])
