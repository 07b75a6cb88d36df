"""The (value, compensation) that `summation.strip_sum` gives a matrix,
computed from the matrix built whole, as the bit-for-bit reference for how
it groups the fold's error sums.

The whole matrix is folded by `summation._fold`, comp_sum's TwoSum tree, so
the value is comp_sum's. A matrix of one strip is comp_sum's throughout.
Otherwise strip k of h rows (`summation._strip_rows`), S = h * cols entries,
owns the stretch [k S / 2^L, (k + 1) S / 2^L) of each of the first L levels'
errors, for the L levels a strip folds by itself: while 2^L divides S and
S / 2^L stays at least `summation._STRIP_REST`. Each strip's stretches,
concatenated in level order, are summed by one np.sum, every later level by
one np.sum of the whole level, and math.fsum adds those sums.
"""

import math

import numpy as np

from disclab import summation


def strip_comp_sum(m: np.ndarray) -> tuple[float, float]:
    rows, cols = m.shape
    h = summation._strip_rows(cols)
    if rows <= h:
        return summation.comp_sum(m)
    a = np.array(m, dtype=np.float64).ravel()
    span = h * cols
    local = min(span & -span, span // summation._STRIP_REST).bit_length() - 1
    errors = [None] * (a.size - 1).bit_length()
    value = float(summation._fold(a, errors)[0])
    strips = [
        np.concatenate([np.empty(0)] + [e[k * span >> lv : (k + 1) * span >> lv]
                                        for lv, e in enumerate(errors[:local], 1)])
        for k in range(-(-rows // h))
    ]
    return value, math.fsum([*map(np.sum, strips), *map(np.sum, errors[local:])])
