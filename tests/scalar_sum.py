"""The per-point reference for `summation.running_sum`: a scalar Neumaier
sum that adds its terms one at a time."""


class KernelAccumulator:
    """Running Neumaier-compensated scalar sum.

    Keeps (value, compensation); `add` never drops a rounding error larger
    than second order.
    """

    __slots__ = ("_s", "_c")

    def __init__(self, value: float = 0.0) -> None:
        self._s = float(value)
        self._c = 0.0

    def add(self, v: float) -> None:
        t = self._s + v
        if abs(self._s) >= abs(v):
            self._c += (self._s - t) + v
        else:
            self._c += (v - t) + self._s
        self._s = t

    def add_pair(self, hi: float, lo: float) -> None:
        self.add(hi)
        self.add(lo)

    @property
    def parts(self) -> tuple[float, float]:
        return self._s, self._c

    @property
    def value(self) -> float:
        return self._s + self._c
