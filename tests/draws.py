"""Stand-in uniform streams for the fuzzification draws."""

import numpy as np


class FixedDraws:
    """Stand-in uniform stream yielding preset values in order."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        shape = (size,) if np.isscalar(size) else tuple(size)
        count = int(np.prod(shape))
        out = np.array([self._values.pop(0) for _ in range(count)])
        return out.reshape(shape)


def zeros_rng():
    """Stream whose every draw is 0: each footprint foot stays on its anchor."""
    class _Zeros:
        def random(self, size=None):
            return 0.0 if size is None else np.zeros(size)
    return _Zeros()
