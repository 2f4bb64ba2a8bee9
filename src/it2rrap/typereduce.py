"""Type reduction of sampled IT2 membership functions.

The centroid of an interval type-2 set is itself an interval: every choice of
a membership value between the lower and upper bound at each grid point gives
one weighted average of the abscissae, and the centroid interval is the range
of those averages.  Its endpoints are attained by single-switch patterns
(Karnik & Mendel 2001): the left endpoint uses upper membership on the first
``k`` grid points and lower membership after them, the right endpoint the
reverse.  :func:`centroid_arrays` evaluates all ``N + 1`` patterns of each
kind from four cumulative sums and takes the extreme averages, so the result
is exact, costs O(N) and needs no iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CentroidInterval",
    "centroid_arrays",
    "defuzzify",
]


@dataclass(frozen=True)
class CentroidInterval:
    """Closed interval of attainable centroids, ``left <= right``."""

    left: float
    right: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.left) and np.isfinite(self.right)):
            raise ValueError("centroid endpoints must be finite")
        if self.left > self.right:
            raise ValueError(
                f"centroid interval is inverted: [{self.left}, {self.right}]"
            )


def centroid_arrays(grid: np.ndarray, lower: np.ndarray,
                    upper: np.ndarray) -> tuple[float, float]:
    """Both centroid endpoints of the IT2 set sampled on ``grid``.

    ``grid`` is strictly increasing and ``lower``/``upper`` are the membership
    bounds on it.  Every switch index ``k`` in 0..N gives one candidate
    average per endpoint; patterns without mass are skipped.
    """
    n = grid.size
    # cum_*[k] is the sum of the first k terms, cum_*[0] == 0
    cum_xu, cum_xl, cum_u, cum_l = cums = np.empty((4, n + 1))
    cums[:, 0] = 0.0
    np.cumsum(grid * upper, out=cum_xu[1:])
    np.cumsum(grid * lower, out=cum_xl[1:])
    np.cumsum(upper, out=cum_u[1:])
    np.cumsum(lower, out=cum_l[1:])

    # left candidates: upper on the head, lower on the tail
    num = cum_xu + (cum_xl[n] - cum_xl)
    den = cum_u + (cum_l[n] - cum_l)
    mask = den > 0
    if not np.any(mask):
        raise ValueError("membership function has no mass to type-reduce")
    left = np.min(num[mask] / den[mask])

    # right candidates: lower on the head, upper on the tail
    num = cum_xl + (cum_xu[n] - cum_xu)
    den = cum_l + (cum_u[n] - cum_u)
    mask = den > 0
    right = np.max(num[mask] / den[mask])

    return float(left), float(right)


def defuzzify(ci: CentroidInterval) -> float:
    """Crisp representative of a centroid interval: its midpoint."""
    return 0.5 * (ci.left + ci.right)
