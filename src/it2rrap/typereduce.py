"""Type reduction of sampled IT2 membership functions.

The centroid of an interval type-2 set is itself an interval: every choice of
a membership value between the lower and upper bound at each grid point gives
one weighted average of the abscissae, and the centroid interval is the range
of those averages.  Its endpoints are attained by single-switch patterns
(Karnik & Mendel 2001): the left endpoint uses upper membership on the first
``k`` grid points and lower membership after them, the right endpoint the
reverse.  :func:`centroid_rows` evaluates all ``N + 1`` patterns of each
kind from four cumulative sums and takes the extreme averages, so the result
is exact, costs O(N) and needs no iteration.  It reduces any number of sets
at once, one per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CentroidInterval",
    "centroid_rows",
    "defuzzify",
]


@dataclass(frozen=True)
class CentroidInterval:
    """Closed interval of attainable centroids, ``left <= right``.

    The ends may also be equally shaped arrays, one interval per entry.
    """

    left: float
    right: float

    def __post_init__(self) -> None:
        if not (np.all(np.isfinite(self.left))
                and np.all(np.isfinite(self.right))):
            raise ValueError("centroid endpoints must be finite")
        if np.any(self.left > self.right):
            raise ValueError(
                f"centroid interval is inverted: [{self.left}, {self.right}]"
            )


def centroid_rows(grid: np.ndarray, lower: np.ndarray,
                  upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both centroid endpoints of each IT2 set sampled along the last axis.

    ``lower``/``upper`` are the membership bounds of one set per row, shaped
    ``(..., N)``, and ``grid`` holds the strictly increasing abscissae,
    either one grid per row or one ``(N,)`` grid that all rows share.
    Every switch index ``k`` in 0..N gives one candidate average per
    endpoint; patterns without mass are skipped.  Returns the left and the
    right endpoints, shaped ``lower.shape[:-1]`` (scalars for one set).
    """
    n = lower.shape[-1]
    # cum_*[..., k] is the sum of the first k terms, cum_*[..., 0] == 0
    cums = np.empty((4,) + lower.shape[:-1] + (n + 1,))
    cums[..., 0] = 0.0
    cum_xu, cum_xl, cum_u, cum_l = cums
    np.cumsum(grid * upper, axis=-1, out=cum_xu[..., 1:])
    np.cumsum(grid * lower, axis=-1, out=cum_xl[..., 1:])
    np.cumsum(upper, axis=-1, out=cum_u[..., 1:])
    np.cumsum(lower, axis=-1, out=cum_l[..., 1:])

    # left candidates: upper on the head, lower on the tail
    num = cum_xu + (cum_xl[..., -1:] - cum_xl)
    den = cum_u + (cum_l[..., -1:] - cum_l)
    mask = den > 0
    if not np.all(np.any(mask, axis=-1)):
        raise ValueError("membership function has no mass to type-reduce")
    left = np.divide(num, den, out=np.full_like(num, np.inf),
                     where=mask).min(axis=-1)

    # right candidates: lower on the head, upper on the tail
    num = cum_xl + (cum_xu[..., -1:] - cum_xu)
    den = cum_l + (cum_u[..., -1:] - cum_u)
    right = np.divide(num, den, out=np.full_like(num, -np.inf),
                      where=den > 0).max(axis=-1)
    return left, right


def defuzzify(ci: CentroidInterval) -> float:
    """Crisp representative of a centroid interval: its midpoint."""
    return 0.5 * (ci.left + ci.right)
