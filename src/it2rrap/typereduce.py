"""Type reduction of IT2 membership functions, sampled or given by cuts.

The centroid of an interval type-2 set is itself an interval: every choice of
a membership value between the lower and upper bound at each grid point gives
one weighted average of the abscissae, and the centroid interval is the range
of those averages.  Its endpoints are attained by single-switch patterns
(Karnik & Mendel 2001): the left endpoint uses upper membership on the first
``k`` grid points and lower membership after them, the right endpoint the
reverse.  :func:`centroid_rows` evaluates all ``N + 1`` patterns of each
kind from four cumulative sums and takes the extreme averages, so the result
is exact, costs O(N) and needs no iteration.  :func:`centroid_cuts` needs
no grid: it finds the continuous endpoints of sets given by their alpha-cuts
as roots (Liu & Mendel 2011).  Both reduce any number of sets, one per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CentroidInterval",
    "centroid_cuts",
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


# The most Newton steps a row takes, only a guard against looping: a lower
# set with mass keeps the clipped mass positive at each root.
_MAX_STEPS = 60


def _cut_moments(left: np.ndarray, right: np.ndarray,
                 weights: np.ndarray) -> tuple:
    """Moment and mass of sets given by cuts ``[left, right]`` along the
    last axis: per row, the sums of ``(right**2 - left**2) / 2`` and of
    ``right - left`` under ``weights``, each along its row alone."""
    width = (right - left) * weights
    return (width * (right + left)).sum(axis=-1) / 2.0, width.sum(axis=-1)


def centroid_cuts(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Both continuous centroid endpoints of each IT2 set given by its cuts.

    ``lower`` and ``upper`` are ``(left_ends, right_ends)`` pairs shaped
    ``(..., K)``: each row's lower and upper membership cut at the levels
    ``linspace(0, 1, K)``, nested, the lower inside the upper.  The left
    endpoint is the root of ``g(y) = int_{x<=y} (x - y) U + int_{x>y}
    (x - y) L``, the moment about ``y`` of the cuts clipped to their side
    of ``y`` (trapezoid rule over the levels), and the right one of ``g``
    with ``U`` and ``L`` swapped.  ``g'`` is minus the clipped mass, and
    Newton's method from the centroid of ``U``, which lies between the
    roots, moves monotonically onto each: ``g`` is concave for the left
    endpoint and convex for the right.  A row stops when a step no longer
    moves it, so its bits do not depend on its batch.  A row whose lower
    support has no width starts on its roots, the upper support's ends, and
    stops at once.  Returns the endpoints, shaped ``(...)``.
    """
    count = upper[0].shape[-1]
    weights = np.ones(count)
    weights[[0, -1]] = 0.5
    moment, mass = _cut_moments(*upper, weights)
    start = np.divide(moment, mass, where=mass > 0,
                      out=np.array(upper[1][..., 0], dtype=float))
    has_mass = lower[1][..., 0] > lower[0][..., 0]
    weights = np.tile(weights, 2)
    roots = []
    for below, above, heading, support in (
            (upper, lower, -1.0, upper[0]), (lower, upper, 1.0, upper[1])):
        # per row the right ends of the set weighed below y and of the one
        # weighed above it, then their left ends
        ends = np.stack([below[1], above[1], below[0], above[0]], axis=-2)
        ends = ends.reshape(-1, 2, 2, count)
        y = np.where(has_mass, start, support[..., 0]).flatten()
        rows = np.arange(y.size)
        for _ in range(_MAX_STEPS):
            if not rows.size:
                break
            last = y[rows]
            gap = ends - last[:, None, None, None]
            np.minimum(gap[:, :, 0], 0.0, out=gap[:, :, 0])
            np.maximum(gap[:, :, 1], 0.0, out=gap[:, :, 1])
            gap = gap.reshape(len(rows), 2, 2 * count)
            moment, mass = _cut_moments(gap[:, 1], gap[:, 0], weights)
            step = last + np.divide(moment, mass, out=np.zeros_like(mass),
                                    where=mass > 0)
            moving = (step - last) * heading > 0
            if not moving.all():
                rows, ends, step = rows[moving], ends[moving], step[moving]
            y[rows] = step
        roots.append(y.reshape(start.shape))
    left, right = roots
    # the two ends of a type-1 set meet at one root, which rounding can
    # leave an ulp out of order
    return np.minimum(left, right), np.maximum(left, right)


def defuzzify(ci: CentroidInterval) -> float:
    """Crisp representative of a centroid interval: its midpoint."""
    return 0.5 * (ci.left + ci.right)
