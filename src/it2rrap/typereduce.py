"""Type reduction of sampled IT2 membership functions.

The centroid of an interval type-2 set is itself an interval: every choice of
a membership value between the lower and upper bound at each grid point gives
one weighted average of the abscissae, and the centroid interval is the range
of those averages.  The extremes are attained by switch patterns that use the
upper bound on one side of a switch index and the lower bound on the other,
which is what both routines here exploit.  Both take a strictly increasing
``grid`` with ``lower``/``upper`` membership arrays on it and return the
``(left, right)`` endpoints:

* :func:`centroid_arrays` runs the enhanced Karnik-Mendel (EKM) iteration,
  which starts from a heuristic switch index and converges to the optimal
  one in a handful of steps; the fuzzy pipeline uses it.
* :func:`brute_force_centroid` evaluates every switch pattern: exact and
  obviously correct, but linear in patterns; used as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CentroidInterval",
    "brute_force_centroid",
    "centroid_arrays",
    "defuzzify",
]

# Empirically good EKM starting points: the left switch index sits near
# N/2.4 and the right one near N/1.7 for typical unimodal footprints.
_LEFT_INIT_DIVISOR = 2.4
_RIGHT_INIT_DIVISOR = 1.7


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


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _prepared(x: np.ndarray, lo: np.ndarray, up: np.ndarray):
    """Cumulative sums shared by both EKM sides and the brute force.

    Index convention: head counts are 1-based, ``cum[k]`` holds the sum of
    the first ``k`` elements, ``cum[0] == 0``.
    """
    n = x.size
    cum_xu = np.empty(n + 1)
    cum_xl = np.empty(n + 1)
    cum_u = np.empty(n + 1)
    cum_l = np.empty(n + 1)
    cum_xu[0] = cum_xl[0] = cum_u[0] = cum_l[0] = 0.0
    np.cumsum(x * up, out=cum_xu[1:])
    np.cumsum(x * lo, out=cum_xl[1:])
    np.cumsum(up, out=cum_u[1:])
    np.cumsum(lo, out=cum_l[1:])
    return x, cum_xu, cum_xl, cum_u, cum_l


def _support_span(upper: np.ndarray) -> tuple[int, int]:
    """1-based first and last grid indices carrying upper membership mass."""
    positive = np.flatnonzero(upper > 0)
    if positive.size == 0:
        raise ValueError("membership function has no mass to type-reduce")
    return int(positive[0]) + 1, int(positive[-1]) + 1


def brute_force_centroid(grid: np.ndarray, lower: np.ndarray,
                         upper: np.ndarray) -> tuple[float, float]:
    """Both centroid endpoints by enumerating every switch pattern.

    For the left endpoint the pattern uses upper membership on the first
    ``k`` points and lower membership after them; for the right endpoint the
    roles are reversed.  ``k`` runs over 0..N, massless patterns are skipped,
    and the minimum / maximum weighted average over the remaining patterns is
    exact because the centroid extremes occur at such single-switch patterns.
    """
    x, cum_xu, cum_xl, cum_u, cum_l = _prepared(grid, lower, upper)
    n = x.size

    # left candidates: upper on the head, lower on the tail
    num = cum_xu[: n + 1] + (cum_xl[n] - cum_xl[: n + 1])
    den = cum_u[: n + 1] + (cum_l[n] - cum_l[: n + 1])
    mask = den > 0
    if not np.any(mask):
        raise ValueError("membership function has no mass to type-reduce")
    left = np.min(num[mask] / den[mask])

    # right candidates: lower on the head, upper on the tail
    num = cum_xl[: n + 1] + (cum_xu[n] - cum_xu[: n + 1])
    den = cum_l[: n + 1] + (cum_u[n] - cum_u[: n + 1])
    mask = den > 0
    right = np.max(num[mask] / den[mask])

    return float(left), float(right)


# ---------------------------------------------------------------------------
# enhanced Karnik-Mendel iteration
# ---------------------------------------------------------------------------

def _ekm_side(prep, first: int, last: int, side: str) -> tuple[float, int]:
    """EKM iteration for one endpoint given precomputed cumulative sums.

    Each pass recomputes the weighted average for the current switch index
    ``k`` (upper head / lower tail for the left endpoint, the reverse for the
    right), locates the grid interval containing it, and moves ``k`` there;
    a fixed point is optimal.  Convergence takes at most ``N`` passes.  The
    switch index is kept inside the membership support so the average is
    always well defined even for footprints with empty lower membership.
    """
    x, cum_xu, cum_xl, cum_u, cum_l = prep
    n = x.size
    if first == last:
        # all mass on a single abscissa
        return float(x[first - 1]), 0

    if side == "left":
        k_lo, k_hi = first, n - 1
        divisor = _LEFT_INIT_DIVISOR
    else:
        k_lo, k_hi = 1, last - 1
        divisor = _RIGHT_INIT_DIVISOR

    def stats(k: int) -> tuple[float, float]:
        if side == "left":
            num = cum_xu[k] + (cum_xl[n] - cum_xl[k])
            den = cum_u[k] + (cum_l[n] - cum_l[k])
        else:
            num = cum_xl[k] + (cum_xu[n] - cum_xu[k])
            den = cum_l[k] + (cum_u[n] - cum_u[k])
        return num, den

    k = min(max(_round_half_up(n / divisor), k_lo), k_hi)
    num, den = stats(k)
    c = num / den
    for iteration in range(1, n + 1):
        k_new = int(np.searchsorted(x, c, side="right"))
        k_new = min(max(k_new, k_lo), k_hi)
        if k_new == k:
            return float(c), iteration
        k = k_new
        num, den = stats(k)
        c = num / den
    raise RuntimeError(f"EKM did not converge within {n} iterations")


def centroid_arrays(grid: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> tuple[float, float]:
    """Both centroid endpoints by the EKM iteration, sharing one preparation
    pass between the two sides."""
    prep = _prepared(grid, lower, upper)
    first, last = _support_span(upper)
    left = _ekm_side(prep, first, last, "left")[0]
    right = _ekm_side(prep, first, last, "right")[0]
    return left, right


def defuzzify(ci: CentroidInterval) -> float:
    """Crisp representative of a centroid interval: its midpoint."""
    return 0.5 * (ci.left + ci.right)
