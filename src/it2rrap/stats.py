"""Replication statistics over repeated optimization runs.

Descriptive summaries, a two-sample t-test and a one-way ANOVA F-test,
for comparing solver populations of best-fitness or objective values.
Two-sided p-values come from the regularized incomplete beta function.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "AnovaResult",
    "SampleSummary",
    "TestResult",
    "anova_f",
    "describe",
    "t_test",
]


class SampleSummary(NamedTuple):
    """Size, location and spread of one sample."""

    n: int
    mean: float
    sd: Optional[float]
    median: float


class TestResult(NamedTuple):
    """Statistic, two-sided p-value and degrees of freedom of one test."""

    statistic: float
    p_value: float
    df: float


class AnovaResult(NamedTuple):
    """F statistic, p-value and the two degree-of-freedom counts."""

    statistic: float
    p_value: float
    df_between: int
    df_within: int


def _clean(samples, name: str, least: int) -> np.ndarray:
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < least:
        raise ValueError(f"{name} needs at least {least} values, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def describe(samples) -> SampleSummary:
    """Sample size, mean, standard deviation and median.

    The standard deviation uses the n-1 denominator and is None for a
    single observation, where it is undefined.
    """
    arr = _clean(samples, "samples", 1)
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else None
    return SampleSummary(int(arr.size), float(np.mean(arr)), sd,
                         float(np.median(arr)))


def _t_p_value(t: float, df: float) -> float:
    """Two-sided tail probability of a t statistic."""
    # imported here, not at module level: scipy costs every other command
    # over 0.1 s at start-up
    from scipy.special import betainc
    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))


def t_test(a, b, welch: bool = False) -> TestResult:
    """Two-sample t-test for a difference in means; two-sided p.

    The default pools the two sample variances with ``n_a + n_b - 2``
    degrees of freedom.  ``welch=True`` instead keeps the variances
    separate and uses the Welch-Satterthwaite degrees of freedom, for
    samples whose spreads clearly differ.
    """
    x = _clean(a, "first sample", 2)
    y = _clean(b, "second sample", 2)
    vx = float(np.var(x, ddof=1))
    vy = float(np.var(y, ddof=1))
    nx, ny = x.size, y.size
    if welch:
        ex, ey = vx / nx, vy / ny
        if ex + ey == 0.0:
            raise ValueError("degenerate samples: both variances are zero")
        df = (ex + ey) ** 2 / (ex * ex / (nx - 1) + ey * ey / (ny - 1))
        se = np.sqrt(ex + ey)
    else:
        pooled = ((nx - 1) * vx + (ny - 1) * vy) / (nx + ny - 2)
        if pooled == 0.0:
            raise ValueError("degenerate samples: zero pooled variance")
        df = float(nx + ny - 2)
        se = np.sqrt(pooled * (1.0 / nx + 1.0 / ny))
    t = float((np.mean(x) - np.mean(y)) / se)
    return TestResult(t, _t_p_value(t, df), float(df))


def anova_f(groups: Sequence) -> AnovaResult:
    """One-way ANOVA F-test for equal group means; p from the F tail.

    With exactly two groups the statistic is the square of the pooled
    t statistic.
    """
    if len(groups) < 2:
        raise ValueError(f"need at least 2 groups, got {len(groups)}")
    arrs = [_clean(g, f"group {i}", 2) for i, g in enumerate(groups)]
    counts = np.array([a.size for a in arrs])
    means = np.array([np.mean(a) for a in arrs])
    total = int(counts.sum())
    k = len(arrs)
    # sum over pairs of n_i n_j (m_i - m_j)^2 / N, exactly 0 for equal
    # means, which a grand mean of the pooled values can miss by an ulp
    gaps = means[:, None] - means[None, :]
    ss_between = float(np.sum(np.outer(counts, counts) * gaps ** 2)
                       / (2 * total))
    ss_within = float(sum(np.sum((a - m) ** 2) for a, m in zip(arrs, means)))
    df_between = k - 1
    df_within = total - k
    if ss_within == 0.0:
        raise ValueError("degenerate samples: zero within-group variance")
    f = (ss_between / df_between) / (ss_within / df_within)
    from scipy.special import betainc
    p = float(betainc(df_within / 2.0, df_between / 2.0,
                      df_within / (df_within + df_between * f)))
    return AnovaResult(float(f), p, df_between, df_within)
