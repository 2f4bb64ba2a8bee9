"""Reliability-redundancy system model with IT2 fuzzy objectives.

A system is a chain of ``m`` sub-systems.  Two layouts are supported:

* ``series-parallel``: each stage holds ``n_i`` redundant units in parallel
  and the stages are connected in series;
* ``parallel-series``: each path is a series chain of ``n_i`` units and the
  paths run in parallel.

Crisp reliability, cost, weight and volume of a candidate ``(r, n)`` follow
the standard allocation model.  On top of the crisp values, the fuzzy
pipeline turns each sub-system's reliability and cost into a randomised IT2
triangular membership function, maps the reliability footprints through the
layout formula by cutting them at a ladder of membership levels, takes the
union of the cost footprints on a shared grid, type-reduces each aggregate
and takes the centroid midpoint, yielding the defuzzified objective pair
the optimizers score against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .typereduce import CentroidInterval, centroid_arrays, defuzzify

__all__ = [
    "SERIES_PARALLEL",
    "PARALLEL_SERIES",
    "WEIGHT_AS_WRITTEN",
    "WEIGHT_DATASET_CONSISTENT",
    "FITNESS_NORMALIZED",
    "FITNESS_RAW",
    "SystemSpec",
    "Candidate",
    "MetricSet",
    "IdealBounds",
    "validate_candidate",
    "subsystem_reliability",
    "crisp_metrics",
    "evaluate_objectives",
    "checked_weights",
    "scalarize",
    "constraint_violation",
    "is_feasible",
    "penalized_fitness",
    "dominates",
]

SERIES_PARALLEL = "series-parallel"
PARALLEL_SERIES = "parallel-series"
_TOPOLOGIES = (SERIES_PARALLEL, PARALLEL_SERIES)

# Two system-weight formulas circulate for this model family.  Taken
# literally the constraint reads sum(w * (n + exp(n/4))); the reference
# allocations shipped with the bundled benchmarks are only reproduced by
# sum(w * n * exp(n/4)), so that variant is the default.
WEIGHT_AS_WRITTEN = "as-written"
WEIGHT_DATASET_CONSISTENT = "dataset-consistent"
_WEIGHT_VARIANTS = (WEIGHT_AS_WRITTEN, WEIGHT_DATASET_CONSISTENT)

FITNESS_NORMALIZED = "normalized"
FITNESS_RAW = "raw"
_FITNESS_MODES = (FITNESS_NORMALIZED, FITNESS_RAW)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass
class SystemSpec:
    """Static description of one allocation problem instance.

    ``alpha``/``beta`` parameterise each sub-system's cost-of-reliability
    curve, ``weight`` and ``kappa`` its per-unit weight and volume factors.
    ``mission_hours`` is the operating time the reliabilities refer to.
    """

    topology: str
    mission_hours: float
    alpha: np.ndarray
    beta: np.ndarray
    weight: np.ndarray
    kappa: np.ndarray
    weight_limit: float
    volume_limit: float
    cost_limit: float
    r_min: float = 0.5
    r_max: float = 1.0 - 1e-6
    n_min: int = 1
    n_max: int = 5

    def __post_init__(self) -> None:
        if self.topology not in _TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.weight = np.asarray(self.weight, dtype=float)
        self.kappa = np.asarray(self.kappa, dtype=float)
        sizes = {a.size for a in (self.alpha, self.beta, self.weight, self.kappa)}
        if len(sizes) != 1 or self.alpha.ndim != 1:
            raise ValueError("alpha, beta, weight and kappa must be equally "
                             "sized one-dimensional arrays")
        if self.alpha.size < 1:
            raise ValueError("need at least one sub-system")
        # NaN compares False with everything, so finiteness is tested apart
        for name in ("alpha", "beta", "weight", "kappa"):
            values = getattr(self, name)
            if not np.all(np.isfinite(values) & (values > 0)):
                raise ValueError(f"{name} entries must be positive and finite")
        for name in ("mission_hours", "weight_limit", "volume_limit", "cost_limit"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.r_min < self.r_max < 1.0:
            raise ValueError("need 0 < r_min < r_max < 1")
        if not (int(self.n_min) == self.n_min and int(self.n_max) == self.n_max):
            raise ValueError("redundancy bounds must be integers")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")

    @property
    def size(self) -> int:
        """Number of sub-systems."""
        return self.alpha.size


@dataclass
class Candidate:
    """One allocation: unit reliabilities ``r`` and redundancy counts ``n``."""

    r: np.ndarray
    n: np.ndarray

    def __post_init__(self) -> None:
        self.r = np.asarray(self.r, dtype=float)
        n = np.asarray(self.n)
        if np.any(n != np.floor(n)):
            raise ValueError("redundancy counts must be integers")
        self.n = n.astype(int)
        if self.r.ndim != 1 or self.n.ndim != 1 or self.r.size != self.n.size:
            raise ValueError("r and n must be one-dimensional and equally sized")


@dataclass(frozen=True)
class MetricSet:
    """Crisp system metrics of one candidate."""

    reliability: float
    cost: float
    weight: float
    volume: float


@dataclass(frozen=True)
class IdealBounds:
    """Objective anchor values used when fuzzifying, per weight pair.

    ``r_left``/``r_right`` anchor the reliability membership feet and
    ``c_left``/``c_right`` the cost ones; ``c_left``/``c_right`` also
    normalise the cost objective in the scalarized fitness.  The ends need
    not be ordered: an end the crisp peak falls outside of is clamped onto
    the peak during fuzzification, so inverted anchors force zero spread on
    both sides (crisp test fixtures).  Dataset files require properly
    ordered intervals at load time.
    """

    r_left: float
    r_right: float
    c_left: float
    c_right: float

    def __post_init__(self) -> None:
        vals = (self.r_left, self.r_right, self.c_left, self.c_right)
        if not all(np.isfinite(vals)):
            raise ValueError("bounds must be finite")
        if not (0.0 <= self.r_left <= 1.0 and 0.0 <= self.r_right <= 1.0):
            raise ValueError("reliability anchors must lie in [0, 1]")
        if self.c_left < 0.0 or self.c_right < 0.0:
            raise ValueError("cost anchors must be non-negative")


def validate_candidate(spec: SystemSpec, cand: Candidate) -> None:
    """Raise ``ValueError`` if ``cand`` is not a point of the search box."""
    if cand.r.size != spec.size:
        raise ValueError(f"candidate has {cand.r.size} sub-systems, "
                         f"spec has {spec.size}")
    if not np.all((cand.r >= spec.r_min) & (cand.r <= spec.r_max)):
        raise ValueError(f"reliabilities must lie in "
                         f"[{spec.r_min}, {spec.r_max}]")
    if np.any(cand.n < spec.n_min) or np.any(cand.n > spec.n_max):
        raise ValueError(f"redundancy counts must lie in "
                         f"[{spec.n_min}, {spec.n_max}]")


# ---------------------------------------------------------------------------
# crisp metrics
# ---------------------------------------------------------------------------

def subsystem_reliability(topology: str, r, n):
    """Reliability of one redundancy stage.

    Parallel redundancy survives unless all units fail; a series chain
    survives only if all units do.
    """
    r = np.asarray(r, dtype=float)
    n = np.asarray(n)
    if topology == SERIES_PARALLEL:
        return 1.0 - (1.0 - r) ** n
    if topology == PARALLEL_SERIES:
        return r ** n
    raise ValueError(f"unknown topology {topology!r}")


def _system_from_stages(topology: str, stage: np.ndarray) -> np.ndarray:
    """Combine stage reliabilities along the last axis per the layout."""
    if topology == SERIES_PARALLEL:
        return np.prod(stage, axis=-1)
    return 1.0 - np.prod(1.0 - stage, axis=-1)


def _metrics_matrix(spec: SystemSpec, r: np.ndarray, n: np.ndarray,
                    weight_variant: str) -> tuple[np.ndarray, ...]:
    """Crisp metrics for a whole batch of candidates, rows independent."""
    if weight_variant not in _WEIGHT_VARIANTS:
        raise ValueError(f"unknown weight variant {weight_variant!r}")
    stage = subsystem_reliability(spec.topology, r, n)
    rel = _system_from_stages(spec.topology, stage)
    terms = _cost_terms_matrix(spec, r, n)
    cost = np.sum(terms, axis=-1)
    growth = np.exp(n / 4.0)
    if weight_variant == WEIGHT_AS_WRITTEN:
        wgt = np.sum(spec.weight * (n + growth), axis=-1)
    else:
        wgt = np.sum(spec.weight * n * growth, axis=-1)
    vol = np.sum(spec.kappa * n ** 2, axis=-1)
    return rel, cost, wgt, vol


def _cost_terms_matrix(spec: SystemSpec, r: np.ndarray, n: np.ndarray) -> np.ndarray:
    return (spec.alpha * (-spec.mission_hours / np.log(r)) ** spec.beta
            * (n + np.exp(n / 4.0)))


def crisp_metrics(spec: SystemSpec, cand: Candidate,
                  weight_variant: str = WEIGHT_DATASET_CONSISTENT) -> MetricSet:
    """All four crisp metrics of a validated candidate."""
    validate_candidate(spec, cand)
    rel, cost, wgt, vol = _metrics_matrix(spec, cand.r, cand.n, weight_variant)
    return MetricSet(float(rel), float(cost), float(wgt), float(vol))


# ---------------------------------------------------------------------------
# fuzzification
# ---------------------------------------------------------------------------

def _fuzzify_arrays(spec: SystemSpec, cand: Candidate, bounds: IdealBounds,
                    rng) -> tuple[np.ndarray, np.ndarray, float]:
    """Vectorised footprint parameters for all sub-systems.

    Returns ``(rel, cost, cost_hi)`` where each parameter block has one row
    per sub-system with columns (umf_left, lmf_left, peak, lmf_right,
    umf_right), and ``cost_hi`` is the upper end of the shared cost grid.

    The draws come as one ``rng.random((m, 8))`` block, one row per
    sub-system: columns 0-3 shape the reliability footprint and 4-7 the cost
    one, each in the order (lmf_left, umf_left, lmf_right, umf_right).  A
    draw of 0 leaves a foot on its anchor; a draw of 1 moves an LMF foot
    onto the peak and a UMF foot onto the end of the support.

    The anchor ends are clamped so the crisp peak always lies between them:
    an end the peak falls outside of is moved onto the peak, giving zero
    spread on that side.  Reliability footprints live on the support
    ``[0, 1]``.  Cost footprints live on ``[0, cost_limit]``, stretched to
    the clamped right end whenever a cost anchor or peak exceeds the limit,
    since the support must cover the whole triangle.
    """
    m = spec.size
    u = rng.random((m, 8))

    p = subsystem_reliability(spec.topology, cand.r, cand.n)
    left = np.minimum(bounds.r_left, p)
    right = np.maximum(bounds.r_right, p)
    rel = np.column_stack([
        left - left * u[:, 1],                 # umf_left, support starts at 0
        left + (p - left) * u[:, 0],           # lmf_left
        p,
        right - (right - p) * u[:, 2],         # lmf_right
        right + (1.0 - right) * u[:, 3],       # umf_right, support ends at 1
    ])

    c = _cost_terms_matrix(spec, cand.r, cand.n)
    cleft = np.minimum(bounds.c_left, c)
    cright = np.maximum(bounds.c_right, c)
    chigh = np.maximum(spec.cost_limit, cright)
    cost = np.column_stack([
        cleft - cleft * u[:, 5],
        cleft + (c - cleft) * u[:, 4],
        c,
        cright - (cright - c) * u[:, 6],
        cright + (chigh - cright) * u[:, 7],
    ])
    cost_hi = float(max(spec.cost_limit, np.max(cost[:, 4])))
    return rel, cost, cost_hi


# ---------------------------------------------------------------------------
# aggregation and the fuzzy objective pipeline
# ---------------------------------------------------------------------------

def _tri_rows(grid: np.ndarray, left: np.ndarray, peak: np.ndarray,
              right: np.ndarray) -> np.ndarray:
    """Triangle memberships on a shared grid, one row per triangle."""
    g = grid[None, :]
    lf = left[:, None]
    pk = peak[:, None]
    rt = right[:, None]
    out = np.zeros((left.size, grid.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        asc = (g - lf) / (pk - lf)
        desc = (rt - g) / (rt - pk)
    np.copyto(out, asc, where=(g > lf) & (g < pk))
    np.copyto(out, desc, where=(g > pk) & (g < rt))
    np.copyto(out, 1.0, where=(g == pk))
    return out


def _nearest_spike(grid: np.ndarray, value: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit point mass at the grid point closest to ``value``."""
    lower = np.zeros(grid.size)
    lower[int(np.argmin(np.abs(grid - value)))] = 1.0
    return lower, lower.copy()


def _extension_bound(grid: np.ndarray, feet_left: np.ndarray, peaks: np.ndarray,
                     feet_right: np.ndarray, topology: str,
                     ladder: np.ndarray) -> np.ndarray:
    """Membership, on ``grid``, of the layout image of stage triangles.

    Each stage triangle (given by its feet and peak) is cut at every ladder
    level; the layout formula maps the cut ends, and the resulting envelope
    is read back as a membership curve over ``grid``.  Both mapped ends are
    monotone in the level, so linear interpolation recovers the curve.
    """
    lo_cut = feet_left[:, None] + (peaks - feet_left)[:, None] * ladder
    hi_cut = feet_right[:, None] - (feet_right - peaks)[:, None] * ladder
    if topology == SERIES_PARALLEL:
        left = np.prod(lo_cut, axis=0)
        right = np.prod(hi_cut, axis=0)
    else:
        left = 1.0 - np.prod(1.0 - lo_cut, axis=0)
        right = 1.0 - np.prod(1.0 - hi_cut, axis=0)
    rising = np.interp(grid, left, ladder, left=0.0, right=1.0)
    falling = np.interp(grid, right[::-1], ladder[::-1], left=1.0, right=0.0)
    mu = np.minimum(rising, falling)
    # normality: the apex images always carry full membership, even when a
    # zero-width side makes one interpolation table a flat plateau
    np.copyto(mu, 1.0, where=(grid == left[-1]) | (grid == right[-1]))
    return mu


def _extended_rel(rel: np.ndarray, topology: str,
                  grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper membership of the system reliability set on ``grid``.

    ``rel`` holds one footprint row per sub-system, as built by
    :func:`_fuzzify_arrays`.  Both bounds come from
    :func:`_extension_bound` with one ladder level per grid point: the UMF
    from the outer feet, the LMF from the inner ones.  A footprint too
    narrow to touch any grid point collapses to a unit spike at the grid
    point nearest the image of the peaks, so zero-spread inputs stay within
    half a grid cell of the crisp value.
    """
    ladder = np.linspace(0.0, 1.0, grid.size)
    upper = _extension_bound(grid, rel[:, 0], rel[:, 2], rel[:, 4],
                             topology, ladder)
    if not np.any(upper > 0.0):
        peak = float(_system_from_stages(topology, rel[:, 2]))
        return _nearest_spike(grid, peak)
    lower = _extension_bound(grid, rel[:, 1], rel[:, 2], rel[:, 3],
                             topology, ladder)
    return np.minimum(lower, upper), upper


def _joined_cost(cost: np.ndarray,
                 grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper membership of the system cost set (union fold).

    Stage footprints too narrow to touch any grid point are first replaced
    by unit spikes at the grid point nearest their peak, so collapsed cost
    footprints keep their mass instead of vanishing.
    """
    lowers = _tri_rows(grid, cost[:, 1], cost[:, 2], cost[:, 3])
    uppers = _tri_rows(grid, cost[:, 0], cost[:, 2], cost[:, 4])
    missed = np.flatnonzero(~np.any(uppers > 0.0, axis=1))
    if missed.size:
        nearest = np.argmin(np.abs(grid[None, :] - cost[missed, 2][:, None]),
                            axis=1)
        uppers[missed, nearest] = 1.0
        lowers[missed, nearest] = 1.0
    return lowers.max(axis=0), uppers.max(axis=0)


def evaluate_objectives(spec: SystemSpec, cand: Candidate, bounds: IdealBounds,
                        rng, grid_size: int = 201) -> tuple[float, float]:
    """Defuzzified (reliability, cost) objective pair of one candidate.

    Runs the full fuzzy pipeline: fuzzify each sub-system, map the
    reliability footprints through the layout formula by cutting them at a
    ladder of membership levels (:func:`_extended_rel`), take the union of
    the cost footprints on a shared grid (:func:`_joined_cost`), then
    type-reduce each aggregate and return the centroid midpoints.

    Footprints too narrow to register on their grid are replaced by unit
    spikes at the nearest grid point, so zero-spread anchors reproduce the
    crisp metrics to within half a grid cell.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    validate_candidate(spec, cand)
    rel, cost, cost_hi = _fuzzify_arrays(spec, cand, bounds, rng)

    rel_grid = np.linspace(0.0, 1.0, grid_size)
    lower, upper = _extended_rel(rel, spec.topology, rel_grid)
    y_r = defuzzify(CentroidInterval(*centroid_arrays(rel_grid, lower, upper)))

    cost_grid = np.linspace(0.0, cost_hi, grid_size)
    lower, upper = _joined_cost(cost, cost_grid)
    y_c = defuzzify(CentroidInterval(*centroid_arrays(cost_grid, lower, upper)))
    return y_r, y_c


def checked_weights(xi) -> tuple[float, float]:
    """The weight pair ``xi`` as floats; finite, non-negative, not both zero."""
    xi1, xi2 = float(xi[0]), float(xi[1])
    if not (math.isfinite(xi1) and math.isfinite(xi2)
            and xi1 >= 0 and xi2 >= 0 and (xi1 > 0 or xi2 > 0)):
        raise ValueError("weights must be finite, non-negative and not both"
                         f" zero, got {xi1:g},{xi2:g}")
    return xi1, xi2


def scalarize(objectives: tuple[float, float], xi: tuple[float, float],
              bounds: IdealBounds, mode: str = FITNESS_NORMALIZED) -> float:
    """Weighted-sum fitness of a defuzzified objective pair; higher is better.

    Reliability is rewarded and cost penalised with weights ``xi``.  In
    ``normalized`` mode the cost is first mapped through the anchor interval
    ``(c_left, c_right)`` so both terms share the unit scale; ``raw`` mode
    combines the plain values.
    """
    if mode not in _FITNESS_MODES:
        raise ValueError(f"unknown fitness mode {mode!r}")
    xi1, xi2 = checked_weights(xi)
    y_r, y_c = objectives
    if mode == FITNESS_RAW:
        return xi1 * y_r - xi2 * y_c
    if xi2 == 0:
        return xi1 * y_r
    span = bounds.c_right - bounds.c_left
    if span <= 0:
        raise ValueError("normalized fitness needs c_left < c_right")
    return xi1 * y_r - xi2 * (y_c - bounds.c_left) / span


# ---------------------------------------------------------------------------
# constraints, penalties, dominance
# ---------------------------------------------------------------------------

def constraint_violation(spec: SystemSpec, metrics: MetricSet) -> float:
    """Total amount by which cost, weight and volume exceed their limits."""
    return (max(0.0, metrics.cost - spec.cost_limit)
            + max(0.0, metrics.weight - spec.weight_limit)
            + max(0.0, metrics.volume - spec.volume_limit))


def is_feasible(spec: SystemSpec, metrics: MetricSet) -> bool:
    """True when cost, weight and volume all respect their limits."""
    return constraint_violation(spec, metrics) == 0.0


def penalized_fitness(violation: float,
                      worst_feasible_so_far: float | None) -> float:
    """Fitness of an infeasible candidate; higher is better.

    The score is the worst feasible fitness seen so far (zero before any
    feasible point is known) minus the candidate's total constraint
    violation, which is positive for an infeasible candidate and so places
    it strictly below every feasible score observed so far.  Feasible
    candidates keep their raw fitness and never come here.
    """
    base = 0.0 if worst_feasible_so_far is None else worst_feasible_so_far
    return base - violation


def dominates(a: MetricSet, b: MetricSet) -> bool:
    """Pareto dominance: ``a`` is at least as reliable and at most as costly
    as ``b`` and strictly better in one of the two."""
    return (a.reliability >= b.reliability and a.cost <= b.cost
            and (a.reliability > b.reliability or a.cost < b.cost))
