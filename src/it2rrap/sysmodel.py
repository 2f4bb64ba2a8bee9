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
layout formula by cutting them at a ladder of membership levels and reduces
the image from its cut ends, takes the union of the cost footprints on a
grid and reduces it there, and takes the centroid midpoints, yielding the
defuzzified objective pair the optimizers score against.  Every step takes
a batch of candidates, one per row; :func:`evaluate_objectives` is the
batch of one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .typereduce import (CentroidInterval, centroid_cuts, centroid_rows,
                         defuzzify)

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
    "checked_grid_size",
    "checked_weights",
    "scalarize",
    "constraint_violation",
    "is_feasible",
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
        # NaN, inf and counts past the integer dtype would not survive a cast
        info = np.iinfo(int)
        if not np.all((n >= info.min) & (n < info.max + 1)):
            raise ValueError("redundancy counts must be finite and fit "
                             f"{np.dtype(int)}")
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
    _validate_rows(spec, cand.r, cand.n)


def _validate_rows(spec: SystemSpec, r: np.ndarray, n: np.ndarray) -> None:
    """Raise ``ValueError`` unless every candidate row of ``(r, n)``, each
    shaped ``(..., m)``, is a point of the search box."""
    if r.shape[-1] != spec.size:
        raise ValueError(f"candidate has {r.shape[-1]} sub-systems, "
                         f"spec has {spec.size}")
    if not np.all((r >= spec.r_min) & (r <= spec.r_max)):
        raise ValueError(f"reliabilities must lie in "
                         f"[{spec.r_min}, {spec.r_max}]")
    if np.any(n < spec.n_min) or np.any(n > spec.n_max):
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


def _system_from_stages(topology: str, stage: np.ndarray,
                        axis: int = -1) -> np.ndarray:
    """Combine stage reliabilities along ``axis`` per the layout."""
    if topology == SERIES_PARALLEL:
        return np.prod(stage, axis=axis)
    return 1.0 - np.prod(1.0 - stage, axis=axis)


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

def _footprints(peak: np.ndarray, left, right, end,
                u: np.ndarray) -> np.ndarray:
    """The five footprint columns of stage triangles on ``[0, end]`` from
    their anchors and ``(m, 4)`` draws, as :func:`_fuzzify_arrays` lays out."""
    left = np.minimum(left, peak)
    right = np.maximum(right, peak)
    end = np.maximum(end, right)
    return np.stack([
        left - left * u[:, 1],
        left + (peak - left) * u[:, 0],
        peak,
        right - (right - peak) * u[:, 2],
        right + (end - right) * u[:, 3],
    ], axis=-1)


def _fuzzify_arrays(spec: SystemSpec, r: np.ndarray, n: np.ndarray,
                    bounds: IdealBounds, draws: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Footprint parameters of every sub-system of every candidate row.

    ``r`` and ``n`` hold one candidate per row, shaped ``(rows, m)``.
    Returns ``(rel, cost)``, each shaped ``(rows, m, 5)`` with the columns
    (umf_left, lmf_left, peak, lmf_right, umf_right).

    ``draws`` is one ``(m, 8)`` block of uniforms that every row shares, one
    row per sub-system: columns 0-3 shape the reliability footprint and 4-7
    the cost one, each in the order (lmf_left, umf_left, lmf_right,
    umf_right).  A draw of 0 leaves a foot on its anchor; a draw of 1 moves
    an LMF foot onto the peak and a UMF foot onto the end of the support.

    The anchor ends are clamped so the crisp peak always lies between them:
    an end the peak falls outside of is moved onto the peak, giving zero
    spread on that side.  Reliability footprints live on the support
    ``[0, 1]``.  Cost footprints live on ``[0, cost_limit]``, stretched to
    the clamped right end whenever a cost anchor or peak exceeds the limit,
    since the support must cover the whole triangle.
    """
    rel = _footprints(subsystem_reliability(spec.topology, r, n),
                      bounds.r_left, bounds.r_right, 1.0, draws[:, :4])
    cost = _footprints(_cost_terms_matrix(spec, r, n), bounds.c_left,
                       bounds.c_right, spec.cost_limit, draws[:, 4:])
    return rel, cost


# ---------------------------------------------------------------------------
# aggregation and the fuzzy objective pipeline
# ---------------------------------------------------------------------------

# Each (rows, m, cost grid) temporary of the pipeline holds at most this
# many float64s (128 KiB), the only temporaries that grow with the grid: a
# whole round in one chunk peaked at 69-77 MB on a grid-1601
# series-parallel solve, against 36 MB with the cap.
_BLOCK_FLOATS = 16384

# Freeing one 1 MiB block lifts glibc's mmap threshold to 1 MiB and its
# trim threshold to 2 MiB, so a round's blocks, the reliability ones of up
# to 508 KiB included, come from the heap and its freed top stays for the
# next round: a seed-0 front took 560 minor faults with it and 51,700
# without (series-parallel PSO), and 575 against 84,500 (parallel-series GA).
np.empty(1 << 20, dtype=np.uint8)


def _tri_rows(grid: np.ndarray, left: np.ndarray, peak: np.ndarray,
              right: np.ndarray) -> np.ndarray:
    """Triangle memberships on grids, shaped ``(..., k, G)``.

    ``left``/``peak``/``right`` hold ``k`` triangles per row, shaped
    ``(..., k)``, and ``grid`` holds each row's grid, shaped ``(..., G)``;
    a one-dimensional grid is shared by all rows.  A foot on the wrong side
    of its peak counts as a zero-width side, which holds only the apex.
    """
    g = grid[..., None, :]
    # a foot past its peak (one ulp, say) would otherwise give a steep
    # negative-width side instead of none
    lf = np.minimum(left, peak)[..., None]
    pk = peak[..., None]
    rt = np.maximum(right, peak)[..., None]
    # in place, so two (..., k, G) blocks are alive at once, not five;
    # a side narrower than a few ulps may overflow to inf, which the clip
    # below maps to 0 or the other side's value like any steep side
    out = g - lf
    desc = rt - g
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out /= pk - lf
        desc /= rt - pk
    # fmin skips the 0/0 at the apex of a zero-width side; both sides of a
    # zero-width triangle give 0/0 there, the one NaN that can survive
    np.fmin(out, desc, out=out)
    np.maximum(out, 0.0, out=out)
    np.copyto(out, 1.0, where=np.isnan(out))
    return out


def _spikes(upper: np.ndarray, grid: np.ndarray, apex: np.ndarray) -> tuple:
    """Index into ``upper`` of one unit spike per empty stage cost set: the
    point of its row's ``grid`` nearest its apex, first on ties.  ``upper``
    and ``apex`` hold the sets, ``(rows, m, G)`` and ``(rows, m)``, and a set
    is empty when its upper bound misses every point of its grid."""
    sets = np.nonzero(upper.max(axis=-1) <= 0.0)
    nearest = np.argmin(np.abs(grid[sets[0]] - apex[sets][:, None]), axis=-1)
    return *sets, nearest


# The levels each reliability footprint is cut at.  Each doubling of the
# ladder cuts the error of y_r fourfold; at 65 levels it was at most 4.8e-5
# (series-parallel) and 1.8e-4 (parallel-series) from the value at 16,385
# levels on 300 random in-box candidates per dataset.
_LEVELS = np.linspace(0.0, 1.0, 65)


def _extended_rel(rel: np.ndarray, topology: str) -> np.ndarray:
    """Cut ends of each row's system reliability set at every level of
    ``_LEVELS``, shaped ``(2, 2, rows, K)``: the (left, right) ends of the
    lower membership, from the inner feet of ``rel`` (``(rows, m, 5)`` as
    :func:`_fuzzify_arrays` builds it), then of the upper one.  Each stage
    end is the peak moved towards its foot by the level's depth, and the
    layout formula, increasing in every stage, maps the ends.  Every step
    rounds monotonically, so the cuts are nested, the lower inside the
    upper, and all hold the crisp system reliability, bit for bit.
    """
    peaks = rel[..., 2, None]
    ends = []
    for foot in (1, 3, 0, 4):  # one (rows, m, K) block per foot
        cut = (rel[..., foot, None] - peaks) * (1.0 - _LEVELS)
        cut += peaks
        ends.append(_system_from_stages(topology, cut, axis=1))
    return np.stack(ends).reshape(2, 2, len(rel), _LEVELS.size)


def _joined_cost(cost: np.ndarray,
                 grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper membership of each row's system cost set (union
    fold), shaped ``(rows, G)``.

    ``cost`` holds the stage footprints, ``(rows, m, 5)``, and ``grid`` each
    row's cost grid, ``(rows, G)``.  Stage footprints too narrow to touch
    any grid point are first replaced by unit spikes (:func:`_spikes`) at
    their peak, so collapsed cost footprints keep their mass instead of
    vanishing.
    """
    uppers = _tri_rows(grid, cost[..., 0], cost[..., 2], cost[..., 4])
    spikes = _spikes(uppers, grid, cost[..., 2])
    uppers[spikes] = 1.0
    upper = uppers.max(axis=-2)
    del uppers  # one (rows, m, G) block alive at a time
    lowers = _tri_rows(grid, cost[..., 1], cost[..., 2], cost[..., 3])
    lowers[spikes] = 1.0
    return lowers.max(axis=-2), upper


def _objective_rows(spec: SystemSpec, r: np.ndarray, n: np.ndarray,
                    bounds: IdealBounds, draws: np.ndarray,
                    grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Defuzzified reliability and cost objectives of each candidate row.

    ``r`` and ``n`` are ``(rows, m)`` in-box candidates and ``draws`` the
    ``(m, 8)`` fuzzification uniforms they all share; only the cost is read
    on a grid, of ``grid_size`` points.  A row's objectives depend on that
    row alone, so any batch gives the values each of its rows gives on its
    own.  Reliability takes one pass; the cost goes in chunks of rows that
    keep each ``(rows, m, grid_size)`` temporary within ``_BLOCK_FLOATS``.
    """
    rel, cost = _fuzzify_arrays(spec, r, n, bounds, draws)
    y_r = defuzzify(CentroidInterval(
        *centroid_cuts(*_extended_rel(rel, spec.topology))))
    # the grid ends cover every cost foot, whatever the draws
    hi = np.maximum(max(spec.cost_limit, bounds.c_right),
                    cost[..., 2].max(axis=-1))
    ends = np.empty((2, len(r)))
    step = max(1, _BLOCK_FLOATS // (spec.size * grid_size))
    for start in range(0, len(r), step):
        rows = slice(start, start + step)
        # np.linspace(0, hi, grid_size) bit for bit, without its overhead
        grid = np.arange(grid_size) * (hi[rows, None] / (grid_size - 1))
        grid[:, -1] = hi[rows]
        ends[:, rows] = centroid_rows(grid, *_joined_cost(cost[rows], grid))
    return y_r, defuzzify(CentroidInterval(*ends))


def _checked_int(name: str, value, least: int) -> int:
    """``value`` as an int; it must be an integer of at least ``least``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or number < least:
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")
    return number


def checked_grid_size(grid_size) -> int:
    """``grid_size`` as an int; it must be an integer of at least 2."""
    return _checked_int("grid_size", grid_size, 2)


def evaluate_objectives(spec: SystemSpec, cand: Candidate, bounds: IdealBounds,
                        rng, grid_size: int = 201) -> tuple[float, float]:
    """Defuzzified (reliability, cost) objective pair of one candidate.

    Runs the full fuzzy pipeline: draw one ``rng.random((m, 8))`` block,
    fuzzify each sub-system, cut the reliability footprints at a ladder of
    membership levels and map the cut ends through the layout formula
    (:func:`_extended_rel`), take the union of the cost footprints on a
    grid of ``grid_size`` points (:func:`_joined_cost`), then type-reduce
    each aggregate and return the centroid midpoints.  This is the one-row
    case of the batch pipeline the solvers score whole populations with.

    Zero-spread anchors give the crisp system reliability exactly.  Cost
    footprints too narrow to register on their grid become unit spikes at
    the nearest grid point, so their cost stays within half a grid cell.
    """
    grid_size = checked_grid_size(grid_size)
    validate_candidate(spec, cand)
    y_r, y_c = _objective_rows(spec, cand.r[None], cand.n[None], bounds,
                               rng.random((spec.size, 8)), grid_size)
    return float(y_r[0]), float(y_c[0])


def checked_weights(xi) -> tuple[float, float]:
    """The weight pair ``xi`` as floats: exactly two, finite, non-negative
    and not both zero."""
    if len(xi) != 2:
        raise ValueError(f"weights must be exactly two numbers, got {len(xi)}")
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
    combines the plain values.  The pair may also be two arrays, one entry
    per candidate.
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
# constraints, dominance
# ---------------------------------------------------------------------------

def constraint_violation(spec: SystemSpec, metrics: MetricSet) -> float:
    """Total amount by which cost, weight and volume exceed their limits."""
    return float(_violation_rows(spec, metrics.cost, metrics.weight,
                                 metrics.volume))


def _violation_rows(spec: SystemSpec, cost, weight, volume) -> np.ndarray:
    """:func:`constraint_violation` of each row's crisp cost, weight and
    volume."""
    return (np.maximum(0.0, cost - spec.cost_limit)
            + np.maximum(0.0, weight - spec.weight_limit)
            + np.maximum(0.0, volume - spec.volume_limit))


def is_feasible(spec: SystemSpec, metrics: MetricSet) -> bool:
    """True when cost, weight and volume all respect their limits."""
    return constraint_violation(spec, metrics) == 0.0


def dominates(a: MetricSet, b: MetricSet) -> bool:
    """Pareto dominance: ``a`` is at least as reliable and at most as costly
    as ``b`` and strictly better in one of the two."""
    return (a.reliability >= b.reliability and a.cost <= b.cost
            and (a.reliability > b.reliability or a.cost < b.cost))
