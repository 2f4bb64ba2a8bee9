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
the optimizers score against.  Every step takes a batch of candidates, one
per row; :func:`evaluate_objectives` is the batch of one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .typereduce import CentroidInterval, centroid_rows, defuzzify

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
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Footprint parameters of every sub-system of every candidate row.

    ``r`` and ``n`` hold one candidate per row, shaped ``(rows, m)``.
    Returns ``(rel, cost, cost_hi)``: each parameter block is shaped
    ``(rows, m, 5)`` with the columns (umf_left, lmf_left, peak, lmf_right,
    umf_right), and ``cost_hi`` holds each row's upper end of its cost grid.

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
    cost_hi = np.maximum(spec.cost_limit, np.max(cost[..., 4], axis=-1))
    return rel, cost, cost_hi


# ---------------------------------------------------------------------------
# aggregation and the fuzzy objective pipeline
# ---------------------------------------------------------------------------

# Every (rows, m, grid) temporary of the pipeline holds at most this many
# float64s (128 KiB): a whole round in one chunk peaked at 69-77 MB on a
# grid-1601 series-parallel solve, against 36 MB with the cap.
_BLOCK_FLOATS = 16384
# Freeing one 1 MiB block lifts glibc's mmap threshold to 1 MiB and its
# trim threshold to 2 MiB, so the heap top a round frees stays for the next
# round: a seed-0 front took 560 minor faults with it and 51,700 without
# (series-parallel PSO), and 575 against 84,500 (parallel-series GA).
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


def _spikes(upper: np.ndarray, grid: np.ndarray, apex) -> tuple:
    """Index into ``upper`` of one unit spike per empty set: the grid point
    nearest the set's apex, first on ties.  ``upper`` holds one set per
    leading index on a ``grid`` that broadcasts against it; a set is empty
    when its upper bound misses every grid point.  ``apex(sets)`` gives the
    apexes of the sets picked by ``sets`` and runs only if some set is empty.
    """
    sets = np.nonzero(upper.max(axis=-1) <= 0.0)
    nearest = sets[0]
    if nearest.size:
        grids = np.broadcast_to(grid, upper.shape)[sets]
        nearest = np.argmin(np.abs(grids - apex(sets)[:, None]), axis=-1)
    return *sets, nearest


def _extension_bound(grid: np.ndarray, feet_left: np.ndarray, peaks: np.ndarray,
                     feet_right: np.ndarray, topology: str,
                     ladder: np.ndarray) -> np.ndarray:
    """Membership, on ``grid``, of the layout image of each row's stage
    triangles, shaped ``(rows, G)``.

    Each stage triangle (given by its feet and peak, ``(rows, m)`` each) is
    cut at every ladder level; the layout formula maps the cut ends, and the
    resulting envelope is read back as a membership curve over ``grid``.
    Both mapped ends are monotone in the level, so linear interpolation
    recovers the curve.
    """
    # both sides' cut ends at every level share one (rows, m, G) block
    cut = (peaks - feet_left)[..., None] * ladder
    cut += feet_left[..., None]
    left = _system_from_stages(topology, cut, axis=-2)
    np.multiply((feet_right - peaks)[..., None], ladder, out=cut)
    np.subtract(feet_right[..., None], cut, out=cut)
    right = _system_from_stages(topology, cut, axis=-2)
    mu = np.empty_like(left)
    for row in range(len(mu)):
        rising = np.interp(grid, left[row], ladder, left=0.0, right=1.0)
        falling = np.interp(grid, right[row, ::-1], ladder[::-1], left=1.0,
                            right=0.0)
        np.minimum(rising, falling, out=mu[row])
    # normality: the apex images always carry full membership, even when a
    # zero-width side makes one interpolation table a flat plateau
    np.copyto(mu, 1.0, where=(grid == left[:, -1:]) | (grid == right[:, -1:]))
    return mu


def _extended_rel(rel: np.ndarray, topology: str,
                  grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper membership of each row's system reliability set on
    ``grid``, shaped ``(rows, G)``.

    ``rel`` holds one footprint row per sub-system and candidate, shaped
    ``(rows, m, 5)`` as built by :func:`_fuzzify_arrays`, and ``grid`` is
    ``linspace(0, 1, G)``, which also serves as the ladder of membership
    levels.  Both bounds come from :func:`_extension_bound`: the UMF from
    the outer feet, the LMF from the inner ones.  A row whose footprint is
    too narrow to touch any grid point becomes a unit spike (:func:`_spikes`)
    at the image of its peaks, so zero-spread inputs stay within half a grid
    cell of the crisp value.
    """
    upper = _extension_bound(grid, rel[..., 0], rel[..., 2], rel[..., 4],
                             topology, grid)
    lower = _extension_bound(grid, rel[..., 1], rel[..., 2], rel[..., 3],
                             topology, grid)
    np.minimum(lower, upper, out=lower)
    spikes = _spikes(upper, grid, lambda sets: _system_from_stages(
        topology, rel[sets[0], :, 2]))
    upper[spikes] = lower[spikes] = 1.0
    return lower, upper


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
    spikes = _spikes(uppers, grid[:, None], lambda sets: cost[..., 2][sets])
    uppers[spikes] = 1.0
    upper = uppers.max(axis=-2)
    del uppers  # one (rows, m, G) block alive at a time
    lowers = _tri_rows(grid, cost[..., 1], cost[..., 2], cost[..., 3])
    lowers[spikes] = 1.0
    return lowers.max(axis=-2), upper


def _cost_grids(ramp: np.ndarray, hi: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Fill row ``i`` of ``out`` with ``np.linspace(0, hi[i], G)``, bit for
    bit, from the ramp ``arange(G)``: like linspace, take each point as
    ``ramp * (hi / (G - 1))`` and set the last one to ``hi``."""
    np.multiply(ramp, (hi / (len(ramp) - 1))[:, None], out=out)
    out[:, -1] = hi
    return out


def _objective_rows(spec: SystemSpec, r: np.ndarray, n: np.ndarray,
                    bounds: IdealBounds, draws: np.ndarray,
                    grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Defuzzified reliability and cost objectives of each candidate row.

    ``r`` and ``n`` are ``(rows, m)`` in-box candidates and ``draws`` the
    ``(m, 8)`` fuzzification uniforms they all share.  A row's objectives
    depend on that row alone, so any batch gives the values each of its
    rows gives on its own.  The rows go through in chunks that keep every
    ``(rows, m, grid_size)`` temporary within ``_BLOCK_FLOATS``.
    """
    rel, cost, cost_hi = _fuzzify_arrays(spec, r, n, bounds, draws)
    step = max(1, _BLOCK_FLOATS // (spec.size * grid_size))
    # grids[0] holds the reliability grid on every row and grids[1] each
    # row's cost grid, so one call type-reduces both sets of a chunk
    rel_grid = np.linspace(0.0, 1.0, grid_size)
    ramp = np.arange(grid_size, dtype=float)
    grids = np.empty((2, min(step, len(r)), grid_size))
    grids[0] = rel_grid
    objectives = np.empty((2, len(r)))
    for start in range(0, len(r), step):
        rows = slice(start, start + step)
        hi = cost_hi[rows]
        chunk = grids[:, :len(hi)]
        _cost_grids(ramp, hi, out=chunk[1])
        rel_lower, rel_upper = _extended_rel(rel[rows], spec.topology,
                                             rel_grid)
        cost_lower, cost_upper = _joined_cost(cost[rows], chunk[1])
        objectives[:, rows] = defuzzify(CentroidInterval(*centroid_rows(
            chunk, np.stack([rel_lower, cost_lower]),
            np.stack([rel_upper, cost_upper]))))
    return objectives[0], objectives[1]


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
    fuzzify each sub-system, map the reliability footprints through the
    layout formula by cutting them at a ladder of membership levels
    (:func:`_extended_rel`), take the union of the cost footprints on a
    shared grid (:func:`_joined_cost`), then type-reduce each aggregate and
    return the centroid midpoints.  This is the one-row case of the batch
    pipeline the solvers score whole populations with.

    Footprints too narrow to register on their grid are replaced by unit
    spikes at the nearest grid point, so zero-spread anchors reproduce the
    crisp metrics to within half a grid cell.
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
