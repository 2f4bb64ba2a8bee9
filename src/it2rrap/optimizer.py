"""Swarm and genetic maximizers for mixed real/integer allocation search.

Both searchers work on a continuous box: one coordinate per unit
reliability followed by one per redundancy count.  Count coordinates are
decoded by rounding halves up, so the box ``[n_min, n_max]`` maps onto the
integer grid without bias at either edge.

Both score a whole round at once: the score function takes the round's
``(P, D)`` position matrix and returns ``P`` scores, and the searchers then
do their member, swarm and elite bookkeeping in row order.  The allocation
scorer runs the crisp metrics of the whole round as one matrix and only
the feasible rows through the fuzzy pipeline.  An infeasible candidate
scores a fixed floor, which no feasible fitness falls below, minus its
constraint violation, so each score depends on its row alone.  That lets a
repeated candidate reuse its score: a feasible row whose decoded ``(r, n)``
appears earlier in the same round or among the previous round's feasible
rows takes the score already computed, which spares the GA the pipeline
on 57% (parallel-series) and 60% (series-parallel) of its feasible rows
over seeds 0 and 1, mostly copied tournament winners.
``evaluations`` still counts every scored row, repeats included.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .sysmodel import (
    FITNESS_NORMALIZED,
    WEIGHT_DATASET_CONSISTENT,
    Candidate,
    IdealBounds,
    MetricSet,
    SystemSpec,
    _checked_int,
    _metrics_matrix,
    _objective_rows,
    _validate_rows,
    _violation_rows,
    checked_grid_size,
    checked_weights,
    scalarize,
)

__all__ = [
    "GaConfig",
    "RunResult",
    "SwarmConfig",
    "constriction",
    "evolve_maximize",
    "genetic_solve",
    "swarm_maximize",
    "swarm_solve",
]

# spawn-key tag separating fuzzification draws from the move stream
_EVAL_STREAM = 1


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwarmConfig:
    """Settings for the constriction-factor swarm."""

    population: int = 100
    iterations: int = 100
    cognitive: float = 1.5
    social: float = 1.5
    constriction_k: Optional[float] = None
    velocity_clamp: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        _checked_int("population", self.population, 2)
        _checked_int("iterations", self.iterations, 1)
        _checked_int("seed", self.seed, 0)
        if not (0.0 < self.cognitive < math.inf
                and 0.0 < self.social < math.inf):
            raise ValueError("pull coefficients must be positive and finite")
        if self.constriction_k is not None and not (
                0.0 <= self.constriction_k <= 1.0):
            raise ValueError("constriction_k must lie in [0, 1]")
        if not 0.0 < self.velocity_clamp < math.inf:
            raise ValueError("velocity_clamp must be positive and finite")


@dataclass(frozen=True)
class GaConfig:
    """Settings for the tournament genetic searcher."""

    population: int = 100
    generations: int = 100
    crossover_rate: float = 0.6
    mutation_rate: float = 0.4
    tournament: int = 2
    elitism: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        _checked_int("population", self.population, 2)
        _checked_int("generations", self.generations, 1)
        _checked_int("seed", self.seed, 0)
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        _checked_int("tournament", self.tournament, 1)
        if _checked_int("elitism", self.elitism, 0) >= self.population:
            raise ValueError("elitism must be smaller than the population")


# ---------------------------------------------------------------------------
# generic maximizers
# ---------------------------------------------------------------------------

def constriction(k: float, cognitive: float, social: float, u_own, u_other):
    """Velocity scale for one move given the two pull draws.

    The combined pull ``phi = cognitive*u_own + social*u_other`` selects the
    branch: at or above the oscillation threshold ``phi = 4`` the damped
    form ``2k / |2 - phi - sqrt(phi (phi - 4))|`` applies; below it the
    radicand goes negative and the magnitude of the complex denominator is
    exactly 2, so the scale is the raw ``k``.  Accepts scalar or array
    draws and returns an array of their shape, always in ``[0, k]``.
    """
    phi = cognitive * np.asarray(u_own, dtype=float) \
        + social * np.asarray(u_other, dtype=float)
    # below the threshold the square root is NaN, and np.where drops it
    with np.errstate(invalid="ignore"):
        return np.where(phi >= 4.0, 2.0 * k / np.abs(
            2.0 - phi - np.sqrt(phi * (phi - 4.0))), k)


def _check_box(lower, upper) -> Tuple[np.ndarray, np.ndarray]:
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1 or lower.size == 0:
        raise ValueError("bounds must be equal-length one-dimensional arrays")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError(f"bounds must be finite: {lower} to {upper}")
    if np.any(lower > upper):
        raise ValueError("lower bounds must not exceed upper bounds")
    return lower, upper


def _round_scores(score_fn: Callable[[np.ndarray], np.ndarray],
                  positions: np.ndarray) -> np.ndarray:
    """``score_fn`` applied to one round's ``(P, D)`` positions: ``P``
    scores, none of them NaN, which no comparison would rank."""
    scores = np.array(score_fn(positions), dtype=float)
    if scores.shape != (len(positions),):
        raise ValueError(f"score_fn returned shape {scores.shape} for "
                         f"{len(positions)} positions, not one score each")
    if np.any(np.isnan(scores)):
        raise ValueError("score_fn returned a NaN score")
    return scores


def swarm_maximize(score_fn: Callable[[np.ndarray], np.ndarray],
                   lower, upper, config: SwarmConfig):
    """Maximize ``score_fn`` over a box with a constriction-factor swarm.

    ``score_fn`` takes the ``(population, D)`` matrix of member positions
    and returns one score per row.  Each round scores every member in one
    call, then updates the member and swarm bests in row order (strict
    improvement only, ties keep the incumbent, so the first of equal
    scores wins) and moves the swarm: both pulls share one uniform pair per
    member, their sum sets the constriction scale, and velocities are
    clamped to a fraction of the box before positions are clipped back
    inside it.  Positions and velocities start uniform in the box and the
    clamp window respectively.

    Returns ``(best_position, best_score, trace, k_used)`` where
    ``trace[t]`` is the swarm best after round ``t``.
    """
    lower, upper = _check_box(lower, upper)
    rng = np.random.default_rng(config.seed)
    k = config.constriction_k
    if k is None:
        k = float(rng.uniform(0.0, 1.0))
    pos = rng.uniform(lower, upper, (config.population, lower.size))
    vmax = config.velocity_clamp * (upper - lower)
    vel = rng.uniform(-vmax, vmax, pos.shape)
    member_best = pos.copy()
    member_score = np.full(config.population, -np.inf)
    best_pos = pos[0].copy()
    best_score = -np.inf
    trace = np.empty(config.iterations)
    for iteration in range(config.iterations):
        scores = _round_scores(score_fn, pos)
        improved = scores > member_score
        member_score[improved] = scores[improved]
        member_best[improved] = pos[improved]
        top = int(np.argmax(scores))
        if scores[top] > best_score:
            best_score = float(scores[top])
            best_pos = pos[top].copy()
        trace[iteration] = best_score
        u = rng.random((config.population, 2))
        chi = constriction(k, config.cognitive, config.social, u[:, 0], u[:, 1])
        pull = config.cognitive * u[:, 0, None] * (member_best - pos) \
            + config.social * u[:, 1, None] * (best_pos[None, :] - pos)
        vel = chi[:, None] * (vel + pull)
        vel = np.clip(vel, -vmax, vmax)
        pos = np.clip(pos + vel, lower, upper)
    return best_pos, float(best_score), trace, k


def evolve_maximize(score_fn: Callable[[np.ndarray], np.ndarray],
                    lower, upper, config: GaConfig):
    """Maximize ``score_fn`` over a box with a tournament genetic search.

    ``score_fn`` takes a ``(rows, D)`` matrix of positions and returns one
    score per row.  Round 0 is the initial population, scored in one call.
    Each later round keeps the top ``elitism`` members with their scores
    (never re-evaluated) and fills the rest with offspring, scored together
    in one call.  The ``population - elitism`` kids come from half as many
    pairs, rounded up, and six whole-round draws, in order: ``(pairs, 2,
    tournament)`` member indices, each parent the best of its picks (the
    first on ties); per pair a crossover test and a cut in ``1..D-1``, from
    which a crossing pair swaps coordinates (a one-dimensional box keeps
    the parents); a mutation test per kid; and per mutated kid one
    coordinate and its new value, uniform in the box.  Kids keep pair
    order, first kid first; an odd count drops the last second kid.

    Returns ``(best_position, best_score, trace)`` where ``trace[g]`` is
    the best score seen through round ``g`` (never decreasing, one entry
    per round including round 0).
    """
    lower, upper = _check_box(lower, upper)
    rng = np.random.default_rng(config.seed)
    dims = lower.size
    pop = rng.uniform(lower, upper, (config.population, dims))
    scores = _round_scores(score_fn, pop)
    best = int(np.argmax(scores))
    best_pos = pop[best].copy()
    best_score = float(scores[best])
    trace = np.empty(config.generations)
    trace[0] = best_score
    need = config.population - config.elitism
    pairs = -(-need // 2)
    for gen in range(1, config.generations):
        keep = np.argsort(-scores, kind="stable")[:config.elitism]
        picks = rng.integers(0, config.population,
                             (pairs, 2, config.tournament))
        wins = np.argmax(scores[picks], axis=-1)[..., None]
        parents = pop[np.take_along_axis(picks, wins, -1)[..., 0]]
        cross = rng.random(pairs) < config.crossover_rate
        cut = rng.integers(1, max(dims, 2), pairs)
        swap = cross[:, None] & (np.arange(dims) >= cut[:, None])
        kids = np.where(swap[:, None], parents[:, ::-1], parents)
        kids = kids.reshape(-1, dims)[:need]
        hit = np.flatnonzero(rng.random(need) < config.mutation_rate)
        gene = rng.integers(0, dims, hit.size)
        kids[hit, gene] = rng.uniform(lower[gene], upper[gene])
        # the elites (no rows at zero elitism) keep their scores
        scores = np.concatenate([scores[keep], _round_scores(score_fn, kids)])
        pop = np.vstack([pop[keep], kids])
        gen_best = int(np.argmax(scores))
        if float(scores[gen_best]) > best_score:
            best_score = float(scores[gen_best])
            best_pos = pop[gen_best].copy()
        trace[gen] = best_score
    return best_pos, best_score, trace


# ---------------------------------------------------------------------------
# allocation-problem scoring
# ---------------------------------------------------------------------------

class _CandidateScorer:
    """Fitness of encoded allocations under Deb's feasibility rules, a round
    at a time.

    Feasibility is checked on cheap crisp metrics first; only feasible
    candidates run the fuzzy pipeline.  An infeasible candidate scores
    ``floor - violation``.  The floor is the fitness of ``y_r = 0`` and
    ``y_c = max(cost_limit, c_right)``, a lower bound on every feasible
    fitness: no stage of a feasible candidate costs more than the limit, so
    its cost grid ends exactly at that bound, and its ``y_c`` within it.
    Feasible candidates thus outrank infeasible ones, which rank by
    violation alone.  The fuzzification uniforms are drawn once per run
    (from a stream separate from the mover's) and shared by every
    evaluation, so each score is a fixed function of its row and best
    scores cached by the searchers stay comparable across rounds.

    A feasible row runs the fuzzy pipeline only if its decoded ``(r, n)``
    is new: one that appears earlier in the same round, or among the
    feasible rows of the previous call, reuses that score.  The scorer
    keeps the previous call's scores only, so it holds at most one round.
    ``evaluations`` counts every scored row, repeats included.
    """

    def __init__(self, spec: SystemSpec, bounds: IdealBounds,
                 xi: Tuple[float, float], seed: int, weight_variant: str,
                 fitness_mode: str, grid_size: int):
        self.spec = spec
        self.bounds = bounds
        self.xi = checked_weights(xi)
        self.seed = seed
        self.weight_variant = weight_variant
        self.fitness_mode = fitness_mode
        self.grid_size = checked_grid_size(grid_size)
        self.floor = scalarize((0.0, max(spec.cost_limit, bounds.c_right)),
                               self.xi, bounds, fitness_mode)
        self.evaluations = 0
        stream = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(_EVAL_STREAM,)))
        self._draws = stream.random((spec.size, 8))
        # score of each feasible row of the last call, keyed by its bytes
        self._previous = {}

    def decode(self, x: np.ndarray):
        """Reliabilities, redundancy counts, crisp metrics and constraint
        violations of the rows of ``x``, a ``(P, 2m)`` matrix of positions."""
        m = self.spec.size
        r = np.array(x[:, :m], dtype=float)
        n = np.floor(x[:, m:] + 0.5).astype(int)
        _validate_rows(self.spec, r, n)
        metrics = _metrics_matrix(self.spec, r, n, self.weight_variant)
        return r, n, metrics, _violation_rows(self.spec, *metrics[1:])

    def objectives(self, r: np.ndarray, n: np.ndarray):
        """Defuzzified ``(y_r, y_c)`` arrays of feasible rows."""
        return _objective_rows(self.spec, r, n, self.bounds, self._draws,
                               self.grid_size)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Scores of the rows of ``x``, a ``(P, 2m)`` matrix of positions."""
        r, n, _, violation = self.decode(x)
        self.evaluations += len(x)
        scores = self.floor - violation
        feasible = np.flatnonzero(violation == 0.0)
        r, n = r[feasible], n[feasible]
        # each decoded row as one bytes key: its r bytes, then its n bytes
        block = np.hstack((r.view(np.int64), n))
        keys = block.view(np.dtype((np.void, block.itemsize * block.shape[1])))
        keys = keys.ravel().tolist()
        known = self._previous
        first = {}  # the first row of each key the last call did not score
        for i, key in enumerate(keys):
            if key not in known:
                first.setdefault(key, i)
        if first:
            rows = np.fromiter(first.values(), dtype=np.intp, count=len(first))
            fresh = scalarize(self.objectives(r[rows], n[rows]), self.xi,
                              self.bounds, self.fitness_mode)
            known.update(zip(first, fresh.tolist()))
        values = [known[key] for key in keys]
        scores[feasible] = values
        self._previous = dict(zip(keys, values))
        return scores


@dataclass(frozen=True)
class RunResult:
    """Outcome of one seeded search run.

    ``best_candidate`` is the searcher's best: the best feasible allocation
    found, or, when a run never evaluates a feasible candidate, the least
    violating one, flagged by ``feasible``.  ``best_objectives`` holds the
    type-reduced (reliability, cost) pair and is None for that fallback,
    whose ``best_fitness`` is ``floor - violation`` (see
    ``_CandidateScorer``).  ``trace`` is the searcher's best score after
    each round, so ``trace[-1] == best_fitness``.
    """

    algorithm: str
    seed: int
    xi: Tuple[float, float]
    weight_variant: str
    fitness_mode: str
    grid_size: int
    k_used: Optional[float]
    evaluations: int
    feasible: bool
    best_candidate: Candidate
    best_metrics: MetricSet
    best_objectives: Optional[Tuple[float, float]]
    best_fitness: float
    trace: np.ndarray


def _search_box(spec: SystemSpec) -> Tuple[np.ndarray, np.ndarray]:
    m = spec.size
    lower = np.concatenate([np.full(m, spec.r_min), np.full(m, spec.n_min)])
    upper = np.concatenate([np.full(m, spec.r_max), np.full(m, spec.n_max)])
    return lower, upper


def _finish(algorithm: str, scorer: _CandidateScorer,
            k_used: Optional[float], best_pos: np.ndarray, best_score: float,
            trace: np.ndarray) -> RunResult:
    """The run's result, read from the searcher's best position."""
    r, n, metrics, violation = scorer.decode(best_pos[None])
    feasible = bool(violation[0] == 0.0)
    objectives = None
    if feasible:
        objectives = tuple(float(y[0]) for y in scorer.objectives(r, n))
    return RunResult(
        algorithm=algorithm,
        seed=scorer.seed,
        xi=scorer.xi,
        weight_variant=scorer.weight_variant,
        fitness_mode=scorer.fitness_mode,
        grid_size=scorer.grid_size,
        k_used=k_used,
        evaluations=scorer.evaluations,
        feasible=feasible,
        best_candidate=Candidate(r[0], n[0]),
        best_metrics=MetricSet(*(float(values[0]) for values in metrics)),
        best_objectives=objectives,
        best_fitness=float(best_score),
        trace=trace,
    )


def swarm_solve(spec: SystemSpec, bounds: IdealBounds,
                xi: Tuple[float, float],
                config: SwarmConfig = SwarmConfig(), *,
                weight_variant: str = WEIGHT_DATASET_CONSISTENT,
                fitness_mode: str = FITNESS_NORMALIZED,
                grid_size: int = 201) -> RunResult:
    """Run the swarm searcher on one allocation problem."""
    scorer = _CandidateScorer(spec, bounds, xi, config.seed, weight_variant,
                              fitness_mode, grid_size)
    lower, upper = _search_box(spec)
    best_pos, best_score, trace, k = swarm_maximize(scorer, lower, upper,
                                                    config)
    return _finish("swarm", scorer, k, best_pos, best_score, trace)


def genetic_solve(spec: SystemSpec, bounds: IdealBounds,
                  xi: Tuple[float, float],
                  config: GaConfig = GaConfig(), *,
                  weight_variant: str = WEIGHT_DATASET_CONSISTENT,
                  fitness_mode: str = FITNESS_NORMALIZED,
                  grid_size: int = 201) -> RunResult:
    """Run the genetic searcher on one allocation problem."""
    scorer = _CandidateScorer(spec, bounds, xi, config.seed, weight_variant,
                              fitness_mode, grid_size)
    lower, upper = _search_box(spec)
    best_pos, best_score, trace = evolve_maximize(scorer, lower, upper,
                                                  config)
    return _finish("genetic", scorer, None, best_pos, best_score, trace)
