"""Swarm and genetic maximizers for mixed real/integer allocation search.

Both searchers work on a continuous box: one coordinate per unit
reliability followed by one per redundancy count.  Count coordinates are
decoded by rounding halves up, so the box ``[n_min, n_max]`` maps onto the
integer grid without bias at either edge.

Both score a whole round at once: the score function takes the round's
``(P, D)`` position matrix and returns ``P`` scores, and the searchers then
do their member, swarm and elite bookkeeping in row order.  The allocation
scorer runs the crisp metrics of the whole round as one matrix and only
the feasible rows through the fuzzy pipeline.  Infeasible candidates score
below every feasible fitness observed before them, in row order, by their
constraint violation, so a round scored at once gives exactly the scores
that scoring its rows one at a time would.
"""

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
    _metrics_matrix,
    _objective_rows,
    _validate_rows,
    _violation_rows,
    checked_grid_size,
    checked_weights,
    penalized_fitness,
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
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.cognitive <= 0.0 or self.social <= 0.0:
            raise ValueError("pull coefficients must be positive")
        if self.constriction_k is not None and not (
                0.0 <= self.constriction_k <= 1.0):
            raise ValueError("constriction_k must lie in [0, 1]")
        if self.velocity_clamp <= 0.0:
            raise ValueError("velocity_clamp must be positive")


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
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.tournament < 1:
            raise ValueError("tournament must be at least 1")
        if not 0 <= self.elitism < self.population:
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
    draws; the output is always in ``[0, k]``.
    """
    phi = cognitive * np.asarray(u_own, dtype=float) \
        + social * np.asarray(u_other, dtype=float)
    arr = np.atleast_1d(phi)
    out = np.full(arr.shape, float(k))
    hot = arr >= 4.0
    if np.any(hot):
        p = arr[hot]
        out[hot] = 2.0 * k / np.abs(2.0 - p - np.sqrt(p * (p - 4.0)))
    if phi.ndim == 0:
        return float(out[0])
    return out


def _check_box(lower, upper) -> Tuple[np.ndarray, np.ndarray]:
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1 or lower.size == 0:
        raise ValueError("bounds must be equal-length one-dimensional arrays")
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


def _tournament(rng, scores: np.ndarray, size: int) -> int:
    """Index of the best of ``size`` uniformly drawn members, first on ties."""
    picks = rng.integers(0, scores.size, size)
    best = int(picks[0])
    for i in picks[1:]:
        if scores[int(i)] > scores[best]:
            best = int(i)
    return best


def evolve_maximize(score_fn: Callable[[np.ndarray], np.ndarray],
                    lower, upper, config: GaConfig):
    """Maximize ``score_fn`` over a box with a tournament genetic search.

    ``score_fn`` takes a ``(rows, D)`` matrix of positions and returns one
    score per row.  Round 0 is the initial population, scored in one call.
    Each later round keeps the top ``elitism`` members with their scores
    (never re-evaluated) and fills the rest with offspring, scored together
    in one call: two tournament winners, one-point crossover at rate
    ``crossover_rate``, then at rate ``mutation_rate`` one coordinate
    redrawn uniformly inside the box.

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
    for gen in range(1, config.generations):
        order = np.argsort(-scores, kind="stable")
        keep = order[:config.elitism]
        elites = pop[keep].copy()
        elite_scores = scores[keep].copy()
        need = config.population - config.elitism
        children = []
        while len(children) < need:
            first = pop[_tournament(rng, scores, config.tournament)].copy()
            second = pop[_tournament(rng, scores, config.tournament)].copy()
            if rng.random() < config.crossover_rate and dims > 1:
                cut = int(rng.integers(1, dims))
                tail = first[cut:].copy()
                first[cut:] = second[cut:]
                second[cut:] = tail
            children.append(first)
            if len(children) < need:
                children.append(second)
        kids = np.array(children)
        for i in range(need):
            if rng.random() < config.mutation_rate:
                gene = int(rng.integers(dims))
                kids[i, gene] = rng.uniform(lower[gene], upper[gene])
        kid_scores = _round_scores(score_fn, kids)
        pop = np.vstack([elites, kids]) if config.elitism else kids
        scores = np.concatenate([elite_scores, kid_scores]) \
            if config.elitism else kid_scores
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
    """Penalty-handled fitness of encoded allocations, a round at a time.

    Feasibility is checked on cheap crisp metrics first; only feasible
    candidates run the fuzzy pipeline.  The fuzzification uniforms are
    drawn once per run (from a stream separate from the mover's) and
    shared by every evaluation, making the fitness a deterministic
    function of the candidate within the run, so best scores cached by
    the searchers stay comparable across rounds.

    The state a penalty or a reported best depends on (the worst and best
    feasible fitness and the least violation seen so far) is updated in
    row order, so scoring a round at once equals scoring its rows one after
    another.
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
        self.evaluations = 0
        self.worst_feasible = None
        self.best_feasible = None
        self.least_violating = None
        stream = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(_EVAL_STREAM,)))
        self._draws = stream.random((spec.size, 8))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Scores of the rows of ``x``, a ``(P, 2m)`` matrix of positions."""
        m = self.spec.size
        r = np.array(x[:, :m], dtype=float)
        n = np.floor(x[:, m:] + 0.5).astype(int)
        _validate_rows(self.spec, r, n)
        metrics = _metrics_matrix(self.spec, r, n, self.weight_variant)
        violation = _violation_rows(self.spec, *metrics[1:])
        self.evaluations += len(x)
        feasible = np.flatnonzero(violation == 0.0)
        infeasible = np.flatnonzero(violation != 0.0)

        raw = np.full(len(x), np.inf)
        if feasible.size:
            y_r, y_c = _objective_rows(self.spec, r[feasible], n[feasible],
                                       self.bounds, self._draws,
                                       self.grid_size)
            raw[feasible] = scalarize((y_r, y_c), self.xi, self.bounds,
                                      self.fitness_mode)
            top = int(np.argmax(raw[feasible]))
            if (self.best_feasible is None
                    or raw[feasible[top]] > self.best_feasible[0]):
                i = feasible[top]
                self.best_feasible = (float(raw[i]), Candidate(r[i], n[i]),
                                      _metric_set(metrics, i),
                                      (float(y_r[top]), float(y_c[top])))
        # worst feasible fitness known before each row, inf while none is;
        # penalties then start from base 0
        worst = np.minimum.accumulate(raw)
        if self.worst_feasible is not None:
            np.minimum(worst, self.worst_feasible, out=worst)
        if worst[-1] < np.inf:
            self.worst_feasible = float(worst[-1])
        scores = raw  # feasible rows keep their raw fitness
        if infeasible.size:
            known = worst[infeasible]
            scores[infeasible] = penalized_fitness(
                violation[infeasible], np.where(known < np.inf, known, 0.0))
            low = int(np.argmin(violation[infeasible]))
            if (self.least_violating is None
                    or violation[infeasible[low]] < self.least_violating[0]):
                i = infeasible[low]
                self.least_violating = (float(violation[i]), float(scores[i]),
                                        Candidate(r[i], n[i]),
                                        _metric_set(metrics, i))
        return scores


def _metric_set(metrics: Tuple[np.ndarray, ...], row: int) -> MetricSet:
    return MetricSet(*(float(values[row]) for values in metrics))


@dataclass(frozen=True)
class RunResult:
    """Outcome of one seeded search run.

    ``best_candidate`` is the best feasible allocation found; only when a
    run never evaluates a feasible candidate does it fall back to the least
    violating one, flagged by ``feasible``.  ``best_objectives`` holds the
    type-reduced (reliability, cost) pair and is None for that fallback,
    whose ``best_fitness`` is its penalized score when first seen.
    ``trace`` is the running best penalty-handled fitness per round.
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


def _finish(algorithm: str, scorer: _CandidateScorer, seed: int,
            k_used: Optional[float], trace: np.ndarray) -> RunResult:
    if scorer.best_feasible is not None:
        fitness, cand, metrics, objectives = scorer.best_feasible
        feasible = True
    else:
        _, fitness, cand, metrics = scorer.least_violating
        objectives = None
        feasible = False
    return RunResult(
        algorithm=algorithm,
        seed=seed,
        xi=scorer.xi,
        weight_variant=scorer.weight_variant,
        fitness_mode=scorer.fitness_mode,
        grid_size=scorer.grid_size,
        k_used=k_used,
        evaluations=scorer.evaluations,
        feasible=feasible,
        best_candidate=cand,
        best_metrics=metrics,
        best_objectives=objectives,
        best_fitness=float(fitness),
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
    _, _, trace, k = swarm_maximize(scorer, lower, upper, config)
    return _finish("swarm", scorer, config.seed, k, trace)


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
    _, _, trace = evolve_maximize(scorer, lower, upper, config)
    return _finish("genetic", scorer, config.seed, None, trace)
