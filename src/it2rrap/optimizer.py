"""Swarm and genetic maximizers for mixed real/integer allocation search.

Both searchers work on a continuous box: one coordinate per unit
reliability followed by one per redundancy count.  Count coordinates are
decoded by rounding halves up, so the box ``[n_min, n_max]`` maps onto the
integer grid without bias at either edge.  Infeasible candidates never
enter the fuzzy pipeline; they score below every feasible fitness observed
so far by their constraint violation.
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
    checked_weights,
    constraint_violation,
    crisp_metrics,
    evaluate_objectives,
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


def swarm_maximize(score_fn: Callable[[np.ndarray], float],
                   lower, upper, config: SwarmConfig):
    """Maximize ``score_fn`` over a box with a constriction-factor swarm.

    Each round evaluates every member, updates the member and swarm bests
    (strict improvement only, ties keep the incumbent) and then moves the
    swarm: both pulls share one uniform pair per member, their sum sets the
    constriction scale, and velocities are clamped to a fraction of the box
    before positions are clipped back inside it.  Positions and velocities
    start uniform in the box and the clamp window respectively.

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
        for index in range(config.population):
            score = float(score_fn(pos[index]))
            if score > member_score[index]:
                member_score[index] = score
                member_best[index] = pos[index]
            if score > best_score:
                best_score = score
                best_pos = pos[index].copy()
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


def evolve_maximize(score_fn: Callable[[np.ndarray], float],
                    lower, upper, config: GaConfig):
    """Maximize ``score_fn`` over a box with a tournament genetic search.

    Round 0 is the evaluated initial population.  Each later round keeps
    the top ``elitism`` members with their scores (never re-evaluated) and
    fills the rest with offspring: two tournament winners, one-point
    crossover at rate ``crossover_rate``, then at rate ``mutation_rate``
    one coordinate redrawn uniformly inside the box.

    Returns ``(best_position, best_score, trace)`` where ``trace[g]`` is
    the best score seen through round ``g`` (never decreasing, one entry
    per round including round 0).
    """
    lower, upper = _check_box(lower, upper)
    rng = np.random.default_rng(config.seed)
    dims = lower.size
    pop = rng.uniform(lower, upper, (config.population, dims))
    scores = np.array([float(score_fn(pop[i]))
                       for i in range(config.population)])
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
        kid_scores = np.array([float(score_fn(kids[i]))
                               for i in range(need)])
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

class _ReplayDraws:
    """Generator stand-in that replays one fixed uniform block."""

    def __init__(self, block: np.ndarray):
        self._block = block

    def random(self, size) -> np.ndarray:
        if tuple(size) != self._block.shape:
            raise ValueError(f"unexpected draw shape {size}")
        return self._block.copy()


class _CandidateScorer:
    """Penalty-handled fitness of encoded allocations.

    Feasibility is checked on cheap crisp metrics first; only feasible
    candidates run the fuzzy pipeline.  The fuzzification uniforms are
    drawn once per run (from a stream separate from the mover's) and
    replayed for every evaluation, making the fitness a deterministic
    function of the candidate within the run, so best scores cached by
    the searchers stay comparable across rounds.
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
        self.grid_size = grid_size
        self.evaluations = 0
        self.worst_feasible = None
        self.best_feasible = None
        self.least_violating = None
        stream = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(_EVAL_STREAM,)))
        self._draws = stream.random((spec.size, 8))

    def decode(self, x: np.ndarray) -> Candidate:
        m = self.spec.size
        r = np.asarray(x[:m], dtype=float)
        n = np.floor(np.asarray(x[m:], dtype=float) + 0.5).astype(int)
        return Candidate(r, n)

    def __call__(self, x: np.ndarray) -> float:
        cand = self.decode(x)
        metrics = crisp_metrics(self.spec, cand, self.weight_variant)
        self.evaluations += 1
        violation = constraint_violation(self.spec, metrics)
        if violation == 0.0:
            objectives = evaluate_objectives(self.spec, cand, self.bounds,
                                             _ReplayDraws(self._draws),
                                             self.grid_size)
            raw = scalarize(objectives, self.xi, self.bounds,
                            self.fitness_mode)
            if self.worst_feasible is None or raw < self.worst_feasible:
                self.worst_feasible = raw
            if self.best_feasible is None or raw > self.best_feasible[0]:
                self.best_feasible = (raw, cand, metrics, objectives)
            return raw
        score = penalized_fitness(violation, self.worst_feasible)
        if self.least_violating is None or violation < self.least_violating[0]:
            self.least_violating = (violation, score, cand, metrics)
        return score


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
