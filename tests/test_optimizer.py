"""Tests for the swarm and genetic maximizers and their solve wrappers."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from it2rrap import (
    FITNESS_NORMALIZED,
    FITNESS_RAW,
    WEIGHT_DATASET_CONSISTENT,
    Candidate,
    GaConfig,
    IdealBounds,
    SERIES_PARALLEL,
    SwarmConfig,
    SystemSpec,
    bundled_dataset,
    constraint_violation,
    constriction,
    crisp_metrics,
    evaluate_objectives,
    evolve_maximize,
    genetic_solve,
    is_feasible,
    scalarize,
    swarm_maximize,
    swarm_solve,
)
from it2rrap import optimizer
from it2rrap.optimizer import _CandidateScorer
from tests.draws import FixedDraws

BOX_LO = np.full(4, -5.0)
BOX_HI = np.full(4, 5.0)


def sphere(x):
    """Concave smoke objective with its maximum, 0, at 0.7 everywhere; one
    score per row of ``x``."""
    return -np.sum((x - 0.7) ** 2, axis=-1)


def ps_problem():
    ds = bundled_dataset("parallel-series")
    return ds.spec, ds.bounds[(1.0, 1.0)]


# ---------------------------------------------------------------------------
# the constriction coefficient
# ---------------------------------------------------------------------------

def test_constriction_below_threshold_is_k():
    """With both pulls at 1.5 the combined pull is 3 < 4, so the complex
    magnitude of the denominator is exactly 2 and the scale is k itself."""
    assert constriction(0.5, 1.5, 1.5, 1.0, 1.0) == 0.5
    assert constriction(1.0, 1.5, 1.5, 0.3, 0.9) == 1.0


def test_constriction_hand_values_above_threshold():
    got = constriction(1.0, 2.05, 2.05, 1.0, 1.0)  # combined pull 4.1
    assert got == pytest.approx(0.7298437881283575, rel=1e-12)
    assert got == pytest.approx(0.7299, abs=1e-4)
    got = constriction(1.0, 2.5, 2.5, 1.0, 1.0)  # combined pull 5
    assert got == pytest.approx(0.38196601125010515, rel=1e-12)


def test_constriction_zero_k_kills_motion():
    assert constriction(0.0, 1.5, 1.5, 1.0, 1.0) == 0.0
    assert constriction(0.0, 2.5, 2.5, 1.0, 1.0) == 0.0


def test_constriction_vectorized_and_bounded():
    rng = np.random.default_rng(3)
    u1, u2 = rng.random(500), rng.random(500)
    out = constriction(0.8, 1.5, 1.5, u1, u2)
    assert out.shape == (500,)
    # pulls of 1.5 never reach the threshold, so every entry equals k
    assert np.all(out == 0.8)
    out = constriction(0.8, 2.5, 2.5, u1, u2)
    assert np.all(out > 0.0)
    assert np.all(out <= 0.8)


# one batch of draws on both sides of the threshold: with pulls of 2.05 the
# combined pulls are 4.1, 4.0385, exactly 4, then six below 4; with 2.5 they
# are 5, 4.925, 4.878, 2.5, 0, exactly 4, 4.25, 4.85 and 1.25
CHI_OWN = [1.0, 0.99, 0.9756097560975611, 0.5, 0.0, 0.8, 1.0, 0.95, 0.3]
CHI_OTHER = [1.0, 0.98, 0.9756097560975611, 0.5, 0.0, 0.8, 0.7, 0.99, 0.2]
CHI_PINNED = {
    (2.05, 0.7298): [0.5326399965760756, 0.5999640639359533] + [0.7298] * 7,
    (2.05, 1.0): [0.7298437881283579, 0.8220938119155292] + [1.0] * 7,
    (2.5, 0.7298): [0.27875879501032674, 0.2884932190464453,
                    0.29500995769276717, 0.7298, 0.7298, 0.7298,
                    0.4448946893030289, 0.29907421100002873, 0.7298],
    (2.5, 1.0): [0.38196601125010515, 0.39530449307542515,
                 0.4042339787513937, 1.0, 1.0, 1.0, 0.6096117967977924,
                 0.40980297478765243, 1.0],
    (2.05, 0.0): [0.0] * 9,
    (2.5, 0.0): [0.0] * 9,
}


@pytest.mark.parametrize("pull,k", sorted(CHI_PINNED))
def test_constriction_pinned_values(pull, k):
    """Exact scales on a mixed batch, and the same value for each draw
    pair passed as scalars."""
    want = CHI_PINNED[(pull, k)]
    out = constriction(k, pull, pull, np.array(CHI_OWN), np.array(CHI_OTHER))
    assert out.tolist() == want
    for u_own, u_other, value in zip(CHI_OWN, CHI_OTHER, want):
        assert float(constriction(k, pull, pull, u_own, u_other)) == value


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_swarm_config_validation():
    SwarmConfig(constriction_k=0.0)  # zero scale is a legal, frozen swarm
    SwarmConfig(constriction_k=1.0)
    with pytest.raises(ValueError, match="constriction_k"):
        SwarmConfig(constriction_k=1.1)
    with pytest.raises(ValueError, match="constriction_k"):
        SwarmConfig(constriction_k=-0.1)
    with pytest.raises(ValueError, match="population"):
        SwarmConfig(population=1)
    with pytest.raises(ValueError, match="iterations"):
        SwarmConfig(iterations=0)
    with pytest.raises(ValueError, match="positive"):
        SwarmConfig(cognitive=0.0)
    with pytest.raises(ValueError, match="positive"):
        SwarmConfig(social=-1.0)
    with pytest.raises(ValueError, match="velocity_clamp"):
        SwarmConfig(velocity_clamp=0.0)
    # NaN passes a "<= 0" test; left in, a NaN or infinite pull fails only
    # later, in decoding, and a clamp inside rng.uniform
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            SwarmConfig(cognitive=value)
        with pytest.raises(ValueError, match="positive and finite"):
            SwarmConfig(social=value)
        with pytest.raises(ValueError, match="velocity_clamp"):
            SwarmConfig(velocity_clamp=value)
    # a float count or seed would otherwise fail later, inside numpy
    for field in ("population", "iterations", "seed"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SwarmConfig(**{field: 2.5})
    with pytest.raises(ValueError, match="seed must be an integer of at "
                                         "least 0"):
        SwarmConfig(seed=-1)
    assert SwarmConfig(population=np.int64(3), seed=np.int64(2)).seed == 2


def test_ga_config_validation():
    GaConfig(crossover_rate=0.0, mutation_rate=1.0)
    with pytest.raises(ValueError, match="crossover_rate"):
        GaConfig(crossover_rate=1.1)
    with pytest.raises(ValueError, match="mutation_rate"):
        GaConfig(mutation_rate=-0.2)
    with pytest.raises(ValueError, match="generations"):
        GaConfig(generations=0)
    with pytest.raises(ValueError, match="elitism"):
        GaConfig(population=10, elitism=10)
    with pytest.raises(ValueError, match="tournament"):
        GaConfig(tournament=0)
    GaConfig(population=2, elitism=0)
    for field, value in (("population", 6.5), ("generations", 2.5),
                         ("tournament", 1.5), ("elitism", 0.5),
                         ("seed", 1.5), ("seed", -1)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            GaConfig(**{field: value})


# ---------------------------------------------------------------------------
# generic maximizers on the smoke objective
# ---------------------------------------------------------------------------

def test_swarm_reaches_sphere_optimum():
    for seed in (0, 1, 2):
        pos, score, trace, _ = swarm_maximize(sphere, BOX_LO, BOX_HI,
                                              SwarmConfig(seed=seed))
        assert score >= -1e-3
        assert np.allclose(pos, 0.7, atol=0.05)
        assert trace.size == 100
        assert np.all(np.diff(trace) >= 0)


def test_evolve_reaches_sphere_neighbourhood():
    for seed in (0, 1, 2):
        pos, score, trace = evolve_maximize(sphere, BOX_LO, BOX_HI,
                                            GaConfig(seed=seed))
        assert score >= -1e-2
        assert trace.size == 100
        assert np.all(np.diff(trace) >= 0)


def test_swarm_single_iteration_returns_best_of_initial_swarm():
    config = SwarmConfig(population=30, iterations=1, constriction_k=0.5,
                         seed=9)
    pos, score, trace, k = swarm_maximize(sphere, BOX_LO, BOX_HI, config)
    # with a fixed k the generator starts at the position block
    init = np.random.default_rng(9).uniform(BOX_LO, BOX_HI, (30, 4))
    scores = np.array([sphere(row) for row in init])
    assert k == 0.5
    assert trace.size == 1
    assert score == pytest.approx(scores.max(), rel=1e-15)
    assert np.array_equal(pos, init[np.argmax(scores)])


def test_swarm_draws_k_before_positions_when_unset():
    config = SwarmConfig(population=10, iterations=1, seed=42)
    _, _, _, k = swarm_maximize(sphere, BOX_LO, BOX_HI, config)
    want = float(np.random.default_rng(42).uniform(0.0, 1.0))
    assert k == want
    assert 0.0 <= k <= 1.0


def test_swarm_ties_keep_the_first_incumbent():
    config = SwarmConfig(population=12, iterations=3, constriction_k=0.4,
                         seed=5)
    pos, score, trace, _ = swarm_maximize(lambda x: np.ones(len(x)), BOX_LO,
                                          BOX_HI, config)
    init = np.random.default_rng(5).uniform(BOX_LO, BOX_HI, (12, 4))
    assert score == 1.0
    assert np.all(trace == 1.0)
    assert np.array_equal(pos, init[0])


def test_evolve_without_variation_never_improves():
    """Crossover and mutation switched off leave only copies of existing
    members, so the best is the round-0 best and the trace stays flat."""
    config = GaConfig(population=20, generations=12, crossover_rate=0.0,
                      mutation_rate=0.0, seed=3)
    pos, score, trace = evolve_maximize(sphere, BOX_LO, BOX_HI, config)
    init = np.random.default_rng(3).uniform(BOX_LO, BOX_HI, (20, 4))
    scores = np.array([sphere(row) for row in init])
    assert trace.size == 12
    assert np.all(trace == trace[0])
    assert score == pytest.approx(scores.max(), rel=1e-15)
    assert np.array_equal(pos, init[np.argmax(scores)])


def test_evolve_without_elites_golden_values():
    """Zero elitism makes each round the offspring alone; the values pin
    that stacking and the order of a round's draws."""
    config = GaConfig(population=10, generations=6, elitism=0, seed=4)
    pos, score, trace = evolve_maximize(sphere, BOX_LO, BOX_HI, config)
    assert pos.tolist() == [-0.08274715387523468, 1.7580086493352587,
                            0.002261893487458977, 0.3841449393136429]
    assert score == -2.318678293608887
    assert trace.tolist() == [-15.077254217934481, -14.002633359635727,
                              -14.002633359635727, -2.6274231192664264,
                              -2.6274231192664264, -2.318678293608887]


def ga_rounds(config, dims):
    """``(population, scores, kids)`` of every bred round of a GA run on the
    smoke objective: the members and scores each round was bred from,
    rebuilt from the positions ``score_fn`` received (elites first, taken
    by the GA's stable sort), and the kids scored for it."""
    calls = []

    def record(x):
        calls.append((x.copy(), sphere(x)))
        return calls[-1][1]

    evolve_maximize(record, np.full(dims, -5.0), np.full(dims, 5.0), config)
    pop, scores = calls[0]
    rounds = []
    for kids, kid_scores in calls[1:]:
        rounds.append((pop, scores, kids))
        keep = np.argsort(-scores, kind="stable")[:config.elitism]
        pop = np.vstack([pop[keep], kids])
        scores = np.concatenate([scores[keep], kid_scores])
    return rounds


def recombines(pop, kids, slack):
    """Whether ``kids`` (a pair, or a lone last kid) are ``a[:c] + b[c:]``
    and ``b[:c] + a[c:]`` for members ``a``, ``b`` of ``pop`` and some ``c``
    in ``1..D``, each kid up to ``slack`` coordinates apart."""
    dims = pop.shape[1]
    a, b = pop[:, None], pop[None, :]
    for cut in range(1, dims + 1):
        tail = np.arange(dims) >= cut
        ok = np.sum(np.where(tail, b, a) != kids[0], axis=-1) <= slack
        if len(kids) == 2:
            ok &= np.sum(np.where(tail, a, b) != kids[1], axis=-1) <= slack
        if ok.any():
            return True
    return False


ga_shapes = st.tuples(st.integers(2, 12), st.integers(1, 6),
                      st.integers(0, 1), st.integers(1, 3),
                      st.integers(0, 2 ** 16))


@settings(max_examples=80, deadline=None)
@given(ga_shapes, st.sampled_from((0.0, 0.6, 1.0)), st.booleans())
@example((7, 1, 1, 2, 0), 1.0, False)
@example((7, 1, 0, 2, 0), 1.0, True)
def test_evolve_round_is_a_recombination_of_the_previous(shape,
                                                         crossover_rate,
                                                         mutate):
    """Whatever the draws, every kid comes from two members of the round
    before: a one-point recombination, a plain copy without crossover, and
    at most one redrawn in-box coordinate when every kid mutates."""
    population, dims, elitism, tournament, seed = shape
    config = GaConfig(population=population, generations=4,
                      crossover_rate=crossover_rate,
                      mutation_rate=float(mutate), tournament=tournament,
                      elitism=elitism, seed=seed)
    for pop, _, kids in ga_rounds(config, dims):
        assert kids.shape == (population - elitism, dims)
        assert np.all((kids >= -5.0) & (kids <= 5.0))
        for i in range(0, len(kids), 2):
            assert recombines(pop, kids[i:i + 2], int(mutate))
        if crossover_rate == 0.0 and not mutate:
            for kid in kids:
                assert np.any(np.all(pop == kid, axis=1))


@settings(max_examples=40, deadline=None)
@given(ga_shapes.filter(lambda shape: shape[0] <= 4),
       st.sampled_from((0.0, 0.6, 1.0)))
@example((3, 1, 0, 1, 0), 1.0)
def test_evolve_long_tournaments_pick_the_best(shape, crossover_rate):
    """64 picks from at most 4 members miss the best with chance at most
    (3/4)^64, so every parent, and so every unmutated kid, is the best."""
    population, dims, elitism, _, seed = shape
    config = GaConfig(population=population, generations=4,
                      crossover_rate=crossover_rate, mutation_rate=0.0,
                      tournament=64, elitism=elitism, seed=seed)
    for pop, scores, kids in ga_rounds(config, dims):
        best = pop[scores == scores.max()]
        for kid in kids:
            assert np.any(np.all(best == kid, axis=1))


def test_maximizers_reject_bad_score_rounds():
    """One score per row, and no NaN, whose ranking the row-order
    bookkeeping could not keep."""
    config = SwarmConfig(population=4, iterations=1)
    with pytest.raises(ValueError, match="not one score each"):
        swarm_maximize(lambda x: sphere(x)[:-1], BOX_LO, BOX_HI, config)
    with pytest.raises(ValueError, match="not one score each"):
        evolve_maximize(lambda x: 1.0, BOX_LO, BOX_HI, GaConfig())
    with pytest.raises(ValueError, match="NaN"):
        evolve_maximize(lambda x: np.full(len(x), np.nan), BOX_LO, BOX_HI,
                        GaConfig())


def test_maximizers_reject_bad_boxes():
    with pytest.raises(ValueError, match="bounds"):
        swarm_maximize(sphere, np.zeros(3), np.ones(2), SwarmConfig())
    with pytest.raises(ValueError, match="lower bounds"):
        evolve_maximize(sphere, np.ones(2), np.zeros(2), GaConfig())
    for lower, upper in (([0.0], [np.nan]), ([1.0], [np.inf]),
                         ([-np.inf], [0.0]), ([np.nan, 0.0], [1.0, 1.0])):
        with pytest.raises(ValueError, match="bounds must be finite"):
            swarm_maximize(sphere, lower, upper, SwarmConfig())
        with pytest.raises(ValueError, match="bounds must be finite"):
            evolve_maximize(sphere, lower, upper, GaConfig())


# ---------------------------------------------------------------------------
# allocation solves
# ---------------------------------------------------------------------------

SMALL_SWARM = SwarmConfig(population=20, iterations=15, seed=0)
SMALL_GA = GaConfig(population=20, generations=15, seed=0)


def test_swarm_solve_reports_feasible_valid_best():
    spec, bounds = ps_problem()
    res = swarm_solve(spec, bounds, (1.0, 1.0), SMALL_SWARM)
    assert res.algorithm == "swarm"
    assert res.feasible
    assert res.trace.size == 15
    assert np.all(np.diff(res.trace) >= 0)
    assert res.evaluations == 20 * 15
    assert 0.0 <= res.k_used <= 1.0
    cand = res.best_candidate
    assert np.all((cand.r >= spec.r_min) & (cand.r <= spec.r_max))
    assert np.all((cand.n >= spec.n_min) & (cand.n <= spec.n_max))
    # re-derive the metrics independently and re-check every limit
    again = crisp_metrics(spec, Candidate(cand.r, cand.n))
    assert again == res.best_metrics
    assert is_feasible(spec, again)
    assert again.weight <= spec.weight_limit
    assert again.volume <= spec.volume_limit
    assert again.cost <= spec.cost_limit


def test_genetic_solve_reports_feasible_valid_best():
    spec, bounds = ps_problem()
    res = genetic_solve(spec, bounds, (1.0, 1.0), SMALL_GA)
    assert res.algorithm == "genetic"
    assert res.feasible
    assert res.k_used is None
    assert res.trace.size == 15
    assert np.all(np.diff(res.trace) >= 0)
    again = crisp_metrics(spec, res.best_candidate)
    assert is_feasible(spec, again)
    assert again.weight <= spec.weight_limit
    assert again.volume <= spec.volume_limit


def test_solves_are_deterministic_per_seed():
    spec, bounds = ps_problem()
    for solve, config in ((swarm_solve, SMALL_SWARM), (genetic_solve, SMALL_GA)):
        a = solve(spec, bounds, (1.0, 1.0), config)
        b = solve(spec, bounds, (1.0, 1.0), config)
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.best_candidate.r, b.best_candidate.r)
        assert np.array_equal(a.best_candidate.n, b.best_candidate.n)
        assert a.best_metrics == b.best_metrics
        assert a.best_objectives == b.best_objectives


def test_solves_differ_across_seeds():
    spec, bounds = ps_problem()
    a = swarm_solve(spec, bounds, (1.0, 1.0), SMALL_SWARM)
    b = swarm_solve(spec, bounds, (1.0, 1.0),
                    SwarmConfig(population=20, iterations=15, seed=1))
    assert not np.array_equal(a.trace, b.trace)


@pytest.mark.parametrize("xi", [(float("nan"), 1.0), (1.0, float("inf")),
                                (-0.5, 1.0), (0.0, 0.0), (1.0, 1.0, 7.0),
                                (1.0,)])
def test_solves_reject_bad_weights_before_searching(xi):
    spec, bounds = ps_problem()
    match = ("weights must be finite" if len(xi) == 2
             else "weights must be exactly two numbers")
    for solve, config in ((swarm_solve, SMALL_SWARM), (genetic_solve, SMALL_GA)):
        with pytest.raises(ValueError, match=match):
            solve(spec, bounds, xi, config)


def test_solve_echoes_configuration():
    spec, bounds = ps_problem()
    for solve, config in ((swarm_solve, replace(SMALL_SWARM, seed=2)),
                          (genetic_solve, replace(SMALL_GA, seed=2))):
        res = solve(spec, bounds, (0.8, 0.2), config,
                    weight_variant="as-written", fitness_mode="raw",
                    grid_size=101)
        assert res.xi == (0.8, 0.2)
        assert res.weight_variant == "as-written"
        assert res.fitness_mode == "raw"
        assert res.grid_size == 101
        assert res.seed == 2


# Whole solves on both bundled datasets at weights (1, 1), population 12,
# 8 rounds and grid 51.  Every field is compared exactly, so a change to
# any draw, score or step of the result's assembly shows.
GOLDEN_SOLVES = {
    ("series-parallel", "pso", 0): dict(
        feasible=True, best_fitness=0.5358496088164276,
        trace=[0.3109420221581905, 0.36515965760622593, 0.4316896748818977,
               0.5125153389727883, 0.535509125241167, 0.535509125241167,
               0.5358496088164276, 0.5358496088164276],
        r=[0.6794386441921868, 0.7889843475808979, 0.7172280643906709,
           0.70727736321269, 0.7821821160138537, 0.8105163684079292,
           0.7304274892051746, 0.6147336199055755, 0.7812546124967538,
           0.8478005496695117],
        n=[3, 3, 2, 3, 2, 3, 4, 4, 3, 3],
        best_objectives=(0.48390286926327514, 170.82388310299177),
        evaluations=96, k_used=0.6369616873214543),
    ("series-parallel", "pso", 1): dict(
        feasible=True, best_fitness=0.5417480385359054,
        trace=[-5.636254767363136, 0.4279665094089285, 0.5099979314967312,
               0.5305547646015327, 0.537611387937028, 0.537611387937028,
               0.5388798288268695, 0.5417480385359054],
        r=[0.81562745457175, 0.8132826379669243, 0.6730840500368072,
           0.864146364319938, 0.8015106743720237, 0.8236115961183528,
           0.8626407467648761, 0.6350230790976366, 0.8030559383757578,
           0.7659915542025671],
        n=[3, 2, 4, 2, 2, 3, 5, 3, 3, 3],
        best_objectives=(0.48980329427296365, 170.82445093980155),
        evaluations=96, k_used=0.5118216247002567),
    ("series-parallel", "ga", 0): dict(
        feasible=True, best_fitness=0.3140267124282309,
        trace=[-9.438060765538063, -9.438060765538063, -9.438060765538063,
               -9.438060765538063, -9.438060765538063, -9.438060765538063,
               0.2157513334823706, 0.3140267124282309],
        r=[0.7857643438350497, 0.66093437366858, 0.7971494207998182,
           0.6689552748423411, 0.69580910864508, 0.7415037237084862,
           0.6135785696090963, 0.8115929491558764, 0.5420075877758488,
           0.9163212411825512],
        n=[4, 2, 5, 1, 2, 2, 3, 4, 2, 1],
        best_objectives=(0.2584931189579692, 169.80310543646738),
        evaluations=89, k_used=None),
    ("series-parallel", "ga", 1): dict(
        feasible=True, best_fitness=0.4082423981225686,
        trace=[0.31414892208793627, 0.31684428561221306, 0.31684428561221306,
               0.3405856815406149, 0.3405856815406149, 0.3405856815406149,
               0.35261922705637355, 0.4082423981225686],
        r=[0.8301770299048812, 0.6227758880693215, 0.8842577309311282,
           0.6058371596290126, 0.9156365860573958, 0.5313588985674615,
           0.9127430812089645, 0.943865526629407, 0.6875731231013245,
           0.6583687665403156],
        n=[4, 3, 2, 4, 2, 3, 2, 1, 2, 2],
        best_objectives=(0.36714440807995274, 173.91131333181985),
        evaluations=89, k_used=None),
    ("parallel-series", "pso", 0): dict(
        feasible=True, best_fitness=0.8897452584726405,
        trace=[-57.80036072808457, -39.93808815974862, -28.189530115265512,
               -28.189530115265512, -23.514359109719237, 0.8498126343190975,
               0.8897452584726405, 0.8897452584726405],
        r=[0.5, 0.7703342574212523, 0.7529144163745846, 0.746282124095845,
           0.8264167719057436],
        n=[3, 3, 3, 1, 2],
        best_objectives=(0.9121633812697396, 62.690174735651894),
        evaluations=96, k_used=0.6369616873214543),
    ("parallel-series", "pso", 1): dict(
        feasible=True, best_fitness=0.9058065140239409,
        trace=[-18.912439592635195, 0.8873479638053037, 0.8910565904544956,
               0.8950688354912889, 0.8990395601031267, 0.9058065140239409,
               0.9058065140239409, 0.9058065140239409],
        r=[0.8018087239269392, 0.6063749998382936, 0.6582643680440396,
           0.6126399067972991, 0.8309416244951038],
        n=[1, 3, 2, 3, 3],
        best_objectives=(0.9114926646825359, 60.682338079031396),
        evaluations=96, k_used=0.5118216247002567),
    ("parallel-series", "ga", 0): dict(
        feasible=True, best_fitness=0.9141492050013519,
        trace=[0.8716981847095323, 0.8716981847095323, 0.8716981847095323,
               0.9052270115758445, 0.9060215565465417, 0.9060215565465417,
               0.9141492050013519, 0.9141492050013519],
        r=[0.5368581425958361, 0.63692427545068, 0.8596091671935973,
           0.5292839588345624, 0.6680581941557696],
        n=[1, 3, 4, 2, 1],
        best_objectives=(0.9141106931664245, 59.995378579808715),
        evaluations=89, k_used=None),
    ("parallel-series", "ga", 1): dict(
        feasible=True, best_fitness=0.9121689325503,
        trace=[0.8345530015547238, 0.8353843587694445, 0.8353843587694445,
               0.8715468199044822, 0.8719384562199101, 0.9121689325503,
               0.9121689325503, 0.9121689325503],
        r=[0.8301770299048812, 0.7690711184663259, 0.6648655285178295,
           0.6058371596290126, 0.7924825392398989],
        n=[1, 4, 2, 3, 2],
        best_objectives=(0.9151487652100405, 60.35757991916886),
        evaluations=89, k_used=None),
}


@pytest.mark.parametrize("name,algorithm,seed", list(GOLDEN_SOLVES))
def test_solve_golden_values(name, algorithm, seed):
    dataset = bundled_dataset(name)
    xi = (1.0, 1.0)
    if algorithm == "pso":
        res = swarm_solve(dataset.spec, dataset.bounds_for(xi), xi,
                          SwarmConfig(population=12, iterations=8, seed=seed),
                          grid_size=51)
    else:
        res = genetic_solve(dataset.spec, dataset.bounds_for(xi), xi,
                            GaConfig(population=12, generations=8, seed=seed),
                            grid_size=51)
    golden = GOLDEN_SOLVES[name, algorithm, seed]
    assert res.feasible == golden["feasible"]
    assert res.best_fitness == golden["best_fitness"]
    assert res.trace.tolist() == golden["trace"]
    assert res.best_candidate.r.tolist() == golden["r"]
    assert res.best_candidate.n.tolist() == golden["n"]
    assert res.best_objectives == golden["best_objectives"]
    assert res.evaluations == golden["evaluations"]
    assert res.k_used == golden["k_used"]


def infeasible_problem():
    """Limits nothing can satisfy."""
    spec = SystemSpec(SERIES_PARALLEL, 1000.0, [1e-5, 1e-5], [1.5, 1.5],
                      [2.0, 3.0], [4.0, 5.0], 1e9, 1.0, 1.0)
    return spec, IdealBounds(0.6, 0.9, 50.0, 400.0)


@pytest.mark.parametrize("grid_size", [1, 0, -5, 201.0, "201", None])
def test_solves_reject_bad_grid_size_before_searching(grid_size):
    """No candidate of the infeasible problem reaches the fuzzy pipeline,
    so only the check before the search can catch a bad grid."""
    spec, bounds = infeasible_problem()
    for solve, config in ((swarm_solve, SMALL_SWARM), (genetic_solve, SMALL_GA)):
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            solve(spec, bounds, (1.0, 1.0), config, grid_size=grid_size)


def test_normalized_solves_reject_degenerate_cost_anchors_before_searching():
    """The floor is set before the search, so anchors that cannot normalise
    cost stop even a run whose candidates are all infeasible."""
    spec, _ = infeasible_problem()
    degenerate = IdealBounds(0.6, 0.9, 400.0, 400.0)
    for solve, config in ((swarm_solve, SMALL_SWARM), (genetic_solve, SMALL_GA)):
        with pytest.raises(ValueError, match="c_left < c_right"):
            solve(spec, degenerate, (1.0, 1.0), config)
        # raw fitness needs no cost span
        assert not solve(spec, degenerate, (1.0, 1.0), config,
                         fitness_mode=FITNESS_RAW).feasible


def test_infeasible_problem_flags_fallback():
    """Limits nothing can satisfy: the run reports the least-violating
    candidate, flagged infeasible, with no fuzzy objective pair."""
    spec, bounds = infeasible_problem()
    for res in (swarm_solve(spec, bounds, (1.0, 1.0), SMALL_SWARM),
                genetic_solve(spec, bounds, (1.0, 1.0), SMALL_GA)):
        assert not res.feasible
        assert res.best_objectives is None
        assert res.best_fitness < 0.0
        assert not is_feasible(spec, res.best_metrics)
        assert res.best_fitness == floor(spec, bounds, (1.0, 1.0),
                                         FITNESS_NORMALIZED) \
            - constraint_violation(spec, res.best_metrics)
        # the fallback still decodes to a structurally valid candidate
        assert np.all((res.best_candidate.n >= spec.n_min)
                      & (res.best_candidate.n <= spec.n_max))


# ---------------------------------------------------------------------------
# scoring a round at once
# ---------------------------------------------------------------------------

DATASETS = {name: bundled_dataset(name)
            for name in ("series-parallel", "parallel-series")}
# anchors that collapse every footprint, so both spike fallbacks run; the
# cost anchors are inverted, which only the raw fitness accepts
ZERO_SPREAD = IdealBounds(1.0, 0.0, 1e12, 0.0)


def decode(spec, x):
    """The allocation a search position stands for."""
    return Candidate(x[:spec.size], np.floor(x[spec.size:] + 0.5))


def fuzz_draws(spec, seed):
    """The fuzzification block a run with ``seed`` shares across its
    evaluations."""
    stream = np.random.default_rng(np.random.SeedSequence(seed,
                                                          spawn_key=(1,)))
    return stream.random((spec.size, 8))


def raw_fitness(spec, bounds, xi, mode, grid_size, draws, cand):
    """Fitness of a feasible candidate, one candidate at a time."""
    return scalarize(evaluate_objectives(spec, cand, bounds,
                                         FixedDraws(draws.ravel()),
                                         grid_size), xi, bounds, mode)


def floor(spec, bounds, xi, mode):
    """The fitness of ``y_r = 0`` at the end of the widest feasible cost
    grid, below which every infeasible row scores."""
    return scalarize((0.0, max(spec.cost_limit, bounds.c_right)), xi, bounds,
                     mode)


def reference_score(spec, bounds, xi, mode, grid_size, draws, cand):
    """One candidate's score, built from the one-candidate functions."""
    violation = constraint_violation(spec, crisp_metrics(spec, cand))
    if violation == 0.0:
        return raw_fitness(spec, bounds, xi, mode, grid_size, draws, cand)
    return floor(spec, bounds, xi, mode) - violation


@st.composite
def scoring_cases(draw, zero_spread=True):
    dataset = DATASETS[draw(st.sampled_from(sorted(DATASETS)))]
    spec = dataset.spec
    xi = draw(st.sampled_from(dataset.weight_pairs))
    if zero_spread and draw(st.booleans()):
        bounds, mode = ZERO_SPREAD, FITNESS_RAW
    else:
        bounds = dataset.bounds_for(xi)
        mode = draw(st.sampled_from([FITNESS_NORMALIZED, FITNESS_RAW]))
    # a chunk holds 16384 // (m * grid) rows: at grids 2 and 11 a batch is
    # one chunk, at 201 a series-parallel batch of 9 or more rows splits,
    # and at 1601 any batch of 3 or more rows does
    grid_size = draw(st.sampled_from([2, 11, 201, 1601]))
    row = st.tuples(*([st.floats(spec.r_min, spec.r_max)] * spec.size
                      + [st.floats(spec.n_min, spec.n_max)] * spec.size))
    batches = draw(st.lists(st.lists(row, min_size=1, max_size=12),
                            min_size=1, max_size=3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return (spec, bounds, xi, mode, grid_size, seed,
            [np.array(batch, dtype=float) for batch in batches])


@settings(max_examples=60, deadline=None)
@given(scoring_cases())
def test_batched_scoring_equals_one_row_scoring(case):
    """A round scored at once gives, bit for bit, the scores of its rows
    scored one at a time, and both equal the one-candidate reference: the
    fuzzy pipeline for feasible candidates, the floor minus the violation
    for infeasible ones."""
    spec, bounds, xi, mode, grid_size, seed, batches = case
    args = (spec, bounds, xi, seed, WEIGHT_DATASET_CONSISTENT, mode,
            grid_size)
    batched, serial = _CandidateScorer(*args), _CandidateScorer(*args)
    draws = fuzz_draws(spec, seed)
    for batch in batches:
        got = batched(batch)
        one_by_one = np.concatenate([serial(batch[i:i + 1])
                                     for i in range(len(batch))])
        assert np.array_equal(got, one_by_one)
        assert got.tolist() == [
            reference_score(spec, bounds, xi, mode, grid_size, draws,
                            decode(spec, x)) for x in batch]


@settings(max_examples=60, deadline=None)
@given(scoring_cases(zero_spread=False))
def test_feasible_rows_outrank_infeasible_rows(case):
    """Deb's rules as one scalar, at the bundled anchors: every feasible
    score lies above the floor and every infeasible one is the floor minus
    its violation, so feasible rows outrank infeasible ones and infeasible
    rows rank by violation alone."""
    spec, bounds, xi, mode, grid_size, seed, batches = case
    scorer = _CandidateScorer(spec, bounds, xi, seed,
                              WEIGHT_DATASET_CONSISTENT, mode, grid_size)
    assert scorer.floor == floor(spec, bounds, xi, mode)
    batch = np.concatenate(batches)
    got = scorer(batch)
    violation = np.array([
        constraint_violation(spec, crisp_metrics(spec, decode(spec, x)))
        for x in batch])
    feasible = violation == 0.0
    assert np.all(got[feasible] > scorer.floor)
    assert np.array_equal(got[~feasible], scorer.floor - violation[~feasible])
    assert np.all(got[~feasible] <= scorer.floor)
    if np.any(feasible) and not np.all(feasible):
        assert np.max(got[~feasible]) < np.min(got[feasible])


def memo_pool(spec, seed):
    """Six in-box positions: ``a``; ``a`` with one count coordinate at
    another fraction of the same integer (2.3 against 2.4, the same decoded
    row); ``a`` with that count one lower (the same ``r``, another ``n``,
    still feasible, as no metric falls with a count); two more feasible
    positions; one infeasible position."""
    m = spec.size
    rng = np.random.default_rng(seed)
    x = np.hstack([rng.uniform(spec.r_min, spec.r_max, (400, m)),
                   rng.integers(spec.n_min, spec.n_max, (400, m)) + 0.3])
    feasible = np.array([
        is_feasible(spec, crisp_metrics(spec, decode(spec, row)))
        for row in x])
    raised = feasible & np.any(x[:, m:] > spec.n_min + 1, axis=1)
    first = int(np.argmax(raised))
    a = x[first]
    j = m + int(np.argmax(a[m:] > spec.n_min + 1))
    twin, lower = a.copy(), a.copy()
    twin[j] += 0.1
    lower[j] -= 1.0
    others = [i for i in np.flatnonzero(feasible) if i != first][:2]
    return np.array([a, twin, lower, *x[others], x[np.argmin(feasible)]])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(DATASETS)), st.integers(0, 4),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8),
                max_size=4))
def test_scorer_scores_each_row_new_to_two_rounds_once(name, xi_index, seed,
                                                       drawn):
    """A scorer reuses the scores of the feasible rows of its previous call:
    each round's scores equal a fresh scorer's, the fuzzy pipeline sees each
    distinct decoded feasible row that the previous round did not hold
    exactly once (a row from two rounds back runs again), and
    ``evaluations`` counts every row."""
    dataset = DATASETS[name]
    spec = dataset.spec
    xi = dataset.weight_pairs[xi_index]
    args = (spec, dataset.bounds_for(xi), xi, seed,
            WEIGHT_DATASET_CONSISTENT, FITNESS_NORMALIZED, 11)
    pool = memo_pool(spec, seed)

    def feasible(row):
        return is_feasible(spec, crisp_metrics(spec, decode(spec, row)))

    assert [feasible(row) for row in pool] == [True] * 5 + [False]
    assert np.array_equal(decode(spec, pool[0]).n, decode(spec, pool[1]).n)
    # a, its twin and its lower count in one round; b again in the next,
    # with c twice; then a, absent from the round before, and c again
    rounds = [[0, 1, 2, 5, 3], [3, 3, 4, 5], [0, 4, 1]] + drawn

    def key(row):
        cand = decode(spec, row)
        return tuple(cand.r) + tuple(cand.n.astype(int))

    scorer = _CandidateScorer(*args)
    previous, total = set(), 0
    for picks in rounds:
        batch = pool[picks]
        spy = mock.patch.object(optimizer, "_objective_rows",
                                wraps=optimizer._objective_rows)
        with spy as pipeline:
            got = scorer(batch)
        assert got.tolist() == _CandidateScorer(*args)(batch).tolist()
        total += len(batch)
        assert scorer.evaluations == total
        seen = [tuple(r) + tuple(n) for call in pipeline.call_args_list
                for r, n in zip(call.args[1], call.args[2])]
        keys = [key(row) for row in batch if feasible(row)]
        assert seen == [k for k in dict.fromkeys(keys) if k not in previous]
        previous = set(keys)


# ---------------------------------------------------------------------------
# constraint-handling invariants of whole solves
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DATASETS)), st.integers(0, 4),
       st.sampled_from(["pso", "ga"]), st.integers(0, 2 ** 32 - 1),
       st.integers(6, 16), st.integers(2, 8), st.sampled_from([11, 51]))
def test_solve_invariants(name, xi_index, algorithm, seed, population,
                          iterations, grid_size):
    """The trace never decreases and ends at the reported best fitness; a
    feasible run reports the largest raw fitness of its feasible
    evaluations, an infeasible one the floor minus its least violation;
    the reported metrics are the crisp metrics of the reported candidate.
    From the first round that scores a feasible row on, the searcher's
    best, which guides the swarm, stays at or above the floor, so it is
    never infeasible again."""
    dataset = DATASETS[name]
    spec = dataset.spec
    xi = dataset.weight_pairs[xi_index]
    bounds = dataset.bounds_for(xi)
    evaluated, rounds = [], []

    class Recording(_CandidateScorer):
        def __call__(self, x):
            evaluated.extend(x.copy())
            rounds.append([constraint_violation(
                spec, crisp_metrics(spec, decode(spec, row))) for row in x])
            return super().__call__(x)

    with mock.patch.object(optimizer, "_CandidateScorer", Recording):
        if algorithm == "pso":
            res = swarm_solve(spec, bounds, xi, SwarmConfig(
                population=population, iterations=iterations, seed=seed),
                grid_size=grid_size)
        else:
            res = genetic_solve(spec, bounds, xi, GaConfig(
                population=population, generations=iterations, seed=seed),
                grid_size=grid_size)

    assert res.evaluations == len(evaluated)
    assert len(rounds) == len(res.trace)
    assert np.all(np.diff(res.trace) >= 0.0)
    assert res.trace[-1] == res.best_fitness
    assert res.best_metrics == crisp_metrics(spec, res.best_candidate)
    lowest = floor(spec, bounds, xi, FITNESS_NORMALIZED)
    first = next((t for t, violations in enumerate(rounds)
                  if 0.0 in violations), None)
    assert res.feasible == (first is not None)
    assert is_feasible(spec, res.best_metrics) == res.feasible
    if first is not None:
        assert np.all(res.trace[first:] >= lowest)
    else:
        assert res.best_fitness == lowest - min(map(min, rounds))
    if res.feasible:
        draws = fuzz_draws(spec, seed)
        cands = [decode(spec, x) for x in evaluated]
        feasible = [cand for cand in cands
                    if is_feasible(spec, crisp_metrics(spec, cand))]
        assert res.best_fitness == max(
            raw_fitness(spec, bounds, xi, FITNESS_NORMALIZED, grid_size,
                        draws, cand) for cand in feasible)
