"""End-to-end acceptance checks.

One test per numbered criterion; each prints a ``criterion NN PASS`` line
after its assertions hold, so ``pytest -v`` gives one verdict per
criterion (the printed lines show with ``-s`` or on failure).  The solver
grid behind criteria 7 and 8 runs 200 full-budget searches and takes a
few minutes; everything else is fast.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from it2rrap import (
    Candidate,
    GaConfig,
    SwarmConfig,
    anova_f,
    bundled_dataset,
    crisp_metrics,
    evaluate_objectives,
    genetic_solve,
    scalarize,
    swarm_solve,
    t_test,
)
from it2rrap.cli import main
from it2rrap.sysmodel import (
    WEIGHT_AS_WRITTEN,
    WEIGHT_DATASET_CONSISTENT,
    IdealBounds,
)
from it2rrap.typereduce import centroid_rows
from tests.draws import zeros_rng
from tests.test_typereduce import lp_centroid, random_sampled

# ---------------------------------------------------------------------------
# reference allocations from the bundled datasets (series-parallel rows
# by weight vector, then the parallel-series row)
# ---------------------------------------------------------------------------

SP_ROW_1_1 = Candidate(
    r=[0.728966, 0.769185, 0.826255, 0.755018, 0.72388,
       0.807148, 0.765235, 0.887747, 0.875649, 0.860357],
    n=[3, 3, 3, 3, 3, 3, 3, 2, 2, 2],
)
SP_ROW_1_05 = Candidate(
    r=[0.85, 0.792164, 0.875391, 0.770279, 0.912668,
       0.825766, 0.713281, 0.752163, 0.862834, 0.731219],
    n=[3, 4, 3, 3, 2, 3, 4, 3, 2, 3],
)
SP_ROW_08_02 = Candidate(
    r=[0.850737, 0.864102, 0.723045, 0.637486, 0.941978,
       0.80483, 0.800036, 0.855636, 0.833858, 0.7766],
    n=[2, 2, 3, 4, 2, 3, 3, 2, 3, 3],
)
PS_ROW_1_1 = Candidate(
    r=[0.583327, 0.697626, 0.562849, 0.698137, 0.553977],
    n=[3, 2, 2, 4, 2],
)

SOLVER_BUDGET = {"population": 100, "iterations": 100}
GRID_SEEDS = tuple(range(10))


def _passed(number: int, message: str) -> None:
    print(f"criterion {number:02d} PASS: {message}")


# ---------------------------------------------------------------------------
# criteria 1-3: deterministic reference-row recomputation
# ---------------------------------------------------------------------------

def test_criterion_01_series_parallel_reference_row():
    spec = bundled_dataset("series-parallel").spec
    m = crisp_metrics(spec, SP_ROW_1_1)
    assert m.reliability == pytest.approx(0.867612, rel=1e-5)
    assert m.cost == pytest.approx(437.075, abs=0.01)
    assert m.weight == pytest.approx(411.9564, abs=1e-3)
    assert m.volume == 234.0
    _passed(1, "series-parallel (1,1) row recomputes R, C, W, V")


def test_criterion_02_series_parallel_remaining_rows():
    spec = bundled_dataset("series-parallel").spec
    m = crisp_metrics(spec, SP_ROW_1_05)
    assert m.reliability == pytest.approx(0.911134656, rel=1e-5)
    assert m.cost == pytest.approx(484.0057968, abs=0.01)
    assert m.weight == pytest.approx(476.8512, abs=1e-3)
    assert m.volume == 286.0
    m = crisp_metrics(spec, SP_ROW_08_02)
    assert m.reliability == pytest.approx(0.873018805, rel=1e-5)
    assert m.cost == pytest.approx(457.8556232, abs=0.01)
    assert m.weight == pytest.approx(419.0664, abs=1e-3)
    assert m.volume == 228.0
    _passed(2, "series-parallel (1,0.5) and (0.8,0.2) rows recompute")


def test_criterion_03_parallel_series_reference_row():
    spec = bundled_dataset("parallel-series").spec
    assert spec.mission_hours == 1000.0
    m = crisp_metrics(spec, PS_ROW_1_1)
    assert m.reliability == pytest.approx(0.851456, abs=5e-5)
    assert m.cost == pytest.approx(103.056, abs=0.05)
    assert m.weight == pytest.approx(192.1318, abs=1e-3)
    assert m.volume == 101.0
    _passed(3, "parallel-series (1,1) row recomputes R, C, W, V")


# ---------------------------------------------------------------------------
# criterion 4: the weight-formula discrepancy is real and documented
# ---------------------------------------------------------------------------

def test_criterion_04_weight_formula_gap_is_documented():
    spec = bundled_dataset("series-parallel").spec
    literal = crisp_metrics(spec, SP_ROW_1_1, WEIGHT_AS_WRITTEN).weight
    table = crisp_metrics(spec, SP_ROW_1_1, WEIGHT_DATASET_CONSISTENT).weight
    assert literal == pytest.approx(350.76, abs=0.01)
    assert table == pytest.approx(411.9564, abs=1e-3)
    assert abs(literal - 411.956411) > 60.0
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert "350.761" in readme and "411.956" in readme
    assert "as-written" in readme and "dataset-consistent" in readme
    _passed(4, "additive weight form gives 350.76, not the tables' 411.956; "
               "README documents the gap")


# ---------------------------------------------------------------------------
# criterion 5: the type reducer against the linear-programming centroid
# ---------------------------------------------------------------------------

def test_criterion_05_centroid_matches_lp_oracle_on_1000_instances():
    rng = np.random.default_rng(424242)
    for _ in range(1000):
        s = random_sampled(rng)
        assert 3 <= s[0].size <= 64
        oracle_left, oracle_right = lp_centroid(*s)
        left, right = centroid_rows(*s)
        assert abs(left - oracle_left) <= 1e-9
        assert abs(right - oracle_right) <= 1e-9
    _passed(5, "1000 random footprints: switch-point centroid within 1e-9 "
               "of the linear-programming optimum")


# ---------------------------------------------------------------------------
# criterion 6: zero-spread fuzzification collapses to the crisp value
# ---------------------------------------------------------------------------

def test_criterion_06_crisp_collapse_recovers_crisp_reliability():
    zero_spread = IdealBounds(1.0, 0.0, 1e12, 0.0)
    for name in ("series-parallel", "parallel-series"):
        spec = bundled_dataset(name).spec
        rng = np.random.default_rng(7)
        for _ in range(100):
            cand = Candidate(
                rng.uniform(spec.r_min, spec.r_max, spec.size),
                rng.integers(spec.n_min, spec.n_max + 1, spec.size))
            objectives = evaluate_objectives(spec, cand, zero_spread,
                                             zeros_rng(), grid_size=201)
            fit = scalarize(objectives, (1.0, 0.0), zero_spread)
            crisp = crisp_metrics(spec, cand).reliability
            assert fit == crisp
    _passed(6, "200 random candidates: zero-spread fitness with xi=(1,0) "
               "equals crisp reliability exactly")


# ---------------------------------------------------------------------------
# criteria 7-8: the full solver grid (both datasets x both solvers x
# 5 weight vectors x 10 seeds at the 100x100 budget)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solver_grid():
    runs = {}
    for name in ("series-parallel", "parallel-series"):
        dataset = bundled_dataset(name)
        for xi in dataset.weight_pairs:
            bounds = dataset.bounds_for(xi)
            for seed in GRID_SEEDS:
                runs[(name, xi, "pso", seed)] = (dataset.spec, swarm_solve(
                    dataset.spec, bounds, xi,
                    SwarmConfig(seed=seed, **SOLVER_BUDGET)))
                runs[(name, xi, "ga", seed)] = (dataset.spec, genetic_solve(
                    dataset.spec, bounds, xi,
                    GaConfig(population=SOLVER_BUDGET["population"],
                             generations=SOLVER_BUDGET["iterations"],
                             seed=seed)))
    return runs


def test_criterion_07_feasible_bests_reverify_independently(solver_grid):
    assert len(solver_grid) == 200
    feasible = 0
    for (name, xi, algo, seed), (spec, res) in solver_grid.items():
        if not res.feasible:
            continue
        feasible += 1
        cand = res.best_candidate
        m = crisp_metrics(spec, cand)
        assert m.weight <= spec.weight_limit, (name, xi, algo, seed)
        assert m.volume <= spec.volume_limit, (name, xi, algo, seed)
        raw_weight = float(np.sum(
            spec.weight * np.asarray(cand.n) * np.exp(np.asarray(cand.n) / 4.0)))
        raw_volume = float(np.sum(spec.kappa * np.asarray(cand.n) ** 2))
        assert raw_weight <= spec.weight_limit + 1e-9, (name, xi, algo, seed)
        assert raw_volume <= spec.volume_limit + 1e-9, (name, xi, algo, seed)
    assert feasible == 200
    _passed(7, "all 200 grid runs report feasible bests and every one "
               "re-verifies the weight and volume limits independently")


def test_criterion_08_series_parallel_search_quality(solver_grid):
    best_rel = []
    for seed in GRID_SEEDS:
        spec, res = solver_grid[("series-parallel", (1.0, 1.0), "pso", seed)]
        assert res.feasible
        m = crisp_metrics(spec, res.best_candidate)
        assert m.cost <= 553.0
        best_rel.append(m.reliability)
    assert float(np.median(best_rel)) >= 0.85
    for (_, _, algo, _), (_, res) in solver_grid.items():
        assert np.all(np.diff(res.trace) >= 0.0), algo
    _passed(8, f"median best reliability {np.median(best_rel):.4f} >= 0.85 "
               "under the cost limit; every trace is non-decreasing")


# ---------------------------------------------------------------------------
# criterion 9: statistics self-checks
# ---------------------------------------------------------------------------

def test_criterion_09_statistics_self_checks():
    t = t_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert t.statistic == pytest.approx(-3.674, abs=1e-3)
    f = anova_f([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert f.statistic == pytest.approx(t.statistic ** 2, abs=1e-9)
    assert t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).p_value == 1.0
    assert anova_f([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]).p_value == 1.0
    _passed(9, "t = -3.674 on the split halves, F equals t^2, identical "
               "samples give p = 1")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical result files
# ---------------------------------------------------------------------------

def test_criterion_10_solves_are_byte_deterministic(tmp_path):
    for name, algo in (("series-parallel", "pso"), ("parallel-series", "ga")):
        first, second = tmp_path / f"{algo}_a", tmp_path / f"{algo}_b"
        for out in (first, second):
            argv = ["solve", name, "--algorithm", algo,
                    "--weights", "1,1;0.8,0.2", "--seeds", "0,1",
                    "--population", "16", "--iterations", "10",
                    "--grid-size", "101", "--out-dir", str(out)]
            assert main(argv) == 0
        for fname in ("runs.json", "pareto.csv", "trace.csv"):
            assert (first / fname).read_bytes() == (second / fname).read_bytes()
        records = json.loads((first / "runs.json").read_text())
        assert {rec["seed"] for rec in records} == {0, 1}
    _passed(10, "repeat solves with identical seed, config and dataset "
                "produce byte-identical runs.json, pareto.csv, trace.csv")
