"""Tests of the benchmark's own output checker and hypervolume.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

# two sub-systems; the volume limit is tight enough for n = (5, 5) to break it
PROBLEM_TEXT = """\
schema 1
topology series-parallel
mission-hours 1000.0
subsystems 2
weight-limit 483.0
volume-limit 100.0
cost-limit 553.0
unit 1 alpha 6.1136e-06 beta 1.5 weight 9 kappa 4  # a comment
unit 2 alpha 4.032464e-05 beta 1.5 weight 7 kappa 5
bounds 1.0 1.0 r 0.6452566 0.8199358 c 185.607332 470.195913
"""
PROBLEM = checks.parse_problem(PROBLEM_TEXT)
BUDGET = dict(algorithm="pso", population=4, iterations=3, grid_size=201)


def _record(r, n, y_r=0.6, y_c=250.0):
    rel, cost, weight, volume = checks.crisp(PROBLEM, r, n)
    return {
        "algorithm": "swarm", "dataset": "toy", "seed": 7,
        "xi_r": 1.0, "xi_c": 1.0, "population": 4, "iterations": 3,
        "grid_size": 201, "evaluations": 12, "feasible": True,
        "r": list(r), "n": list(n), "reliability": rel, "cost": cost,
        "weight": weight, "volume": volume, "y_r": y_r, "y_c": y_c,
        "best_fitness": checks.normalized_fitness(PROBLEM, (1.0, 1.0),
                                                  y_r, y_c),
    }


def _write(out_dir: Path, rec: dict, trace) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "runs.json").write_text(json.dumps([rec], indent=2))
    lines = ["algorithm,xi_r,xi_c,seed,iteration,best_fitness"]
    lines += [f"swarm,1.0,1.0,7,{i},{v!r}" for i, v in enumerate(trace)]
    (out_dir / "trace.csv").write_text("\n".join(lines) + "\n")
    return out_dir


def _check(out_dir: Path):
    return checks.check_outputs(PROBLEM, out_dir, [7], **BUDGET)


GOOD = _record([0.8, 0.85], [3, 2])
GOOD_TRACE = [GOOD["best_fitness"] - 0.2, GOOD["best_fitness"] - 0.1,
              GOOD["best_fitness"]]


def test_crisp_formulas_by_hand():
    rel, _, weight, volume = checks.crisp(PROBLEM, [0.8, 0.85], [3, 2])
    assert rel == pytest.approx((1 - 0.2 ** 3) * (1 - 0.15 ** 2))
    assert weight == pytest.approx(9 * 3 * 2.117000016612675
                                   + 7 * 2 * 1.6487212707001282)
    assert volume == 4 * 9 + 5 * 4


def test_checker_accepts_consistent_outputs(tmp_path):
    passed, failures = _check(_write(tmp_path, GOOD, GOOD_TRACE))
    assert failures == []
    assert passed == [GOOD]


def _over_volume(rec, trace):
    bad = _record([0.8, 0.85], [5, 5])
    assert bad["weight"] <= PROBLEM.weight_limit
    assert bad["volume"] > PROBLEM.volume_limit
    rec.update(bad)


def _fitness_off(rec, trace):
    rec["best_fitness"] += 1e-6
    trace[-1] = rec["best_fitness"]


def _decreasing_trace(rec, trace):
    trace[1] = trace[0] - 0.05


def _non_integer_n(rec, trace):
    rec["n"][0] = 2.5


@pytest.mark.parametrize("corrupt, reason", [
    (_over_volume, "over the volume limit"),
    (_fitness_off, "best_fitness"),
    (_decreasing_trace, "trace decreases"),
    (_non_integer_n, "n not integers"),
])
def test_checker_rejects_corrupted_copies(tmp_path, corrupt, reason):
    rec, trace = copy.deepcopy(GOOD), list(GOOD_TRACE)
    corrupt(rec, trace)
    passed, failures = _check(_write(tmp_path, rec, trace))
    assert passed == []
    [(_, _, reasons)] = failures
    assert any(reason in text for text in reasons), reasons


def test_checker_counts_a_missing_solve_as_failed(tmp_path):
    out_dir = _write(tmp_path, GOOD, GOOD_TRACE)
    passed, failures = checks.check_outputs(PROBLEM, out_dir, [7, 8],
                                            **BUDGET)
    assert passed == [GOOD]
    assert [(seed, reasons) for _, seed, reasons in failures] == [
        (8, ["missing from runs.json"])]


@pytest.mark.parametrize("points, expected", [
    ([], 0.0),
    ([(0.5, 50.0)], 0.5 * 0.5),
    # two non-dominated points: 0.5 * 0.8 + (0.8 - 0.5) * 0.4
    ([(0.5, 20.0), (0.8, 60.0)], 0.52),
    # a dominated point and a duplicate add nothing
    ([(0.5, 20.0), (0.8, 60.0), (0.4, 70.0), (0.5, 20.0)], 0.52),
    # equal cost, different reliability: only the better one counts
    ([(0.3, 20.0), (0.5, 20.0)], 0.5 * 0.8),
    # a point at or beyond the reference cost encloses no area
    ([(0.9, 100.0), (0.95, 120.0)], 0.0),
])
def test_hypervolume_hand_computed(points, expected):
    assert checks.hypervolume(points, 100.0) == pytest.approx(expected)
    assert checks.hypervolume(list(reversed(points)), 100.0) \
        == pytest.approx(expected)
