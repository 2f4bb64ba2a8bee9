"""Independent checks of `it2rrap solve` outputs, and the front hypervolume.

Nothing here imports it2rrap.  The crisp formulas are written out again
from the dataset file, so a fault in the program's own crisp metrics
cannot vouch for itself.  Every check reads only what `solve` wrote
(`runs.json` and `trace.csv`) and the problem file it solved.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Search box of a problem file that does not override it: the package's
# documented defaults (r in [0.5, 1 - 1e-6], n in 1..5).
_DEFAULT_BOX = {"r-min": 0.5, "r-max": 1.0 - 1e-6, "n-min": 1, "n-max": 5}

# `solve` exposes no elitism setting; the genetic searcher keeps one elite.
GA_ELITISM = 1

_ALGORITHM_LABELS = {"pso": "swarm", "ga": "genetic"}
_REL_TOL = 1e-9
_FITNESS_TOL = 1e-9


@dataclass(frozen=True)
class Problem:
    """The parts of a problem file the checks need."""

    topology: str
    mission_hours: float
    weight_limit: float
    volume_limit: float
    cost_limit: float
    units: tuple          # (alpha, beta, weight, kappa) per sub-system
    box: dict             # r-min, r-max, n-min, n-max
    anchors: dict         # (xi_r, xi_c) -> (r_left, r_right, c_left, c_right)


def parse_problem(text: str) -> Problem:
    """Read the line format of a problem file (see the package README)."""
    scalars, units, anchors = {}, [], {}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens or tokens[0] == "schema":
            continue
        key = tokens[0]
        if key == "unit":
            units.append(tuple(float(tokens[i]) for i in (3, 5, 7, 9)))
        elif key == "bounds":
            xi = (float(tokens[1]), float(tokens[2]))
            anchors[xi] = tuple(float(tokens[i]) for i in (4, 5, 7, 8))
        elif key == "topology":
            scalars[key] = tokens[1]
        else:
            scalars[key] = float(tokens[1])
    box = {k: scalars.get(k, v) for k, v in _DEFAULT_BOX.items()}
    return Problem(
        topology=scalars["topology"],
        mission_hours=scalars["mission-hours"],
        weight_limit=scalars["weight-limit"],
        volume_limit=scalars["volume-limit"],
        cost_limit=scalars["cost-limit"],
        units=tuple(units),
        box=box,
        anchors=anchors,
    )


def crisp(problem: Problem, r, n) -> tuple:
    """(R, C, W, V) of one allocation, with the dataset-consistent weight
    formula W = sum w n exp(n/4)."""
    if problem.topology == "series-parallel":
        rel = math.prod(1.0 - (1.0 - ri) ** ni for ri, ni in zip(r, n))
    else:
        rel = 1.0 - math.prod(1.0 - ri ** ni for ri, ni in zip(r, n))
    cost = weight = volume = 0.0
    for (alpha, beta, w, kappa), ri, ni in zip(problem.units, r, n):
        cost += (alpha * (-problem.mission_hours / math.log(ri)) ** beta
                 * (ni + math.exp(ni / 4.0)))
        weight += w * ni * math.exp(ni / 4.0)
        volume += kappa * ni * ni
    return rel, cost, weight, volume


def within_limits(problem: Problem, cost: float, weight: float,
                  volume: float) -> bool:
    return (cost <= problem.cost_limit and weight <= problem.weight_limit
            and volume <= problem.volume_limit)


def normalized_fitness(problem: Problem, xi, y_r: float, y_c: float) -> float:
    """Weighted sum of the objectives, cost mapped through its anchors."""
    _, _, c_left, c_right = problem.anchors[(xi[0], xi[1])]
    return xi[0] * y_r - xi[1] * (y_c - c_left) / (c_right - c_left)


def expected_evaluations(algorithm: str, population: int, rounds: int) -> int:
    if algorithm == "pso":
        return population * rounds
    return population + (rounds - 1) * (population - GA_ELITISM)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=1e-12)


def check_solve(problem: Problem, rec: dict, trace, *, algorithm: str,
                population: int, iterations: int, grid_size: int) -> list:
    """Every reason one run record and its fitness trace are wrong."""
    bad = []
    if rec.get("algorithm") != _ALGORITHM_LABELS[algorithm]:
        bad.append(f"algorithm {rec.get('algorithm')!r}")
    if (rec.get("population"), rec.get("iterations"), rec.get("grid_size")) \
            != (population, iterations, grid_size):
        bad.append("budget or grid differs from the request")
    if rec.get("feasible") is not True:
        return bad + ["no feasible best"]
    r, n = rec["r"], rec["n"]
    size = len(problem.units)
    if len(r) != size or len(n) != size:
        return bad + ["allocation has the wrong length"]
    box = problem.box
    if not all(box["r-min"] <= ri <= box["r-max"] for ri in r):
        bad.append("r outside [r_min, r_max]")
    if not all(isinstance(ni, int) and box["n-min"] <= ni <= box["n-max"]
               for ni in n):
        return bad + ["n not integers in [n_min, n_max]"]
    rel, cost, weight, volume = crisp(problem, r, n)
    for name, mine in (("reliability", rel), ("cost", cost),
                       ("weight", weight), ("volume", volume)):
        if not _close(rec[name], mine):
            bad.append(f"{name} {rec[name]!r} != recomputed {mine!r}")
    if cost > problem.cost_limit:
        bad.append("over the cost limit")
    if weight > problem.weight_limit:
        bad.append("over the weight limit")
    if volume > problem.volume_limit:
        bad.append("over the volume limit")
    y_r, y_c = rec["y_r"], rec["y_c"]
    c_right = problem.anchors[(rec["xi_r"], rec["xi_c"])][3]
    if not 0.0 <= y_r <= 1.0:
        bad.append(f"y_r {y_r!r} outside [0, 1]")
    if not 0.0 < y_c <= max(problem.cost_limit, c_right):
        bad.append(f"y_c {y_c!r} outside (0, max(cost_limit, c_right)]")
    fit = normalized_fitness(problem, (rec["xi_r"], rec["xi_c"]), y_r, y_c)
    if abs(rec["best_fitness"] - fit) > _FITNESS_TOL:
        bad.append(f"best_fitness {rec['best_fitness']!r} != {fit!r}")
    if len(trace) != iterations:
        bad.append(f"trace has {len(trace)} rounds, not {iterations}")
    elif any(b < a for a, b in zip(trace, trace[1:])):
        bad.append("trace decreases")
    elif not _close(trace[-1], rec["best_fitness"]):
        bad.append("trace does not end at best_fitness")
    if rec.get("evaluations") != expected_evaluations(
            algorithm, population, iterations):
        bad.append(f"{rec.get('evaluations')} evaluations")
    return bad


def _read_traces(path: Path) -> dict:
    traces = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["algorithm"], float(row["xi_r"]), float(row["xi_c"]),
                   int(row["seed"]))
            traces.setdefault(key, []).append(float(row["best_fitness"]))
    return traces


def check_outputs(problem: Problem, out_dir: Path, seeds, *, algorithm: str,
                  population: int, iterations: int, grid_size: int):
    """Check one `solve` over every weight vector of ``problem`` and
    ``seeds``.

    Returns ``(passed, failures)``: the records that pass every check, and
    one ``(weight vector, seed, reasons)`` entry per solve that failed or is
    missing from the outputs.
    """
    try:
        records = json.loads((out_dir / "runs.json").read_text())
        traces = _read_traces(out_dir / "trace.csv")
        missing = "missing from runs.json"
    except (OSError, ValueError, KeyError) as exc:
        records, traces, missing = [], {}, f"unreadable outputs: {exc}"
    by_key = {}
    for rec in records:
        key = (rec.get("xi_r"), rec.get("xi_c"), rec.get("seed"))
        by_key.setdefault(key, []).append(rec)
    passed, failures = [], []
    for xi in problem.anchors:
        for seed in seeds:
            found = by_key.pop((xi[0], xi[1], seed), [])
            if len(found) != 1:
                failures.append((xi, seed, [missing if not found
                                            else "duplicate records"]))
                continue
            rec = found[0]
            trace = traces.get((rec.get("algorithm"), xi[0], xi[1], seed), [])
            bad = check_solve(problem, rec, trace, algorithm=algorithm,
                              population=population, iterations=iterations,
                              grid_size=grid_size)
            if bad:
                failures.append((xi, seed, bad))
            else:
                passed.append(rec)
    for (xi_r, xi_c, seed) in by_key:
        failures.append(((xi_r, xi_c), seed, ["record not requested"]))
    return passed, failures


def hypervolume(points, cost_limit: float) -> float:
    """Area dominated by ``(reliability, cost)`` points up to the reference
    ``(R = 0, C = cost_limit)``, with cost divided by ``cost_limit``.

    Reliability is maximised and cost minimised (Zitzler & Thiele 1999);
    dominated and duplicate points add nothing.
    """
    norm = sorted((c / cost_limit, -r) for r, c in points)
    area, reached = 0.0, 0.0
    for c, neg_r in norm:
        r = -neg_r
        if c < 1.0 and r > reached:
            area += (r - reached) * (1.0 - c)
            reached = r
    return area
