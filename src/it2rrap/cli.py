"""Command-line interface: solve, verify and compare.

``solve`` runs a solver over weight vectors and seeds and writes JSON run
records, a Pareto CSV (one row per weight vector and seed) and a fitness
trace CSV.  ``verify`` recomputes the crisp metrics of one allocation and
checks them against expected values.  ``compare`` reads solve outputs for
two algorithms and reports per-weight-vector statistics.

All outputs are deterministic functions of the inputs: rerunning a solve
with the same dataset, configuration and seeds reproduces the files byte
for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .datasets import BUNDLED_DATASETS, Dataset, bundled_dataset, load_dataset
from .optimizer import GaConfig, RunResult, SwarmConfig, genetic_solve, swarm_solve
from .stats import anova_f, describe, t_test
from .sysmodel import (
    FITNESS_NORMALIZED,
    FITNESS_RAW,
    WEIGHT_AS_WRITTEN,
    WEIGHT_DATASET_CONSISTENT,
    Candidate,
    MetricSet,
    crisp_metrics,
    dominates,
)

__all__ = ["main"]

_METRIC_NAMES = ("reliability", "cost", "weight", "volume")


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def _parse_weights(text: str) -> List[Tuple[float, float]]:
    """Parse ``"1,1;0.8,0.2"`` into distinct weight pairs."""
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"weight vector {chunk!r} is not two numbers")
        pair = (float(parts[0]), float(parts[1]))
        if pair in pairs:
            raise ValueError(f"weight vector {chunk!r} is repeated")
        pairs.append(pair)
    if not pairs:
        raise ValueError("at least one weight vector is required")
    return pairs


def _parse_seeds(text: str) -> List[int]:
    """Parse ``"0,2,5-7"`` into a list of distinct seeds, ranges inclusive."""
    seeds: List[int] = []
    for chunk in text.split(","):
        first, dash, last = chunk.partition("-")
        try:
            lo = int(first)
            hi = int(last) if dash else lo
        except ValueError:
            raise ValueError(f"seed {chunk!r} is not an integer or a range "
                             "of two, like 0-9") from None
        if hi < lo:
            raise ValueError(f"seed range {chunk!r} runs backwards")
        seeds.extend(range(lo, hi + 1))
    # a repeated seed would be counted by compare as another replication
    repeated = sorted(seed for seed, count in Counter(seeds).items()
                      if count > 1)
    if repeated:
        raise ValueError(f"seeds {repeated} are repeated")
    return seeds


def _parse_floats(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",")]


def _open_dataset(name: str) -> Dataset:
    if name in BUNDLED_DATASETS:
        return bundled_dataset(name)
    return load_dataset(name)


def _fmt(value) -> str:
    """Deterministic CSV cell: shortest round-trip for floats."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _run_record(dataset_name: str, population: int, iterations: int,
                res: RunResult) -> dict:
    cand = res.best_candidate
    m = res.best_metrics
    return {
        "dataset": dataset_name,
        "algorithm": res.algorithm,
        "seed": res.seed,
        "xi_r": res.xi[0],
        "xi_c": res.xi[1],
        "population": population,
        "iterations": iterations,
        "weight_formula": res.weight_variant,
        "fitness": res.fitness_mode,
        "grid_size": res.grid_size,
        "k_used": res.k_used,
        "evaluations": res.evaluations,
        "feasible": res.feasible,
        "r": [float(v) for v in cand.r],
        "n": [int(v) for v in cand.n],
        "reliability": m.reliability,
        "cost": m.cost,
        "weight": m.weight,
        "volume": m.volume,
        "y_r": None if res.best_objectives is None else res.best_objectives[0],
        "y_c": None if res.best_objectives is None else res.best_objectives[1],
        "best_fitness": res.best_fitness,
    }


def _pareto_rows(records: Sequence[dict], front_only: bool) -> List[dict]:
    rows = list(records)
    if not front_only:
        return rows
    feasible = [rec for rec in rows if rec["feasible"]]

    def metrics(rec: dict) -> MetricSet:
        return MetricSet(rec["reliability"], rec["cost"], rec["weight"],
                         rec["volume"])

    return [rec for rec in feasible
            if not any(dominates(metrics(other), metrics(rec))
                       for other in feasible if other is not rec)]


def _write_solve_outputs(out_dir: Path, records: List[dict],
                         traces: List[Tuple[dict, Sequence[float]]],
                         front_only: bool, size: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "runs.json").write_text(
        json.dumps(records, indent=2, sort_keys=True) + "\n")

    head = ["algorithm", "xi_r", "xi_c", "seed", "feasible",
            "R_s", "C_s", "W_s", "V_s", "y_r", "y_c", "fitness"]
    head += [f"r{i}" for i in range(1, size + 1)]
    head += [f"n{i}" for i in range(1, size + 1)]
    lines = [",".join(head)]
    for rec in _pareto_rows(records, front_only):
        cells = [rec["algorithm"], rec["xi_r"], rec["xi_c"], rec["seed"],
                 rec["feasible"], rec["reliability"], rec["cost"],
                 rec["weight"], rec["volume"], rec["y_r"], rec["y_c"],
                 rec["best_fitness"], *rec["r"], *rec["n"]]
        lines.append(",".join(_fmt(c) for c in cells))
    (out_dir / "pareto.csv").write_text("\n".join(lines) + "\n")

    lines = ["algorithm,xi_r,xi_c,seed,iteration,best_fitness"]
    for rec, trace in traces:
        stem = (f'{rec["algorithm"]},{_fmt(rec["xi_r"])},{_fmt(rec["xi_c"])},'
                f'{rec["seed"]}')
        for i, value in enumerate(trace):
            lines.append(f"{stem},{i},{_fmt(float(value))}")
    (out_dir / "trace.csv").write_text("\n".join(lines) + "\n")


def _cmd_solve(args) -> int:
    dataset = _open_dataset(args.dataset)
    spec = dataset.spec
    weights = (_parse_weights(args.weights) if args.weights
               else list(dataset.weight_pairs))
    seeds = _parse_seeds(args.seeds)
    records, traces = [], []
    for xi in weights:
        bounds = dataset.bounds_for(xi)
        for seed in seeds:
            # the solver is looked up as a module global per solve, so a
            # wrapper set over it (a profiler's span, say) sees every call
            if args.algorithm == "pso":
                solve = swarm_solve
                config = SwarmConfig(population=args.population,
                                     iterations=args.iterations, seed=seed)
            else:
                solve = genetic_solve
                config = GaConfig(population=args.population,
                                  generations=args.iterations, seed=seed)
            res = solve(spec, bounds, xi, config,
                        weight_variant=args.weight_formula,
                        fitness_mode=args.fitness, grid_size=args.grid_size)
            rec = _run_record(args.dataset, args.population, args.iterations,
                              res)
            records.append(rec)
            traces.append((rec, res.trace))
            tag = "feasible" if res.feasible else "INFEASIBLE"
            print(f'{res.algorithm} xi={xi[0]:g},{xi[1]:g} seed={seed}: '
                  f'fitness={res.best_fitness:.6f} R_s={rec["reliability"]:.6f} '
                  f'C_s={rec["cost"]:.3f} {tag}')
    _write_solve_outputs(Path(args.out_dir), records, traces, args.front,
                         spec.size)
    print(f"wrote runs.json, pareto.csv, trace.csv to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _parse_expectation(text: str) -> Tuple[str, float, float]:
    """Parse ``metric=value`` or ``metric=value:tolerance``."""
    if "=" not in text:
        raise ValueError(f"expectation {text!r} is not metric=value[:tol]")
    name, _, rest = text.partition("=")
    if name not in _METRIC_NAMES:
        raise ValueError(f"unknown metric {name!r}; choose from "
                         f"{', '.join(_METRIC_NAMES)}")
    value, _, tol = rest.partition(":")
    want, tol = float(value), float(tol) if tol else 1e-6
    # a NaN target or tolerance fails every check and an infinite one passes
    # every check, so neither tests anything
    if not math.isfinite(want):
        raise ValueError(f"expectation {text!r} needs a finite value")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"expectation {text!r} needs a finite, "
                         "non-negative tolerance")
    return name, want, tol


def _cmd_verify(args) -> int:
    dataset = _open_dataset(args.dataset)
    spec = dataset.spec
    cand = Candidate(_parse_floats(args.r), [int(t) for t in args.n.split(",")])
    expectations = [_parse_expectation(text) for text in args.expect or []]
    metrics = crisp_metrics(spec, cand, args.weight_formula)
    other = (WEIGHT_AS_WRITTEN if args.weight_formula ==
             WEIGHT_DATASET_CONSISTENT else WEIGHT_DATASET_CONSISTENT)
    print(f"reliability {metrics.reliability!r}")
    print(f"cost        {metrics.cost!r}")
    print(f"weight      {metrics.weight!r} ({args.weight_formula})")
    print(f"            {crisp_metrics(spec, cand, other).weight!r} ({other})")
    print(f"volume      {metrics.volume!r}")
    failures = 0
    for name, want, tol in expectations:
        got = getattr(metrics, name)
        ok = abs(got - want) <= tol
        failures += 0 if ok else 1
        print(f'{"pass" if ok else "FAIL"}: {name} expected {want!r} '
              f'+- {tol!r}, got {got!r}')
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    # JSON true and false load as bools, which isinstance counts as ints;
    # the comparison is exact, so it also fails integers too large for floats
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


_TEXT = ("a string", lambda v: isinstance(v, str))
_NUMBER = ("a finite number", _is_number)
_OBJECTIVE = ("a finite number or null", lambda v: v is None or _is_number(v))
# each record field compare reads, with what its value must be
_RECORD_FIELDS = {
    "algorithm": _TEXT, "dataset": _TEXT, "fitness": _TEXT,
    "weight_formula": _TEXT, "xi_r": _NUMBER, "xi_c": _NUMBER,
    "grid_size": _NUMBER, "seed": ("an integer", lambda v: type(v) is int),
    "feasible": ("true or false", lambda v: isinstance(v, bool)),
    "y_r": _OBJECTIVE, "y_c": _OBJECTIVE,
}
# the problem every pooled run must have solved, scored the same way
_PROBLEM_FIELDS = ("dataset", "grid_size", "fitness", "weight_formula")


def _load_records(paths: Sequence[str]) -> List[dict]:
    records, runs = [], set()
    for path in paths:
        loaded = json.loads(Path(path).read_text())
        if not isinstance(loaded, list):
            raise ValueError(f"{path}: expected a JSON list of run records")
        for rec in loaded:
            if not isinstance(rec, dict) or any(f not in rec
                                                for f in _RECORD_FIELDS):
                raise ValueError(f"{path}: run records require the fields "
                                 + ", ".join(_RECORD_FIELDS))
            for field, (wanted, check) in _RECORD_FIELDS.items():
                if not check(rec[field]):
                    raise ValueError(f"{path}: field {field!r} must be "
                                     f"{wanted}, got {rec[field]!r}")
            # a run listed twice would count as two replications
            run = (rec["algorithm"], rec["xi_r"], rec["xi_c"], rec["seed"])
            if run in runs:
                raise ValueError(
                    f"{path}: run {run[0]} xi={run[1]:g},{run[2]:g} "
                    f"seed={run[3]} is listed twice")
            runs.add(run)
        records.extend(loaded)
    for field in _PROBLEM_FIELDS:
        values = {rec[field] for rec in records}
        if len(values) > 1:
            raise ValueError(f"runs from different problems: {field} takes "
                             f"the values {', '.join(map(repr, sorted(values)))}")
    return records


def _group_objectives(records: Sequence[dict]):
    """Feasible objective samples keyed by (algorithm, weight vector)."""
    groups = {}
    for rec in records:
        if not rec["feasible"] or rec["y_r"] is None or rec["y_c"] is None:
            continue
        key = (rec["algorithm"], (rec["xi_r"], rec["xi_c"]))
        groups.setdefault(key, {"y_r": [], "y_c": []})
        groups[key]["y_r"].append(rec["y_r"])
        groups[key]["y_c"].append(rec["y_c"])
    return groups


def _cmd_compare(args) -> int:
    records = _load_records(args.results)
    algorithms = sorted({rec["algorithm"] for rec in records})
    if len(algorithms) != 2:
        raise ValueError(f"compare needs runs from exactly 2 algorithms, "
                         f"found {len(algorithms)}: {', '.join(algorithms)}")
    first, second = algorithms
    groups = _group_objectives(records)
    weight_pairs = sorted({xi for (_, xi) in groups})
    header = ("xi_r,xi_c,objective,"
              f"{first}_n,{first}_mean,{first}_sd,{first}_median,"
              f"{second}_n,{second}_mean,{second}_sd,{second}_median,"
              "t,t_p,f,f_p")
    lines = [header]
    print("statistics per objective: with two groups the one-way F test"
          " is the t test (F = t^2, same p-value)")
    for xi in weight_pairs:
        for side in (first, second):
            got = len(groups.get((side, xi), {"y_r": []})["y_r"])
            if got < 2:
                raise ValueError(
                    f"insufficient replications: algorithm {side!r} has "
                    f"{got} feasible runs for weights {xi[0]:g},{xi[1]:g}"
                    f" (need at least 2)")
        for objective in ("y_r", "y_c"):
            a = groups[(first, xi)][objective]
            b = groups[(second, xi)][objective]
            da, db = describe(a), describe(b)
            t = t_test(a, b)
            f = anova_f([a, b])
            cells = [xi[0], xi[1], objective,
                     da.n, da.mean, da.sd, da.median,
                     db.n, db.mean, db.sd, db.median,
                     t.statistic, t.p_value, f.statistic, f.p_value]
            lines.append(",".join(_fmt(c) for c in cells))
            print(f"xi={xi[0]:g},{xi[1]:g} {objective}: "
                  f"{first} mean={da.mean:.6f} sd={da.sd:.6f} | "
                  f"{second} mean={db.mean:.6f} sd={db.sd:.6f} | "
                  f"t={t.statistic:.4f} p={t.p_value:.4f} "
                  f"F={f.statistic:.4f} p={f.p_value:.4f}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "comparison.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote comparison.csv to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="it2rrap",
        description="Fuzzy reliability-redundancy allocation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver over weights and seeds")
    solve.add_argument("dataset",
                       help="dataset file path or bundled name "
                            f"({', '.join(BUNDLED_DATASETS)})")
    solve.add_argument("--algorithm", choices=("pso", "ga"), default="pso")
    solve.add_argument("--weights", default=None,
                       help='weight vectors like "1,1;0.8,0.2" '
                            "(default: all vectors in the dataset)")
    solve.add_argument("--seeds", default="0", help='e.g. "0,1,2" or "0-9"')
    solve.add_argument("--population", type=int, default=100)
    solve.add_argument("--iterations", type=int, default=100)
    solve.add_argument("--grid-size", type=int, default=201,
                       help="points on each cost grid [0, max(cost_limit, "
                            "c_right, dearest stage cost)] (default: 201)")
    solve.add_argument("--weight-formula",
                       choices=(WEIGHT_AS_WRITTEN, WEIGHT_DATASET_CONSISTENT),
                       default=WEIGHT_DATASET_CONSISTENT)
    solve.add_argument("--fitness",
                       choices=(FITNESS_NORMALIZED, FITNESS_RAW),
                       default=FITNESS_NORMALIZED)
    solve.add_argument("--front", action="store_true",
                       help="keep only non-dominated rows in pareto.csv")
    solve.add_argument("--out-dir", default=".")

    verify = sub.add_parser("verify",
                            help="recompute crisp metrics for one allocation")
    verify.add_argument("dataset")
    verify.add_argument("--r", required=True,
                        help="comma-separated unit reliabilities")
    verify.add_argument("--n", required=True,
                        help="comma-separated redundancy counts")
    verify.add_argument("--weight-formula",
                        choices=(WEIGHT_AS_WRITTEN, WEIGHT_DATASET_CONSISTENT),
                        default=WEIGHT_DATASET_CONSISTENT)
    verify.add_argument("--expect", action="append", metavar="METRIC=VALUE[:TOL]",
                        help="check a metric (reliability, cost, weight, "
                             "volume) against an expected value; repeatable")

    compare = sub.add_parser("compare",
                             help="statistics across two algorithms' runs")
    compare.add_argument("results", nargs="+",
                         help="runs.json files produced by solve")
    compare.add_argument("--out-dir", default=".")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"solve": _cmd_solve, "verify": _cmd_verify,
               "compare": _cmd_compare}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
