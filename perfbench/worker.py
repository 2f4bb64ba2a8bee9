"""One benchmark run of one workload, in this process.

Started by ``run.py``, which pins numpy's thread pools to one thread and
passes the monotonic time at which it started this process, so that
``setup_s`` covers interpreter start, ``import it2rrap`` and loading the
workload's dataset.  The run then calls the user-facing ``it2rrap solve``
command in process, once per round, over the workload's whole
weight-vector x seed grid, until ``--seconds`` have passed.  Every round's
outputs go through the independent checks in ``checks.py``.

With ``--trace 1`` untraced and traced rounds alternate, and the run
reports per-layer figures from the first traced round instead of the
end-to-end ones.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = Path(__file__).resolve().parent / "out"

POPULATION = 100
ITERATIONS = 100
REFERENCE_GRID = 3201


@dataclass(frozen=True)
class Workload:
    dataset: str
    data_file: str
    algorithm: str
    grid_size: int
    # Fixed solver seeds.  PSO draws its constriction factor from the seed,
    # once for all five weight vectors, and that draw alone moves a front's
    # wall time 2.5x and its hypervolume 3x from seed to seed (README).
    seeds: tuple


WORKLOADS = {
    # the paper's headline experiment: m = 10, ~77% of evaluations feasible
    "sp-pso-front": Workload("series-parallel", "series_parallel.dat",
                             "pso", 201, (0, 1)),
    # the other topology and solver: m = 5, so per-call overhead weighs more
    "ps-ga-front": Workload("parallel-series", "parallel_series.dat",
                            "ga", 201, (0, 1)),
    # the fine end of the grid range: the grid-sized layers dominate
    "sp-pso-fine": Workload("series-parallel", "series_parallel.dat",
                            "pso", 1601, (0,)),
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="selects nothing: the solver seeds are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.perf_counter() when this process started")
    return parser.parse_args(argv)


def _import_program():
    """Import it2rrap from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import it2rrap
    import it2rrap.cli
    where = Path(it2rrap.__file__).resolve().parent
    if where != (ROOT / "src" / "it2rrap").resolve():
        raise SystemExit(f"it2rrap imported from {where}, not from {ROOT}/src")
    return it2rrap


def _percentile_us(durations_ns, pct: int) -> float:
    if not durations_ns:
        return 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e3
    return statistics.quantiles(durations_ns, n=100)[pct - 1] / 1e3


def _cross_checks(tracer: Tracer, problem, evaluations: int) -> list:
    """Call counts checked against independent paths.  A span that saw no
    call (the program no longer calls that function) skips its checks."""
    crisp_calls = len(tracer.spans["crisp"])
    pipeline_calls = len(tracer.spans["pipeline"])
    centroid_calls = len(tracer.spans["centroid"])
    bad = []
    if crisp_calls and crisp_calls != evaluations:
        bad.append(f"{crisp_calls} crisp calls for {evaluations} evaluations")
    if crisp_calls and pipeline_calls:
        feasible = sum(
            checks.within_limits(problem, *checks.crisp(problem, r, n)[1:])
            for r, n in tracer.candidates)
        if pipeline_calls != feasible:
            bad.append(f"{pipeline_calls} pipeline calls for {feasible} "
                       "candidates within the limits")
    if pipeline_calls and centroid_calls and centroid_calls != 2 * pipeline_calls:
        bad.append(f"{centroid_calls} centroid calls for {pipeline_calls} "
                   "pipeline calls")
    return bad


def _grid_errors(it2rrap, dataset, records, grid_size: int):
    """Mean |objective at ``grid_size`` - objective at the reference grid|
    over the bests, under the draws their runs used.

    The scorer draws its fuzzification uniforms once per run from the
    stream ``SeedSequence(seed, spawn_key=(1,))``; the replay must give back
    the objectives in ``runs.json``, or the figures mean nothing.
    """
    import numpy as np

    err_r, err_c, replayed = [], [], True
    for rec in records:
        cand = it2rrap.Candidate(rec["r"], rec["n"])
        bounds = dataset.bounds_for((rec["xi_r"], rec["xi_c"]))

        def objectives(grid):
            draws = np.random.default_rng(
                np.random.SeedSequence(rec["seed"], spawn_key=(1,)))
            return it2rrap.evaluate_objectives(dataset.spec, cand, bounds,
                                               draws, grid)

        y_r, y_c = objectives(grid_size)
        ref_r, ref_c = objectives(REFERENCE_GRID)
        replayed &= abs(y_r - rec["y_r"]) <= 1e-12 \
            and abs(y_c - rec["y_c"]) <= 1e-9 * abs(rec["y_c"])
        err_r.append(abs(y_r - ref_r))
        err_c.append(abs(y_c - ref_c))
    if not records:
        return 0.0, 0.0, replayed
    return statistics.fmean(err_r), statistics.fmean(err_c), replayed


def _layer_metrics(tracer: Tracer, evaluations: int, load_s: float,
                   overhead_s: float, grid_errors) -> dict:
    spans = tracer.spans
    totals = {k: sorted(t for t, _ in v) for k, v in spans.items()}
    selfs = {k: sorted(s for _, s in v) for k, v in spans.items()}
    per_eval = evaluations or 1
    return {
        "datasets.load_s": (load_s, "s"),
        "cli.self_s": (sum(selfs["cli"]) / 1e9, "s"),
        "optimizer.evaluations": (evaluations, "count"),
        "optimizer.feasible_ratio": (len(spans["pipeline"]) / per_eval, "1"),
        "optimizer.self_us_per_eval": (sum(selfs["optimizer"]) / 1e3 / per_eval,
                                       "us"),
        "sysmodel.crisp_calls": (len(spans["crisp"]), "count"),
        "sysmodel.crisp_us_p50": (_percentile_us(totals["crisp"], 50), "us"),
        "sysmodel.crisp_us_p99": (_percentile_us(totals["crisp"], 99), "us"),
        "sysmodel.pipeline_calls": (len(spans["pipeline"]), "count"),
        "sysmodel.pipeline_self_us_p50":
            (_percentile_us(selfs["pipeline"], 50), "us"),
        "sysmodel.pipeline_self_us_p99":
            (_percentile_us(selfs["pipeline"], 99), "us"),
        "typereduce.centroid_calls": (len(spans["centroid"]), "count"),
        "typereduce.centroid_us_p50":
            (_percentile_us(totals["centroid"], 50), "us"),
        "typereduce.centroid_us_p99":
            (_percentile_us(totals["centroid"], 99), "us"),
        "sysmodel.y_r_grid_error": (grid_errors[0], "1"),
        "sysmodel.y_c_grid_error": (grid_errors[1], "cost"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def _solve_round(cli_main, argv, out_dir: Path, tracer=None) -> float:
    """Wall time of one ``it2rrap solve``, its printing sent to a log."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "solve.log", "w") as log, redirect_stdout(log):
        start = time.perf_counter()
        if tracer is None:
            code = cli_main(argv)
        else:
            with tracer.patched():
                code = tracer.call("cli", cli_main, argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"it2rrap solve exited with {code}; see "
                         f"{out_dir / 'solve.log'}")
    return elapsed


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    it2rrap = _import_program()
    start = time.perf_counter()
    dataset = it2rrap.bundled_dataset(workload.dataset)
    load_s = time.perf_counter() - start
    setup_s = time.perf_counter() - args.t0

    problem = checks.parse_problem(
        (ROOT / "src" / "it2rrap" / "data" / workload.data_file).read_text())
    out_dir = OUT_ROOT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["solve", workload.dataset, "--algorithm", workload.algorithm,
            "--seeds", ",".join(map(str, workload.seeds)),
            "--population", str(POPULATION), "--iterations", str(ITERATIONS),
            "--grid-size", str(workload.grid_size), "--out-dir", str(out_dir)]
    check_args = dict(algorithm=workload.algorithm, population=POPULATION,
                      iterations=ITERATIONS, grid_size=workload.grid_size)

    untraced_s, traced_s = [], []
    attempted = failed = 0
    first_bytes = front = first_traced = None
    deterministic = True
    began = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(untraced_s) > len(traced_s) \
            else None
        seconds = _solve_round(it2rrap.cli.main, argv, out_dir, tracer)
        passed, failures = checks.check_outputs(problem, out_dir,
                                                workload.seeds, **check_args)
        attempted += len(passed) + len(failures)
        failed += len(failures)
        for xi, seed, reasons in failures:
            print(f"FAILED xi={xi} seed={seed}: {'; '.join(reasons)}",
                  file=sys.stderr)
        runs_bytes = (out_dir / "runs.json").read_bytes()
        if first_bytes is None:
            first_bytes, front = runs_bytes, passed
        deterministic &= runs_bytes == first_bytes
        if tracer is None:
            untraced_s.append(seconds)
        else:
            traced_s.append(seconds)
            if first_traced is None:
                first_traced = tracer, json.loads(runs_bytes)
        kind = "traced" if tracer else "untraced"
        print(f"round {len(untraced_s) + len(traced_s)} ({kind}): "
              f"{seconds:.3f} s, {len(failures)} of "
              f"{len(passed) + len(failures)} solves failed")
        done = time.perf_counter() - began >= args.seconds
        if done and (not args.trace or traced_s):
            break

    correct = deterministic
    if not deterministic:
        print("runs.json differs between rounds of the same seeds",
              file=sys.stderr)
    if args.trace:
        tracer, records = first_traced
        evaluations = sum(rec["evaluations"] for rec in records)
        mismatches = _cross_checks(tracer, problem, evaluations)
        grid_errors = _grid_errors(it2rrap, dataset, front,
                                   workload.grid_size)
        if not grid_errors[2]:
            mismatches.append("replayed draws do not reproduce runs.json")
        for text in mismatches:
            print(f"cross-check failed: {text}", file=sys.stderr)
        correct &= not mismatches
        overhead_s = (statistics.median(traced_s)
                      - statistics.median(untraced_s))
        metrics = _layer_metrics(tracer, evaluations, load_s, overhead_s,
                                 grid_errors)
    else:
        points = [(rec["reliability"], rec["cost"]) for rec in front]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "front_s": (statistics.median(untraced_s), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "front_hv": (checks.hypervolume(points, problem.cost_limit), "1"),
        }
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
