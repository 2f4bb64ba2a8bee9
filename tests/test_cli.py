"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from it2rrap import MetricSet, dominates
from it2rrap.cli import main

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

PS_R = "0.583327,0.697626,0.562849,0.698137,0.553977"
PS_N = "3,2,2,4,2"


def solve_args(out_dir, **overrides):
    options = {
        "algorithm": "pso",
        "weights": "1,1",
        "seeds": "0",
        "population": "8",
        "iterations": "5",
        "grid-size": "101",
    }
    options.update(overrides)
    args = ["solve", "parallel-series"]
    for name, value in options.items():
        args.extend([f"--{name}", value])
    args.extend(["--out-dir", str(out_dir)])
    return args


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_all_outputs(tmp_path):
    assert main(solve_args(tmp_path, weights="1,1;0.8,0.2", seeds="0,1")) == 0
    records = json.loads((tmp_path / "runs.json").read_text())
    assert len(records) == 4
    for rec in records:
        assert rec["dataset"] == "parallel-series"
        assert rec["algorithm"] == "swarm"
        assert rec["population"] == 8
        assert rec["iterations"] == 5
        assert rec["grid_size"] == 101
        assert rec["evaluations"] == 40
        assert len(rec["r"]) == 5 and len(rec["n"]) == 5
    assert {(rec["xi_r"], rec["xi_c"]) for rec in records} == {
        (1.0, 1.0), (0.8, 0.2)}
    assert {rec["seed"] for rec in records} == {0, 1}

    rows = read_rows(tmp_path / "pareto.csv")
    assert len(rows) == 4
    for rec, row in zip(records, rows):
        assert float(row["R_s"]) == rec["reliability"]
        assert int(row["n3"]) == rec["n"][2]

    trace_rows = read_rows(tmp_path / "trace.csv")
    assert len(trace_rows) == 4 * 5
    one_run = [float(row["best_fitness"]) for row in trace_rows
               if row["seed"] == "0" and row["xi_r"] == "1.0"]
    assert len(one_run) == 5
    assert np.all(np.diff(one_run) >= 0.0)


def test_solve_single_weight_single_seed_yields_one_row(tmp_path):
    assert main(solve_args(tmp_path)) == 0
    assert len(read_rows(tmp_path / "pareto.csv")) == 1


def test_solve_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    argv = solve_args(first, weights="1,0.5", seeds="0-2")
    assert main(argv) == 0
    argv[argv.index(str(first))] = str(second)
    assert main(argv) == 0
    for name in ("runs.json", "pareto.csv", "trace.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_solve_seed_ranges_expand(tmp_path):
    assert main(solve_args(tmp_path, seeds="0-2,5")) == 0
    records = json.loads((tmp_path / "runs.json").read_text())
    assert [rec["seed"] for rec in records] == [0, 1, 2, 5]


def test_solve_front_keeps_no_dominated_row(tmp_path):
    full, front = tmp_path / "full", tmp_path / "front"
    assert main(solve_args(full, seeds="0-4")) == 0
    assert main(solve_args(front, seeds="0-4") + ["--front"]) == 0
    full_rows = read_rows(full / "pareto.csv")
    front_rows = read_rows(front / "pareto.csv")
    assert 1 <= len(front_rows) <= len(full_rows)

    def metrics(row):
        return MetricSet(float(row["R_s"]), float(row["C_s"]),
                         float(row["W_s"]), float(row["V_s"]))

    for row in front_rows:
        assert row["feasible"] == "True"
        assert not any(dominates(metrics(other), metrics(row))
                       for other in front_rows if other is not row)


def test_solve_ga_runs_and_is_labeled(tmp_path):
    assert main(solve_args(tmp_path, algorithm="ga")) == 0
    records = json.loads((tmp_path / "runs.json").read_text())
    assert records[0]["algorithm"] == "genetic"
    assert records[0]["k_used"] is None


def test_solve_rejects_missing_dataset(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.dat"),
                 "--out-dir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_rejects_malformed_weights(tmp_path, capsys):
    assert main(solve_args(tmp_path, weights="1,1,1")) == 1
    assert "not two numbers" in capsys.readouterr().err


def test_solve_rejects_grid_size_below_two(tmp_path, capsys):
    args = solve_args(tmp_path, population="4", iterations="2",
                      **{"grid-size": "1"})
    assert main(args) == 1
    assert "grid_size must be an integer of at least 2" in \
        capsys.readouterr().err
    assert not (tmp_path / "runs.json").exists()


def test_solve_rejects_unknown_weight_vector(tmp_path, capsys):
    assert main(solve_args(tmp_path, weights="0.3,0.7")) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("seeds, bad", [
    ("-1", "-1"), ("3-", "3-"), ("1-x", "1-x"), ("1-2-3", "1-2-3"),
    ("0,,1", ""), ("0,x", "x"), ("", ""),
])
def test_solve_names_the_bad_seed(tmp_path, capsys, seeds, bad):
    assert main(solve_args(tmp_path, seeds=seeds)) == 1
    assert (f"error: seed {bad!r} is not an integer or a range of two"
            in capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("option, value, message", [
    ("seeds", "0,0-2", "seeds [0] are repeated"),
    ("seeds", "3,1-4,2", "seeds [2, 3] are repeated"),
    ("weights", "1,1;1,1", "weight vector '1,1' is repeated"),
    ("weights", "1,1;0.8,0.2;1.0,1", "weight vector '1.0,1' is repeated"),
])
def test_solve_rejects_repeated_seeds_and_weight_vectors(
        tmp_path, capsys, option, value, message):
    """A repeat would write identical records twice, which compare would
    count as independent replications."""
    assert main(solve_args(tmp_path, **{option: value})) == 1
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_prints_both_weight_formulas(capsys):
    assert main(["verify", "parallel-series", "--r", PS_R, "--n", PS_N]) == 0
    out = capsys.readouterr().out
    assert "dataset-consistent" in out
    assert "as-written" in out
    assert "volume" in out


def test_verify_passes_matching_expectations(capsys):
    assert main(["verify", "parallel-series", "--r", PS_R, "--n", PS_N,
                 "--expect", "reliability=0.851456:5e-5",
                 "--expect", "cost=103.056:0.05",
                 "--expect", "weight=192.1318:1e-3",
                 "--expect", "volume=101:0.5"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass:") == 4
    assert "FAIL" not in out


def test_verify_fails_on_wrong_expectation(capsys):
    assert main(["verify", "parallel-series", "--r", PS_R, "--n", PS_N,
                 "--expect", "volume=999"]) == 1
    assert "FAIL: volume" in capsys.readouterr().out


def test_verify_rejects_unknown_metric(capsys):
    assert main(["verify", "parallel-series", "--r", PS_R, "--n", PS_N,
                 "--expect", "mass=1.0"]) == 1
    assert "unknown metric" in capsys.readouterr().err


@pytest.mark.parametrize("expect,reason", [
    ("volume=0:inf", "tolerance"),
    ("volume=0:nan", "tolerance"),
    ("volume=101:-1", "tolerance"),
    ("volume=101:-inf", "tolerance"),
    ("volume=nan:1", "finite value"),
    ("volume=nan", "finite value"),
    ("volume=inf:1", "finite value"),
    ("cost=-inf", "finite value"),
])
def test_verify_rejects_checks_that_cannot_fail_or_pass(capsys, expect,
                                                       reason):
    """An infinite tolerance passes any value and a NaN target or tolerance
    fails every one, so such checks are rejected before any is run."""
    assert main(["verify", "parallel-series", "--r", PS_R, "--n", PS_N,
                 "--expect", "volume=101:0.5", "--expect", expect]) == 1
    captured = capsys.readouterr()
    assert reason in captured.err
    assert "pass:" not in captured.out


def test_verify_accepts_zero_tolerance(capsys):
    assert main(["verify", "parallel-series", "--r", PS_R, "--n", PS_N,
                 "--expect", "volume=101:0"]) == 0
    assert "pass: volume" in capsys.readouterr().out


def test_verify_rejects_nan_reliability(capsys):
    r = ("nan,0.769185,0.826255,0.755018,0.72388,0.807148,0.765235,"
         "0.887747,0.875649,0.860357")
    assert main(["verify", "series-parallel", "--r", r,
                 "--n", "3,3,3,3,3,3,3,2,2,2"]) == 1
    captured = capsys.readouterr()
    assert "reliabilities must lie in" in captured.err
    assert "reliability nan" not in captured.out


@pytest.mark.parametrize("r", ["0.6,,0.6,0.6,0.6,0.6,", PS_R + ","])
def test_verify_rejects_empty_reliability_token(capsys, r):
    assert main(["verify", "parallel-series", "--r", r, "--n", PS_N]) == 1
    captured = capsys.readouterr()
    assert "could not convert string to float: ''" in captured.err
    assert "reliability" not in captured.out


def test_verify_applies_weight_formula_choice(capsys):
    assert main(["verify", "parallel-series", "--r", PS_R, "--n", PS_N,
                 "--weight-formula", "as-written",
                 "--expect", "weight=192.1318:1e-3"]) == 1
    assert "FAIL: weight" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    root = tmp_path_factory.mktemp("solved")
    pso, ga = root / "pso", root / "ga"
    # compare needs two feasible runs per solver; at 20 x 15 every
    # parallel-series GA seed 0-99 and all but one PSO seed finds one
    budget = {"population": "20", "iterations": "15"}
    assert main(solve_args(pso, seeds="0-2", **budget)) == 0
    assert main(solve_args(ga, algorithm="ga", seeds="0-2", **budget)) == 0
    return pso / "runs.json", ga / "runs.json"


def test_compare_writes_table(tmp_path, solved, capsys):
    pso_runs, ga_runs = solved
    assert main(["compare", str(pso_runs), str(ga_runs),
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "the one-way F test is the t test (F = t^2, same p-value)" in out
    counts = {}
    for path in (pso_runs, ga_runs):
        for rec in json.loads(path.read_text()):
            if rec["feasible"]:
                counts[rec["algorithm"]] = counts.get(rec["algorithm"], 0) + 1
    rows = read_rows(tmp_path / "comparison.csv")
    assert [row["objective"] for row in rows] == ["y_r", "y_c"]
    for row in rows:
        assert int(row["genetic_n"]) == counts["genetic"]
        assert int(row["swarm_n"]) == counts["swarm"]
        t, f = float(row["t"]), float(row["f"])
        assert np.allclose(f, t * t, rtol=1e-9)
        assert np.allclose(float(row["t_p"]), float(row["f_p"]), rtol=1e-9)


def test_compare_identical_samples_report_no_effect(tmp_path, solved):
    pso_runs, _ = solved
    records = json.loads(pso_runs.read_text())
    clone = [dict(rec, algorithm="mirror") for rec in records]
    clone_path = tmp_path / "mirror.json"
    clone_path.write_text(json.dumps(clone))
    assert main(["compare", str(pso_runs), str(clone_path),
                 "--out-dir", str(tmp_path)]) == 0
    for row in read_rows(tmp_path / "comparison.csv"):
        assert float(row["t"]) == 0.0
        assert float(row["t_p"]) == 1.0
        assert float(row["f"]) == 0.0
        assert float(row["f_p"]) == 1.0


def test_compare_requires_two_algorithms(tmp_path, solved, capsys):
    pso_runs, _ = solved
    assert main(["compare", str(pso_runs), "--out-dir", str(tmp_path)]) == 1
    assert "exactly 2 algorithms" in capsys.readouterr().err


def test_compare_requires_replications(tmp_path, capsys):
    pso, ga = tmp_path / "pso", tmp_path / "ga"
    assert main(solve_args(pso)) == 0
    assert main(solve_args(ga, algorithm="ga")) == 0
    assert main(["compare", str(pso / "runs.json"), str(ga / "runs.json"),
                 "--out-dir", str(tmp_path)]) == 1
    assert "insufficient replications" in capsys.readouterr().err


def test_compare_rejects_non_list_payload(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"algorithm": "swarm"}')
    assert main(["compare", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert "JSON list" in capsys.readouterr().err


def test_compare_rejects_records_missing_fields(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('[{"algorithm": "swarm", "seed": 0}]')
    assert main(["compare", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert "require the fields" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("algorithm", ["swarm"], "field 'algorithm' must be a string, got"),
    ("dataset", 3, "field 'dataset' must be a string"),
    ("fitness", None, "field 'fitness' must be a string"),
    ("weight_formula", 1.5, "field 'weight_formula' must be a string"),
    ("xi_r", "1", "field 'xi_r' must be a finite number, got '1'"),
    ("xi_c", True, "field 'xi_c' must be a finite number, got True"),
    ("xi_c", float("inf"), "field 'xi_c' must be a finite number"),
    ("xi_c", 10 ** 400, "field 'xi_c' must be a finite number"),
    ("grid_size", "101", "field 'grid_size' must be a finite number"),
    ("seed", 0.5, "field 'seed' must be an integer, got 0.5"),
    ("seed", False, "field 'seed' must be an integer, got False"),
    ("feasible", "yes", "field 'feasible' must be true or false"),
    ("y_r", "0.9", "field 'y_r' must be a finite number or null"),
    ("y_c", float("nan"), "field 'y_c' must be a finite number or null"),
])
def test_compare_checks_field_types(tmp_path, solved, capsys, field, value,
                                    message):
    pso_runs, ga_runs = solved
    records = json.loads(pso_runs.read_text())
    records[1][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(records))
    assert main(["compare", str(bad), str(ga_runs),
                 "--out-dir", str(tmp_path)]) == 1
    assert f"error: {bad}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "comparison.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("dataset", "series-parallel"),
    ("grid_size", 201),
    ("fitness", "raw"),
    ("weight_formula", "as-written"),
])
def test_compare_rejects_runs_of_different_problems(tmp_path, solved, capsys,
                                                    field, value):
    pso_runs, ga_runs = solved
    records = json.loads(ga_runs.read_text())
    for rec in records:
        rec[field] = value
    other = tmp_path / "other.json"
    other.write_text(json.dumps(records))
    assert main(["compare", str(pso_runs), str(other),
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: runs from different problems: {field} takes" in err
    assert repr(value) in err
    assert not (tmp_path / "comparison.csv").exists()


def test_compare_rejects_a_run_listed_twice(tmp_path, solved, capsys):
    pso_runs, ga_runs = solved
    assert main(["compare", str(pso_runs), str(ga_runs), str(pso_runs),
                 "--out-dir", str(tmp_path)]) == 1
    assert (f"error: {pso_runs}: run swarm xi=1,1 seed=0 is listed twice"
            in capsys.readouterr().err)
    assert not (tmp_path / "comparison.csv").exists()
