"""Tests for the problem-file reader, writer and bundled instances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2rrap import (
    BUNDLED_DATASETS,
    Dataset,
    IdealBounds,
    PARALLEL_SERIES,
    SERIES_PARALLEL,
    SystemSpec,
    bundled_dataset,
    crisp_metrics,
    dump_dataset,
    dumps_dataset,
    load_dataset,
    loads_dataset,
)
from tests.test_sysmodel import PS_REFERENCE, SP_REFERENCE, ps_spec, sp_spec

MINI = """\
schema 1
topology series-parallel
mission-hours 1000.0
subsystems 1
weight-limit 100.0
volume-limit 100.0
cost-limit 100.0
unit 1 alpha 2e-05 beta 1.5 weight 2 kappa 3
bounds 1.0 1.0 r 0.5 0.9 c 10.0 90.0
"""


def specs_equal(a, b):
    if a.topology != b.topology:
        return False
    scalar = ("mission_hours", "weight_limit", "volume_limit", "cost_limit",
              "r_min", "r_max", "n_min", "n_max")
    if any(getattr(a, f) != getattr(b, f) for f in scalar):
        return False
    arrays = ("alpha", "beta", "weight", "kappa")
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in arrays)


# ---------------------------------------------------------------------------
# bundled instances
# ---------------------------------------------------------------------------

def test_bundled_names():
    assert BUNDLED_DATASETS == ("series-parallel", "parallel-series")
    with pytest.raises(ValueError, match="unknown bundled dataset"):
        bundled_dataset("ring")


def test_bundled_series_parallel_matches_reference_instance():
    ds = bundled_dataset("series-parallel")
    assert specs_equal(ds.spec, sp_spec())
    assert ds.weight_pairs == ((1.0, 1.0), (1.0, 0.5), (0.8, 0.2),
                               (0.2, 0.8), (0.5, 1.0))
    assert ds.bounds_for((1.0, 1.0)) == IdealBounds(
        0.6452566, 0.8199358, 185.607332, 470.195913)
    assert ds.bounds_for((0.2, 0.8)) == IdealBounds(
        0.6307274, 0.8144518, 196.9306419, 432.2714613)
    m = crisp_metrics(ds.spec, SP_REFERENCE)
    assert m.reliability == pytest.approx(0.867611877, rel=1e-5)


def test_bundled_parallel_series_matches_reference_instance():
    ds = bundled_dataset("parallel-series")
    assert specs_equal(ds.spec, ps_spec())
    assert len(ds.weight_pairs) == 5
    for xi in ds.weight_pairs:
        assert ds.bounds_for(xi) == IdealBounds(0.6, 0.9999, 60.0, 180.0)
    m = crisp_metrics(ds.spec, PS_REFERENCE)
    assert m.reliability == pytest.approx(0.851456, abs=5e-5)


def test_bounds_lookup_error_lists_available_pairs():
    ds = bundled_dataset("parallel-series")
    with pytest.raises(ValueError, match="no anchors for weights 0.3,0.7"):
        ds.bounds_for((0.3, 0.7))


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BUNDLED_DATASETS)
def test_dump_load_cycle_is_value_exact(name):
    ds = bundled_dataset(name)
    again = loads_dataset(dumps_dataset(ds))
    assert specs_equal(ds.spec, again.spec)
    assert ds.bounds == again.bounds


# the exact text dumps_dataset writes for MINI and the two bundled files
MINI_DUMPED = """\
schema 1
topology series-parallel
mission-hours 1000.0
subsystems 1
weight-limit 100.0
volume-limit 100.0
cost-limit 100.0
r-min 0.5
r-max 0.999999
n-min 1
n-max 5
unit 1 alpha 2e-05 beta 1.5 weight 2.0 kappa 3.0
bounds 1.0 1.0 r 0.5 0.9 c 10.0 90.0
"""

SERIES_PARALLEL_DUMPED = """\
schema 1
topology series-parallel
mission-hours 1000.0
subsystems 10
weight-limit 483.0
volume-limit 289.0
cost-limit 553.0
r-min 0.5
r-max 0.999999
n-min 1
n-max 5
unit 1 alpha 6.1136e-06 beta 1.5 weight 9.0 kappa 4.0
unit 2 alpha 4.032464e-05 beta 1.5 weight 7.0 kappa 5.0
unit 3 alpha 3.578225e-05 beta 1.5 weight 5.0 kappa 3.0
unit 4 alpha 3.654303e-05 beta 1.5 weight 9.0 kappa 2.0
unit 5 alpha 1.163718e-05 beta 1.5 weight 9.0 kappa 3.0
unit 6 alpha 2.966955e-05 beta 1.5 weight 10.0 kappa 4.0
unit 7 alpha 2.045865e-05 beta 1.5 weight 6.0 kappa 1.0
unit 8 alpha 2.649522e-05 beta 1.5 weight 5.0 kappa 1.0
unit 9 alpha 1.982908e-05 beta 1.5 weight 8.0 kappa 4.0
unit 10 alpha 3.516724e-05 beta 1.5 weight 6.0 kappa 4.0
bounds 1.0 1.0 r 0.6452566 0.8199358 c 185.607332 470.195913
bounds 1.0 0.5 r 0.6108074 0.8471696 c 209.480891 510.048771
bounds 0.8 0.2 r 0.6065163 0.9227051 c 199.697687 505.900821
bounds 0.2 0.8 r 0.6307274 0.8144518 c 196.9306419 432.2714613
bounds 0.5 1.0 r 0.6044854 0.8250805 c 202.865356 440.986316
"""

PARALLEL_SERIES_DUMPED = """\
schema 1
topology parallel-series
mission-hours 1000.0
subsystems 5
weight-limit 200.0
volume-limit 110.0
cost-limit 175.0
r-min 0.5
r-max 0.999999
n-min 1
n-max 5
unit 1 alpha 2.33e-05 beta 1.5 weight 7.0 kappa 1.0
unit 2 alpha 1.45e-05 beta 1.5 weight 8.0 kappa 2.0
unit 3 alpha 5.41e-06 beta 1.5 weight 8.0 kappa 3.0
unit 4 alpha 8.05e-05 beta 1.5 weight 6.0 kappa 4.0
unit 5 alpha 1.95e-05 beta 1.5 weight 9.0 kappa 2.0
bounds 1.0 1.0 r 0.6 0.9999 c 60.0 180.0
bounds 1.0 0.5 r 0.6 0.9999 c 60.0 180.0
bounds 0.8 0.2 r 0.6 0.9999 c 60.0 180.0
bounds 0.2 0.8 r 0.6 0.9999 c 60.0 180.0
bounds 0.5 1.0 r 0.6 0.9999 c 60.0 180.0
"""


def test_dumped_text_is_pinned():
    assert dumps_dataset(loads_dataset(MINI)) == MINI_DUMPED
    assert (dumps_dataset(bundled_dataset("series-parallel"))
            == SERIES_PARALLEL_DUMPED)
    assert (dumps_dataset(bundled_dataset("parallel-series"))
            == PARALLEL_SERIES_DUMPED)


# positive finite floats from subnormals to near the top of the range,
# with many significant digits
positive = st.floats(min_value=0.0, max_value=1e300, exclude_min=True,
                     allow_nan=False, allow_infinity=False)
unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def datasets(draw):
    m = draw(st.integers(1, 12))
    stage = st.lists(positive, min_size=m, max_size=m)
    fields = dict(
        topology=draw(st.sampled_from([SERIES_PARALLEL, PARALLEL_SERIES])),
        mission_hours=draw(positive | st.integers(1, 10 ** 6)),
        alpha=draw(stage),
        beta=draw(stage), weight=draw(stage), kappa=draw(stage),
        weight_limit=draw(positive), volume_limit=draw(positive),
        cost_limit=draw(positive))
    # each optional key is either given or left at its default
    if draw(st.booleans()):
        r_min, r_max = sorted(draw(st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                      exclude_max=True),
            min_size=2, max_size=2, unique=True)))
        fields.update(r_min=r_min, r_max=r_max)
    if draw(st.booleans()):
        n_min, n_max = sorted(draw(st.lists(st.integers(1, 50),
                                            min_size=2, max_size=2)))
        # whole floats are valid counts too
        kind = draw(st.sampled_from([int, float]))
        fields.update(n_min=kind(n_min), n_max=kind(n_max))
    bounds = {}
    for _ in range(draw(st.integers(1, 5))):
        xi = (draw(positive), draw(st.floats(0.0, 1e300)))
        r_left, r_right = sorted(draw(st.lists(
            unit_interval, min_size=2, max_size=2, unique=True)))
        c_left, c_right = sorted(draw(st.lists(
            st.floats(0.0, 1e300), min_size=2, max_size=2, unique=True)))
        bounds[xi] = IdealBounds(r_left, r_right, c_left, c_right)
    return Dataset(spec=SystemSpec(**fields), bounds=bounds)


@settings(max_examples=200)
@given(datasets())
def test_random_datasets_survive_the_cycle(ds):
    text = dumps_dataset(ds)
    again = loads_dataset(text)
    assert specs_equal(ds.spec, again.spec)
    assert again.bounds == ds.bounds
    assert list(again.bounds) == list(ds.bounds)
    assert dumps_dataset(again) == text


def test_file_round_trip(tmp_path):
    ds = loads_dataset(MINI)
    path = tmp_path / "mini.dat"
    dump_dataset(ds, path)
    again = load_dataset(path)
    assert specs_equal(ds.spec, again.spec)
    assert ds.bounds == again.bounds


def test_awkward_floats_survive_the_cycle():
    text = MINI.replace("alpha 2e-05", "alpha 2.0000000000000003e-05")
    ds = loads_dataset(text)
    assert float(ds.spec.alpha[0]) == 2.0000000000000003e-05
    again = loads_dataset(dumps_dataset(ds))
    assert float(again.spec.alpha[0]) == 2.0000000000000003e-05


# ---------------------------------------------------------------------------
# parsing behaviour
# ---------------------------------------------------------------------------

def test_comments_blank_lines_and_order_are_free():
    shuffled = """\

# an instance
schema 1

bounds 1.0 1.0 r 0.5 0.9 c 10.0 90.0
cost-limit 100.0
unit 1 alpha 2e-05 beta 1.5 weight 2 kappa 3
topology series-parallel
mission-hours 1000.0   # trailing comments are not stripped, whole-line only
subsystems 1
weight-limit 100.0
volume-limit 100.0
"""
    with pytest.raises(ValueError, match="takes exactly one value"):
        loads_dataset(shuffled)
    ok = shuffled.replace("   # trailing comments are not stripped,"
                          " whole-line only", "")
    ds = loads_dataset(ok)
    assert ds.spec.size == 1


def test_optional_search_range_keys():
    text = MINI + "r-min 0.6\nr-max 0.95\nn-min 2\nn-max 3\n"
    ds = loads_dataset(text)
    assert ds.spec.r_min == 0.6
    assert ds.spec.r_max == 0.95
    assert ds.spec.n_min == 2
    assert ds.spec.n_max == 3


@pytest.mark.parametrize("mutate,message", [
    (lambda t: t.replace("schema 1", "schema 2"), "unsupported schema"),
    (lambda t: t.replace("schema 1\n", ""), "expected a schema declaration"),
    (lambda t: t + "schema 1\n", "line 10: duplicate schema"),
    (lambda t: t + "speed 9\n", "line 10: unknown key 'speed'"),
    (lambda t: t + "cost-limit 5.0\n", "line 10: duplicate key 'cost-limit'"),
    (lambda t: t.replace("subsystems 1", "subsystems one"),
     "line 4: expected an integer"),
    (lambda t: t.replace("mission-hours 1000.0", "mission-hours soon"),
     "line 3: expected a number"),
    (lambda t: t.replace("unit 1", "unit 7"), "numbered consecutively"),
    (lambda t: t.replace("beta 1.5", "slope 1.5"), "expected label 'beta'"),
    (lambda t: t.replace(" kappa 3", ""), "index and four labelled values"),
    (lambda t: t.replace("r 0.5 0.9", "r 0.9 0.5"),
     "reliability anchors must satisfy left < right"),
    (lambda t: t.replace("c 10.0 90.0", "c 90.0 10.0"),
     "cost anchors must satisfy left < right"),
    (lambda t: t.replace("r 0.5 0.9", "r 0.5 1.9"),
     r"line 9: reliability anchors must lie in \[0, 1\]"),
    (lambda t: t.replace("c 10.0 90.0", "c 10.0"), "bounds rows read"),
    (lambda t: t + "bounds 1.0 1.0 r 0.4 0.8 c 5.0 95.0\n",
     "line 10: duplicate bounds for weights 1,1"),
    (lambda t: t.replace("bounds 1.0 1.0", "bounds nan 1.0"),
     "line 9: weights must be finite.* got nan,1"),
    (lambda t: t.replace("bounds 1.0 1.0", "bounds 1.0 inf"),
     "line 9: weights must be finite.* got 1,inf"),
    (lambda t: t.replace("bounds 1.0 1.0", "bounds -0.5 1.0"),
     "line 9: weights must be finite.* got -0.5,1"),
    (lambda t: t.replace("bounds 1.0 1.0", "bounds 0.0 0.0"),
     "line 9: weights must be finite.* got 0,0"),
    (lambda t: t.replace("unit 1 alpha 2e-05 beta 1.5 weight 2 kappa 3\n",
                         ""), "expected 1 unit rows, found 0"),
    (lambda t: t.replace("bounds 1.0 1.0 r 0.5 0.9 c 10.0 90.0\n", ""),
     "at least one bounds row"),
    (lambda t: t.replace("weight-limit 100.0\n", ""),
     "missing required keys: weight-limit"),
    (lambda t: "", "empty problem file"),
])
def test_malformed_files_are_rejected(mutate, message):
    with pytest.raises(ValueError, match=message):
        loads_dataset(mutate(MINI))


def test_spec_validation_still_applies():
    bad = MINI.replace("alpha 2e-05", "alpha 0.0")
    with pytest.raises(ValueError, match="alpha entries must be positive"):
        loads_dataset(bad)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["mission-hours", "weight-limit",
                                 "volume-limit", "cost-limit",
                                 "r-min", "r-max"])
def test_non_finite_scalars_are_rejected(key, value):
    lines = [line for line in MINI.splitlines()
             if not line.startswith(key + " ")]
    text = "\n".join(lines + [f"{key} {value}"]) + "\n"
    with pytest.raises(ValueError):
        loads_dataset(text)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_unit_field_is_rejected(value):
    bad = MINI.replace("alpha 2e-05", f"alpha {value}")
    with pytest.raises(ValueError, match="alpha entries must be positive"):
        loads_dataset(bad)
