"""Tests for the fuzzification layer: the footprint rows built from a
candidate's crisp values, the triangle sampler and cost union that put the
cost footprints on a grid, and the cut ends of the reliability image."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from it2rrap import (
    PARALLEL_SERIES,
    SERIES_PARALLEL,
    WEIGHT_DATASET_CONSISTENT,
    Candidate,
    IdealBounds,
    SystemSpec,
    bundled_dataset,
    crisp_metrics,
    evaluate_objectives,
)
from it2rrap import sysmodel
from it2rrap.sysmodel import (
    _extended_rel,
    _fuzzify_arrays,
    _joined_cost,
    _metrics_matrix,
    _objective_rows,
    _tri_rows,
    _violation_rows,
)
from it2rrap.typereduce import (CentroidInterval, centroid_cuts,
                                centroid_rows, defuzzify)
from tests.draws import FixedDraws, zeros_rng


def one_stage():
    """One series-parallel stage whose unit of reliability 0.8 gives the
    stage peak 0.8; the anchors put it inside both intervals."""
    spec = SystemSpec(SERIES_PARALLEL, 1000.0, [2e-5], [1.5], [1.0], [1.0],
                      100.0, 100.0, 50.0)
    cand = Candidate([0.8], [1])
    bounds = IdealBounds(0.6, 0.9, 5.0, 40.0)
    return spec, cand, bounds


def fuzzify(spec, cand, bounds, rng):
    """Footprint rows of one candidate from one ``rng.random((m, 8))``
    block and the end of its cost grid: ``(rel, cost, hi)`` with ``(m, 5)``
    parameter blocks."""
    rel, cost = _fuzzify_arrays(spec, cand.r[None], cand.n[None], bounds,
                                rng.random((spec.size, 8)))
    return rel[0], cost[0], grid_end(spec, bounds, cost[0])


def grid_end(spec, bounds, cost):
    """End of the cost grid of one candidate's footprint rows ``cost``: the
    largest of the cost limit, the right cost anchor and the dearest
    stage."""
    return float(max(spec.cost_limit, bounds.c_right, cost[:, 2].max()))


def pipeline_grids(spec, r, n, bounds, draws, grid_size):
    """``_objective_rows`` of the rows ``(r, n)`` and the cost grid it
    reduces each row on: ``(y_r, y_c, grids)``, grids ``(rows, G)``."""
    grids = []

    def spy(grid, lower, upper):
        grids.append(grid.copy())
        return centroid_rows(grid, lower, upper)

    with mock.patch.object(sysmodel, "centroid_rows", spy):
        y_r, y_c = _objective_rows(spec, r, n, bounds, draws, grid_size)
    return y_r, y_c, np.concatenate(grids)


def extended_rel(rel, topology):
    """Cut ends of one candidate's reliability set from its footprint rows,
    ``((lower_left, lower_right), (upper_left, upper_right))`` shaped
    ``(2, 2, K)``."""
    return _extended_rel(np.asarray(rel, dtype=float)[None], topology)[:, :, 0]


def joined_cost(cost, grid):
    """Lower and upper cost union of one candidate's footprint rows."""
    lower, upper = _joined_cost(np.asarray(cost)[None],
                                np.asarray(grid)[None])
    return lower[0], upper[0]


def sample(grid, row):
    """Lower and upper membership of one footprint row on ``grid``."""
    grid = np.asarray(grid, dtype=float)
    row = np.asarray(row, dtype=float)[None, :]
    lower = _tri_rows(grid, row[:, 1], row[:, 2], row[:, 3])[0]
    upper = _tri_rows(grid, row[:, 0], row[:, 2], row[:, 4])[0]
    return lower, upper


def masked_tri_rows(grid, left, peak, right):
    """Triangle memberships by explicit masks, the oracle for
    :func:`_tri_rows`: zero at and outside the feet and on a side whose
    foot lies past the peak, each side's ratio strictly between foot and
    peak, and 1 on the apex."""
    g = grid[..., None, :]
    lf = left[..., None]
    pk = peak[..., None]
    rt = right[..., None]
    out = g - lf
    desc = rt - g
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out /= pk - lf
        desc /= rt - pk
    np.copyto(out, 0.0, where=(g <= lf) | (g >= pk))
    np.copyto(out, desc, where=(g > pk) & (g < rt))
    np.copyto(out, 1.0, where=(g == pk))
    return out


def single_block_extended_rel(rel, topology):
    """Cut ends of each row's reliability set with all four feet in one
    ``(rows, m, 4, K)`` block, the oracle for :func:`_extended_rel`, which
    folds one ``(rows, m, K)`` block per foot."""
    peaks = rel[..., 2, None]
    depth = 1.0 - sysmodel._LEVELS
    cut = (rel[..., [1, 3, 0, 4]] - peaks)[..., None] * depth
    cut += peaks[..., None]
    ends = sysmodel._system_from_stages(topology, cut, axis=1)
    return np.moveaxis(ends, 1, 0).reshape(2, 2, len(rel), -1)


# ---------------------------------------------------------------------------
# sampling triangles on a grid
# ---------------------------------------------------------------------------

@st.composite
def _triangles_on_grid(draw):
    """A grid of 2, 3 or 201 points and a few triangles whose apex and feet
    sit on grid points, one ulp off them, past the peak by one ulp, outside
    the grid, on the peak (zero-width sides) or anywhere."""
    size = draw(st.sampled_from([2, 3, 201]))
    hi = draw(st.floats(1e-3, 1e3))
    grid = np.linspace(0.0, hi, size)
    anywhere = st.floats(-0.5 * hi, 1.5 * hi)
    on_grid = st.integers(0, size - 1).map(lambda i: grid[i])

    def near(x):
        return st.sampled_from([x, np.nextafter(x, -np.inf),
                                np.nextafter(x, np.inf)])

    def foot(peak, outward):
        past = np.nextafter(peak, -outward * np.inf)
        return draw(st.one_of(
            st.just(peak),                               # zero-width side
            st.just(past),                               # one ulp past it
            on_grid.flatmap(near),
            st.just(-hi if outward < 0 else 2.0 * hi),   # off the grid
            anywhere.map(lambda x: peak + outward * abs(x - peak)),
        ))

    rows = []
    for _ in range(draw(st.integers(1, 4))):
        peak = draw(st.one_of(on_grid.flatmap(near), anywhere))
        rows.append((foot(peak, -1), peak, foot(peak, 1)))
    left, peak, right = np.array(rows).T
    return grid, left[None], peak[None], right[None]


@settings(max_examples=500, deadline=None)
@given(_triangles_on_grid())
def test_tri_rows_equals_masked_oracle_bit_for_bit(case):
    grid, left, peak, right = case
    got = _tri_rows(grid, left, peak, right)
    want = masked_tri_rows(grid, left, peak, right)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # the same triangles on a per-row grid
    got = _tri_rows(grid[None], left, peak, right)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_tri_rows_zero_width_sides_hand_cases():
    """A zero-width side holds only the apex, and a foot one ulp past the
    peak counts as zero width, not as a near-vertical wrong-way side."""
    grid = np.array([0.0, 0.5, 1.0])
    below = np.nextafter(0.5, 0.0)
    above = np.nextafter(0.5, 1.0)
    left = np.array([[0.5, 0.0, 0.5, 0.0, above]])
    peak = np.array([[0.5, 0.5, 0.5, 0.5, 0.5]])
    right = np.array([[1.0, 0.5, 0.5, below, 1.0]])
    got = _tri_rows(grid, left, peak, right)
    assert np.array_equal(got, [[[0.0, 1.0, 0.0]] * 5])
    assert np.array_equal(got, masked_tri_rows(grid, left, peak, right))


def test_eval_membership_hand_values():
    row = (0.5, 0.6, 0.8, 0.9, 0.95)
    lo, up = sample([0.2, 0.6, 0.7, 0.8, 0.99], row)
    assert (lo[3], up[3]) == (1.0, 1.0)
    assert (lo[0], up[0]) == (0.0, 0.0)
    assert (lo[4], up[4]) == (0.0, 0.0)
    assert np.allclose([lo[2], up[2]], [0.5, 2.0 / 3.0])
    # feet evaluate to zero on the lower triangle, partway up the upper one
    assert lo[1] == 0.0
    assert np.isclose(up[1], 1.0 / 3.0)


def test_eval_membership_array_input():
    lows = np.array([0.25, 0.0])
    peaks = np.array([0.5, 0.5])
    highs = np.array([0.75, 1.0])
    out = _tri_rows(np.array([0.0, 0.5, 1.0]), lows, peaks, highs)
    assert out.shape == (2, 3)
    assert np.allclose(out, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])


def test_eval_membership_degenerate_left_side():
    """A collapsed side is a jump: grade 1 at the shared abscissa only."""
    lo, up = sample([0.29, 0.3, 0.4], (0.3, 0.3, 0.3, 0.5, 0.6))
    assert (lo[1], up[1]) == (1.0, 1.0)
    assert (lo[0], up[0]) == (0.0, 0.0)
    assert np.allclose([lo[2], up[2]], [0.5, 2.0 / 3.0])


def test_eval_membership_point_mass():
    lo, up = sample([0.3999999, 0.4, 0.4000001], (0.4,) * 5)
    assert np.array_equal(lo, [0.0, 1.0, 0.0])
    assert np.array_equal(up, [0.0, 1.0, 0.0])


def test_discretize_samples_pointwise():
    grid = np.linspace(0.0, 1.0, 5)
    lo, up = sample(grid, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert np.array_equal(lo, [0.0, 0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(up, [0.0, 0.5, 1.0, 0.5, 0.0])
    assert lo[2] == up[2] == 1.0  # apex on-grid


def test_discretize_requires_covering_grid():
    """The grids the pipeline samples on cover every footprint, so no
    membership mass falls outside them: reliability rows lie in [0, 1] and
    cost rows in [0, hi], even with a cost anchor above the limit.  A row
    within the cost limit has its grid end at max(cost_limit, c_right), and
    a row within all limits has 0 < y_c <= max(cost_limit, c_right), the
    bound the scorer's floor rests on."""
    dataset = bundled_dataset("parallel-series")
    spec = dataset.spec
    rng = np.random.default_rng(5)
    for xi in dataset.weight_pairs:
        bounds = dataset.bounds_for(xi)
        for _ in range(20):
            cand = Candidate(rng.uniform(spec.r_min, spec.r_max, spec.size),
                             rng.integers(spec.n_min, spec.n_max + 1,
                                          spec.size))
            rel, cost, hi = fuzzify(spec, cand, bounds, rng)
            assert np.all(rel[:, 0] >= 0.0) and np.all(rel[:, 4] <= 1.0)
            assert np.all(cost[:, 0] >= 0.0)
            assert np.all(cost[:, 4] <= hi)
            assert hi >= spec.cost_limit
    for name, dataset in _DATASETS.items():
        spec = dataset.spec
        for xi in dataset.weight_pairs:
            bounds = dataset.bounds_for(xi)
            r = rng.uniform(spec.r_min, spec.r_max, (400, spec.size))
            n = rng.integers(spec.n_min, spec.n_max + 1, (400, spec.size))
            _, y_c, grids = pipeline_grids(spec, r, n, bounds,
                                           rng.random((spec.size, 8)), 201)
            cost, weight, volume = _metrics_matrix(
                spec, r, n, WEIGHT_DATASET_CONSISTENT)[1:]
            top = max(spec.cost_limit, bounds.c_right)
            cheap = cost <= spec.cost_limit
            feasible = _violation_rows(spec, cost, weight, volume) == 0.0
            assert cheap.sum() > feasible.sum() > 0, name
            assert np.all(grids[cheap, -1] == top), name
            assert np.all(y_c[feasible] > 0.0), name
            assert np.all(y_c[feasible] <= top), name


# ---------------------------------------------------------------------------
# footprint rows from the draws
# ---------------------------------------------------------------------------

def test_generate_zero_draws_degenerates_to_type1():
    spec, cand, bounds = one_stage()
    rel, cost, _ = fuzzify(spec, cand, bounds, zeros_rng())
    assert np.allclose(rel[0], [0.6, 0.6, 0.8, 0.9, 0.9])
    c = crisp_metrics(spec, cand).cost
    assert np.array_equal(cost[0], [5.0, 5.0, c, 40.0, 40.0])


def test_generate_unit_draws_spans_support():
    spec, cand, bounds = one_stage()
    rel, cost, hi = fuzzify(spec, cand, bounds, FixedDraws([1.0] * 8))
    assert np.allclose(rel[0], [0.0, 0.8, 0.8, 0.8, 1.0])
    c = crisp_metrics(spec, cand).cost
    assert np.allclose(cost[0], [0.0, c, c, c, 50.0])
    assert hi == 50.0


def test_generate_half_draws_hand_values():
    spec, cand, bounds = one_stage()
    rel, cost, _ = fuzzify(spec, cand, bounds, FixedDraws([0.5] * 8))
    assert np.allclose(rel[0], [0.3, 0.7, 0.8, 0.85, 0.95])
    c = crisp_metrics(spec, cand).cost
    assert np.allclose(cost[0], [2.5, (5.0 + c) / 2, c, (40.0 + c) / 2, 45.0])


def test_generate_draw_order_is_fixed():
    """Each row of the draw block goes to lmf_left, umf_left, lmf_right,
    umf_right of the reliability footprint, then the same of the cost one."""
    spec, cand, bounds = one_stage()
    draws = FixedDraws([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    rel, cost, _ = fuzzify(spec, cand, bounds, draws)
    assert np.allclose(rel[0, [1, 0, 3, 4]], [0.62, 0.48, 0.87, 0.94])
    c = crisp_metrics(spec, cand).cost
    assert np.allclose(cost[0, [1, 0, 3, 4]],
                       [5.0 + (c - 5.0) * 0.5, 5.0 * 0.4,
                        40.0 - (40.0 - c) * 0.7, 40.0 + 10.0 * 0.8])


_DATASETS = {name: bundled_dataset(name)
             for name in ("series-parallel", "parallel-series")}
_anchor_r = st.floats(0.0, 1.0)
_anchor_c = st.floats(0.0, allow_infinity=False)


@st.composite
def _in_box(draw):
    spec = _DATASETS[draw(st.sampled_from(sorted(_DATASETS)))].spec
    r = draw(st.lists(st.floats(spec.r_min, spec.r_max),
                      min_size=spec.size, max_size=spec.size))
    n = draw(st.lists(st.integers(spec.n_min, spec.n_max),
                      min_size=spec.size, max_size=spec.size))
    u = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                      min_size=8 * spec.size, max_size=8 * spec.size))
    return spec, Candidate(r, n), u


@settings(max_examples=300, deadline=None)
@given(_in_box(), _anchor_r, _anchor_r, _anchor_c, _anchor_c)
def test_generate_always_yields_valid_nested_triangles(case, r_left, r_right,
                                                       c_left, c_right):
    """For any in-box candidate, any anchors (ordered or not) and any draws,
    every footprint row is nested around its crisp peak."""
    spec, cand, u = case
    bounds = IdealBounds(r_left, r_right, c_left, c_right)
    rel, cost, hi = fuzzify(spec, cand, bounds, FixedDraws(u))
    for rows in (rel, cost):
        assert np.all(rows[:, 0] <= rows[:, 1])
        assert np.all(rows[:, 1] <= rows[:, 2])
        assert np.all(rows[:, 2] <= rows[:, 3])
        assert np.all(rows[:, 3] <= rows[:, 4])
    assert np.all(rel[:, 0] >= 0.0) and np.all(rel[:, 4] <= 1.0)
    assert np.all(cost[:, 0] >= 0.0) and np.all(cost[:, 4] <= hi)


# ---------------------------------------------------------------------------
# the system sets
# ---------------------------------------------------------------------------

def test_sampled_validation():
    """The system sets the pipeline type-reduces are valid IT2 sets.  Each
    sampled cost set has 0 <= lower <= upper <= 1 at every grid point and
    some upper mass.  Each reliability set's cuts lie in [0, 1], are nested
    level by level with the lower inside the upper, and all meet at the
    crisp system reliability, bit for bit."""
    rng = np.random.default_rng(8)
    for name, dataset in _DATASETS.items():
        spec = dataset.spec
        bounds = dataset.bounds_for(dataset.weight_pairs[0])
        for _ in range(20):
            cand = Candidate(rng.uniform(spec.r_min, spec.r_max, spec.size),
                             rng.integers(spec.n_min, spec.n_max + 1,
                                          spec.size))
            rel, cost, hi = fuzzify(spec, cand, bounds, rng)
            lower, upper = joined_cost(cost, np.linspace(0.0, hi, 201))
            assert lower.shape == upper.shape == (201,)
            assert np.all(lower >= 0.0), name
            assert np.all(lower <= upper), name
            assert np.all(upper <= 1.0), name
            assert np.any(upper > 0.0), name
            (lo_left, lo_right), (up_left, up_right) = extended_rel(
                rel, spec.topology)
            assert np.all(0.0 <= up_left) and np.all(up_right <= 1.0), name
            assert np.all(up_left <= lo_left), name
            assert np.all(lo_left <= lo_right), name
            assert np.all(lo_right <= up_right), name
            for ends in (np.diff(up_left), np.diff(lo_left),
                         -np.diff(lo_right), -np.diff(up_right)):
                assert np.all(ends >= 0.0), name
            crisp = crisp_metrics(spec, cand).reliability
            apex = (lo_left[-1], lo_right[-1], up_left[-1], up_right[-1])
            assert apex == (crisp,) * 4, name


def test_set_algebra_properties():
    """The cost union is a pointwise maximum: commutative, associative and
    idempotent in the stage rows."""
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 10.0, 41)
    for _ in range(50):
        feet = np.sort(rng.uniform(0.0, 10.0, (3, 5)), axis=1)
        lower, upper = joined_cost(feet, grid)
        for order in ([1, 0, 2], [2, 1, 0], [0, 2, 1]):
            lo, up = joined_cost(feet[order], grid)
            assert np.array_equal(lo, lower)
            assert np.array_equal(up, upper)
        lo, up = joined_cost(np.vstack([feet, feet[:1]]), grid)
        assert np.array_equal(lo, lower)
        assert np.array_equal(up, upper)
        parts = [sample(grid, row) for row in feet]
        assert np.array_equal(lower, np.max([p[0] for p in parts], axis=0))
        assert np.array_equal(upper, np.max([p[1] for p in parts], axis=0))


def test_parallel_series_extension_is_complement_of_series():
    """De Morgan: the parallel-series image of footprints is the complement
    of the series-parallel image of their complements: at every level each
    left cut end is one less the other image's right end, with the lower
    and upper bounds keeping their roles."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        rel = np.sort(rng.uniform(0.2, 0.95, (3, 5)), axis=1)
        cuts = extended_rel(rel, PARALLEL_SERIES)
        mirrored = extended_rel(1.0 - rel[:, ::-1], SERIES_PARALLEL)
        assert np.allclose(cuts, 1.0 - mirrored[:, ::-1], rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(_in_box(), _anchor_r, _anchor_r, st.floats(0.0, 1e4),
       st.floats(0.0, 1e4))
def test_reliability_objective_does_not_depend_on_the_grid(
        case, r_left, r_right, c_left, c_right):
    """y_r comes from the cut ends alone, so every grid gives the same bits;
    only the cost objective is read on the grid."""
    spec, cand, u = case
    bounds = IdealBounds(r_left, r_right, c_left, c_right)
    got = {evaluate_objectives(spec, cand, bounds, FixedDraws(u), grid)[0]
           for grid in (2, 11, 201, 1601, 3201)}
    assert len(got) == 1


def test_population_batches_equal_rows_scored_alone():
    """A 100-row batch, the size of a solver's round, gives each row's
    objectives bit for bit as that row scored alone, at grid 201, whose
    cost chunks hold 8 or 16 rows, and at 1601, whose chunks hold 1 or 2.
    Its y_r is also the single-block cut oracle's, reduced in one call."""
    rng = np.random.default_rng(14)
    for name, dataset in _DATASETS.items():
        spec = dataset.spec
        bounds = dataset.bounds_for(dataset.weight_pairs[0])
        r = rng.uniform(spec.r_min, spec.r_max, (100, spec.size))
        n = rng.integers(spec.n_min, spec.n_max + 1, (100, spec.size))
        draws = rng.random((spec.size, 8))
        rel = _fuzzify_arrays(spec, r, n, bounds, draws)[0]
        want_r = defuzzify(CentroidInterval(*centroid_cuts(
            *single_block_extended_rel(rel, spec.topology))))
        for grid_size in (201, 1601):
            y_r, y_c = _objective_rows(spec, r, n, bounds, draws, grid_size)
            assert np.array_equal(y_r, want_r), (name, grid_size)
            alone = np.array([
                _objective_rows(spec, r[i:i + 1], n[i:i + 1], bounds, draws,
                                grid_size)
                for i in range(len(r))])[..., 0]
            assert np.array_equal(y_r, alone[:, 0]), (name, grid_size)
            assert np.array_equal(y_c, alone[:, 1]), (name, grid_size)
