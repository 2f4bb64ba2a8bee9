"""Tests for crisp metrics, fuzzification, aggregation and fitness."""

import numpy as np
import pytest

from it2rrap import (
    FITNESS_NORMALIZED,
    FITNESS_RAW,
    PARALLEL_SERIES,
    SERIES_PARALLEL,
    WEIGHT_AS_WRITTEN,
    WEIGHT_DATASET_CONSISTENT,
    Candidate,
    IdealBounds,
    MetricSet,
    SystemSpec,
    constraint_violation,
    crisp_metrics,
    dominates,
    evaluate_objectives,
    is_feasible,
    scalarize,
    subsystem_reliability,
    validate_candidate,
)
from it2rrap.optimizer import _CandidateScorer
from it2rrap.sysmodel import _cost_terms_matrix
from it2rrap.typereduce import centroid_cuts
from tests.draws import FixedDraws, zeros_rng
from tests.test_fuzzy import (extended_rel, fuzzify, joined_cost,
                              pipeline_grids, sample)


def sp_spec():
    """Ten-stage series-parallel benchmark instance."""
    return SystemSpec(
        topology=SERIES_PARALLEL,
        mission_hours=1000.0,
        alpha=[0.611360e-5, 4.032464e-5, 3.578225e-5, 3.654303e-5,
               1.163718e-5, 2.966955e-5, 2.045865e-5, 2.649522e-5,
               1.982908e-5, 3.516724e-5],
        beta=[1.5] * 10,
        weight=[9, 7, 5, 9, 9, 10, 6, 5, 8, 6],
        kappa=[4, 5, 3, 2, 3, 4, 1, 1, 4, 4],
        weight_limit=483.0,
        volume_limit=289.0,
        cost_limit=553.0,
    )


def ps_spec():
    """Five-path parallel-series benchmark instance."""
    return SystemSpec(
        topology=PARALLEL_SERIES,
        mission_hours=1000.0,
        alpha=[2.330e-5, 1.450e-5, 0.541e-5, 8.050e-5, 1.950e-5],
        beta=[1.5] * 5,
        weight=[7, 8, 8, 6, 9],
        kappa=[1, 2, 3, 4, 2],
        weight_limit=200.0,
        volume_limit=110.0,
        cost_limit=175.0,
    )


def sp_bounds():
    return IdealBounds(0.6452566, 0.8199358, 185.607332, 470.195913)


def ps_bounds():
    return IdealBounds(0.6, 0.9999, 60.0, 180.0)


# crisp anchors: every peak violates both inverted ends, so both feet clamp
# onto the peak and (with zero draws) the footprint collapses to a point
def crisp_bounds():
    return IdealBounds(1.0, 0.0, 1e12, 0.0)


SP_REFERENCE = Candidate(
    r=[0.728966, 0.769185, 0.826255, 0.755018, 0.72388,
       0.807148, 0.765235, 0.887747, 0.875649, 0.860357],
    n=[3, 3, 3, 3, 3, 3, 3, 2, 2, 2],
)

SP_REFERENCE_2 = Candidate(
    r=[0.85, 0.792164, 0.875391, 0.770279, 0.912668,
       0.825766, 0.713281, 0.752163, 0.862834, 0.731219],
    n=[3, 4, 3, 3, 2, 3, 4, 3, 2, 3],
)

SP_REFERENCE_3 = Candidate(
    r=[0.850737, 0.864102, 0.723045, 0.637486, 0.941978,
       0.80483, 0.800036, 0.855636, 0.833858, 0.7766],
    n=[2, 2, 3, 4, 2, 3, 3, 2, 3, 3],
)

PS_REFERENCE = Candidate(
    r=[0.583327, 0.697626, 0.562849, 0.698137, 0.553977],
    n=[3, 2, 2, 4, 2],
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError, match="unknown topology"):
        SystemSpec("ring", 1000.0, [1e-5], [1.5], [1.0], [1.0], 1, 1, 1)
    with pytest.raises(ValueError, match="equally sized"):
        SystemSpec(SERIES_PARALLEL, 1000.0, [1e-5, 2e-5], [1.5],
                   [1.0], [1.0], 1, 1, 1)
    with pytest.raises(ValueError, match="alpha entries must be positive"):
        SystemSpec(SERIES_PARALLEL, 1000.0, [0.0], [1.5], [1.0], [1.0], 1, 1, 1)
    with pytest.raises(ValueError, match="r_min < r_max"):
        SystemSpec(SERIES_PARALLEL, 1000.0, [1e-5], [1.5], [1.0], [1.0],
                   1, 1, 1, r_min=0.9, r_max=0.5)


def test_candidate_validation():
    with pytest.raises(ValueError, match="integers"):
        Candidate([0.9], [1.5])
    with pytest.raises(ValueError, match="equally sized"):
        Candidate([0.9, 0.8], [1])
    spec = sp_spec()
    with pytest.raises(ValueError, match="sub-systems"):
        validate_candidate(spec, Candidate([0.9], [1]))
    with pytest.raises(ValueError, match="reliabilities"):
        validate_candidate(spec, Candidate([0.2] + [0.9] * 9, [1] * 10))
    with pytest.raises(ValueError, match="redundancy counts"):
        validate_candidate(spec, Candidate([0.9] * 10, [6] + [1] * 9))
    with pytest.raises(ValueError, match="reliabilities"):
        validate_candidate(spec, Candidate([float("nan")] + [0.9] * 9,
                                           [1] * 10))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count", [float("inf"), 1e30, 2**64],
                         ids=["inf", "1e30", "2**64"])
def test_candidate_rejects_counts_the_integer_dtype_cannot_hold(count):
    """A count that is not finite or past the integer dtype is refused
    before the cast, which would otherwise warn and wrap it round (inf,
    1e30) or overflow (2**64)."""
    with pytest.raises(ValueError, match="must be finite and fit"):
        Candidate([0.9] * 3, [count] * 3)


# ---------------------------------------------------------------------------
# crisp metrics against the bundled benchmark allocations
# ---------------------------------------------------------------------------

def test_stage_reliability_hand_values():
    assert subsystem_reliability(SERIES_PARALLEL, 0.9, 2) == pytest.approx(0.99)
    assert subsystem_reliability(PARALLEL_SERIES, 0.9, 2) == pytest.approx(0.81)
    vec = subsystem_reliability(SERIES_PARALLEL, [0.5, 0.8], [1, 3])
    assert np.allclose(vec, [0.5, 0.992])


def test_single_cost_term_frozen_value():
    """alpha (-T/ln r)^beta (n + e^(n/4)) checked against independent
    high-precision arithmetic."""
    spec = SystemSpec(SERIES_PARALLEL, 1000.0, [2e-5], [1.5], [1.0], [1.0],
                      100.0, 100.0, 100.0)
    cand = Candidate([0.9], [2])
    terms = _cost_terms_matrix(spec, cand.r, cand.n)
    assert np.isclose(terms[0], 67.47670278989535, rtol=1e-12)
    assert crisp_metrics(spec, cand).cost == terms[0]


def test_weight_variant_hand_values():
    spec = SystemSpec(SERIES_PARALLEL, 1000.0, [1e-5, 1e-5], [1.5, 1.5],
                      [2.0, 3.0], [1.0, 1.0], 100.0, 100.0, 100.0)
    cand = Candidate([0.9, 0.9], [1, 2])
    assert crisp_metrics(spec, cand, WEIGHT_AS_WRITTEN).weight == \
        pytest.approx(15.514214645475867, rel=1e-12)
    assert crisp_metrics(spec, cand, WEIGHT_DATASET_CONSISTENT).weight == \
        pytest.approx(12.460378457576252, rel=1e-12)
    with pytest.raises(ValueError, match="unknown weight variant"):
        crisp_metrics(spec, cand, "bogus")


def test_volume_hand_value():
    spec = SystemSpec(SERIES_PARALLEL, 1000.0, [1e-5, 1e-5], [1.5, 1.5],
                      [2.0, 3.0], [4.0, 5.0], 100.0, 100.0, 100.0)
    assert crisp_metrics(spec, Candidate([0.9, 0.9], [2, 3])).volume == 61.0


def test_series_parallel_reference_allocation():
    spec = sp_spec()
    m = crisp_metrics(spec, SP_REFERENCE)
    assert m.reliability == pytest.approx(0.867611877, rel=1e-5)
    assert m.cost == pytest.approx(437.0751367, abs=0.01)
    assert m.weight == pytest.approx(411.956411, abs=1e-3)
    assert m.volume == 234.0
    assert is_feasible(spec, m)


def test_series_parallel_reference_allocation_second():
    spec = sp_spec()
    m = crisp_metrics(spec, SP_REFERENCE_2)
    assert m.reliability == pytest.approx(0.911134656, rel=1e-5)
    assert m.cost == pytest.approx(484.0057968, abs=0.01)
    assert m.weight == pytest.approx(476.851180, abs=1e-3)
    assert m.volume == 286.0


def test_series_parallel_reference_allocation_third():
    spec = sp_spec()
    m = crisp_metrics(spec, SP_REFERENCE_3)
    assert m.weight == pytest.approx(419.066424, abs=1e-3)
    assert m.volume == 228.0


def test_as_written_weight_differs_from_reference_value():
    """The literal weight formula does not reproduce the bundled reference
    weight; the dataset-consistent variant does, hence the default."""
    spec = sp_spec()
    w_lit = crisp_metrics(spec, SP_REFERENCE, WEIGHT_AS_WRITTEN).weight
    w_dc = crisp_metrics(spec, SP_REFERENCE, WEIGHT_DATASET_CONSISTENT).weight
    assert w_lit == pytest.approx(350.76070505699954, rel=1e-12)
    assert w_dc == pytest.approx(411.956411, abs=1e-3)
    assert abs(w_lit - 411.956411) > 60.0


def test_parallel_series_reference_allocation():
    spec = ps_spec()
    m = crisp_metrics(spec, PS_REFERENCE)
    assert m.reliability == pytest.approx(0.851456, abs=5e-5)
    assert m.cost == pytest.approx(103.0558, abs=0.05)
    assert m.weight == pytest.approx(192.1318, abs=1e-3)
    assert m.volume == 101.0
    assert is_feasible(spec, m)


def test_reliability_monotone_in_r_and_n():
    """More reliable units always help; an extra unit helps a redundant
    stage but hurts a chained one."""
    rng = np.random.default_rng(11)
    for spec in (sp_spec(), ps_spec()):
        m = spec.size

        def reliability(r, n):
            return crisp_metrics(spec, Candidate(r, n)).reliability

        for _ in range(25):
            r = rng.uniform(0.55, 0.95, m)
            n = rng.integers(1, 5, m)
            base = reliability(r, n)
            i = int(rng.integers(m))
            r_up = r.copy()
            r_up[i] += 0.02
            assert reliability(r_up, n) > base
            n_up = n.copy()
            n_up[i] += 1
            bumped = reliability(r, n_up)
            if spec.topology == SERIES_PARALLEL:
                assert bumped > base
            else:
                assert bumped < base


def test_cost_monotone_in_r():
    spec = sp_spec()
    r = np.full(10, 0.8)
    n = np.full(10, 2)
    base = crisp_metrics(spec, Candidate(r, n)).cost
    r[0] = 0.9
    assert crisp_metrics(spec, Candidate(r, n)).cost > base


# ---------------------------------------------------------------------------
# fuzzification
# ---------------------------------------------------------------------------

def footprint(peak, left, right, high, u):
    """One footprint row around ``peak`` on the support ``[0, high]`` from
    four draws in the order (lmf_left, umf_left, lmf_right, umf_right)."""
    return [left - left * u[1], left + (peak - left) * u[0], peak,
            right - (right - peak) * u[2], right + (high - right) * u[3]]


def test_fuzzify_matches_sequential_generation():
    """The fuzzifier builds the footprints one sub-system after another,
    each from its own row of draws, reliability before cost."""
    spec, bounds = sp_spec(), sp_bounds()
    cand = SP_REFERENCE
    rel, cost, hi = fuzzify(spec, cand, bounds, np.random.default_rng(99))
    draws = np.random.default_rng(99).random((spec.size, 8))
    stages = subsystem_reliability(spec.topology, cand.r, cand.n)
    terms = _cost_terms_matrix(spec, cand.r, cand.n)
    for i in range(spec.size):
        p = float(stages[i])
        want = footprint(p, min(bounds.r_left, p), max(bounds.r_right, p),
                         1.0, draws[i, :4])
        assert np.array_equal(rel[i], want)
        c = float(terms[i])
        left = min(bounds.c_left, c)
        right = max(bounds.c_right, c)
        want = footprint(c, left, right, max(spec.cost_limit, right),
                         draws[i, 4:])
        assert np.array_equal(cost[i], want)
    assert hi == max(spec.cost_limit, cost[:, 4].max())


def test_fuzzify_clamps_peak_outside_anchors():
    spec, bounds = sp_spec(), sp_bounds()
    cand = Candidate([0.95] * 10, [3] * 10)  # stage reliabilities ~0.9999
    rel, _, _ = fuzzify(spec, cand, bounds, zeros_rng())
    stages = subsystem_reliability(spec.topology, cand.r, cand.n)
    for (umf_left, lmf_left, peak, lmf_right, umf_right), p in zip(rel, stages):
        assert lmf_right == umf_right == peak == pytest.approx(float(p))
        assert lmf_left == bounds.r_left  # left anchor kept


def test_fuzzify_supports_cost_anchor_above_limit():
    """A cost anchor beyond the cost limit stretches the support; the
    footprint must stay inside it instead of failing."""
    spec, bounds = ps_spec(), ps_bounds()  # c_right 180 > cost_limit 175
    _, cost, hi = fuzzify(spec, PS_REFERENCE, bounds,
                          np.random.default_rng(5))
    # every cost term sits below the 180 anchor, so the clamped right end is
    # the anchor itself and the widened support pins the upper foot there
    assert np.all(cost[:, 4] == 180.0)
    assert hi == 180.0 > spec.cost_limit


# ---------------------------------------------------------------------------
# the cost union
# ---------------------------------------------------------------------------

def test_aggregate_single_set_is_identity():
    """One stage's cost footprint is its own union."""
    grid = np.linspace(0.0, 10.0, 41)
    row = [2.0, 3.5, 5.0, 6.0, 9.0]
    assert np.array_equal(joined_cost(np.array([row]), grid),
                          sample(grid, row))


def test_aggregate_cost_is_pointwise_join():
    grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    rows = np.array([[0.0, 1.0, 2.0, 3.0, 4.0],
                     [1.0, 2.0, 3.0, 4.0, 4.0]])
    lower, upper = joined_cost(rows, grid)
    assert np.allclose(lower, [0.0, 0.0, 1.0, 1.0, 0.0])
    assert np.allclose(upper, [0.0, 0.5, 1.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# the layout extension construction
# ---------------------------------------------------------------------------

def random_footprint(rng, peak, spread_lo, spread_hi):
    """Footprint row on [0, 1] with anchors a random spread around ``peak``."""
    return footprint(peak, peak - rng.uniform(spread_lo, spread_hi),
                     min(1.0, peak + rng.uniform(spread_lo, spread_hi)),
                     1.0, rng.random(4))


def test_extend_single_stage_is_identity():
    """With one stage the layout formula is the identity, so the image's
    cuts are the footprint's own: each end moves linearly from its foot at
    level 0 to the peak at level 1."""
    rng = np.random.default_rng(7)
    for topology in (SERIES_PARALLEL, PARALLEL_SERIES):
        for _ in range(10):
            row = random_footprint(rng, rng.uniform(0.4, 0.9), 0.05, 0.2)
            cuts = extended_rel(np.array([row]), topology)
            levels = np.linspace(0.0, 1.0, cuts.shape[-1])

            def cut(foot):
                return foot + (row[2] - foot) * levels

            want = [[cut(row[1]), cut(row[3])], [cut(row[0]), cut(row[4])]]
            assert np.allclose(cuts, want, rtol=0, atol=1e-12)


def test_extend_two_stage_product_matches_quadratic_inversion():
    """For two chained stages each flank of the image solves a quadratic in
    the cut level; inverting it analytically at every cut end gives back
    the level."""
    mf1 = (0.55, 0.6, 0.7, 0.78, 0.82)
    mf2 = (0.6, 0.65, 0.75, 0.8, 0.85)
    (lo_left, lo_right), (up_left, up_right) = extended_rel(
        np.array([mf1, mf2]), SERIES_PARALLEL)
    levels = np.linspace(0.0, 1.0, up_left.size)

    def rising_level(y, l1, p1, l2, p2):
        d1, d2 = p1 - l1, p2 - l2
        b, c = l1 * d2 + l2 * d1, l1 * l2 - y
        return (-b + np.sqrt(b * b - 4 * d1 * d2 * c)) / (2 * d1 * d2)

    def falling_level(y, r1, p1, r2, p2):
        e1, e2 = r1 - p1, r2 - p2
        b, c = r1 * e2 + r2 * e1, r1 * r2 - y
        return (b - np.sqrt(b * b - 4 * e1 * e2 * c)) / (2 * e1 * e2)

    for got in (rising_level(up_left, mf1[0], mf1[2], mf2[0], mf2[2]),
                falling_level(up_right, mf1[4], mf1[2], mf2[4], mf2[2]),
                rising_level(lo_left, mf1[1], mf1[2], mf2[1], mf2[2]),
                falling_level(lo_right, mf1[3], mf1[2], mf2[3], mf2[2])):
        assert np.allclose(got, levels, rtol=0, atol=1e-9)


def test_extend_parallel_series_two_stage_hand_case():
    """Two redundant paths: the image's support and its inner feet are the
    mapped feet, and every bound's top cut is the crisp redundancy formula
    over the peaks."""
    rows = np.array([[0.3, 0.35, 0.4, 0.5, 0.55],
                     [0.45, 0.5, 0.6, 0.65, 0.7]])
    (lo_left, lo_right), (up_left, up_right) = extended_rel(rows,
                                                            PARALLEL_SERIES)
    feet = (1.0 - (1.0 - 0.3) * (1.0 - 0.45),    # 0.615
            1.0 - (1.0 - 0.35) * (1.0 - 0.5),    # 0.675
            1.0 - (1.0 - 0.5) * (1.0 - 0.65),    # 0.825
            1.0 - (1.0 - 0.55) * (1.0 - 0.7))    # 0.865
    apex = 1.0 - (1.0 - 0.4) * (1.0 - 0.6)       # 0.76
    got = (up_left[0], lo_left[0], lo_right[0], up_right[0])
    assert got == pytest.approx(feet, abs=1e-12)
    tops = (up_left[-1], lo_left[-1], lo_right[-1], up_right[-1])
    assert tops == pytest.approx((apex,) * 4, abs=1e-12)


def test_extend_zero_spread_is_the_crisp_image():
    """Footprints of zero spread cut to their peaks at every level, so the
    image is the crisp system reliability, bit for bit, and so are both
    centroid endpoints."""
    spikes = np.array([[0.7003] * 5, [0.8001] * 5])
    cuts = extended_rel(spikes, SERIES_PARALLEL)
    want = 0.7003 * 0.8001
    assert np.all(cuts == want)
    assert centroid_cuts(*cuts) == (want, want)


def test_spikes_take_the_first_of_two_nearest_grid_points():
    """A collapsed cost set whose apex lies exactly halfway between two grid
    points spikes at the lower one."""
    grid = [0.0, 1.0, 2.0, 3.0, 4.0]
    for apex, index in ((1.5, 1), (2.5, 2)):
        lower, upper = joined_cost(np.array([[apex] * 5]), grid)
        assert np.array_equal(upper, np.eye(5)[index])
        assert np.array_equal(lower, np.eye(5)[index])


def test_extend_is_order_invariant():
    rng = np.random.default_rng(13)
    rows = np.array([footprint(p, p - 0.1, min(1.0, p + 0.1), 1.0,
                               rng.random(4))
                     for p in rng.uniform(0.5, 0.9, 4)])
    for topology in (SERIES_PARALLEL, PARALLEL_SERIES):
        a = extended_rel(rows, topology)
        b = extended_rel(rows[::-1], topology)
        assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_extend_bounds_are_unimodal_and_nested():
    """Each bound's cuts are nested, the alpha-cut form of a unimodal
    membership: left ends never fall and right ends never rise with the
    level.  At every level the lower cut lies inside the upper one."""
    rng = np.random.default_rng(29)
    for topology in (SERIES_PARALLEL, PARALLEL_SERIES):
        for _ in range(10):
            rows = np.array([random_footprint(rng, p, 0.02, 0.15)
                             for p in rng.uniform(0.45, 0.95, 3)])
            (lo_left, lo_right), (up_left, up_right) = extended_rel(rows,
                                                                    topology)
            for left, right in ((lo_left, lo_right), (up_left, up_right)):
                assert np.all(np.diff(left) >= 0.0)
                assert np.all(np.diff(right) <= 0.0)
                assert np.all(left <= right)
            assert np.all(up_left <= lo_left)
            assert np.all(lo_right <= up_right)


def test_extend_validation():
    """The extension reads one footprint row per sub-system under the
    spec's layout; both are checked before any row is built."""
    with pytest.raises(ValueError, match="unknown topology"):
        SystemSpec("ring", 1000.0, [1e-5], [1.5], [1.0], [1.0], 1, 1, 1)
    with pytest.raises(ValueError, match="sub-systems"):
        evaluate_objectives(sp_spec(), PS_REFERENCE, sp_bounds(),
                            np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the fuzzy objective pipeline
# ---------------------------------------------------------------------------

# evaluate_objectives(spec, cand, bounds, default_rng(seed), grid) for seeds
# 0-4.  The y_c values at grid 201 were recorded while a second,
# object-based composition of the fuzzify / union / type-reduce steps still
# existed and agreed to 1e-12; those at grids 1601 (one row per chunk) and 2
# were recorded from the triangle sampler that selected each side by
# explicit masks (tests.test_fuzzy.masked_tri_rows).  The y_r values were
# recorded from the cut-end centroid (centroid_cuts), which uses no grid,
# so they repeat at every grid.
GOLDEN_OBJECTIVES = {
    ("sp", 201): [(0.523184332026144, 169.36815518439863),
                  (0.5468963619058902, 166.08823849121046),
                  (0.5251248981067045, 160.43596044045398),
                  (0.5549651084441546, 162.89622333264242),
                  (0.5665328616812909, 160.41660549816015)],
    ("ps", 201): [(0.8533121039887186, 59.37146114885482),
                  (0.8846082773105655, 62.417867090587286),
                  (0.8417403946677731, 67.44893143676731),
                  (0.8816782600456837, 64.90110587533579),
                  (0.8573203038573243, 62.72516486136549)],
    ("sp", 1601): [(0.523184332026144, 169.00029387364282),
                   (0.5468963619058902, 165.76897370584047),
                   (0.5251248981067045, 160.08751201551385),
                   (0.5549651084441546, 162.5252715583901),
                   (0.5665328616812909, 160.09667656195742)],
    ("ps", 1601): [(0.8533121039887186, 59.39858813444789),
                   (0.8846082773105655, 62.40136887625938),
                   (0.8417403946677731, 67.46012288540821),
                   (0.8816782600456837, 64.90364005519285),
                   (0.8573203038573243, 62.730986412150585)],
    # two points: the cost set's mass lands on a single grid point
    ("sp", 2): [(0.523184332026144, 0.0),
                (0.5468963619058902, 0.0),
                (0.5251248981067045, 0.0),
                (0.5549651084441546, 0.0),
                (0.5665328616812909, 0.0)],
    ("ps", 2): [(0.8533121039887186, 0.0),
                (0.8846082773105655, 0.0),
                (0.8417403946677731, 0.0),
                (0.8816782600456837, 0.0),
                (0.8573203038573243, 0.0)],
}

# the same candidates under draw blocks whose every uniform is exactly 0 or
# 1, so feet sit on their anchors, on the peak (zero-width sides) or on the
# ends of the support; each pattern is repeated for every stage, and the
# values were recorded as above.  Pattern 1 makes every lower set a point
# and every upper set the whole of [0, 1]: y_r is 0.5, the midpoint of the
# upper support, which a lower set without mass leaves as the centroid.
CORNER_DRAWS = ([0.0] * 8, [1.0] * 8, [0, 1, 1, 0, 1, 0, 0, 1],
                [1, 0, 0, 1, 0, 1, 1, 0])
GOLDEN_CORNER_OBJECTIVES = {
    ("sp", 201): [(0.5058369021776061, 164.72268986384384),
                  (0.5, 276.49999999970566),
                  (0.47966321767553155, 178.4004627298915),
                  (0.5062559685746746, 236.4074999985622)],
    ("ps", 201): [(0.9189829930072533, 70.52414741814229),
                  (0.5, 89.99999999986863),
                  (0.5, 70.47838518281668),
                  (0.9189835943717508, 73.27695736212581)],
    ("sp", 1601): [(0.5058369021776061, 163.97850057953457),
                   (0.5, 276.4999999769996),
                   (0.47966321767553155, 177.65080585539187),
                   (0.5062559685746746, 235.19781252493215)],
    ("ps", 1601): [(0.9189829930072533, 70.55950014783483),
                   (0.5, 89.99999999944974),
                   (0.5, 70.51847596540813),
                   (0.9189835943717508, 73.24314134185937)],
    ("sp", 2): [(0.5058369021776061, 0.0),
                (0.5, 0.0),
                (0.47966321767553155, 0.0),
                (0.5062559685746746, 0.0)],
    ("ps", 2): [(0.9189829930072533, 0.0),
                (0.5, 0.0),
                (0.5, 0.0),
                (0.9189835943717508, 0.0)],
}

_GOLDEN_CASES = {"sp": (sp_spec, sp_bounds, SP_REFERENCE),
                 "ps": (ps_spec, ps_bounds, PS_REFERENCE)}


@pytest.mark.parametrize("name,grid", list(GOLDEN_OBJECTIVES),
                         ids=["sp", "ps", "sp-1601", "ps-1601", "sp-2", "ps-2"])
def test_pipeline_golden_values(name, grid):
    make_spec, make_bounds, cand = _GOLDEN_CASES[name]
    spec, bounds = make_spec(), make_bounds()
    got = [evaluate_objectives(spec, cand, bounds, np.random.default_rng(seed),
                               grid)
           for seed in range(5)]
    assert got == GOLDEN_OBJECTIVES[name, grid]
    got = [evaluate_objectives(spec, cand, bounds,
                               FixedDraws(np.tile(pattern, spec.size)), grid)
           for pattern in CORNER_DRAWS]
    assert got == GOLDEN_CORNER_OBJECTIVES[name, grid]


@pytest.mark.parametrize("size", [2, 3, 201, 1601])
def test_cost_grids_equal_linspace(size):
    """Each row's cost grid in the pipeline is np.linspace's points from 0
    to its grid end, bit for bit, whichever chunk it falls in."""
    rng = np.random.default_rng(size)
    for spec, bounds in ((sp_spec(), sp_bounds()), (ps_spec(), ps_bounds())):
        r = rng.uniform(spec.r_min, spec.r_max, (40, spec.size))
        n = rng.integers(spec.n_min, spec.n_max + 1, (40, spec.size))
        draws = rng.random((spec.size, 8))
        grids = pipeline_grids(spec, r, n, bounds, draws, size)[2]
        for i in range(len(r)):
            hi = fuzzify(spec, Candidate(r[i], n[i]), bounds,
                         FixedDraws(draws.ravel()))[2]
            assert np.array_equal(grids[i], np.linspace(0.0, hi, size))
        assert not np.any(np.signbit(grids))


def test_pipeline_is_deterministic_per_seed():
    spec, bounds = sp_spec(), sp_bounds()
    a = evaluate_objectives(spec, SP_REFERENCE, bounds, np.random.default_rng(3))
    b = evaluate_objectives(spec, SP_REFERENCE, bounds, np.random.default_rng(3))
    c = evaluate_objectives(spec, SP_REFERENCE, bounds, np.random.default_rng(4))
    assert a == b
    assert a != c


def test_crisp_collapse_reproduces_crisp_reliability():
    """Zero-spread fuzzification gives the crisp system reliability exactly,
    at every grid: the collapsed reliability set is the image of the peaks,
    which no grid touches."""
    for spec, cand in ((sp_spec(), SP_REFERENCE), (ps_spec(), PS_REFERENCE)):
        crisp = crisp_metrics(spec, cand).reliability
        for grid in (2, 201, 1601):
            assert evaluate_objectives(spec, cand, crisp_bounds(), zeros_rng(),
                                       grid)[0] == crisp
        y_c = evaluate_objectives(spec, cand, crisp_bounds(), zeros_rng())[1]
        # collapsed cost spikes snap per stage and stages in the same grid
        # cell merge under the union, so only containment is guaranteed
        terms = _cost_terms_matrix(spec, cand.r, cand.n)
        cell = spec.cost_limit / 200
        assert min(terms) - 0.5 * cell <= y_c <= max(terms) + 0.5 * cell


# evaluate_objectives(spec, cand, crisp_bounds(), zeros_rng(), grid) for the
# reference candidate and the first five candidates of criterion 6
# (default_rng(7)): every footprint is a single point, so y_r is the crisp
# system reliability and each stage cost set is one grid point
GOLDEN_COLLAPSED = {
    ("sp", 201): [(0.8676118980512426, 40.0925),
                  (0.7796338940992484, 110.90722222222223),
                  (0.5957905333063769, 17232.552293955607),
                  (0.6008790645462169, 34.908125),
                  (0.3849420803292098, 37.13),
                  (0.21821548875365254, 287.4114976155133)],
    ("sp", 1601): [(0.8676118980512426, 39.876484375),
                   (0.7796338940992484, 101.19899999999998),
                   (0.5957905333063769, 11494.722381919504),
                   (0.6008790645462169, 32.29673611111111),
                   (0.3849420803292098, 31.87430555555556),
                   (0.21821548875365254, 194.62850664353832)],
    ("ps", 201): [(0.8514559218330687, 20.825),
                  (0.9900757400339674, 82.87705581057517),
                  (0.8687699871203481, 51.48181382836749),
                  (0.9999948064284218, 7116.481472136729),
                  (0.9568176557580897, 113.79840441837618),
                  (0.8889322329617864, 23.8)],
    ("ps", 1601): [(0.8514559218330687, 20.60625),
                   (0.9900757400339674, 82.63613413670721),
                   (0.8687699871203481, 51.593536514626976),
                   (0.9999948064284218, 5695.140255036893),
                   (0.9568176557580897, 92.53487785573935),
                   (0.8889322329617864, 23.690625)],
}


@pytest.mark.parametrize("name,grid", list(GOLDEN_COLLAPSED),
                         ids=["sp", "sp-1601", "ps", "ps-1601"])
def test_crisp_collapse_golden_values(name, grid):
    """The spike each collapsed cost set lands on, pinned to the grid cell:
    the containment check above would pass a one-cell shift.  Each y_r is
    the candidate's crisp reliability."""
    make_spec, _, reference = _GOLDEN_CASES[name]
    spec = make_spec()
    rng = np.random.default_rng(7)
    cands = [reference] + [
        Candidate(rng.uniform(spec.r_min, spec.r_max, spec.size),
                  rng.integers(spec.n_min, spec.n_max + 1, spec.size))
        for _ in range(5)]
    got = [evaluate_objectives(spec, cand, crisp_bounds(), zeros_rng(), grid)
           for cand in cands]
    assert got == GOLDEN_COLLAPSED[name, grid]


def test_crisp_collapse_single_subsystem_cost():
    spec = SystemSpec(SERIES_PARALLEL, 1000.0, [2e-5], [1.5], [1.0], [1.0],
                      100.0, 100.0, 100.0)
    cand = Candidate([0.9], [2])
    y_r, y_c = evaluate_objectives(spec, cand, crisp_bounds(), zeros_rng())
    assert y_r == subsystem_reliability(SERIES_PARALLEL, 0.9, 2)
    # one stage: the snapped spike itself, within half a cost cell
    assert y_c == pytest.approx(67.47670278989535, abs=0.5 * 100.0 / 200 + 1e-9)


def test_crisp_collapse_cost_mean_of_separated_stages():
    """Collapsed cost stages more than a cell apart keep their own spikes,
    so the union's centroid is the plain mean of the snapped peaks."""
    spec = SystemSpec(SERIES_PARALLEL, 1000.0, [2e-5, 8e-5], [1.5, 1.5],
                      [1.0, 1.0], [1.0, 1.0], 1000.0, 1000.0, 1000.0)
    cand = Candidate([0.9, 0.8], [2, 3])
    terms = _cost_terms_matrix(spec, cand.r, cand.n)
    cell = 1000.0 / 200
    assert abs(terms[1] - terms[0]) > 2 * cell
    _, y_c = evaluate_objectives(spec, cand, crisp_bounds(), zeros_rng())
    assert y_c == pytest.approx(float(np.mean(terms)), abs=0.5 * cell + 1e-9)


def test_pipeline_rejects_tiny_grid():
    with pytest.raises(ValueError, match="grid_size"):
        evaluate_objectives(sp_spec(), SP_REFERENCE, sp_bounds(),
                            np.random.default_rng(0), grid_size=1)


# ---------------------------------------------------------------------------
# fitness, the infeasible floor, dominance
# ---------------------------------------------------------------------------

def test_scalarize_hand_values():
    bounds = sp_bounds()
    val = scalarize((0.7, 300.0), (1.0, 1.0), bounds)
    assert val == pytest.approx(0.2980419607911113, rel=1e-12)
    assert scalarize((0.7, 300.0), (1.0, 1.0), bounds, FITNESS_RAW) == \
        pytest.approx(-299.3)
    assert scalarize((0.7, 300.0), (0.5, 0.0), bounds) == pytest.approx(0.35)


def test_scalarize_validation():
    bounds = sp_bounds()
    with pytest.raises(ValueError, match="unknown fitness mode"):
        scalarize((0.7, 300.0), (1.0, 1.0), bounds, "fancy")
    with pytest.raises(ValueError, match="not both zero"):
        scalarize((0.7, 300.0), (0.0, 0.0), bounds)
    degenerate = IdealBounds(0.5, 0.9, 100.0, 100.0)
    with pytest.raises(ValueError, match="c_left < c_right"):
        scalarize((0.7, 300.0), (1.0, 1.0), degenerate)
    # zero cost weight never touches the degenerate span
    assert scalarize((0.7, 300.0), (1.0, 0.0), degenerate) == pytest.approx(0.7)


def scorer(spec, bounds, xi=(1.0, 1.0), mode=FITNESS_NORMALIZED):
    """The solvers' scorer for one run of seed 0 at grid 201."""
    return _CandidateScorer(spec, bounds, xi, 0, WEIGHT_DATASET_CONSISTENT,
                            mode, 201)


def score(run, *cands):
    """Scores of candidates, encoded as the solvers' search positions."""
    return run(np.array([np.concatenate([c.r, c.n]) for c in cands]))


# 15 over the series-parallel volume limit, exactly: 304 against 289
VOLUME_15 = Candidate([0.6] * 10, [1, 1, 4, 1, 4, 4, 1, 2, 4, 4])


def test_penalty_hand_values():
    spec = sp_spec()
    feasible = MetricSet(0.9, 400.0, 480.0, 280.0)
    assert constraint_violation(spec, feasible) == 0.0
    assert is_feasible(spec, feasible)
    over = MetricSet(0.9, 400.0, 498.0, 280.0)  # 15 over the weight limit
    violation = constraint_violation(spec, over)
    assert violation == pytest.approx(15.0)
    assert constraint_violation(spec, crisp_metrics(spec, VOLUME_15)) == 15.0
    # the floor is the fitness of y_r = 0 at y_c = max(553, 470.195913)
    normalized = scorer(spec, sp_bounds())
    assert normalized.floor == -(553 - 185.607332) / (470.195913 - 185.607332)
    assert normalized.floor == -1.2909606798313527
    assert score(normalized, VOLUME_15)[0] == normalized.floor - 15.0
    raw = scorer(spec, sp_bounds(), mode=FITNESS_RAW)
    assert raw.floor == -553.0
    assert score(raw, VOLUME_15)[0] == -568.0
    reliability_only = scorer(spec, sp_bounds(), xi=(1.0, 0.0))
    assert reliability_only.floor == 0.0
    assert score(reliability_only, VOLUME_15)[0] == -15.0
    both = MetricSet(0.9, 400.0, 493.0, 291.0)
    assert constraint_violation(spec, both) == pytest.approx(12.0)
    assert not is_feasible(spec, both)


def test_cost_limit_joins_the_constraint_set():
    spec = sp_spec()  # cost limit 553
    over = MetricSet(0.95, 578.0, 480.0, 280.0)
    assert constraint_violation(spec, over) == pytest.approx(25.0)
    assert not is_feasible(spec, over)
    # the reference row with every r raised: only the cost limit binds
    near = Candidate(SP_REFERENCE.r + 0.02, SP_REFERENCE.n)   # C = 544.7
    past = Candidate(SP_REFERENCE.r + 0.025, SP_REFERENCE.n)  # C = 578.9
    assert is_feasible(spec, crisp_metrics(spec, near))
    metrics = crisp_metrics(spec, past)
    assert constraint_violation(spec, metrics) == metrics.cost - 553.0
    run = scorer(spec, sp_bounds())
    got = score(run, near, past)
    assert got[1] == run.floor - (metrics.cost - 553.0)
    assert got[1] < run.floor < got[0]


def test_infeasible_scores_below_observed_feasible():
    spec = sp_spec()
    rng = np.random.default_rng(21)
    for _ in range(100):
        w = rng.uniform(400.0, 700.0)
        v = rng.uniform(200.0, 400.0)
        m = MetricSet(0.9, 400.0, w, v)
        violation = constraint_violation(spec, m)
        assert is_feasible(spec, m) == (violation == 0.0)
    # 100 random in-box rows: every feasible score lies above the floor,
    # every infeasible one is the floor minus its violation
    cands = [Candidate(rng.uniform(spec.r_min, spec.r_max, spec.size),
                       rng.integers(spec.n_min, 4, spec.size))
             for _ in range(100)]
    run = scorer(spec, sp_bounds())
    got = score(run, *cands)
    violations = np.array([constraint_violation(spec, crisp_metrics(spec, c))
                           for c in cands])
    assert 0 < np.sum(violations == 0.0) < 100
    assert np.all(got[violations == 0.0] > run.floor)
    assert np.array_equal(got[violations > 0.0],
                          run.floor - violations[violations > 0.0])
    assert np.max(got[violations > 0.0]) < np.min(got[violations == 0.0])


def test_dominates_hand_cases():
    a = MetricSet(0.9, 100.0, 0, 0)
    b = MetricSet(0.8, 120.0, 0, 0)
    c = MetricSet(0.9, 100.0, 0, 0)
    d = MetricSet(0.95, 90.0, 0, 0)
    assert dominates(a, b)
    assert not dominates(b, a)
    assert not dominates(a, c)  # equal pair: no strict edge
    assert dominates(d, a)
    # trade-off pair: neither dominates
    e = MetricSet(0.95, 150.0, 0, 0)
    assert not dominates(a, e) and not dominates(e, a)


def test_dominates_is_strict_partial_order():
    rng = np.random.default_rng(17)
    pts = [MetricSet(float(r), float(c), 0.0, 0.0)
           for r, c in zip(rng.random(40), rng.uniform(50, 150, 40))]
    for a in pts:
        assert not dominates(a, a)
        for b in pts:
            if dominates(a, b):
                assert not dominates(b, a)
            for c in pts:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)
