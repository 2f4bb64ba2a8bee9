"""Tests for centroid type reduction: the sampled reducer against a
linear-programming oracle, and the cut-end reducer against the sampled one
on a fine grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from it2rrap import CentroidInterval, centroid_rows, defuzzify
from it2rrap.typereduce import centroid_cuts


def lp_centroid(grid, lower, upper):
    """Both centroid endpoints as linear programs, independent of the
    switch-point theorem :func:`centroid_rows` relies on.

    The endpoints extremise ``sum(x w) / sum(w)`` over ``lower <= w <=
    upper``.  The Charnes-Cooper substitution ``t = s w`` with ``sum(t) = 1``
    makes that linear in ``(t, s)``: extremise ``sum(x t)`` subject to
    ``lower s <= t <= upper s`` and ``t, s >= 0``.
    """
    n = grid.size
    eye = np.eye(n)
    a_ub = np.vstack([np.hstack([-eye, lower[:, None]]),
                      np.hstack([eye, -upper[:, None]])])
    a_eq = np.append(np.ones(n), 0.0)[None, :]
    ends = []
    for sign in (1.0, -1.0):
        res = linprog(sign * np.append(grid, 0.0), A_ub=a_ub,
                      b_ub=np.zeros(2 * n), A_eq=a_eq, b_eq=[1.0],
                      bounds=(0, None), method="highs")
        assert res.status == 0, res.message
        ends.append(sign * res.fun)
    return ends[0], ends[1]


def random_sampled(rng, n=None):
    """Random sampled IT2 set covering sparse, spiky and empty-lower shapes,
    as ``(grid, lower, upper)``."""
    if n is None:
        n = int(rng.integers(3, 65))
    start = rng.uniform(-2.0, 2.0)
    grid = start + np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))))
    upper = rng.random(n)
    upper[rng.integers(n)] = rng.uniform(0.5, 1.0)  # guarantee some mass
    lower = upper * rng.random(n)
    shape = rng.random()
    if shape < 0.15:
        lower[:] = 0.0
    elif shape < 0.3:
        keep = rng.integers(n)
        upper[:] = 0.0
        lower[:] = 0.0
        upper[keep] = rng.uniform(0.5, 1.0)
        lower[keep] = upper[keep] * rng.random()
    elif shape < 0.5:
        head = int(rng.integers(0, n // 2))
        tail = int(rng.integers(0, n // 2))
        upper[:head] = 0.0
        lower[:head] = 0.0
        if tail:
            upper[n - tail:] = 0.0
            lower[n - tail:] = 0.0
        if not np.any(upper > 0):
            upper[n // 2] = 1.0
    return grid, lower, upper


def test_centroid_endpoints_reject_inversion():
    with pytest.raises(ValueError, match="inverted"):
        CentroidInterval(0.7, 0.3)


def test_two_point_hand_enumeration():
    """N=2 instance small enough to enumerate the three patterns by hand."""
    s = (np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([1.0, 1.0]))
    assert np.allclose(centroid_rows(*s), [1.0 / 3.0, 2.0 / 3.0],
                       rtol=0, atol=1e-12)


def test_five_point_frozen_values():
    """Symmetric five-point instance; endpoints frozen from the enumeration
    reference (19/48 and 29/48, re-derived by hand)."""
    left, right = centroid_rows(np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
                                  np.array([0.1, 0.3, 0.9, 0.3, 0.1]),
                                  np.array([0.4, 0.7, 1.0, 0.7, 0.4]))
    assert np.isclose(left, 0.39583333333333326, atol=1e-12)
    assert np.isclose(right, 0.6041666666666669, atol=1e-12)
    assert np.isclose(left, 19.0 / 48.0, atol=1e-12)
    assert np.isclose(right, 29.0 / 48.0, atol=1e-12)


def test_six_point_frozen_values():
    """Asymmetric six-point instance; endpoints frozen from the enumeration
    reference."""
    left, right = centroid_rows(np.array([0.0, 0.1, 0.45, 0.6, 0.8, 1.0]),
                                  np.array([0.0, 0.2, 0.55, 0.35, 0.05, 0.0]),
                                  np.array([0.1, 0.5, 0.8, 0.75, 0.3, 0.05]))
    assert np.isclose(left, 0.3532258064516129, atol=1e-12)
    assert np.isclose(right, 0.5445945945945947, atol=1e-12)


def test_type1_degenerate_collapses_to_plain_centroid():
    grid = np.linspace(0.0, 1.0, 101)
    tri = np.clip(1.0 - np.abs(grid - 0.3) / 0.2, 0.0, 1.0)
    expected = float(np.sum(grid * tri) / np.sum(tri))
    ci = CentroidInterval(*centroid_rows(grid, tri, tri))
    assert ci.right - ci.left < 1e-12
    assert np.isclose(ci.left, expected, atol=1e-9)
    assert np.isclose(defuzzify(ci), expected, atol=1e-9)


def test_symmetric_footprint_gives_symmetric_interval():
    grid = np.linspace(0.0, 0.8, 41)  # symmetric around 0.4
    upper = np.clip(1.0 - np.abs(grid - 0.4) / 0.35, 0.0, 1.0)
    lower = np.clip(1.0 - np.abs(grid - 0.4) / 0.15, 0.0, 1.0)
    ci = CentroidInterval(*centroid_rows(grid, lower, upper))
    assert np.isclose(ci.left + ci.right, 0.8, atol=1e-9)
    assert np.isclose(defuzzify(ci), 0.4, atol=1e-9)


def test_affine_grid_change_moves_centroid_accordingly():
    rng = np.random.default_rng(3)
    for _ in range(40):
        grid, lower, upper = random_sampled(rng)
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-3.0, 3.0)
        moved = centroid_rows(a * grid + b, lower, upper)
        want = a * np.array(centroid_rows(grid, lower, upper)) + b
        assert np.allclose(moved, want, rtol=0, atol=1e-9 * max(1.0, a))


def test_zero_mass_rejected():
    s = (np.array([0.0, 0.5, 1.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="no mass"):
        centroid_rows(*s)


def test_rows_reduce_like_single_sets():
    """A batch of sets, each on its own grid or all on one shared grid,
    gives every set its own endpoints bit for bit; one massless row
    rejects the batch."""
    rng = np.random.default_rng(11)
    sets = [random_sampled(rng, n=17) for _ in range(6)]
    grids, lowers, uppers = (np.array(part) for part in zip(*sets))
    left, right = centroid_rows(grids, lowers, uppers)
    shared_left, shared_right = centroid_rows(grids[0], lowers, uppers)
    assert left.shape == right.shape == (6,)
    for i, (grid, lower, upper) in enumerate(sets):
        assert (left[i], right[i]) == centroid_rows(grid, lower, upper)
        assert (shared_left[i], shared_right[i]) == \
            centroid_rows(grids[0], lower, upper)
    uppers[3] = lowers[3] = 0.0
    with pytest.raises(ValueError, match="no mass"):
        centroid_rows(grids, lowers, uppers)


def test_single_support_point_returns_that_abscissa():
    left, right = centroid_rows(np.array([0.0, 0.5, 1.0]), np.zeros(3),
                                  np.array([0.0, 0.7, 0.0]))
    assert left == right == 0.5


def test_centroid_matches_lp_oracle_on_random_instances():
    """The switch-point enumeration equals the LP optimum on several hundred
    random shapes."""
    rng = np.random.default_rng(2024)
    for _ in range(400):
        s = random_sampled(rng)
        lp_left, lp_right = lp_centroid(*s)
        left, right = centroid_rows(*s)
        assert abs(left - lp_left) <= 1e-12 * max(1.0, abs(lp_left))
        assert abs(right - lp_right) <= 1e-12 * max(1.0, abs(lp_right))
        assert left <= right


_grade = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


@st.composite
def sampled_sets(draw):
    """``(grid, lower, upper)`` with a strictly increasing grid and
    ``0 <= lower <= upper`` carrying some upper mass."""
    n = draw(st.integers(1, 40))
    start = draw(st.floats(-100.0, 100.0))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1,
                          max_size=n - 1))
    grid = start + np.concatenate(([0.0], np.cumsum(steps)))
    upper = np.array(draw(st.lists(_grade, min_size=n, max_size=n)))
    if not np.any(upper > 0):
        upper[draw(st.integers(0, n - 1))] = 1.0
    lower = upper * np.array(draw(st.lists(_grade, min_size=n, max_size=n)))
    return grid, lower, upper


@settings(max_examples=300, deadline=None)
@given(sampled_sets())
def test_centroid_brackets_upper_centroid_within_upper_support(s):
    """The all-upper pattern is a candidate for both endpoints, so its
    average lies between them, and both lie within the upper support.

    The bracket is computed from full sums and holds to rounding.  The
    support bound allows for the tail sums ``cum[N] - cum[k]``, whose
    rounding error is relative to the whole mass rather than to the tail:
    with grades 1 and 1e-6 on the grid (0, 1) the right end is 1 + 8e-11.
    """
    grid, lower, upper = s
    left, right = centroid_rows(grid, lower, upper)
    scale = max(1.0, float(np.max(np.abs(grid))))
    tol = 1e-12 * scale
    upper_centroid = np.sum(grid * upper) / np.sum(upper)
    assert left <= upper_centroid + tol
    assert upper_centroid <= right + tol
    support = grid[upper > 0]
    tail_tol = tol * np.sum(upper) / np.min(upper[upper > 0])
    assert support[0] - tail_tol <= left
    assert right <= support[-1] + tail_tol


def test_defuzzify_midpoint():
    assert defuzzify(CentroidInterval(0.2, 0.6)) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# the continuous centroid from cut ends
# ---------------------------------------------------------------------------

def sampled_from_cuts(x, levels, left, right):
    """Membership on ``x`` of the set whose cuts at ``levels`` have the
    ends ``left``/``right``, linear between levels."""
    rising = np.interp(x, left, levels, left=0.0, right=1.0)
    falling = np.interp(x, right[::-1], levels[::-1], left=1.0, right=0.0)
    return np.minimum(rising, falling)


def test_centroid_cuts_converges_to_the_sampled_centroid():
    """On a ladder of 4097 levels the cut-end centroid of sets with curved
    flanks equals, to 2e-6 of the support, the switch-point centroid of the
    same sets sampled on 20001 points of their support."""
    rng = np.random.default_rng(5)
    levels = np.linspace(0.0, 1.0, 4097)
    for _ in range(50):
        up_foot, lo_foot, peak, lo_end, up_end = np.sort(
            rng.uniform(-3.0, 3.0, 5))

        def flank(foot):
            return foot + (peak - foot) * levels ** rng.uniform(0.5, 2.0)

        up_left, up_right = flank(up_foot), flank(up_end)
        # the lower cuts kept inside the upper ones, level by level
        lo_left = np.maximum(flank(lo_foot), up_left)
        lo_right = np.minimum(flank(lo_end), up_right)
        got = centroid_cuts((lo_left, lo_right), (up_left, up_right))
        x = np.linspace(up_foot, up_end, 20001)
        want = centroid_rows(x, sampled_from_cuts(x, levels, lo_left, lo_right),
                             sampled_from_cuts(x, levels, up_left, up_right))
        assert np.allclose(got, want, rtol=0, atol=2e-6 * (up_end - up_foot))


_step = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@st.composite
def cut_sets(draw):
    """``(lower, upper)`` cut ends of an IT2 set at 2 to 65 levels, each a
    ``(left, right)`` pair: flanks with flat stretches, points and plateaus
    on top, and a lower set anywhere from the top cut alone (no mass
    without a plateau) to the upper set itself."""
    count = draw(st.integers(2, 65))
    apex = draw(st.floats(-100.0, 100.0))
    top = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))

    def flank():
        steps = draw(st.lists(_step, min_size=count - 1, max_size=count - 1))
        return np.append(np.cumsum(steps[::-1])[::-1], 0.0)

    up_left, up_right = apex - flank(), apex + top + flank()
    # the lower set: the upper one's cuts from ``shift`` levels higher,
    # pulled towards the top cut by ``pull`` on each side
    shift = draw(st.integers(0, count - 1))
    higher = np.minimum(np.arange(count) + shift, count - 1)
    pull = [draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
            for _ in range(2)]
    lo_left = apex - pull[0] * (apex - up_left[higher])
    lo_right = apex + top + pull[1] * (up_right[higher] - apex - top)
    return (lo_left, lo_right), (up_left, up_right)


@settings(max_examples=300, deadline=None)
@given(cut_sets())
def test_centroid_cuts_is_an_ordered_interval_inside_the_upper_support(s):
    """Both endpoints lie within the upper support, left before right, for
    sets without lower mass and for type-1 sets too, whose two ends meet."""
    lower, upper = s
    left, right = centroid_cuts(lower, upper)
    assert upper[0][0] <= left <= right <= upper[1][0]


def test_centroid_cuts_without_lower_mass_spans_the_upper_support():
    """A lower set without mass, here a point inside the upper triangle
    (0, 0.5, 1), gives exactly the ends of the upper support, alone and
    beside a row that has lower mass."""
    levels = np.linspace(0.0, 1.0, 65)
    upper = (0.5 * levels, 1.0 - 0.5 * levels)
    point = (np.full(65, 0.5), np.full(65, 0.5))
    assert centroid_cuts(point, upper) == (0.0, 1.0)
    solid = (0.25 + 0.25 * levels, 0.75 - 0.25 * levels)
    left, right = centroid_cuts(
        (np.stack([point[0], solid[0]]), np.stack([point[1], solid[1]])),
        (np.stack([upper[0]] * 2), np.stack([upper[1]] * 2)))
    assert (left[0], right[0]) == (0.0, 1.0)
    assert (left[1], right[1]) == centroid_cuts(solid, upper)


@settings(max_examples=300, deadline=None)
@given(cut_sets())
def test_centroid_cuts_of_a_type1_set_is_its_centroid(s):
    """With equal bounds both endpoints are the set's centroid
    ``int x mu / int mu``, taken over the levels by the trapezoid rule:
    each cut of width ``r - l`` holds mass ``r - l`` with moment
    ``(r**2 - l**2) / 2``."""
    _, (left, right) = s
    width = right - left
    weights = np.ones(left.size)
    weights[[0, -1]] = 0.5
    mass = np.sum(weights * width)
    got = centroid_cuts((left, right), (left, right))
    if mass == 0.0:
        assert got == (right[0], right[0])
        return
    want = np.sum(weights * width * (left + right) / 2.0) / mass
    scale = np.max(np.abs(right)) + np.max(np.abs(left))
    assert np.allclose(got, want, rtol=0, atol=1e-12 * scale)
