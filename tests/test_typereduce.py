"""Tests for centroid type reduction: brute-force reference and EKM."""

import numpy as np
import pytest

from it2rrap import (
    CentroidInterval,
    brute_force_centroid,
    centroid_arrays,
    defuzzify,
)
from it2rrap.typereduce import _ekm_side, _prepared, _support_span


def ekm_with_iterations(grid, lower, upper):
    """``((left, passes), (right, passes))`` of the EKM iteration that
    :func:`centroid_arrays` runs, with the pass count of each side."""
    prep = _prepared(grid, lower, upper)
    first, last = _support_span(upper)
    return (_ekm_side(prep, first, last, "left"),
            _ekm_side(prep, first, last, "right"))


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
    assert np.allclose(brute_force_centroid(*s), [1.0 / 3.0, 2.0 / 3.0],
                       rtol=0, atol=1e-12)
    assert np.allclose(centroid_arrays(*s), [1.0 / 3.0, 2.0 / 3.0],
                       rtol=0, atol=1e-12)


def test_five_point_frozen_values():
    """Symmetric five-point instance; endpoints frozen from the enumeration
    reference (19/48 and 29/48, re-derived by hand)."""
    left, right = centroid_arrays(np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
                                  np.array([0.1, 0.3, 0.9, 0.3, 0.1]),
                                  np.array([0.4, 0.7, 1.0, 0.7, 0.4]))
    assert np.isclose(left, 0.39583333333333326, atol=1e-12)
    assert np.isclose(right, 0.6041666666666669, atol=1e-12)
    assert np.isclose(left, 19.0 / 48.0, atol=1e-12)
    assert np.isclose(right, 29.0 / 48.0, atol=1e-12)


def test_six_point_frozen_values():
    """Asymmetric six-point instance; endpoints frozen from the enumeration
    reference."""
    left, right = centroid_arrays(np.array([0.0, 0.1, 0.45, 0.6, 0.8, 1.0]),
                                  np.array([0.0, 0.2, 0.55, 0.35, 0.05, 0.0]),
                                  np.array([0.1, 0.5, 0.8, 0.75, 0.3, 0.05]))
    assert np.isclose(left, 0.3532258064516129, atol=1e-12)
    assert np.isclose(right, 0.5445945945945947, atol=1e-12)


def test_type1_degenerate_collapses_to_plain_centroid():
    grid = np.linspace(0.0, 1.0, 101)
    tri = np.clip(1.0 - np.abs(grid - 0.3) / 0.2, 0.0, 1.0)
    expected = float(np.sum(grid * tri) / np.sum(tri))
    ci = CentroidInterval(*centroid_arrays(grid, tri, tri))
    assert ci.right - ci.left < 1e-12
    assert np.isclose(ci.left, expected, atol=1e-9)
    assert np.isclose(defuzzify(ci), expected, atol=1e-9)


def test_symmetric_footprint_gives_symmetric_interval():
    grid = np.linspace(0.0, 0.8, 41)  # symmetric around 0.4
    upper = np.clip(1.0 - np.abs(grid - 0.4) / 0.35, 0.0, 1.0)
    lower = np.clip(1.0 - np.abs(grid - 0.4) / 0.15, 0.0, 1.0)
    ci = CentroidInterval(*centroid_arrays(grid, lower, upper))
    assert np.isclose(ci.left + ci.right, 0.8, atol=1e-9)
    assert np.isclose(defuzzify(ci), 0.4, atol=1e-9)


def test_affine_grid_change_moves_centroid_accordingly():
    rng = np.random.default_rng(3)
    for _ in range(40):
        grid, lower, upper = random_sampled(rng)
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-3.0, 3.0)
        moved = centroid_arrays(a * grid + b, lower, upper)
        want = a * np.array(centroid_arrays(grid, lower, upper)) + b
        assert np.allclose(moved, want, rtol=0, atol=1e-9 * max(1.0, a))


def test_zero_mass_rejected():
    s = (np.array([0.0, 0.5, 1.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="no mass"):
        brute_force_centroid(*s)
    with pytest.raises(ValueError, match="no mass"):
        centroid_arrays(*s)


def test_single_support_point_returns_that_abscissa():
    left, right = centroid_arrays(np.array([0.0, 0.5, 1.0]), np.zeros(3),
                                  np.array([0.0, 0.7, 0.0]))
    assert left == right == 0.5


def test_ekm_matches_enumeration_on_random_instances():
    """EKM equals the exhaustive reference on several hundred random shapes
    and converges within N passes."""
    rng = np.random.default_rng(2024)
    for _ in range(400):
        s = random_sampled(rng)
        bf_left, bf_right = brute_force_centroid(*s)
        (left, it_left), (right, it_right) = ekm_with_iterations(*s)
        assert abs(left - bf_left) <= 1e-12 * max(1.0, abs(bf_left))
        assert abs(right - bf_right) <= 1e-12 * max(1.0, abs(bf_right))
        assert it_left <= s[0].size
        assert it_right <= s[0].size
        assert centroid_arrays(*s) == (left, right)
        assert left <= right + 1e-15


def test_defuzzify_midpoint():
    assert defuzzify(CentroidInterval(0.2, 0.6)) == pytest.approx(0.4)
