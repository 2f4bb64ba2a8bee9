"""Tests for the replication statistics helpers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import it2rrap
from it2rrap import anova_f, describe, t_test


def test_importing_the_package_leaves_scipy_unloaded():
    """scipy is imported when a t or F p-value is computed, not at
    start-up, where it would cost every solve over 0.1 s."""
    src = str(Path(it2rrap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, it2rrap, it2rrap.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------

def test_describe_hand_values():
    s = describe([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == pytest.approx(2.5)
    assert s.median == pytest.approx(2.5)
    assert s.sd == pytest.approx(1.2909944487358056, rel=1e-12)


def test_describe_single_observation_has_no_sd():
    s = describe([5.0])
    assert s.n == 1
    assert s.mean == 5.0
    assert s.median == 5.0
    assert s.sd is None


def test_describe_constant_sample_has_zero_sd():
    s = describe([2.0, 2.0, 2.0])
    assert s.sd == 0.0


def test_describe_median_of_odd_sample():
    assert describe([9.0, 1.0, 5.0]).median == 5.0


def test_describe_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 1"):
        describe([])
    with pytest.raises(ValueError, match="non-finite"):
        describe([1.0, np.nan])


# ---------------------------------------------------------------------------
# t-test
# ---------------------------------------------------------------------------

def test_t_test_hand_values():
    t, p, df = t_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert t == pytest.approx(-3.674234614174767, rel=1e-12)
    assert t == pytest.approx(-3.674, abs=1e-3)
    assert df == 4.0
    assert p == pytest.approx(0.021311641128756713, rel=1e-10)


def test_t_test_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(0.0, 1.0, rng.integers(2, 12))
        b = rng.normal(0.3, 1.5, rng.integers(2, 12))
        mine = t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b)
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-10)
        welch = t_test(a, b, welch=True)
        ref_w = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert welch.statistic == pytest.approx(ref_w.statistic, rel=1e-12)
        assert welch.p_value == pytest.approx(ref_w.pvalue, rel=1e-10)


def test_t_test_identical_samples():
    t, p, _ = t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0
    assert p == 1.0


def test_t_test_is_antisymmetric():
    a, b = [1.0, 2.0, 5.0], [2.0, 4.0, 4.5, 6.0]
    fwd = t_test(a, b)
    rev = t_test(b, a)
    assert fwd.statistic == pytest.approx(-rev.statistic, rel=1e-15)
    assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-15)


def test_t_test_translation_invariance():
    a, b = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
    base = t_test(a, b)
    moved = t_test(a + 100.0, b + 100.0)
    assert moved.statistic == pytest.approx(base.statistic, rel=1e-12)


def test_t_test_p_shrinks_as_separation_grows():
    a = np.array([1.0, 2.0, 3.0])
    gaps = [0.5, 1.0, 2.0, 4.0]
    ps = [t_test(a, a + gap).p_value for gap in gaps]
    assert all(x > y for x, y in zip(ps, ps[1:]))
    assert all(0.0 <= x <= 1.0 for x in ps)


def test_t_test_rejects_degenerate_variance():
    with pytest.raises(ValueError, match="degenerate samples"):
        t_test([2.0, 2.0], [2.0, 2.0])
    with pytest.raises(ValueError, match="degenerate samples"):
        t_test([2.0, 2.0], [3.0, 3.0], welch=True)
    with pytest.raises(ValueError, match="at least 2"):
        t_test([1.0], [2.0, 3.0])


# ---------------------------------------------------------------------------
# one-way ANOVA
# ---------------------------------------------------------------------------

def test_anova_two_groups_equals_t_squared():
    a, b = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
    f, p, d1, d2 = anova_f([a, b])
    t = t_test(a, b)
    assert f == pytest.approx(13.5, abs=0.01)
    assert f == pytest.approx(t.statistic**2, abs=1e-9)
    assert p == pytest.approx(t.p_value, rel=1e-10)
    assert (d1, d2) == (1, 4)


def test_anova_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        groups = [rng.normal(rng.uniform(-1, 1), 1.0, rng.integers(2, 10))
                  for _ in range(rng.integers(2, 5))]
        mine = anova_f(groups)
        ref = scipy.stats.f_oneway(*groups)
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-8)


def test_anova_identical_groups():
    g = [1.0, 2.0, 3.0]
    f, p, _, _ = anova_f([g, g, g])
    assert f == 0.0
    assert p == 1.0
    # equal means give F = 0 exactly even where the pooled mean rounds
    # away from them
    rng = np.random.default_rng(0)
    for size in range(2, 8):
        for _ in range(20):
            g = rng.random(size)
            assert anova_f([g, g.copy()]).statistic == 0.0


def test_anova_rejects_degenerate_input():
    with pytest.raises(ValueError, match="at least 2 groups"):
        anova_f([[1.0, 2.0]])
    with pytest.raises(ValueError, match="degenerate samples"):
        anova_f([[2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(ValueError, match="at least 2"):
        anova_f([[1.0], [2.0, 3.0]])
