"""Shared pytest set-up for the test suite."""

from hypothesis import settings

# selected with --hypothesis-profile=ci: every run draws the same examples,
# and no per-example deadline fails a test on a slow shared runner; runs
# without the option keep hypothesis's random draws
settings.register_profile("ci", derandomize=True, deadline=None)
