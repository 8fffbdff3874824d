"""Fixtures of the paper-claim suite.

``sweep`` is the full profiled sweep the paper's evaluation section is built
on: both curves, the default constraint ladder.  Every table/figure test
reduces this one sweep and asserts the paper's shape claims;
``test_results_golden.py`` checks the same reducers against the committed
``results/*.txt``.  One traced sweep, memoised in process by
``profile_run``, is what the suite costs.
"""

import pytest

from repro.harness.runner import DEFAULT_SIZES, profile_sweep


@pytest.fixture(scope="session")
def sweep():
    return profile_sweep(sizes=DEFAULT_SIZES)


@pytest.fixture(scope="session")
def sizes():
    return DEFAULT_SIZES
