"""The committed ``results/*.txt`` are what ``repro run all`` writes today.

Each reducer, fed the shared sweep, must reproduce its committed artifact
byte for byte; a change that moves a traced count moves a digit here and
has to regenerate the file (``make artifacts``) in the same commit.
"""

import os

import pytest

from repro.cli import ARTIFACTS

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "results")


def modelled_columns(text):
    """Drop the last column of every table row (e0's measured wall share)."""
    return [line.rsplit("|", 1)[0].rstrip() for line in text.splitlines()]


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_reducer_reproduces_committed_artifact(sweep, name):
    rendered = ARTIFACTS[name](sweep).render() + "\n"
    with open(os.path.join(RESULTS_DIR, f"{name}.txt")) as f:
        committed = f.read()
    if name == "e0":
        assert modelled_columns(rendered) == modelled_columns(committed)
    else:
        assert rendered == committed
