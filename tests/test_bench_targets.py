"""The bench's traced pass rebinds program names by string
(``bench/tracing.py::TARGETS`` -> ``vars(owner)[attr]``), so a rename under
``src/`` is a ``KeyError`` there — in a pass tier-1 never runs
(``testpaths = ["tests"]``; ``make bench-test`` and CI run ``pytest bench/``).
This guards the names where the renames happen.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their string annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracing = _load_tracing()


def test_there_are_targets():
    assert len(tracing.TARGETS) >= 23


@pytest.mark.parametrize(
    "target", tracing.TARGETS, ids=lambda t: f"{t.owner}.{t.attr}".replace(":", "."))
def test_target_resolves_on_its_owner(target):
    owner = tracing._resolve(target.owner)
    # install() reads vars(owner), not getattr: the name must be bound on
    # the owner itself (a module global, a method defined on that class).
    assert target.attr in vars(owner), f"{target.owner} has no {target.attr!r}"
    assert callable(vars(owner)[target.attr])
