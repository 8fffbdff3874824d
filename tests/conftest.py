"""Shared fixtures: curves, deterministic RNGs, and small compiled circuits."""

import json
import random

import pytest

from repro.circuit import CircuitBuilder, compile_circuit, gadgets
from repro.curves import BLS12_381, BN128


@pytest.fixture(params=["bn128", "bls12_381"])
def curve(request):
    """Both evaluation curves, parametrized."""
    return BN128 if request.param == "bn128" else BLS12_381


@pytest.fixture
def bn128():
    return BN128


@pytest.fixture
def bls12_381():
    return BLS12_381


@pytest.fixture
def rng():
    """Deterministic RNG; tests must not depend on global random state."""
    return random.Random(0xC0FFEE)


def read_jsonl(path):
    """The records of a JSONL run ledger, as the tests that wrote it read it."""
    with open(path) as f:
        return [json.loads(line) for line in f]


#: A public value's unreduced aliases and non-elements: every verifier
#: entry point must reject each with a typed error, not reduce it.
UNREDUCED = ("plus_r", "minus_r", "negative", "true")


def unreduced(publics, r, how):
    """*publics* with its first value replaced as *how* (:data:`UNREDUCED`)
    says, *r* the scalar-field modulus."""
    v = publics[0]
    bad = {"plus_r": v + r, "minus_r": v - r, "negative": -1, "true": True}
    return [bad[how]] + list(publics[1:])


def make_pow_circuit(curve, exponent=8):
    """A compiled y = x^exponent circuit plus matching inputs."""
    b = CircuitBuilder(f"pow{exponent}", curve.fr)
    x = b.private_input("x")
    y = gadgets.exponentiate(b, x, exponent)
    b.output(y, "y")
    return compile_circuit(b), {"x": 3}


@pytest.fixture
def pow_circuit(curve):
    """(compiled_circuit, inputs) for y = x^8 on the parametrized curve."""
    return make_pow_circuit(curve, 8)
