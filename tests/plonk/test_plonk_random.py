"""Property tests: random ``CircuitBuilder`` programs lower, prove and verify.

Each case authors a random program — multiplications, additions,
constants, multi-term linear combinations on every side of a constraint —
compiles it as Groth16 would, lowers it to PLONK, proves the generated
witness and verifies; then shifts one public value and checks rejection.
This covers lowering / permutation interactions no hand-written circuit
exercises.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.circuit import CircuitBuilder, compile_circuit
from repro.curves import BN128
from repro.groth16 import generate_witness, public_inputs
from repro.plonk import plonk_prove, plonk_setup, plonk_verify
from repro.plonk.kzg import SRS

FR = BN128.fr
MAX_N = 128

# One shared SRS big enough for every generated circuit.
_SRS = SRS.generate(BN128, MAX_N + 8, random.Random(0xBEEF))


def random_program(seed, n_ops=8):
    """A random builder over two private inputs and one public input."""
    rng = random.Random(seed)
    b = CircuitBuilder(f"random{seed}", FR)
    pool = [b.private_input("x0"), b.private_input("x1"), b.public_input("p")]
    for _ in range(n_ops):
        kind = rng.choice(("mul", "add", "const", "lincomb", "distrib"))
        s, t = rng.choice(pool), rng.choice(pool)
        if kind == "mul":
            pool.append(s * t)
        elif kind == "add":
            pool.append(s + t)
        elif kind == "const":
            pool.append(s + b.constant(rng.randrange(1, 100)))
        elif kind == "lincomb":
            picks = rng.sample(pool, min(len(pool), 4))
            pool.append(sum((p * rng.randrange(1, 100) for p in picks),
                            b.constant(rng.randrange(100))))
        else:
            # (s + u) * t == s*t + u*t: a two-term combination on C.
            u = rng.choice(pool)
            st_, ut = s * t, u * t
            b.assert_mul(s + u, t, st_ + ut)
            pool.append(st_ - ut)
    b.output(pool[-1], "y")
    return b


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_random_circuits_prove_and_verify(seed):
    rng = random.Random(seed ^ 0x5A5A)
    circuit = compile_circuit(random_program(seed))
    witness = generate_witness(circuit, {name: rng.randrange(FR.modulus)
                                         for name in circuit.input_wires})
    pre = plonk_setup(BN128, circuit, rng, srs=_SRS)
    assert pre.n <= MAX_N
    assert pre.compiled.check(pre.compiled.assignment(witness)) is None

    proof = plonk_prove(pre, witness, rng)
    publics = public_inputs(circuit, witness)
    assert plonk_verify(pre, proof, publics)
    assert not plonk_verify(pre, proof, [(publics[0] + 1) % FR.modulus] + publics[1:])


def test_wide_fanout_circuit():
    """One variable feeding many gates stresses long permutation cycles."""
    b = CircuitBuilder("fanout", FR)
    x = b.private_input("x")
    b.output(sum((x * (x + i) for i in range(12)), b.constant(0)), "y")
    circuit = compile_circuit(b)
    rng = random.Random(99)
    pre = plonk_setup(BN128, circuit, rng)
    assert len(pre.compiled.additions) == 11
    proof = plonk_prove(pre, generate_witness(circuit, {"x": 7}), rng)
    y = sum(7 * (7 + i) for i in range(12))
    assert plonk_verify(pre, proof, [y])
    assert not plonk_verify(pre, proof, [y + 1])


def test_multiple_public_inputs():
    b = CircuitBuilder("sum", FR)
    b.output(b.public_input("p1") + b.public_input("p2"), "out")
    circuit = compile_circuit(b)
    rng = random.Random(100)
    pre = plonk_setup(BN128, circuit, rng)
    assert pre.n_public == 3
    witness = generate_witness(circuit, {"p1": 11, "p2": 31})
    assert public_inputs(circuit, witness) == [11, 31, 42]
    proof = plonk_prove(pre, witness, rng)
    assert plonk_verify(pre, proof, [11, 31, 42])
    assert not plonk_verify(pre, proof, [11, 31, 43])
    assert not plonk_verify(pre, proof, [31, 11, 42])  # order matters
