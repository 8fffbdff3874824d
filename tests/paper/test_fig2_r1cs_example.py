"""Fig. 2 — the worked compile example: ``y = x^3`` into R1CS.

Regenerates the paper's illustrative figure: three multiplication gates
(``w0 = x*1``, ``w1 = x*w0``, ``y = x*w1``) and their R1CS rows, and
checks the third constraint matches the L/R/O vectors the paper prints
(``L=[1,0,0], R=[0,1,0], O=[0,0,1]`` over ``Q=[x, w1, y]``).
"""

from repro.circuit import CircuitBuilder, compile_circuit, gadgets
from repro.curves import BN128
from repro.groth16 import generate_witness


def test_fig2_r1cs_example():
    b = CircuitBuilder("fig2", BN128.fr)
    x = b.private_input("x")
    y = gadgets.exponentiate(b, x, 3)
    b.output(y, "y")
    circuit = compile_circuit(b)
    r1cs = circuit.r1cs

    print("\n[Fig2] y = x^3 compiled to R1CS:")
    for j, cons in enumerate(r1cs.constraints):
        print(f"  constraint {j}: A={dict(cons.a)} B={dict(cons.b)} "
              f"C={dict(cons.c)}")

    # Three constraints, exactly as the figure shows.
    assert r1cs.n_constraints == 3

    # Wires: 0=const, 1=x, 2=w0, 3=w1, 4=y.
    c0, c1, c2 = r1cs.constraints
    assert c0.a == {1: 1} and c0.b == {0: 1} and c0.c == {2: 1}   # w0 = x*1
    assert c1.a == {1: 1} and c1.b == {2: 1} and c1.c == {3: 1}   # w1 = x*w0
    # Third row: L picks x, R picks w1, O picks y — the paper's vectors.
    assert c2.a == {1: 1} and c2.b == {3: 1} and c2.c == {4: 1}

    # And the witness satisfies it: x=2 -> y=8.
    w = generate_witness(circuit, {"x": 2})
    assert r1cs.is_satisfied(w)
    assert w[4] == 8
