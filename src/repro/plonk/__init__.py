"""PLONK — the paper's "other" snarkjs proving scheme.

Section IV-A notes that snarkjs implements both Groth16 and PLONK and that
"the proving time of PlonK is twice as slow compared to Groth16", which is
why the paper profiles Groth16.  This package implements a complete
KZG-based PLONK (Gabizon-Williamson-Ciobotaru 2019) over the same curve
and kernel substrate, so that comparison is reproducible here
(``tests/paper/test_plonk_vs_groth16.py``).

Both schemes prove the same statement: :func:`plonk_setup` lowers the
compiled R1CS that Groth16's ``setup`` takes into a gate table
(:func:`~repro.plonk.circuit.compile_plonk`, the role of snarkjs's
``plonk setup`` reading circom's ``.r1cs``), and :func:`plonk_prove` /
:func:`plonk_verify` take the ``generate_witness`` vector and the
``public_inputs`` that Groth16's prover and verifier take.

Protocol note (a documented deviation from the paper-spec for clarity, not
soundness): selector polynomials are opened directly at the evaluation
point instead of being folded into a linearization polynomial (larger
proofs, simpler verifier, same checks).
"""

from repro.plonk.kzg import KZG, SRS
from repro.plonk.prover import PlonkProof, plonk_prove
from repro.plonk.setup import PlonkPreprocessed, plonk_setup
from repro.plonk.verifier import plonk_verify

__all__ = [
    "KZG",
    "PlonkPreprocessed",
    "PlonkProof",
    "SRS",
    "plonk_prove",
    "plonk_setup",
    "plonk_verify",
]
