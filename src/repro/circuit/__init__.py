"""Arithmetic circuits and the *compile* stage.

This package plays circom's role in the paper's workflow (Fig. 1): circuits
are authored against :class:`~repro.circuit.dsl.CircuitBuilder` (signals are
linear combinations; multiplication gates create wires and constraints), and
:func:`~repro.circuit.compiler.compile_circuit` lowers the gate list into a
:class:`~repro.circuit.r1cs.R1CS` plus a witness-generation program.

:mod:`repro.circuit.gadgets` carries the reusable sub-circuits, including
the paper's ``exponentiate`` benchmark circuit (``y = x^e`` with ``e``
multiplication constraints, Fig. 2).
"""

from repro.circuit.dsl import CircuitBuilder, Signal
from repro.circuit.r1cs import R1CS
from repro.circuit.compiler import CompiledCircuit, compile_circuit
from repro.circuit import gadgets, poseidon

__all__ = [
    "CircuitBuilder",
    "CompiledCircuit",
    "R1CS",
    "Signal",
    "compile_circuit",
    "gadgets",
    "poseidon",
]
