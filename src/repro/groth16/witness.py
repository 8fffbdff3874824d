"""The *witness* stage: evaluate the circuit on concrete inputs.

snarkjs generates witnesses by instantiating the WASM calculator circom
emitted and interpreting it.  Our equivalent interprets the compiled
circuit's straight-line witness program.  The instrumentation reproduces
the stage's fingerprint from the paper:

- a large **fixed** initialization cost (module load + instantiation),
  which is why Fig. 5 shows near-constant loads/stores across constraint
  sizes and why the verifying/witness execution times barely move;
- **control-flow-intensive** execution (Table V): interpreter dispatch is
  one indirect branch per step;
- the **highest LLC MPKI** of all stages (Table II, up to 1.03): the
  dispatch loop hops between the module image, the interpreter tables and
  the signal arena with poor locality.
"""

from __future__ import annotations

from repro.context import RUN

__all__ = ["generate_witness", "public_inputs", "WitnessError"]

#: Modeled size of the instantiated calculator module (code + tables).  The
#: snarkjs witness calculator WASM for mid-size circuits is a few MiB; the
#: value only needs to dwarf the per-gate footprint, as it does in reality.
_MODULE_BYTES = 1 << 20

#: Interpreter work per module kilobyte during instantiation.  Split into a
#: serial part (load, relocation, dispatch-table build) and a parallel part
#: (validation/baseline compilation — V8 runs these on background threads),
#: which is what gives the witness stage its partial strong scaling
#: (Table VI) despite the near-constant execution time (Fig. 5/6).
_INIT_SERIAL_OPS_PER_KB = 800
_INIT_PARALLEL_OPS_PER_KB = 1200


class WitnessError(ValueError):
    """Raised when inputs are missing/unknown or a hint fails."""


def _eval_frozen(fr, frozen, signals):
    """Evaluate a frozen linear combination against the signal arena.

    Uses the field's lazy-reduction accumulator: one deferred reduction
    per combination instead of one per term.
    """
    terms, const = frozen
    return fr.lincomb(((coeff, signals[wire]) for wire, coeff in terms), const)


def generate_witness(circuit, inputs):
    """Compute the full witness vector for *circuit* from named *inputs*.

    Parameters
    ----------
    circuit:
        A :class:`~repro.circuit.compiler.CompiledCircuit`.
    inputs:
        ``{name: int}`` covering **every** declared input (public and
        private).  Values are reduced into the scalar field.

    Returns
    -------
    list[int]
        The witness vector ``z`` with ``z[0] == 1``, indexed by wire.

    Raises
    ------
    WitnessError
        On missing or unknown input names.
    """
    fr = circuit.r1cs.fr
    t = RUN.tracer

    missing = sorted(set(circuit.input_wires) - set(inputs))
    if missing:
        raise WitnessError(f"missing inputs: {missing}")
    unknown = sorted(set(inputs) - set(circuit.input_wires))
    if unknown:
        raise WitnessError(f"unknown inputs: {unknown}")

    signals = [0] * circuit.r1cs.n_wires
    signals[0] = 1

    arena_base = 0
    sample = 1
    if t is not None:
        # -- module instantiation: the stage's big fixed cost ----------------
        module = t.malloc(_MODULE_BYTES)
        with t.region("witness_wasm_load", parallel=False):
            # Read + relocate the module image (slow, instruction-dense).
            t.stream(module, _MODULE_BYTES, ticks_per_kb=96, op_name="wasm_validate")
            t.op("wasm_validate", (_MODULE_BYTES // 1024) * _INIT_SERIAL_OPS_PER_KB)
            t.page_fault(1 + _MODULE_BYTES // 4096)
        with t.region("witness_wasm_compile", parallel=True,
                      items=_MODULE_BYTES // 4096):
            # Validation + baseline compile on V8's background threads.
            t.op("wasm_validate", (_MODULE_BYTES // 1024) * _INIT_PARALLEL_OPS_PER_KB)
        arena_base = t.malloc(len(signals) * 32)
        sample = t.mem_sample

    def _set_inputs():
        for name, wire in circuit.input_wires.items():
            signals[wire] = inputs[name] % fr.modulus

    def _run_program():
        for step_idx, step in enumerate(circuit.program):
            if t is not None:
                # One indirect-dispatch step per instruction, plus a hop
                # into the module image (poor locality by construction).
                t.op("wasm_dispatch")
                if step_idx % sample == 0:
                    t.mem_load(
                        arena_base + (step_idx * 2654435761 % (len(signals) or 1)) * 32,
                        32,
                        weight=sample,
                    )
            kind = step[0]
            if kind == "mul":
                _, fa, fb, out = step
                signals[out] = fr.mul(
                    _eval_frozen(fr, fa, signals), _eval_frozen(fr, fb, signals)
                )
            elif kind == "hint":
                _, fn, frozen_ins, outs = step
                values = [_eval_frozen(fr, fz, signals) for fz in frozen_ins]
                results = fn(fr, values)
                if len(results) != len(outs):
                    raise WitnessError(
                        f"hint at step {step_idx} returned {len(results)} values, "
                        f"expected {len(outs)}"
                    )
                for wire, val in zip(outs, results):
                    signals[wire] = val % fr.modulus
            else:  # pragma: no cover - program steps are built by the DSL
                raise WitnessError(f"unknown witness program step {kind!r}")

    if t is None:
        _set_inputs()
        # Level-scheduled parallel evaluation when a worker pool is
        # installed and the program is big enough; hints always run here
        # in the parent, so the results are exactly the serial ones.
        from repro.parallel.pool import active_pool

        pool = active_pool()
        if pool is not None and pool.enabled_for(len(circuit.program), "witness"):
            from repro.parallel.kernels import run_witness_program

            run_witness_program(circuit, fr, signals, pool)
        else:
            _run_program()
        return signals

    with t.region("witness_parse_inputs", parallel=False):
        for _ in circuit.input_wires:
            t.op("json_parse_field", 8)
        _set_inputs()

    with t.region("witness_eval", parallel=True, items=max(len(circuit.program), 1)):
        _run_program()

    with t.region("witness_write", parallel=False):
        # JSON/wtns emission is parse-and-format bound, not a raw copy.
        t.stream(arena_base, len(signals) * 32, write=True, ticks_per_kb=200,
                 op_name="json_parse_field")
        t.op("hash_block", 1 + len(signals) // 2)

    return signals


def public_inputs(circuit, witness):
    """Extract the verifier-visible values (constant wire excluded).

    Returns the values of ``r1cs.public_wires[1:]`` in order — the
    ``witnessPublic`` of the paper's Fig. 1.
    """
    return [witness[w] for w in circuit.r1cs.public_wires[1:]]
