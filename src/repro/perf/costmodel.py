"""Expansion of traced primitives into x86-like instruction characteristics.

DynamoRIO gives the paper a per-opcode stream; VTune gives it per-function
cycles.  Our tracer instead records *primitives* — "one 4-limb big-integer
multiply", "one interpreter dispatch", "one 16-byte memcpy chunk" — and this
module expands each primitive into:

- an opcode bag split into the paper's three classes (**compute**,
  **control-flow**, **data-flow**, Table V's categories),
- architectural **loads/stores** (Fig. 5's counters),
- a **cycle weight** (VTune-style CPU-time attribution, Table IV),
- an expected **branch misprediction** count (top-down bad speculation),
- a static **code footprint** contribution (top-down front-end pressure),
- the **function family** VTune-style hotspot reporting buckets it under.

The numbers are per-primitive estimates of what a tuned x86-64
implementation executes (e.g. a 4x4-limb schoolbook multiply with carries
is ~45 arithmetic instructions, ~16 limb loads, 8 stores); they need to be
*plausible and internally consistent*, not exact — every analysis in the
paper is about ratios between stages, which are dominated by the traced
primitive mix, not by these constants.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OpCost", "COSTS", "cost_of", "aggregate", "aggregate_tracer", "StreamSummary"]


@dataclass(frozen=True)
class OpCost:
    """Per-primitive expansion factors (all may be fractional averages)."""

    compute: float = 0.0      # arithmetic/logic instructions (add, mul, and, ...)
    control: float = 0.0      # branches, calls, returns (jz, jnb, call, ...)
    data: float = 0.0         # moves between registers/memory (mov, push, ...)
    loads: float = 0.0        # architectural loads (subset of data)
    stores: float = 0.0       # architectural stores (subset of data)
    cycles: float = 1.0       # CPU-time weight
    mispred: float = 0.0      # expected branch mispredictions per primitive
    code_bytes: int = 64      # static footprint of the primitive's code
    function: str = "other"   # Table IV attribution bucket

    @property
    def instructions(self):
        return self.compute + self.control + self.data


def _bigint(limbs, kind):
    """Cost of a *kind* in {add, sub, mul, sqr, inv} on *limbs* 64-bit limbs.

    These model the snarkjs/wasmcurves environment, not a bare-metal
    assembly kernel: every operation carries WASM call/bounds-check/boxing
    overhead (extra control and data instructions, a small misprediction
    rate from the normalization branches) on top of the mulx/adcx-style
    limb arithmetic, and the JITted code bodies are fat (``code_bytes``).
    """
    l = limbs
    if kind in ("add", "sub"):
        return OpCost(
            compute=l + 4, control=5, data=2 * l + 4,
            loads=l + 1, stores=l, cycles=l + 7, mispred=0.02,
            code_bytes=420, function="bigint",
        )
    if kind in ("mul", "sqr"):
        scale = 0.8 if kind == "sqr" else 1.0
        return OpCost(
            compute=scale * (2.2 * l * l + 4 * l),   # mulx/adcx chains + reduction
            control=scale * (1.2 * l * l),           # loop + normalization branches
            data=scale * (1.7 * l * l),              # limb spills + boxing
            loads=scale * (2 * l + 4),
            stores=scale * (l + 2),
            cycles=scale * (1.6 * l * l + 8 * l),
            mispred=0.08,
            code_bytes=2000 if l <= 4 else 3000,
            function="bigint",
        )
    if kind == "inv":
        # Binary extended Euclid: data-dependent branching, ~60 iterations
        # per limb word.
        return OpCost(
            compute=90 * l, control=55 * l, data=70 * l,
            loads=30 * l, stores=18 * l, cycles=220 * l, mispred=6.0,
            code_bytes=2200, function="bigint",
        )
    raise ValueError(f"unknown bigint kind {kind!r}")


COSTS = {
    # -- big-integer field arithmetic (4 limbs = BN254 / both Fr; 6 = BLS Fq)
    "bigint_add_4": _bigint(4, "add"),
    "bigint_sub_4": _bigint(4, "sub"),
    "bigint_mul_4": _bigint(4, "mul"),
    "bigint_sqr_4": _bigint(4, "sqr"),
    "bigint_inv_4": _bigint(4, "inv"),
    "bigint_add_6": _bigint(6, "add"),
    "bigint_sub_6": _bigint(6, "sub"),
    "bigint_mul_6": _bigint(6, "mul"),
    "bigint_sqr_6": _bigint(6, "sqr"),
    "bigint_inv_6": _bigint(6, "inv"),
    # -- elliptic-curve glue around the field calls (coordinate shuffling,
    #    infinity checks, formula dispatch)
    "ec_dbl_g1_bn": OpCost(compute=5, control=10, data=22, loads=9, stores=9,
                           cycles=22, mispred=0.02, code_bytes=3000, function="ec"),
    "ec_add_g1_bn": OpCost(compute=6, control=13, data=26, loads=11, stores=10,
                           cycles=26, mispred=0.03, code_bytes=3800, function="ec"),
    "ec_dbl_g2_bn": OpCost(compute=8, control=12, data=34, loads=14, stores=13,
                           cycles=34, mispred=0.02, code_bytes=4600, function="ec"),
    "ec_add_g2_bn": OpCost(compute=9, control=15, data=40, loads=17, stores=15,
                           cycles=40, mispred=0.03, code_bytes=5400, function="ec"),
    # -- kernels
    "ntt_butterfly": OpCost(compute=3, control=4, data=9, loads=4, stores=2,
                            cycles=7, mispred=0.008, code_bytes=500, function="fft"),
    "ntt_setup": OpCost(compute=20, control=10, data=30, loads=10, stores=10,
                        cycles=60, code_bytes=900, function="fft"),
    "msm_digit": OpCost(compute=4, control=6, data=5, loads=3, stores=1,
                        cycles=8, mispred=0.06, code_bytes=700, function="msm"),
    "fixed_base_digit": OpCost(compute=3, control=5, data=4, loads=2, stores=1,
                               cycles=6, mispred=0.04, code_bytes=600, function="msm"),
    # The pairing runs inside the JIT-compiled JS big-number library: its
    # inlined tower arithmetic is a large, flat code region, not a tight loop.
    "pairing_miller_loop": OpCost(compute=40, control=30, data=60, loads=25, stores=15,
                                  cycles=150, mispred=0.5, code_bytes=200000,
                                  function="pairing"),
    "pairing_final_exp": OpCost(compute=30, control=20, data=40, loads=18, stores=10,
                                cycles=100, mispred=0.3, code_bytes=150000,
                                function="pairing"),
    # -- memory management (Table IV's generic hot functions)
    "malloc": OpCost(compute=9, control=18, data=28, loads=14, stores=9,
                     cycles=55, mispred=0.25, code_bytes=2600, function="malloc"),
    "malloc_page": OpCost(compute=4, control=7, data=13, loads=6, stores=6,
                          cycles=24, mispred=0.06, code_bytes=1200,
                          function="heap allocation"),
    "page_fault": OpCost(compute=110, control=160, data=260, loads=90, stores=70,
                         cycles=1600, mispred=2.2, code_bytes=12000,
                         function="page fault exception handler"),
    "memcpy": OpCost(compute=2, control=5, data=10, loads=2, stores=1,
                     cycles=14, mispred=0.03, code_bytes=1800, function="memcpy"),
    "memcpy_chunk": OpCost(compute=0.25, control=0.3, data=4.0, loads=1.0, stores=1.0,
                           cycles=1.6, mispred=0.0005, code_bytes=0, function="memcpy"),
    # -- interpreter / runtime (the snarkjs JS+WASM environment).  The
    # dispatch loop itself is short, but it jumps across the full handler
    # set, so its effective footprint is the whole interpreter.
    "wasm_dispatch": OpCost(compute=4, control=9, data=6, loads=5, stores=1.5,
                            cycles=12, mispred=0.14, code_bytes=180000,
                            function="interpreter"),
    "wasm_validate": OpCost(compute=4.0, control=3.0, data=3.0, loads=2.0, stores=0.6,
                            cycles=5, mispred=0.05, code_bytes=220000,
                            function="interpreter"),
    "stream_chunk": OpCost(compute=1.0, control=0.6, data=1.8, loads=0.9, stores=0.3,
                           cycles=1.6, mispred=0.0005, code_bytes=600,
                           function="memcpy"),
    "json_parse_field": OpCost(compute=4, control=11, data=9, loads=6, stores=2,
                               cycles=18, mispred=0.3, code_bytes=3000, function="parser"),
    "graph_walk": OpCost(compute=5.5, control=5.5, data=7, loads=5, stores=1.5,
                         cycles=9.5, mispred=0.10, code_bytes=4000, function="compiler"),
    "hash_block": OpCost(compute=64, control=7, data=22, loads=9, stores=3,
                         cycles=55, mispred=0.01, code_bytes=20000, function="hash"),
}

# BLS G2 twist arithmetic reuses the BN glue costs (same formula shapes).
COSTS["ec_dbl_g1_bls"] = COSTS["ec_dbl_g1_bn"]
COSTS["ec_add_g1_bls"] = COSTS["ec_add_g1_bn"]
COSTS["ec_dbl_g2_bls"] = COSTS["ec_dbl_g2_bn"]
COSTS["ec_add_g2_bls"] = COSTS["ec_add_g2_bn"]

#: Fallback for unknown primitives: a generic short helper function.
DEFAULT_COST = OpCost(compute=2, control=2, data=3, loads=1, stores=1,
                      cycles=5, mispred=0.01, code_bytes=200, function="other")


def cost_of(prim):
    """The :class:`OpCost` for *prim* (default cost for unknown names)."""
    return COSTS.get(prim, DEFAULT_COST)


@dataclass
class StreamSummary:
    """Expanded totals for a primitive-count multiset."""

    compute: float = 0.0
    control: float = 0.0
    data: float = 0.0
    loads: float = 0.0
    stores: float = 0.0
    cycles: float = 0.0
    mispredictions: float = 0.0
    code_bytes: int = 0
    by_function_cycles: dict = None

    @property
    def instructions(self):
        return self.compute + self.control + self.data

    def class_fractions(self):
        """``(compute, control, data)`` shares of the instruction stream."""
        total = self.instructions
        if total == 0:
            return (0.0, 0.0, 0.0)
        return (self.compute / total, self.control / total, self.data / total)


#: A primitive contributes its full static code size to the hot footprint
#: once it supplies at least this share of the dynamic instruction stream;
#: colder code contributes proportionally (it is fetched too rarely to
#: pressure the front-end).
_HOT_SHARE = 0.0008


def aggregate(counts):
    """Expand a ``Counter`` of primitive counts into a :class:`StreamSummary`.

    ``code_bytes`` is the *effective hot footprint*: each primitive's static
    code size weighted by how often it actually runs (see ``_HOT_SHARE``) —
    the quantity the top-down model compares against front-end capacity.
    """
    s = StreamSummary(by_function_cycles={})
    per_prim_instr = {}
    for prim, n in counts.items():
        c = cost_of(prim)
        s.compute += n * c.compute
        s.control += n * c.control
        s.data += n * c.data
        s.loads += n * c.loads
        s.stores += n * c.stores
        s.cycles += n * c.cycles
        s.mispredictions += n * c.mispred
        s.by_function_cycles[c.function] = (
            s.by_function_cycles.get(c.function, 0.0) + n * c.cycles
        )
        per_prim_instr[prim] = per_prim_instr.get(prim, 0.0) + n * c.instructions
    total_instr = s.instructions
    footprint = 0.0
    if total_instr > 0:
        for prim, instr in per_prim_instr.items():
            share = instr / total_instr
            footprint += cost_of(prim).code_bytes * min(1.0, share / _HOT_SHARE)
    s.code_bytes = int(footprint)
    return s


def aggregate_tracer(tracer):
    """Expand a full trace region-by-region, honouring each region's
    load/store bias, into one :class:`StreamSummary`."""
    total = aggregate(tracer.total_counts())
    # Recompute loads/stores with the per-region scales.
    loads = stores = 0.0
    for rec in tracer.iter_regions():
        if not rec.counts:
            continue
        for prim, n in rec.counts.items():
            c = cost_of(prim)
            loads += n * c.loads * rec.load_scale
            stores += n * c.stores * rec.store_scale
    total.loads = loads
    total.stores = stores
    return total
