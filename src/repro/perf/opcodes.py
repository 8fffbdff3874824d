"""Instruction-level code analysis (the paper's Table V).

DynamoRIO classifies the dynamic opcode stream into compute (``add``,
``and``, ``mul`` ...), control-flow (``jz``, ``jnb``, ``call`` ...) and
data-flow (``mov``, ``push`` ...).  The cost model performs the same
three-way split per primitive; this module reduces a stage trace to the
paper's percentage triple and its classification ("compute-intensive",
"control-flow intensive", "data-flow intensive").

The same three-way split is applied to *real* execution by the deep
profiler (:mod:`repro.obs.prof`), which classifies the CPython bytecode
the interpreter actually ran.  :func:`classify_opname` is that shared
classifier: an explicit per-opname table plus prefix rules, with an
explicit ``"other"`` bucket for anything unrecognized — a CPython upgrade
that introduces new opcodes can therefore *surface* as a growing
``other`` share but can never silently misclassify (and ``strict=True``
turns an unrecognized name into a hard error; the test suite sweeps
``dis.opmap`` of the running interpreter).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.costmodel import aggregate

__all__ = ["OPCODE_CLASSES", "OpcodeMix", "classify_opname", "opcode_mix"]


@dataclass
class OpcodeMix:
    """Percentages of the three opcode classes for one stage."""

    compute_pct: float
    control_pct: float
    data_pct: float
    instructions: float

    @property
    def intensive(self):
        """Which class dominates — the stage's Table V label."""
        triples = {
            "compute": self.compute_pct,
            "control": self.control_pct,
            "data": self.data_pct,
        }
        return max(triples, key=triples.get)


def opcode_mix(tracer):
    """The stage's opcode-class percentages (summing to ~100)."""
    summary = aggregate(tracer.total_counts())
    comp, ctrl, data = summary.class_fractions()
    return OpcodeMix(
        compute_pct=100.0 * comp,
        control_pct=100.0 * ctrl,
        data_pct=100.0 * data,
        instructions=summary.instructions,
    )


# -- CPython opname classification (measured Table V) ------------------------------

#: The four buckets the measured classifier may return.  ``other`` is the
#: explicit catch-all: interpreter bookkeeping (NOP/RESUME/CACHE) plus any
#: opname this table has never seen.
OPCODE_CLASSES = ("compute", "control", "data", "other")

#: Exact opname -> class, for names the prefix rules would get wrong (or
#: not cover).  Covers CPython 3.10-3.13 spellings; missing names fall
#: through to the prefix rules and finally to ``other``.
_OPNAME_CLASS = {
    # arithmetic, logic, comparisons -> compute
    "BINARY_OP": "compute",
    "COMPARE_OP": "compute",
    "CONTAINS_OP": "compute",
    "IS_OP": "compute",
    "GET_LEN": "compute",
    # subscripts and slices move data between containers and the stack,
    # they are not ALU work (BINARY_* would otherwise claim them)
    "BINARY_SUBSCR": "data",
    "BINARY_SLICE": "data",
    "STORE_SLICE": "data",
    # value construction / stack shuffling -> data
    "PUSH_NULL": "data",
    "POP_TOP": "data",
    "COPY": "data",
    "SWAP": "data",
    "ROT_TWO": "data",
    "ROT_THREE": "data",
    "ROT_FOUR": "data",
    "ROT_N": "data",
    "DUP_TOP": "data",
    "DUP_TOP_TWO": "data",
    "LIST_APPEND": "data",
    "LIST_EXTEND": "data",
    "LIST_TO_TUPLE": "data",
    "SET_ADD": "data",
    "SET_UPDATE": "data",
    "MAP_ADD": "data",
    "DICT_MERGE": "data",
    "DICT_UPDATE": "data",
    "FORMAT_VALUE": "data",
    "FORMAT_SIMPLE": "data",
    "FORMAT_WITH_SPEC": "data",
    "CONVERT_VALUE": "data",
    "MAKE_CELL": "data",
    "MAKE_FUNCTION": "data",
    "SET_FUNCTION_ATTRIBUTE": "data",
    "COPY_FREE_VARS": "data",
    "KW_NAMES": "data",
    "CALL_INTRINSIC_1": "compute",
    "CALL_INTRINSIC_2": "compute",
    # calls, iteration, branching, exceptions -> control
    "FOR_ITER": "control",
    "GET_ITER": "control",
    "GET_YIELD_FROM_ITER": "control",
    "GET_AWAITABLE": "control",
    "GET_AITER": "control",
    "GET_ANEXT": "control",
    "YIELD_VALUE": "control",
    "YIELD_FROM": "control",
    "SEND": "control",
    "RERAISE": "control",
    "PUSH_EXC_INFO": "control",
    "CHECK_EXC_MATCH": "control",
    "CHECK_EG_MATCH": "control",
    "WITH_EXCEPT_START": "control",
    "BEFORE_WITH": "control",
    "BEFORE_ASYNC_WITH": "control",
    "CLEANUP_THROW": "control",
    "ASYNC_GEN_WRAP": "control",
    "PREP_RERAISE_STAR": "control",
    "EXIT_INIT_CHECK": "control",
    "INTERPRETER_EXIT": "control",
    # interpreter bookkeeping -> other
    "NOP": "other",
    "RESUME": "other",
    "CACHE": "other",
    "EXTENDED_ARG": "other",
    "PRECALL": "control",
    "RETURN_GENERATOR": "control",
    "GEN_START": "control",
    "SETUP_ANNOTATIONS": "other",
    "IMPORT_NAME": "other",
    "IMPORT_FROM": "other",
    "IMPORT_STAR": "other",
    "PRINT_EXPR": "other",
    "LOAD_BUILD_CLASS": "other",
    "RESERVED": "other",
}

#: Prefix -> class fallback rules, tried in order after the exact table.
_OPNAME_PREFIX_CLASS = (
    ("UNARY_", "compute"),
    ("INPLACE_", "compute"),       # 3.10 in-place arithmetic
    ("BINARY_", "compute"),        # 3.10 BINARY_ADD etc.; 3.11+ BINARY_OP
    ("MATCH_", "compute"),         # structural pattern checks
    ("TO_BOOL", "compute"),
    ("LOAD_", "data"),
    ("STORE_", "data"),
    ("DELETE_", "data"),
    ("BUILD_", "data"),
    ("UNPACK_", "data"),
    ("JUMP", "control"),
    ("POP_JUMP", "control"),
    ("CALL", "control"),
    ("RETURN", "control"),
    ("RAISE", "control"),
    ("SETUP_", "control"),
    ("END_", "control"),
    ("POP_BLOCK", "control"),
    ("POP_EXCEPT", "control"),
    ("ENTER_EXECUTOR", "other"),
    ("INSTRUMENTED_", "other"),
)


def classify_opname(opname, strict=False):
    """Classify one CPython *opname* into a Table-V class.

    Returns one of :data:`OPCODE_CLASSES`.  Unrecognized names land in the
    explicit ``"other"`` bucket — visible in the measured mix rather than
    silently absorbed into a wrong class — unless *strict* is true, in
    which case they raise ``ValueError`` (the dis.opmap sweep test runs
    the running interpreter's full opcode set through strict mode).
    """
    cls = _OPNAME_CLASS.get(opname)
    if cls is not None:
        return cls
    for prefix, cls in _OPNAME_PREFIX_CLASS:
        if opname.startswith(prefix):
            return cls
    if strict:
        raise ValueError(f"unclassified CPython opname {opname!r}")
    return "other"
