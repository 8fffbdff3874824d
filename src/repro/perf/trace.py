"""Lightweight execution tracer for the instrumented zk-SNARK stack.

The paper observes the circom/snarkjs stack with VTune, ``perf`` and
DynamoRIO.  This reproduction instead instruments its own ZKP implementation
directly: hot primitives (big-integer field operations, copies, allocations,
loop control) report themselves to the :class:`Tracer` in ``RUN.tracer``
(the run context, docs/ARCHITECTURE.md), and the kernels additionally
report the *addresses* their major data structures touch and the *parallel
structure* of their loops.

Design constraints honoured here:

- **Near-zero cost when disabled.**  Every instrumentation site guards on
  ``RUN.tracer is None`` so that untraced runs (correctness tests, plain
  proving) stay fast.
- **Bounded event volume.**  Per-primitive *counts* are aggregated in place;
  only memory accesses produce events, and streaming kernels emit *burst*
  descriptors (sequential runs) instead of one event per line.  Each event
  is appended to the tracer's memory-event target as it happens: a list by
  default (what the tests compare), the LLC model
  (:class:`repro.perf.cache.LLCModel`) in a profiled run, which folds each
  event into its caches and stores none.
- **Single source of truth for ordering.**  The tracer keeps an instruction
  clock (one tick per reported primitive).  Memory events are stamped with
  the clock so the bandwidth model can window traffic over "time".

Primitive names (e.g. ``"bigint_mul_4"``) are expanded into x86-like opcode
bags, loads/stores and cycle weights by :mod:`repro.perf.costmodel`; the
tracer itself is cost-model agnostic.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.context import scoped

__all__ = [
    "AddressSpace",
    "MemEvent",
    "RegionRecord",
    "Tracer",
    "tracing",
]

#: Size in bytes of one cache line in the simulated machines (all three CPUs
#: in Table I use 64-byte lines).
CACHE_LINE = 64


def tracing(tracer):
    """Install *tracer* as ``RUN.tracer`` for the duration.

    Nested tracing is rejected: the harness runs every protocol stage under
    its own fresh tracer, and silently stacking tracers would double-count
    work.
    """
    return scoped("tracer", tracer, busy=RuntimeError(
        "a tracer is already active; nested tracing is not supported"))


# Memory event layout (plain tuples for speed):
#   ("L",  addr, size, clock)                    single load
#   ("S",  addr, size, clock)                    single store
#   ("LB", base, nbytes, clock)                  sequential load burst
#   ("SB", base, nbytes, clock)                  sequential store burst
MemEvent = tuple


@dataclass
class RegionRecord:
    """Work performed while a given region was the innermost active region.

    ``counts`` holds primitive counts that occurred directly inside this
    region (not inside child regions), so summing all records partitions the
    run's work exactly once.  ``parallel`` is the *effective* flag: a region
    opened with ``parallel=None`` inherits its parent's flag.
    """

    name: str
    parallel: bool
    depth: int
    items: int = 1
    counts: Counter = field(default_factory=Counter)
    children: list = field(default_factory=list)
    #: Multipliers applied to this region's cost-model loads/stores at
    #: aggregation time.  Used where a kernel's register-residency differs
    #: from the generic expansion — e.g. the setup's table-streaming
    #: accumulation loop reads far more than it writes (Fig. 5's ~10x
    #: load/store ratio for the setup stage).
    load_scale: float = 1.0
    store_scale: float = 1.0


class AddressSpace:
    """Synthetic flat address space for the traced data structures.

    Kernels allocate their arrays here so that the cache simulator sees a
    realistic, stable layout: distinct structures land in distinct,
    cache-line-aligned ranges, and re-running a stage reproduces the same
    addresses.
    """

    def __init__(self, base=0x10000):
        self._next = base

    def alloc(self, nbytes, align=CACHE_LINE):
        """Reserve *nbytes* and return the base address of the block."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        mask = align - 1
        base = (self._next + mask) & ~mask
        self._next = base + nbytes
        return base


class Tracer:
    """Accumulates primitive counts, memory events and region structure.

    A tracer observes exactly one protocol-stage execution.  The analyses in
    :mod:`repro.perf` consume its three outputs:

    - :attr:`root` — the region tree with per-region primitive counts
      (code analysis, top-down analysis, scalability analysis),
    - :attr:`mem_events` — the target of the stamped address stream
      (memory analysis): *mem_events*, anything with an ``append``, or a
      new list,
    - :attr:`clock` — total primitives reported (normalization).
    """

    def __init__(self, label="", mem_events=None):
        self.label = label
        self.clock = 0
        self.mem_events = [] if mem_events is None else mem_events
        self.root = RegionRecord(name="<root>", parallel=False, depth=0)
        self._stack = [self.root]
        self._top_counts = self.root.counts
        self.aspace = AddressSpace()

    # -- primitive counting --------------------------------------------------

    def op(self, prim, n=1):
        """Report *n* occurrences of primitive *prim* in the innermost region."""
        self._top_counts[prim] += n
        self.clock += n

    # -- memory events -------------------------------------------------------

    def mem_load(self, addr, size=8):
        """Report one load of *size* bytes at *addr*."""
        self.mem_events.append(("L", addr, size, self.clock))

    def mem_store(self, addr, size=8):
        """Report one store of *size* bytes at *addr*."""
        self.mem_events.append(("S", addr, size, self.clock))

    def mem_block(self, base, nbytes, write=False):
        """Report a sequential sweep over ``[base, base+nbytes)``.

        Bursts keep the event count small for streaming kernels: the cache
        model expands a burst into one access per cache line.
        """
        if nbytes <= 0:
            return
        kind = "SB" if write else "LB"
        self.mem_events.append((kind, base, nbytes, self.clock))

    # -- composite software events -------------------------------------------

    def malloc(self, nbytes):
        """Report a heap allocation and return a synthetic base address.

        Mirrors the paper's Table IV observation that ``malloc`` / heap
        management is a first-class consumer of CPU time in the JS/WASM
        stack: allocator bookkeeping is charged as its own primitive, scaled
        by allocation size (free-list walk + metadata touch per 4 KiB page).
        """
        pages = 1 + nbytes // 4096
        self.op("malloc", 1)
        self.op("malloc_page", pages)
        addr = self.aspace.alloc(max(nbytes, 1))
        # Allocator metadata touches the start of the block.
        self.mem_events.append(("S", addr, 16, self.clock))
        return addr

    #: Segment size used to pace large streaming operations: one burst event
    #: per segment, with the clock advanced in between, so the bandwidth
    #: model sees traffic spread over time rather than one instant spike.
    STREAM_SEGMENT = 8 * 1024

    def memcpy(self, dst, src, nbytes):
        """Report a block copy of *nbytes* from *src* to *dst*.

        Large copies are paced segment by segment (see ``STREAM_SEGMENT``).
        """
        if nbytes <= 0:
            return
        self.op("memcpy", 1)
        seg = self.STREAM_SEGMENT
        off = 0
        while off < nbytes:
            chunk = min(seg, nbytes - off)
            # The per-16-byte move loop advances the clock for this segment.
            self.op("memcpy_chunk", 1 + chunk // 16)
            self.mem_events.append(("LB", src + off, chunk, self.clock))
            self.mem_events.append(("SB", dst + off, chunk, self.clock))
            off += chunk

    def stream(self, base, nbytes, write=False, ticks_per_kb=16, op_name="stream_chunk"):
        """Report a paced sequential stream over ``[base, base+nbytes)``.

        *ticks_per_kb* sets the stream's instruction density and therefore
        its modeled bandwidth: a fast mmap-style key read uses a low value
        (few instructions per KB -> high GB/s), a relocating module load a
        high one.  Used by the stages to reproduce the paper's Table III
        bandwidth ordering.
        """
        if nbytes <= 0:
            return
        seg = self.STREAM_SEGMENT
        off = 0
        while off < nbytes:
            chunk = min(seg, nbytes - off)
            self.op(op_name, max(1, (chunk * ticks_per_kb) // 1024))
            self.mem_events.append(
                ("SB" if write else "LB", base + off, chunk, self.clock)
            )
            off += chunk

    def page_fault(self, n=1):
        """Report *n* soft page faults (first touch of fresh allocations)."""
        self.op("page_fault", n)

    # -- region structure ------------------------------------------------------

    @contextmanager
    def region(self, name, parallel=None, items=1, load_scale=1.0, store_scale=1.0):
        """Enter a named region; ``parallel=True`` marks its direct work as
        parallelizable across *items* independent units.

        ``parallel=None`` inherits the enclosing region's flag, so helper
        calls inside a parallel loop stay attributed to parallel work.
        ``load_scale``/``store_scale`` bias the region's architectural
        load/store expansion (see :class:`RegionRecord`).
        """
        parent = self._stack[-1]
        eff = parent.parallel if parallel is None else parallel
        rec = RegionRecord(name=name, parallel=eff, depth=parent.depth + 1, items=items,
                           load_scale=load_scale, store_scale=store_scale)
        parent.children.append(rec)
        self._stack.append(rec)
        self._top_counts = rec.counts
        try:
            yield rec
        finally:
            popped = self._stack.pop()
            assert popped is rec, "region stack corrupted"
            self._top_counts = self._stack[-1].counts

    # -- aggregation -----------------------------------------------------------

    def total_counts(self):
        """Primitive counts summed over the whole region tree."""
        total = Counter()
        stack = [self.root]
        while stack:
            rec = stack.pop()
            total.update(rec.counts)
            stack.extend(rec.children)
        return total

    def counts_by_parallel(self):
        """Return ``(serial_counts, parallel_counts)`` partitioning all work."""
        serial, parallel = Counter(), Counter()
        stack = [self.root]
        while stack:
            rec = stack.pop()
            (parallel if rec.parallel else serial).update(rec.counts)
            stack.extend(rec.children)
        return serial, parallel

    def iter_regions(self):
        """Yield every region record in the tree, depth-first."""
        stack = [self.root]
        while stack:
            rec = stack.pop()
            yield rec
            stack.extend(reversed(rec.children))
