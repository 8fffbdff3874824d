"""Performance-characterization substrate.

This package is the reproduction of the paper's *contribution*: the
four-pronged performance analysis of the zk-SNARK protocol (top-down
microarchitecture, memory, code, and scalability analysis).

Because this reproduction runs in pure Python without access to Intel VTune,
``perf`` or DynamoRIO, the observation layer is simulated: the ZKP stack in
:mod:`repro` is instrumented with a lightweight tracer
(:mod:`repro.perf.trace`) that records primitive operations, memory accesses
and parallel-region structure.  The analyses then expand those primitives
through an x86-like cost model (:mod:`repro.perf.costmodel`) and machine
descriptions of the paper's three CPUs (:mod:`repro.perf.cpu`) to produce the
same artifacts the paper reports:

- :mod:`repro.perf.topdown` — Fig. 4 pipeline-slot classification,
- :mod:`repro.perf.cache` / :mod:`repro.perf.bandwidth` — Fig. 5,
  Table II and Table III memory analysis,
- :mod:`repro.perf.functions` / :mod:`repro.perf.opcodes` — Table IV and
  Table V code analysis,
- :mod:`repro.perf.scaling` — Fig. 6, Fig. 7 and Table VI scalability
  analysis.

The façade :mod:`repro.perf.analysis` runs all four analyses over a traced
stage in one call.
"""

from repro.perf.trace import Tracer, tracing

__all__ = ["Tracer", "tracing"]

# Analysis entry points are imported lazily by consumers
# (repro.perf.analysis) to keep this package — which
# the field layer imports on its hot path — free of heavy imports.
