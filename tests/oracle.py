"""The tracer is the oracle (docs/KERNELS.md, "The pinning rule").

Every fast kernel has a textbook twin that the same public call runs under
``trace.CURRENT``, so the reference value of a differential test is that
call made under a throwaway tracer — no second entry point, no environment.
"""

from repro.perf.trace import Tracer, tracing


def reference(fn, *args):
    """``fn(*args)`` as a traced run computes it."""
    with tracing(Tracer()):
        return fn(*args)
