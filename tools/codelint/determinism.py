"""RC2xx determinism: no ambient entropy or wall clock in measured paths.

The paper's runs are reproducible because every random draw flows from an
explicit seeded ``random.Random`` and every timestamp comes from the obs
layer.  These checks walk the stage/worker-reachable set:

========  ========  ====================================================
RC201     error     unseeded global-RNG use (``random.random()``,
                    ``random.Random()`` with no seed, SystemRandom, ...)
RC202     error     wall-clock / ambient-entropy read outside the
                    sanctioned ``wallclock_modules`` (the run ledger)
RC203     warning   measurement clock (``perf_counter`` etc.) outside
                    ``clock_modules`` — timing belongs to obs/perf
========  ========  ====================================================
"""

from __future__ import annotations

import ast

from tools.codelint.graph import dotted_name, match_any
from tools.codelint.model import ERROR, WARNING, Finding

__all__ = ["check_determinism"]

#: Global-RNG entry points: every one of these consumes or perturbs the
#: process-wide Mersenne state, so results depend on call order.
_GLOBAL_RNG = frozenset({
    "random.random", "random.randint", "random.randrange", "random.uniform",
    "random.choice", "random.choices", "random.shuffle", "random.sample",
    "random.getrandbits", "random.randbytes", "random.gauss",
    "random.betavariate", "random.expovariate", "random.seed",
})

_WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime", "time.strftime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow",
})

_MEASURE_CLOCKS = frozenset({
    "time.perf_counter", "time.perf_counter_ns", "time.monotonic",
    "time.monotonic_ns", "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
})


def external_target(index, fn, name):
    """Resolve dotted *name* through the alias chain without requiring the
    head to be an indexed module — ``rnd`` from ``import random as rnd``
    becomes ``random``; unknown heads return the name unchanged."""
    head, _, rest = name.partition(".")
    target = fn.aliases.get(head) or \
        index.module_aliases.get(fn.module, {}).get(head)
    if target is None:
        return name
    return f"{target}.{rest}" if rest else target


def check_determinism(index):
    """Yield ``(module_name, Finding)`` for the RC2xx family."""
    scope = index.stage_reachable() | index.worker_reachable()
    cfg = index.config
    for qual in sorted(scope):
        fn = index.functions.get(qual)
        if fn is None:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            target = external_target(index, fn, name)
            if target in _GLOBAL_RNG:
                yield fn.module, Finding(
                    code="RC201", severity=ERROR,
                    message=f"{fn.name!r} draws from the process-global "
                            f"RNG ({target}); results depend on call "
                            f"order across the whole run",
                    line=node.lineno, symbol=fn.qualname,
                    suggestion="thread a seeded random.Random through",
                )
            elif target == "random.Random" and not node.args \
                    and not node.keywords:
                yield fn.module, Finding(
                    code="RC201", severity=ERROR,
                    message=f"{fn.name!r} constructs random.Random() "
                            f"without a seed",
                    line=node.lineno, symbol=fn.qualname,
                    suggestion="derive the seed from the workflow seed",
                )
            elif target == "random.SystemRandom":
                yield fn.module, Finding(
                    code="RC201", severity=ERROR,
                    message=f"{fn.name!r} uses SystemRandom (OS entropy, "
                            f"unreproducible by construction)",
                    line=node.lineno, symbol=fn.qualname,
                    suggestion="use a seeded random.Random",
                )
            elif target in _WALLCLOCK and \
                    not match_any(fn.module, cfg.wallclock_modules):
                yield fn.module, Finding(
                    code="RC202", severity=ERROR,
                    message=f"{fn.name!r} reads the wall clock / ambient "
                            f"entropy ({target}) on a proof-reachable "
                            f"path; only {', '.join(cfg.wallclock_modules)} "
                            f"may timestamp",
                    line=node.lineno, symbol=fn.qualname,
                    suggestion="record timestamps through the run ledger",
                )
            elif target in _MEASURE_CLOCKS and \
                    not match_any(fn.module, cfg.clock_modules):
                yield fn.module, Finding(
                    code="RC203", severity=WARNING,
                    message=f"{fn.name!r} reads {target} outside the "
                            f"sanctioned clock modules; timing belongs "
                            f"to the spans/ledger layer",
                    line=node.lineno, symbol=fn.qualname,
                    suggestion="wrap the region in repro.obs.spans.span",
                )
