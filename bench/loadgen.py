"""The benchmark's own open-loop generator for ``ProvingService``.

Request *i* is due at ``start + i / rps`` whatever the service is doing —
callers are independent.  Latency is timed **from the due instant**, so a
stall of the generator or of the event loop is charged to the requests it
delayed, and how late the generator itself submitted is reported beside the
latencies.  One asyncio task, no extra threads.

``repro.serve.run_loadtest`` is not used: it times from submit and does not
report lateness.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass

__all__ = ["Sample", "kinds_for", "open_loop"]


@dataclass
class Sample:
    """One request's life as the caller saw it (perf_counter seconds)."""

    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    #: The service's ``JobResult``; ``None`` when admission refused it.
    result: object = None
    #: Taxonomy code of an admission-time refusal (``admission``, ...).
    refused: str | None = None

    @property
    def ok(self):
        return self.result is not None and self.result.status == "ok"

    @property
    def latency(self):
        return self.done - self.due

    @property
    def late(self):
        return self.sent - self.due


#: One block of the request mix.  Two verifies to a prove, not one: at size
#: 64 a prove takes about half as long as a verify, and the median of an even
#: mix of the two would sit in the gap between them, where it is decided by
#: which side one request falls on.
BLOCK = ("prove", "verify", "verify")


def kinds_for(seed, phase, count):
    """The seeded request-kind sequence of one phase: *count* requests in
    blocks of :data:`BLOCK`, each block shuffled by *seed* — so two seeds
    offer the same work and differ only in its order, never in how the
    kinds bunch."""
    rng = random.Random(f"bench:{seed}:{phase}")
    kinds = []
    while len(kinds) < count:
        block = list(BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    return kinds[:count]


async def open_loop(service, kinds, rps, depths=None):
    """Send one request per entry of *kinds* at *rps* on a fixed schedule and
    return the samples once every admitted request has resolved.  Verify
    requests carry no payload: the service verifies its own sample proof.
    *depths*, when a list, collects the queue depth seen after each send."""
    from repro.resilience.errors import ReproError, classify

    samples, pending = [], []
    start = time.perf_counter()
    for i, kind in enumerate(kinds):
        due = start + i / rps
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sample = Sample(kind=kind, due=due, sent=time.perf_counter())
        samples.append(sample)
        try:
            fut = service.submit_nowait(kind)
        except ReproError as exc:
            sample.refused = classify(exc)
            sample.done = time.perf_counter()
        else:
            fut.add_done_callback(_finisher(sample))
            pending.append(fut)
        if depths is not None:
            depths.append(service.queue_depth)
    if pending:
        # The stamping callbacks were added before gather's own, so every
        # sample is stamped by the time this returns.  A future that was
        # cancelled or raised leaves its sample without a result, which the
        # caller counts as a failed request.
        await asyncio.gather(*pending, return_exceptions=True)
    return samples


def _finisher(sample):
    def finish(fut):
        sample.done = time.perf_counter()
        if not fut.cancelled() and fut.exception() is None:
            sample.result = fut.result()

    return finish
