"""Shared helpers of the serving tests: a small, fast-retrying service
and one load run against it."""

import asyncio

from repro.resilience.retry import RetryPolicy
from repro.serve import CircuitBreaker, ProvingService, run_loadtest


def fast_service(**kwargs):
    kwargs.setdefault("size", 8)
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3, sleep=None))
    kwargs.setdefault("breaker", CircuitBreaker(cooldown_s=0.01))
    return ProvingService(**kwargs)


def run_load(service, **kwargs):
    async def main():
        await service.start()
        try:
            return await run_loadtest(service, **kwargs)
        finally:
            await service.drain()

    return asyncio.run(main())


#: ``run_load`` arguments for a burst of ten requests due within 10 ns:
#: the generator submits them all without yielding to the event loop, so
#: the service takes none off its queue before the burst is over, however
#: fast it computes.
BURST = {"rps": 1e9, "duration_s": 1e-8}
