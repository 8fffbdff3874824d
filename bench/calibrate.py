"""Machine-speed calibration for the timings.

The 2-vCPU sandbox this benchmark runs in changes speed by 15-35 % for
minutes at a time, with nothing else running.  Measured on unchanged code,
raw seconds: of ten consecutive runs of ``prove-bn128-2048`` three fell into
a slow phase and read 22-36 % high, wall and CPU alike, so the ten medians
spread 23 % (inter-quartile distance over median) and the set-up 26 % — more
than the widest bound the benchmark contract allows, so that two sets of runs
of one commit could not agree, let alone a regression of 10 % show.

The drift hits all CPU-bound Python alike, so it can be divided out.  A
fixed loop — 60 000 modular multiplications of 254-bit integers, the kind
of work the program spends its time in, written here so that no change to
the program can alter it — is timed at a *stop* before and after every timed
call (never during one, and never while a request is in flight), and the
call's time is scaled by :data:`REFERENCE_S` over the median of the loops of
the two stops.

A reported time is therefore *seconds at reference speed*: what the
operation takes on a machine on which the loop takes :data:`REFERENCE_S`,
which is this box at its usual quiet speed.  The raw samples and every loop
time are kept beside the scaled ones in a run's detail record, and
``bench.machine_speed`` gives the run's median speed against the reference.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REFERENCE_S", "quiet_speed", "speed", "stop"]

#: Seconds one calibration loop takes at reference speed.
REFERENCE_S = 0.027

_MODULUS = 21888242871839275222246405745257275088548364400416034343698204186575808495617
_FACTOR = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF % _MODULUS


def stop():
    """One calibration stop: the seconds of two loops, back to back."""
    secs = []
    for _ in range(2):
        x = _FACTOR
        t0 = time.perf_counter()
        for _ in range(60000):
            x = x * _FACTOR % _MODULUS
        secs.append(time.perf_counter() - t0)
    return secs


def speed(loops):
    """Machine speed against the reference, by the median of *loops*."""
    return REFERENCE_S / statistics.median(loops)


def quiet_speed(loops):
    """Machine speed by the lower quartile of a whole run's *loops*, for a
    process that sleeps between its stops (the serving workload).  A vCPU of
    the sandbox runs 20-40 % slow for half a second after a sleep, the loop
    of a stop is timed just then and the requests of a busy service are not:
    a third of such a run's loops read 33-43 ms beside 26-29 ms, and which
    kind a stop catches is chance.  The lower quartile leaves them out."""
    return REFERENCE_S / statistics.quantiles(loops, n=4)[0]
