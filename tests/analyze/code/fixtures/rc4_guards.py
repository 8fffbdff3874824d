"""Seeded RC4xx violations: unguarded field use and a bad metric name."""

from rc4_slot import RUN


def unguarded_use():
    RUN.metrics.inc("repro_fixture_total")  # -> RC401


def bad_metric_name():
    reg = RUN.metrics
    if reg is not None:
        reg.inc("FixtureBadName")  # -> RC402
    return reg


def guarded_use():
    if RUN.metrics is not None:
        RUN.metrics.inc("repro_fixture_ok_total")  # clean


def guarded_binding():
    reg = RUN.metrics
    if reg is None:
        return None
    reg.inc("repro_fixture_bound_total")  # clean
    return reg
