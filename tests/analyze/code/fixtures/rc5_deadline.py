"""Seeded RC5xx violation: a hot loop that never polls the deadline.

Analyzed with ``hot_modules=("rc5_deadline",)``.
"""


class _Run:
    __slots__ = ("deadline",)

    def __init__(self):
        self.deadline = None


RUN = _Run()


def hot_loop(values):  # -> RC501
    total = 0
    for v in values:
        total += v
    return total


def polled_loop(values):  # clean: polls the field inside the loop
    total = 0
    for v in values:
        if RUN.deadline is not None:
            RUN.deadline.check()
        total += v
    return total


# codelint: ignore[RC501] -- pure integer transform; callers poll per pass
def suppressed_loop(values):  # clean: suppression marker on the def line
    total = 0
    for v in values:
        total += v
    return total


def delegating_loop(values):  # clean: reaches the poll through a callee
    out = []
    for v in values:
        out.append(polled_loop([v]))
    return out
