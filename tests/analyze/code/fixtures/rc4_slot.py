"""Run-context module for the RC4xx fixture (the defining side)."""


class _Run:
    __slots__ = ("metrics",)

    def __init__(self):
        self.metrics = None


RUN = _Run()


class Registry:
    def inc(self, name, value=1):
        return (name, value)
