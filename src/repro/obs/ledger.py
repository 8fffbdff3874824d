"""Append-only JSONL run ledger under ``results/runs/``.

Every telemetered run — a ``Workflow.run_all``, a harness ``profile_run``,
a ``python -m repro profile`` — appends one self-describing JSON record:
machine fingerprint (Table I style), git revision, the (curve, size,
workload) cell, the per-stage span tree, and a metrics snapshot, so
records from different machines or commits stay comparable.

Recording is **opt-in**: the module-level ``CURRENT`` slot is ``None``
unless a ledger is installed (:func:`install`, :func:`recording_to`, or
the ``REPRO_LEDGER=<path>`` environment variable at import time), so the
test suite's thousands of workflow runs write nothing.

Record schema (version 5) — see ``docs/OBSERVABILITY.md`` for a worked
example::

    {
      "schema": 5,
      "kind": "profile" | "workflow" | "profile_run" | "deep-profile"
              | "loadtest" | "serve" | "capacity",
      "ts": <unix seconds>,
      "label": <free-form or null>,
      "machine": {...machine_fingerprint()...},
      "machine_id": "<12-hex digest of machine>",
      "git": {"rev": "<sha>", "dirty": false} | null,
      "curve": "bn128", "size": 64, "workload": "exponentiate", "seed": 0,
      "stages": [ {"stage", "elapsed_s", "span": {...}|null,
                   "cpu_s"?, "rss_peak_delta_kb"?, "gc_collections"?}, ... ],
      "metrics": {...MetricsRegistry.snapshot()...} | null,
      "profile": {...DeepProfiler.to_profile_block()...} | null,
      "workers": {...WorkerTelemetry.to_workers_block()...} | null,
      "service": {...LoadReport.to_service_block()...} | null,
      "capacity": {...CapacityCell.to_capacity_block()...} | null
    }

Version history: v1 had no ``profile`` field and no lifted per-stage
``cpu_s``/``rss_peak_delta_kb``/``gc_collections``; v2 had no
``workers`` block (cross-process worker telemetry, PR 7); v3 had no
``service`` block (proving-service load reports, :mod:`repro.serve`);
v4 had no ``capacity`` block (``pareto`` sweep cells,
:mod:`repro.obs.capacity`) and its ``service`` block carried no
``phases`` breakdown or per-distribution ``n``.  Readers treat every
versioned field as optional, so v1–v4 ledgers keep loading.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

from repro.obs.fingerprint import fingerprint_id, git_revision, machine_fingerprint

__all__ = [
    "DEFAULT_DIR",
    "Ledger",
    "SCHEMA_VERSION",
    "install",
    "make_record",
    "read_ledger",
    "recording_to",
    "uninstall",
]

SCHEMA_VERSION = 5

#: Conventional ledger directory (relative to the working directory).
DEFAULT_DIR = os.path.join("results", "runs")

#: The process-global ledger slot; ``None`` means run recording is off.
CURRENT = None


class Ledger:
    """One append-only JSONL file of run records."""

    def __init__(self, path):
        self.path = path

    def append(self, record):
        """Append *record* as one JSON line (creating parent directories
        on first write); returns the record."""
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def read(self):
        return read_ledger(self.path)


def make_record(kind, curve, size, workload, stages, seed=None, metrics=None,
                label=None, profile=None, workers=None, service=None,
                capacity=None):
    """Assemble one schema-v5 record.

    *stages* is a list of stage dicts (``StageResult.to_record()`` shape);
    *metrics* a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`;
    *profile* a :meth:`~repro.obs.prof.DeepProfiler.to_profile_block`
    (``None`` for unprofiled runs); *workers* a
    :meth:`~repro.obs.worker.WorkerTelemetry.to_workers_block` (``None``
    for serial or untelemetered runs); *service* a
    :meth:`~repro.serve.loadgen.LoadReport.to_service_block` (``None``
    for runs that did not go through the proving service); *capacity* a
    :meth:`~repro.obs.capacity.CapacityCell.to_capacity_block` (``None``
    outside ``pareto`` sweep cells).
    """
    fp = machine_fingerprint()
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "ts": time.time(),
        "label": label,
        "machine": fp,
        "machine_id": fingerprint_id(fp),
        "git": git_revision(),
        "curve": curve,
        "size": size,
        "workload": workload,
        "seed": seed,
        "stages": list(stages),
        "metrics": metrics,
        "profile": profile,
        "workers": workers,
        "service": service,
        "capacity": capacity,
    }


def read_ledger(path):
    """Parse a JSONL ledger into a list of record dicts.

    Malformed lines are skipped (a crashed writer must not wedge its
    readers); a missing file raises ``OSError`` as usual.
    """
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict):
                records.append(rec)
    return records


def install(path):
    """Install a process-global :class:`Ledger` at *path*; every
    subsequent ``Workflow.run_all`` / ``profile_run`` appends to it."""
    global CURRENT
    if CURRENT is not None:
        raise RuntimeError(f"a ledger is already active ({CURRENT.path})")
    CURRENT = Ledger(path)
    return CURRENT


def uninstall():
    global CURRENT
    CURRENT = None


@contextmanager
def recording_to(path):
    """Scoped form of :func:`install` / :func:`uninstall`."""
    ledger = install(path)
    try:
        yield ledger
    finally:
        uninstall()


# Environment opt-in: REPRO_LEDGER=<path> records every workflow run of
# the process without touching calling code (used by the Make/CI targets).
_env_path = os.environ.get("REPRO_LEDGER")
if _env_path:
    CURRENT = Ledger(_env_path)
del _env_path
