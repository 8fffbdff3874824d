"""Append-only JSONL run ledger.

The verbs that measure — ``profile``, ``deep-profile``, ``loadtest`` —
each build one self-describing JSON record: machine
fingerprint (Table I style), git revision, the (curve, size, workload)
cell, the per-stage span tree, and a metrics snapshot, so records from
different machines or commits stay comparable.  Recording is explicit:
a verb builds its record with :func:`make_record`, prints it under
``--json``, and appends it (:meth:`Ledger.append`) only where
``--ledger PATH`` names a file; nothing is written ambiently.

Record shape (``SCHEMA_VERSION`` 7) — this is the one description; the
modules that build a block point here, and ``docs/OBSERVABILITY.md`` has a
worked example::

    {
      "schema": 7,
      "kind": "profile" | "deep-profile" | "loadtest",
      "ts": <unix seconds>,
      "label": <free-form or null>,
      "machine": {...machine_fingerprint()...},
      "machine_id": "<12-hex digest of machine>",
      "git": {"rev": "<sha>", "dirty": false} | null,
      "curve": "bn128", "size": 64, "workload": "exponentiate", "seed": 0,
      "stages": [ {"stage", "elapsed_s", "span": {...}|null,
                   "cpu_s"?, "rss_peak_delta_kb"?, "gc_collections"?}, ... ],
      "metrics": {...MetricsRegistry.snapshot()...} | null,
      "profile": {...DeepProfiler.to_profile_block()...,
                  "drift": {...DriftReport.to_dict()...}} | null,
      "workers": {...WorkerTelemetry.to_workers_block()...} | null,
      "service": {...LoadReport.to_service_block()...} | null
    }

Every block is ``null`` unless the run that wrote the record produced it;
``profile.drift`` is ``deep-profile``'s model-drift verdict on that
profile.
"""

from __future__ import annotations

import json
import os
import time

from repro.obs.fingerprint import fingerprint_id, git_revision, machine_fingerprint

__all__ = [
    "Ledger",
    "SCHEMA_VERSION",
    "make_record",
]

SCHEMA_VERSION = 7


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


def make_record(kind, curve, size, workload, stages, seed=None, metrics=None,
                label=None, profile=None, workers=None, service=None):
    """Assemble one record (shape in the module docstring).

    *stages* is a list of stage dicts (``StageResult.to_record()`` shape);
    *metrics* a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`;
    *profile* a :meth:`~repro.obs.prof.DeepProfiler.to_profile_block`
    (``None`` for unprofiled runs); *workers* a
    :meth:`~repro.obs.worker.WorkerTelemetry.to_workers_block` (``None``
    for serial or untelemetered runs); *service* a
    :meth:`~repro.serve.loadgen.LoadReport.to_service_block` (``None``
    for runs that did not go through the proving service).
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
    }
