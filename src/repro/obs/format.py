"""Shared output formatting for the telemetry CLI verbs.

``profile`` and ``deep-profile`` emit the same three things — a ledger
record (as JSON or as a human report), export artifacts, and a ledger
append — differing only in *which* text report and *which* artifacts.
This module is that shared tail, so the two verbs cannot drift apart in
record shape, artifact messaging, or ledger conventions.
"""

from __future__ import annotations

import json
import os

__all__ = [
    "append_record",
    "emit_record",
    "write_artifact",
]


def emit_record(record, as_json, out, render=None):
    """Print *record* as indented JSON when *as_json*, else the verb's
    human rendering (*render* is a zero-argument callable returning the
    report text; several chunks may be passed as a list of callables)."""
    if as_json:
        out(json.dumps(record, indent=2, sort_keys=True))
        return
    renders = render if isinstance(render, (list, tuple)) else [render]
    first = True
    for r in renders:
        if r is None:
            continue
        if not first:
            out("")
        out(r())
        first = False


def write_artifact(path, content, out, label, quiet=False):
    """Write one export artifact (creating parent directories) and report
    it on one line; returns *path*."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as f:
        f.write(content)
    if not quiet:
        out(f"{label}: wrote {path}")
    return path


def append_record(record, path, out, quiet=False):
    """Append *record* to the JSONL ledger at *path* (the verbs' shared
    ledger convention) and report it; returns *path*."""
    from repro.obs import ledger

    ledger.Ledger(path).append(record)
    if not quiet:
        out(f"ledger: appended 1 record to {path}")
    return path
