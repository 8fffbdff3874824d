"""Self-verifying pickle payloads and the cell store built on them.

Two layers:

- :func:`write_checksummed` / :func:`read_checksummed` — the one on-disk
  pickle format of the repo: payload followed by a 32-byte sha256 trailer,
  written atomically (tmp + rename).  A truncated, bit-flipped or
  foreign-format file raises
  :class:`~repro.resilience.errors.ArtifactCorruption` instead of
  deserializing garbage.
- :class:`CellStore` — a directory of such files with the load / evict /
  count / store logic of the harness disk cache
  (:func:`repro.harness.runner.profile_run`), which is what lets a killed
  ``repro run`` resume.  Corrupt cells are **self-healing**: a failed load
  evicts the file, bumps the store's eviction counter, and reports a miss
  so the cell is simply recomputed.
"""

from __future__ import annotations

import hashlib
import os
import pickle

from repro.context import RUN
from repro.resilience.errors import ArtifactCorruption

__all__ = [
    "CellStore",
    "read_checksummed",
    "write_checksummed",
]

_DIGEST_BYTES = 32


def write_checksummed(path, obj):
    """Atomically write ``pickle(obj) + sha256(payload)`` to *path*."""
    payload = pickle.dumps(obj)
    digest = hashlib.sha256(payload).digest()
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(payload)
        f.write(digest)
    os.replace(tmp, path)
    return len(payload) + _DIGEST_BYTES


def read_checksummed(path):
    """Load a checksummed payload; any mismatch raises ``ArtifactCorruption``."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) <= _DIGEST_BYTES:
        raise ArtifactCorruption(
            f"checksummed payload {path!r} too short",
            artifact=path, expected=f"> {_DIGEST_BYTES} bytes",
            actual=f"{len(data)} bytes",
        )
    payload, trailer = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    digest = hashlib.sha256(payload).digest()
    if digest != trailer:
        raise ArtifactCorruption(
            f"sha256 mismatch in {path!r}",
            artifact=path, expected=digest.hex()[:16],
            actual=trailer.hex()[:16],
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise ArtifactCorruption(
            f"unpicklable payload in {path!r}: {exc}", artifact=path,
        ) from exc


class CellStore:
    """A directory of checksummed cells: load, evict on corruption, count,
    store — the harness disk cache.

    A missing cell and a corrupt one both load as ``None``; the corrupt
    file is removed and *eviction_metric* bumped, so the caller simply
    recomputes.  *hit_metric* (optional) counts loads.
    """

    def __init__(self, directory, eviction_metric, hit_metric=None):
        self.dir = directory
        self._hit_metric = hit_metric
        self._eviction_metric = eviction_metric

    def load(self, name):
        path = os.path.join(self.dir, name)
        if not os.path.exists(path):
            return None
        m = RUN.metrics
        try:
            cell = read_checksummed(path)
        except ArtifactCorruption:
            try:
                os.remove(path)
            except OSError:
                pass
            if m is not None:
                m.inc(self._eviction_metric)
            return None
        if m is not None:
            if self._hit_metric is not None:
                m.inc(self._hit_metric)
        return cell

    def store(self, name, cell):
        os.makedirs(self.dir, exist_ok=True)
        write_checksummed(os.path.join(self.dir, name), cell)
