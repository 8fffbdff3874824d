"""Stage execution and profile caching.

:func:`profile_run` drives one (curve, size) cell of the paper's sweep:
build the exponentiation circuit, run the five workflow stages each under a
fresh tracer whose memory events feed an LLC model
(:class:`~repro.perf.cache.LLCModel`) as they happen, and reduce every
trace to a :class:`~repro.perf.analysis.StageProfile`.

Profiles are cached in-process and (by default) on disk under
``.repro_cache/``.  The cache key is the full workload cell **plus** a
source fingerprint: ``(curve_name, size, seed, workload,
sha256-of-every-repro-*.py)``.  Curve *parameters* enter through
``curve_name`` — the registry in :mod:`repro.curves` is code, so editing a
parameter set changes the source fingerprint too — and the workload
generator's shape through ``workload``/``size``.  What the key does *not*
see: the contents of ``.repro_cache`` itself (stale entries from other
checkouts are simply never looked up) and non-code environment (CPU,
Python version) — profiles are deterministic model outputs, so that is
safe.  Cache traffic is observable: when a metrics registry is active
(:mod:`repro.obs.metrics`), hits and misses are counted under
``repro_harness_cache_*`` so stale-cache confusion is diagnosable.
Delete the directory or set ``REPRO_CACHE=0`` to disable caching.

Entries are stored with a sha256 trailer
(:class:`repro.resilience.checkpoint.CellStore`); a truncated or
bit-flipped file is **evicted** on read — counted under
``repro_harness_cache_evictions_total`` — and the cell recomputed, so the
cache self-heals instead of silently serving garbage.  Only a finished
cell is cached: a stage that raises — a typed fault such as
:class:`~repro.resilience.errors.ResourceExhausted` included — propagates
and leaves both caches untouched (docs/ROBUSTNESS.md).  The disk cache is
also the resume path: a killed sweep reloads every finished cell and
recomputes only the rest.
"""

from __future__ import annotations

import hashlib
import os

import repro
from repro.context import RUN
from repro.curves import get_curve
from repro.harness.circuits import build_workload
from repro.perf.analysis import analyze_stage
from repro.perf.cache import LLCModel
from repro.perf.trace import Tracer
from repro.resilience.checkpoint import CellStore
from repro.workflow import STAGES, Workflow

__all__ = ["DEFAULT_SIZES", "PAPER_SIZES", "profile_run", "profile_sweep"]

#: Harness default: 2^6 .. 2^10.  Small enough that the full suite runs in
#: minutes of pure Python, large enough that every size-dependent trend the
#: paper reports is visible.  Pass ``sizes=PAPER_SIZES`` for the full range.
DEFAULT_SIZES = tuple(2**k for k in range(6, 11))

#: The paper's sweep: 2^10 .. 2^18 (Section IV-A).
PAPER_SIZES = tuple(2**k for k in range(10, 19))

_MEMO = {}
_FINGERPRINT = None


def _source_fingerprint():
    """Hash of every repro source file — the cache invalidation key."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = os.path.dirname(os.path.abspath(repro.__file__))
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    path = os.path.join(dirpath, fn)
                    h.update(fn.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
        _FINGERPRINT = h.hexdigest()[:16]
    return _FINGERPRINT


def _disk_cache():
    """The on-disk profile cache, or ``None`` when disabled or unwritable."""
    if os.environ.get("REPRO_CACHE", "1") == "0":
        return None
    base = os.environ.get("REPRO_CACHE_DIR")
    if base is None:
        base = os.path.join(os.getcwd(), ".repro_cache")
    try:
        os.makedirs(base, exist_ok=True)
    except OSError:
        return None
    return CellStore(base, hit_metric="repro_harness_cache_disk_hits_total",
                     eviction_metric="repro_harness_cache_evictions_total")


def profile_run(curve_name, size, seed=0, workload="exponentiate"):
    """Profile all five stages for one (curve, constraint-size) cell.

    *workload* selects the benchmark circuit family
    (:data:`repro.harness.circuits.WORKLOADS`); the paper sweeps
    ``"exponentiate"``.  Returns ``{stage: StageProfile}``.
    """
    key = (curve_name, size, seed, workload, _source_fingerprint())
    m = RUN.metrics
    if key in _MEMO:
        if m is not None:
            m.inc("repro_harness_cache_memo_hits_total")
        return _MEMO[key]

    cache = _disk_cache()
    fname = f"profile_{workload}_{curve_name}_{size}_{seed}_{key[-1]}.pkl"
    if cache is not None:
        # A truncated / bit-flipped / pre-checksum entry is evicted by the
        # store, so the cache heals and the cell is recomputed.
        profiles = cache.load(fname)
        if profiles is not None:
            _MEMO[key] = profiles
            return profiles

    if m is not None:
        m.inc("repro_harness_cache_misses_total")
    curve = get_curve(curve_name)
    builder, inputs = build_workload(workload, curve, size)

    wf = Workflow(curve, builder, inputs, seed=seed)
    profiles = {}
    for stage in STAGES:
        tracer = Tracer(label=f"{curve_name}/{size}/{stage}",
                        mem_events=LLCModel())
        result = wf.run_stage(stage, tracer)
        profiles[stage] = analyze_stage(
            tracer, stage=stage, curve=curve_name, size=size,
            elapsed=result.elapsed,
        )
    if wf.accepted is not True:
        raise RuntimeError(
            f"profiled workflow produced a rejected proof ({curve_name}, n={size})"
        )

    _MEMO[key] = profiles
    if cache is not None:
        try:
            cache.store(fname, profiles)
        except OSError:
            pass  # cache is best-effort
    return profiles


def profile_sweep(curve_names=("bn128", "bls12_381"), sizes=DEFAULT_SIZES,
                  seed=0, workload="exponentiate"):
    """The paper's full sweep: ``{(curve, size): {stage: StageProfile}}``.

    Each finished cell lands in :func:`profile_run`'s disk cache, so a
    sweep killed mid-way picks up where it died; cells are the
    deterministic model profiles, making a resumed sweep's results
    identical to an uninterrupted run's.
    """
    return {
        (curve_name, size): profile_run(curve_name, size, seed=seed,
                                        workload=workload)
        for curve_name in curve_names
        for size in sizes
    }
