"""Machine fingerprint and source revision for ledger records.

The paper's Table I pins every measurement to a machine description (CPU
model, core count, software versions); a ledger record does the same so
that runs from different checkouts and hosts stay comparable.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess

__all__ = ["fingerprint_id", "git_revision", "machine_fingerprint"]

_CPUINFO = "/proc/cpuinfo"


def _cpu_model():
    """Human CPU model string, best effort (mirrors Table I's CPU column)."""
    try:
        with open(_CPUINFO) as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def machine_fingerprint():
    """Describe the executing machine the way Table I describes its CPUs.

    Returns a JSON-ready dict: CPU model, logical core count, Python
    version/implementation, OS and architecture, hostname.
    """
    uname = platform.uname()
    return {
        "cpu_model": _cpu_model(),
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": uname.system,
        "release": uname.release,
        "machine": uname.machine,
        "hostname": uname.node,
    }


def fingerprint_id(fp=None):
    """Short stable id of a fingerprint dict — the ledger's machine key."""
    fp = fp if fp is not None else machine_fingerprint()
    blob = "|".join(f"{k}={fp[k]}" for k in sorted(fp))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _git(args, cwd):
    out = subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=10,
    )
    if out.returncode != 0:
        raise RuntimeError(out.stderr.strip() or f"git {args[0]} failed")
    return out.stdout.strip()


def git_revision(cwd=None):
    """``{"rev": <sha>, "dirty": bool}`` for *cwd*'s checkout, or ``None``
    when git/the repository is unavailable (records stay writable from
    tarballs and installed packages)."""
    try:
        rev = _git(["rev-parse", "HEAD"], cwd)
        dirty = bool(_git(["status", "--porcelain", "-uno"], cwd))
    except Exception:
        return None
    return {"rev": rev, "dirty": dirty}
