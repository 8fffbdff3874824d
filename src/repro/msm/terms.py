"""The input contract every bucket MSM kernel shares, defined once."""

from __future__ import annotations

__all__ = ["live_terms"]


def live_terms(group, points, scalars, window=None):
    """Validate an MSM input and return its ``(point, k mod r)`` terms that
    contribute: identity points (``None``) and scalars that reduce to zero
    are dropped.  Raises ``ValueError`` on a length mismatch or a window
    width outside ``[1, 32]``."""
    if len(points) != len(scalars):
        raise ValueError(f"points/scalars length mismatch: {len(points)} vs {len(scalars)}")
    if window is not None and not 1 <= window <= 32:
        raise ValueError(f"window width must be in [1, 32], got {window}")
    order = group.order
    return [
        (pt, k % order)
        for pt, k in zip(points, scalars)
        if pt is not None and k % order != 0
    ]
