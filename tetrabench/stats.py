"""Percentiles and the request-class position guard.

Pure functions over lists of numbers; no I/O, no clocks.
"""

from __future__ import annotations

import math


def percentile(values, p: float) -> float:
    """The ``p``-th percentile (0..100) by linear interpolation between
    closest ranks (numpy's default "linear" method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def median(values) -> float:
    return percentile(values, 50.0)


def class_position(samples, p: float, window: float = 5.0,
                   min_share: float = 0.9) -> dict:
    """Which request class holds the ``p``-th latency percentile.

    ``samples`` is a list of ``(latency, class_name)``.  The class at the
    percentile is the class of the sample at its nearest rank; the
    neighbourhood is every sample whose rank lies within ``window``
    percentile points of it.  A percentile whose neighbourhood is less
    than ``min_share`` one class sits on a class boundary: a small shift
    in the mix would move it between classes, so it is flagged.
    """
    if not samples:
        raise ValueError("class position of an empty sample")
    ordered = sorted(samples, key=lambda s: s[0])
    last = len(ordered) - 1
    at = round(last * p / 100.0)
    cls = ordered[at][1]
    lo = max(0, math.floor(last * (p - window) / 100.0))
    hi = min(last, math.ceil(last * (p + window) / 100.0))
    neighbours = [c for _, c in ordered[lo:hi + 1]]
    share = sum(1 for c in neighbours if c == cls) / len(neighbours)
    return {
        "percentile": p,
        "class": cls,
        "neighbour_share": round(share, 4),
        "neighbours": len(neighbours),
        "on_boundary": share < min_share,
    }
