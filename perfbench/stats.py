"""Summary statistics shared by the benchmark and its traced children.

Two rules live here because the self-tests pin them:

- :func:`percentile` reports a percentile only when at least
  :data:`MIN_BEYOND` samples lie beyond it, so a tail figure is never
  read off a handful of points;
- :func:`self_times` subtracts, from each span, the part of its interval
  covered by its direct children (a layer's *self* time).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile ``q`` (0 < q < 1), or ``None`` if unsupported.

    ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond the
    rank.  The median (``q == 0.5``) only needs one sample.
    """
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if q != 0.5 and n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> Optional[float]:
    return percentile(values, 0.5)


def mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


#: One span as the tracer records it: (name, start_ns, end_ns, parent, rid).
Span = Tuple[str, int, int, int, Optional[str]]


def self_times(spans: Sequence[Span]) -> List[int]:
    """Per-span self time in ns: duration minus the union of child intervals.

    ``parent`` is the index of the enclosing span in ``spans`` (``-1`` for
    a root).  Children are clipped to their parent's interval and merged
    before subtraction, so overlapping or over-running children never
    drive a self time negative.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name, start, end, parent, _rid in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent, _rid) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append(max(0, end - start - covered))
    return result
