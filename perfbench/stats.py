"""Arithmetic the benchmark reports with: percentiles and cache-stat deltas.

Kept free of any ``repro`` import so the rules can be tested on their own.
"""

from __future__ import annotations

import statistics

#: cache-stat fields that count events since the cache was created; a
#: run's value is the difference between its end and its start.
COUNTERS = ("hits", "misses", "evictions")

#: cache-stat fields that describe the cache's current state; a run's
#: value is the reading at its end.  Subtracting them (as a counter) reads
#: zero whenever the cache was full at both ends.
GAUGES = ("entries", "capacity", "bytes")


def tail_percentile(values, percent: int, min_beyond: int = 10) -> float | None:
    """The ``percent``-th percentile (interpolating between ranks), or None
    when fewer than ``min_beyond`` of the samples are expected beyond it.

    A p90 over 40 calls rests on four samples; reporting it would let a
    single slow call move the figure, so it is omitted instead.
    """
    if len(values) * (100 - percent) < min_beyond * 100:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def cache_delta(before: dict, after: dict) -> dict:
    """What a run did to each cache of ``repro.core.cache.cache_stats()``.

    Counters are differenced across the run; gauges are read at its end.
    A cache that appears only in ``after`` is treated as starting at zero.
    """
    delta = {}
    for name, end in after.items():
        start = before.get(name, {})
        entry = {}
        for key, value in end.items():
            if key in COUNTERS:
                entry[key] = value - start.get(key, 0)
            elif key in GAUGES:
                entry[key] = value
            else:
                raise KeyError(f"cache stat {name}.{key} is neither counter nor gauge")
        delta[name] = entry
    return delta


def hit_ratio(stats: dict) -> float:
    """hits / (hits + misses) of one cache-stat entry; 0.0 with no lookups."""
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    return stats.get("hits", 0) / lookups if lookups else 0.0
