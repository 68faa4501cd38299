"""The benchmark's own arithmetic: percentiles, the open-loop schedule,
span self times and metric-name validation (unit-tested)."""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` of the samples at or below it (``0 < q <= 1``)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q`` percentile."""
    return count - max(1, math.ceil(q * count - 1e-9))


def due_times(start: float, rate: float, count: int) -> List[float]:
    """Scheduled send time of each of ``count`` documents at ``rate``/s."""
    return [start + i / rate for i in range(count)]


def due_count(due: Sequence[float], first: int, now: float) -> int:
    """Index one past the last document due at ``now``, from ``first``."""
    last = first
    while last < len(due) and due[last] <= now:
        last += 1
    return last


def lateness(send_time: float, first_due: float, free_since: float) -> float:
    """How late a send went out: after both its first document came due
    and the connection was free to carry it, any further delay is the
    generator's own."""
    return max(0.0, send_time - max(first_due, free_since))


def backlog(due: Sequence[float], acked: int, at: float) -> int:
    """Documents due by ``at`` that had not been acknowledged."""
    return due_count(due, 0, at) - acked


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the two relative spreads of a run set."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    scale = abs(median) or 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / scale,
        "range_frac": (max(values) - min(values)) / scale,
    }


class SelfTimes:
    """Per-name span totals, with each span's children subtracted.

    Spans finish children-first, so when a span ends every child has
    already reported its duration under the span's id.  ``sampled``
    names additionally keep every duration (for percentiles).
    """

    def __init__(self, sampled: Iterable[str] = ()) -> None:
        self.sampled = set(sampled)
        self.totals: Dict[str, List[float]] = {}
        self.samples: Dict[str, List[float]] = {}
        self._child_time: Dict[int, float] = {}

    def add(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        duration: float,
        items: int = 1,
    ) -> None:
        own = duration - self._child_time.pop(span_id, 0.0)
        if parent_id is not None:
            self._child_time[parent_id] = (
                self._child_time.get(parent_id, 0.0) + duration
            )
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += items
        entry[2] += duration
        entry[3] += own
        if name in self.sampled:
            self.samples.setdefault(name, []).append(duration)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {
            name: {
                "calls": entry[0],
                "items": entry[1],
                "total_s": entry[2],
                "self_s": entry[3],
                "samples": list(self.samples.get(name, ())),
            }
            for name, entry in self.totals.items()
        }


def delta(after: dict, before: dict, name: str, field: str) -> float:
    """``after - before`` for one field of one span name's totals."""
    a = after.get(name, {}).get(field, 0)
    b = before.get(name, {}).get(field, 0)
    return a - b


def new_samples(after: dict, before: dict, name: str) -> List[float]:
    """Samples recorded between two snapshots of one name."""
    seen = len(before.get(name, {}).get("samples", ()))
    return list(after.get(name, {}).get("samples", ()))[seen:]


def check_metric_names(names: Iterable[str]) -> None:
    seen = set()
    for name in names:
        if not METRIC_NAME.fullmatch(name) or len(name) > 64:
            raise ValueError(f"bad metric name {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)
