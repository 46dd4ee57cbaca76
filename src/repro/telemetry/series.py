"""Bounded time-series storage for sampled telemetry.

A :class:`TimeSeries` is one named, labelled stream of ``(t, value)``
points with bounded retention (oldest points evicted first, like a
fixed-size TSDB block).  The :class:`TimeSeriesStore` keys series on
``(name, labels)`` and is what the sampler writes and the dashboard /
Chrome-trace exporter read.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable, Deque, Dict, List, Mapping, NamedTuple, Optional, Tuple,
)

#: canonical label form: sorted tuple of (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def canon_labels(labels: Optional[Mapping[str, object]]) -> LabelSet:
    """Canonicalize a label mapping (values stringified, keys sorted)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class SamplePoint(NamedTuple):
    """One sampled value, as handed to sinks.

    A named tuple so the sampler can build one per point with a single
    ``tuple.__new__`` call; treat it as immutable.
    """

    t: float
    name: str
    labels: LabelSet
    value: float

    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)


class TimeSeries:
    """One named series with bounded retention."""

    __slots__ = ("name", "labels", "_points")

    def __init__(self, name: str, labels: LabelSet, retention: int) -> None:
        if retention <= 0:
            raise ValueError(f"retention must be positive: {retention}")
        self.name = name
        self.labels = labels
        self._points: Deque[Tuple[float, float]] = deque(maxlen=retention)

    def append(self, t: float, value: float) -> None:
        self._points.append((t, value))

    def appender(self) -> Callable[[Tuple[float, float]], None]:
        """The ring's own ``append``, taking one ``(t, value)`` tuple.

        For writers that resolve a series once and append to it every
        tick (the sampler's plan): it skips a method call per point.
        """
        return self._points.append

    @property
    def points(self) -> List[Tuple[float, float]]:
        return list(self._points)

    def times(self) -> List[float]:
        return [t for t, _ in self._points]

    def values(self) -> List[float]:
        return [v for _, v in self._points]

    def latest(self) -> Optional[Tuple[float, float]]:
        return self._points[-1] if self._points else None

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lbl = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"<TimeSeries {self.name}{{{lbl}}} n={len(self)}>"


class TimeSeriesStore:
    """All series of one telemetry session, keyed on (name, labels)."""

    def __init__(self, retention: int = 4096) -> None:
        if retention <= 0:
            raise ValueError(f"retention must be positive: {retention}")
        self.retention = retention
        self._series: Dict[Tuple[str, LabelSet], TimeSeries] = {}

    def record(
        self,
        t: float,
        name: str,
        labels: Optional[Mapping[str, object]],
        value: float,
    ) -> SamplePoint:
        """Append one point, creating the series on first sight."""
        lbl = canon_labels(labels) if not isinstance(labels, tuple) else labels
        self.series_for(name, lbl).append(t, value)
        return SamplePoint(t, name, lbl, value)

    def series_for(self, name: str, labels: LabelSet) -> TimeSeries:
        """The series of ``(name, labels)``, created on first sight.

        ``labels`` must already be canonical (see :func:`canon_labels`);
        the sampler resolves its handles through here once per plan.
        """
        key = (name, labels)
        series = self._series.get(key)
        if series is None:
            series = TimeSeries(name, labels, self.retention)
            self._series[key] = series
        return series

    def get(self, name: str, **labels: object) -> Optional[TimeSeries]:
        return self._series.get((name, canon_labels(labels)))

    def series(self, name: Optional[str] = None) -> List[TimeSeries]:
        """All series (optionally of one name), in deterministic order."""
        out = [
            s
            for (n, _), s in self._series.items()
            if name is None or n == name
        ]
        out.sort(key=lambda s: (s.name, s.labels))
        return out

    def names(self) -> List[str]:
        return sorted({n for n, _ in self._series})

    def latest(self, name: str, **labels: object) -> Optional[float]:
        series = self.get(name, **labels)
        if series is None:
            return None
        point = series.latest()
        return point[1] if point is not None else None

    def __len__(self) -> int:
        return len(self._series)

    def total_points(self) -> int:
        return sum(len(s) for s in self._series.values())
