"""Streaming rollups: bounded, constant-memory aggregates of samples.

The aggregator never stores raw samples — hundreds of concurrent jobs
each ticking every simulated centisecond would grow without bound.
Instead every ``(entity, metric)`` pair keeps

* one :class:`StatWindow` over the whole stream (count/sum/min/max/
  last — the nvml_monitor-style host aggregate schema), and
* one :class:`RollupRing` of time-bucketed windows at a configurable
  resolution, bounded to a fixed number of buckets (oldest evicted
  first, like a fixed-size TSDB block).

Queries can downsample on read (:meth:`RollupRing.series` with a
coarser resolution) without touching what is retained.  A
:class:`RollupSet` maps metric names to rollups for one entity (a
job, a node, or the fleet) with a hard cap on distinct names — the
cap is never silent: dropped names are counted and exposed.

Records are downsampled *before* they reach a store by one
:class:`SampleWindowFolder`: a leaf's forwarder folds its stream into
native-resolution windows for the head, and history compaction folds
old segments into coarser windows.  Both emit ``sample_agg`` records
that replay onto the same buckets live ingest filled.

Retention tiers: a :class:`MetricRollup` can keep *coarser* rings
behind the native one (``tiers=((10, cap), (100, cap))``).  A bucket
evicted from tier N is not forgotten — it is merged
(:meth:`RollupRing.absorb`, via :meth:`StatWindow.merge`) into tier
N+1's bucket at 10x the resolution, so old history downsamples
instead of vanishing (the G-NetMon long-horizon pattern).  Tiers hold
*disjoint* time ranges by construction: a bucket lives in exactly one
ring, so reads can stitch all tiers without double counting.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: the default retention ladder used by durable aggregators: evicted
#: native buckets downsample 10x, then 100x, before falling off.
DEFAULT_RETENTION_TIERS: Tuple[Tuple[int, int], ...] = ((10, 512), (100, 512))


def labels_key(labels: Any) -> Tuple[Tuple[str, str], ...]:
    """Hashable identity of a point's labels (non-dicts are unlabeled)."""
    if not isinstance(labels, dict):
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def sample_header(
    kind: Any, record: Dict[str, Any]
) -> Optional[Tuple[float, int]]:
    """``(t, samples)`` of a ``sample`` / ``sample_agg`` record.

    A missing or non-numeric ``t`` reads as 0.0, and a ``sample_agg``
    without a numeric ``samples`` counts as 1 (a ``sample`` always
    does).  None when either is non-finite: ``json.loads`` accepts
    ``NaN`` and ``Infinity``, and such a record has no bucket to land
    in, so callers refuse it.  One check per record, none per point.
    """
    t = record.get("t")
    try:
        t = float(t) if isinstance(t, (int, float)) else 0.0
        samples = 1
        if kind == "sample_agg":
            n = record.get("samples")
            if isinstance(n, (int, float)):
                samples = int(n)
    except (OverflowError, ValueError):
        return None
    if not math.isfinite(t):
        return None
    return t, samples


def json_float(value: Any) -> Optional[float]:
    """A JSON number as a float; None for a non-number, and for an
    integer too large for a float (``json.loads`` parses any number
    of digits), which callers skip like any non-numeric value."""
    if not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


class StatWindow:
    """Streaming count/sum/min/max/last over one value stream."""

    __slots__ = ("count", "sum", "min", "max", "last", "last_t")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0
        self.last = 0.0
        self.last_t = 0.0

    def observe(self, value: float, t: float = 0.0) -> None:
        if self.count == 0:
            self.min = self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += 1
        self.sum += value
        self.last = value
        self.last_t = t

    def merge(self, other: "StatWindow") -> None:
        if other.count == 0:
            return
        # an empty window adopts other's last unconditionally — its own
        # last_t is the 0.0 sentinel, not an observation, and must not
        # win against e.g. a negative-t stream (would corrupt the
        # `last` aggregate in downsampled series and tier compaction).
        if self.count == 0:
            self.min, self.max = other.min, other.max
            self.last, self.last_t = other.last, other.last_t
        else:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            if other.last_t >= self.last_t:
                self.last = other.last
                self.last_t = other.last_t
        self.count += other.count
        self.sum += other.sum

    @property
    def avg(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- durable-history serialization (the sample_agg wire shape) ---------

    def as_state(self) -> Dict[str, float]:
        """The full mergeable state (``as_dict`` omits ``last_t``)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "last": self.last,
            "last_t": self.last_t,
        }

    @classmethod
    def from_state(cls, state: Any) -> Optional["StatWindow"]:
        """Rebuild from :meth:`as_state`; None for malformed input."""
        if not isinstance(state, dict):
            return None
        window = cls()
        try:
            window.count = int(state["count"])
            window.sum = float(state["sum"])
            window.min = float(state["min"])
            window.max = float(state["max"])
            window.last = float(state["last"])
            window.last_t = float(state["last_t"])
        except (KeyError, TypeError, ValueError, OverflowError):
            return None
        if window.count < 0:
            return None
        return window

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "avg": self.avg,
            "last": self.last,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StatWindow n={self.count} avg={self.avg:.4g} "
            f"min={self.min:.4g} max={self.max:.4g}>"
        )


class SampleWindowFolder:
    """Fold ``sample`` / ``sample_agg`` records into per-(job, bucket)
    :class:`StatWindow` state, and emit it as ``sample_agg`` records.

    A record lands in bucket ``int(t // resolution) // factor``: the
    store's own native bucket index, grouped ``factor`` at a time, so
    a window covers exactly the native buckets its samples filled
    live.  :meth:`drain` stamps each window at its bucket *midpoint*:
    a boundary time such as ``17 * 0.05`` can floor-divide back into
    bucket 16 (``0.85 // 0.05 == 16.0``), while the midpoint lands in
    its own bucket under any float rounding.  Replaying the drained
    records into a store with the same ``resolution`` therefore puts
    every window in the bucket live ingest put its samples in.  Window
    state is exactly mergeable, so draining a bucket that is still
    filling and draining the rest later merges exactly too.
    """

    __slots__ = ("resolution", "factor", "_jobs")

    def __init__(self, resolution: float, factor: int = 1) -> None:
        if resolution <= 0:
            raise ValueError(f"resolution must be positive: {resolution}")
        if factor < 1:
            raise ValueError(f"factor must be >= 1: {factor}")
        self.resolution = resolution
        self.factor = factor
        # job -> bucket -> [samples, {(name, labels key): (labels, window)}]
        self._jobs: Dict[str, Dict[int, List[Any]]] = {}

    def __len__(self) -> int:
        """Jobs holding windows not yet drained."""
        return len(self._jobs)

    def fold(self, record: Dict[str, Any]) -> bool:
        """Fold one record; False when it is not a well-formed sample."""
        kind = record.get("kind")
        if kind != "sample" and kind != "sample_agg":
            return False
        job = record.get("job")
        points = record.get("points")
        if not isinstance(job, str) or not job or not isinstance(points, list):
            return False
        header = sample_header(kind, record)
        if header is None:
            return False
        t, samples = header
        idx = int(t // self.resolution) // self.factor
        buckets = self._jobs.setdefault(job, {})
        bucket = buckets.get(idx)
        if bucket is None:
            bucket = buckets[idx] = [0, {}]
        bucket[0] += samples
        windows = bucket[1]
        is_agg = kind == "sample_agg"
        for point in points:
            if not isinstance(point, dict):
                continue
            name = point.get("name")
            if not isinstance(name, str):
                continue
            if is_agg:
                other = StatWindow.from_state(point.get("agg"))
                if other is None:
                    continue
            else:
                value = json_float(point.get("value"))
                if value is None:
                    continue
            labels = point.get("labels")
            key = (name, labels_key(labels))
            entry = windows.get(key)
            if entry is None:
                entry = windows[key] = (
                    labels if isinstance(labels, dict) else {},
                    StatWindow(),
                )
            if is_agg:
                entry[1].merge(other)
            else:
                entry[1].observe(value, t)
        return True

    def drain(self) -> List[Dict[str, Any]]:
        """One ``sample_agg`` per (job, bucket), in job then time order.

        The folder is empty again afterwards.
        """
        jobs, self._jobs = self._jobs, {}
        width = self.resolution * self.factor
        out: List[Dict[str, Any]] = []
        for job in sorted(jobs):
            for idx, (samples, windows) in sorted(jobs[job].items()):
                out.append({
                    "kind": "sample_agg",
                    "job": job,
                    "t": (idx + 0.5) * width,
                    "samples": samples,
                    "points": [
                        {
                            "name": name,
                            "labels": dict(labels),
                            "agg": window.as_state(),
                        }
                        for (name, _lkey), (labels, window) in sorted(
                            windows.items()
                        )
                    ],
                })
        return out


class RollupRing:
    """Bounded ring of time-bucketed :class:`StatWindow` aggregates.

    Points land in the bucket ``floor(t / resolution)``.  Out-of-order
    points within the retained window update their bucket in place;
    points older than the oldest retained bucket are dropped and
    counted (``dropped_late``).  Eviction is strictly oldest-by-time:
    the ring keeps a min-heap of retained bucket indices, so creating
    a bucket costs O(log n) and an out-of-order point that lands
    between retained buckets can never push out the newest one.  An
    evicted bucket is handed to ``spill`` (the next retention tier)
    when one is attached, instead of being forgotten.
    """

    __slots__ = ("resolution", "capacity", "_buckets", "_order",
                 "dropped_late", "spill")

    def __init__(
        self,
        resolution: float = 1.0,
        capacity: int = 512,
        spill: Optional[Callable[[float, "StatWindow"], Any]] = None,
    ) -> None:
        if resolution <= 0:
            raise ValueError(f"resolution must be positive: {resolution}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.resolution = resolution
        self.capacity = capacity
        self._buckets: Dict[int, StatWindow] = {}
        #: min-heap over retained bucket indices — the incrementally
        #: tracked minimum (heap root) replaces a min() scan per new
        #: bucket.  Every retained index appears exactly once: a new
        #: bucket is only created at idx > root, and an evicted idx
        #: can never be re-created (it is < the new root, so dropped).
        self._order: List[int] = []
        self.dropped_late = 0
        self.spill = spill

    def _bucket(self, idx: int) -> Optional[StatWindow]:
        """The retained window for ``idx``, creating (and evicting
        oldest-by-time, spilling to the next tier) as needed; None when
        ``idx`` is older than the oldest retained bucket."""
        window = self._buckets.get(idx)
        if window is None:
            if self._order and idx < self._order[0]:
                self.dropped_late += 1
                return None
            window = self._buckets[idx] = StatWindow()
            heapq.heappush(self._order, idx)
            while len(self._buckets) > self.capacity:
                oldest = heapq.heappop(self._order)
                evicted = self._buckets.pop(oldest)
                if self.spill is not None:
                    self.spill(oldest * self.resolution, evicted)
        return window

    def observe(self, t: float, value: float) -> bool:
        window = self._bucket(int(t // self.resolution))
        if window is None:
            return False
        window.observe(value, t)
        return True

    def absorb(self, t0: float, other: StatWindow) -> bool:
        """Merge a whole window into the bucket holding ``t0``.

        The tier-spill and compacted-history replay path: an evicted
        finer bucket (or a ``sample_agg`` record) folds into this
        ring's bucket via :meth:`StatWindow.merge`.
        """
        if other.count == 0:
            return True
        window = self._bucket(int(t0 // self.resolution))
        if window is None:
            return False
        window.merge(other)
        return True

    def __len__(self) -> int:
        return len(self._buckets)

    def buckets(self) -> List[Tuple[float, StatWindow]]:
        """``(bucket_start_time, window)`` pairs in time order."""
        return sorted(
            ((idx * self.resolution, w) for idx, w in self._buckets.items()),
            key=lambda kv: kv[0],
        )

    def series(self, resolution: Optional[float] = None) -> List[Dict[str, float]]:
        """The ring as JSON-able buckets, optionally downsampled.

        ``resolution`` coarser than the ring's merges adjacent buckets
        on read; finer (or None) returns the ring's native buckets.
        """
        if resolution is not None and resolution <= 0:
            raise ValueError(f"resolution must be positive: {resolution}")
        native = self.buckets()
        if resolution is None or resolution <= self.resolution:
            return [dict(t=t0, **w.as_dict()) for t0, w in native]
        merged: "OrderedDict[int, StatWindow]" = OrderedDict()
        for t0, window in native:
            idx = int(t0 // resolution)
            target = merged.get(idx)
            if target is None:
                target = merged[idx] = StatWindow()
            target.merge(window)
        return [
            dict(t=idx * resolution, **w.as_dict())
            for idx, w in merged.items()
        ]


class MetricRollup:
    """One metric of one entity: lifetime stats + tiered bucket rings.

    ``tiers`` is a ladder of ``(factor, capacity)`` pairs, finest
    first: buckets evicted from the native ring spill into the first
    tier (resolution × factor), that tier's evictions spill into the
    next, and only the coarsest tier forgets.  With no tiers this is
    exactly the single-ring rollup (and serializes identically).
    """

    __slots__ = ("stats", "ring", "tiers")

    def __init__(
        self,
        resolution: float,
        capacity: int,
        tiers: Sequence[Tuple[int, int]] = (),
    ) -> None:
        self.stats = StatWindow()
        # build coarsest-first so each ring can spill into the next.
        coarser: List[RollupRing] = []
        downstream: Optional[RollupRing] = None
        for factor, tier_capacity in sorted(tiers, reverse=True):
            if factor <= 1:
                raise ValueError(
                    f"tier factor must be > 1: {factor}"
                )
            ring = RollupRing(
                resolution * factor,
                tier_capacity,
                spill=downstream.absorb if downstream is not None else None,
            )
            coarser.append(ring)
            downstream = ring
        self.ring = RollupRing(
            resolution,
            capacity,
            spill=downstream.absorb if downstream is not None else None,
        )
        #: finest (native) to coarsest — disjoint time ranges.
        self.tiers: List[RollupRing] = [self.ring] + coarser[::-1]

    def observe(self, t: float, value: float) -> None:
        self.stats.observe(value, t)
        self.ring.observe(t, value)

    def absorb(self, t: float, window: StatWindow) -> None:
        """Fold a pre-aggregated window in (compacted-history replay)."""
        self.stats.merge(window)
        self.ring.absorb(t, window)

    def series(self, resolution: Optional[float] = None) -> List[Dict[str, float]]:
        """All tiers stitched into one time-ordered series.

        Tiers hold disjoint buckets, so stitching never double counts;
        coarse (older) buckets simply land at their start times.  With
        a single tier this is exactly ``ring.series``.
        """
        if len(self.tiers) == 1:
            return self.ring.series(resolution)
        if resolution is not None and resolution <= 0:
            raise ValueError(f"resolution must be positive: {resolution}")
        out_res = self.ring.resolution
        if resolution is not None and resolution > out_res:
            out_res = resolution
        merged: Dict[int, StatWindow] = {}
        for ring in self.tiers:
            for t0, window in ring.buckets():
                idx = int(t0 // out_res)
                target = merged.get(idx)
                if target is None:
                    target = merged[idx] = StatWindow()
                target.merge(window)
        return [
            dict(t=idx * out_res, **merged[idx].as_dict())
            for idx in sorted(merged)
        ]

    def snapshot(self, resolution: Optional[float] = None) -> Dict[str, Any]:
        out = {
            "stats": self.stats.as_dict(),
            "series": self.series(resolution),
        }
        if len(self.tiers) > 1:
            # history depth per retention tier — how far back each
            # resolution still answers.
            out["tiers"] = [
                {
                    "resolution": ring.resolution,
                    "buckets": len(ring),
                    "capacity": ring.capacity,
                    "dropped_late": ring.dropped_late,
                }
                for ring in self.tiers
            ]
        return out


class RollupSet:
    """All rollups of one entity, keyed by metric name, name-capped."""

    __slots__ = ("resolution", "capacity", "max_metrics", "tiers",
                 "_metrics", "dropped_names")

    def __init__(
        self,
        resolution: float = 1.0,
        capacity: int = 512,
        max_metrics: int = 64,
        tiers: Sequence[Tuple[int, int]] = (),
    ) -> None:
        if max_metrics <= 0:
            raise ValueError(f"max_metrics must be positive: {max_metrics}")
        self.resolution = resolution
        self.capacity = capacity
        self.max_metrics = max_metrics
        self.tiers = tuple(tiers)
        self._metrics: Dict[str, MetricRollup] = {}
        #: distinct metric names refused once the cap was hit — the
        #: cap is exposed, never silent.
        self.dropped_names = 0

    def _rollup(self, name: str) -> Optional[MetricRollup]:
        rollup = self._metrics.get(name)
        if rollup is None:
            if len(self._metrics) >= self.max_metrics:
                self.dropped_names += 1
                return None
            rollup = self._metrics[name] = MetricRollup(
                self.resolution, self.capacity, self.tiers
            )
        return rollup

    def observe(self, name: str, t: float, value: float) -> bool:
        rollup = self._rollup(name)
        if rollup is None:
            return False
        rollup.observe(t, value)
        return True

    def absorb(self, name: str, t: float, window: StatWindow) -> bool:
        """Fold a pre-aggregated window into one metric (replay path)."""
        rollup = self._rollup(name)
        if rollup is None:
            return False
        rollup.absorb(t, window)
        return True

    def get(self, name: str) -> Optional[MetricRollup]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def stats(self) -> Dict[str, StatWindow]:
        """Metric name -> lifetime window (exposition order)."""
        return {name: self._metrics[name].stats for name in self.names()}

    def snapshot(self, resolution: Optional[float] = None) -> Dict[str, Any]:
        return {
            name: self._metrics[name].snapshot(resolution)
            for name in self.names()
        }
