"""Test oracle for :class:`repro.core.hashtable.PerfHashTable`.

:class:`ObjectPerfHashTable` is the straightforward object-per-slot
layout the columnar table replaced: same probing, same overflow rule,
same canonical pickle (it borrows the slab table's reducer).  The
parity tests fold the same event stream into both and require equal
rows and byte-identical pickles, so any slab fast-path shortcut that
changes an observable shows up as a mismatch.  Not part of the
program: nothing in ``repro`` builds one.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.hashtable import CallStats, PerfHashTable
from repro.core.sig import EventSignature


class ObjectPerfHashTable:
    """Per-slot-object layout of the performance table: one
    ``(signature, CallStats)`` tuple per slot, updated through
    :meth:`CallStats.update`."""

    OVERFLOW = -1

    def __init__(self, capacity: int = 8192) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._slots: List[Optional[Tuple[EventSignature, CallStats]]] = (
            [None] * capacity
        )
        self._overflow: Dict[EventSignature, CallStats] = {}
        #: occupied slot indexes, ascending: row walks skip the holes.
        self._occupied: List[int] = []
        self.entries = 0
        self.collisions = 0
        self.overflowed = 0
        #: bumped on every mutation; aggregate caches key on it.
        self.version = 0
        self._agg: Dict[object, object] = {}
        self._agg_version = -1

    def hot_count(self) -> int:
        return 0

    def _find(self, sig: EventSignature) -> Optional[int]:
        slots = self._slots
        capacity = self.capacity
        start = sig.stable_hash() % capacity
        for step in range(capacity):
            idx = (start + step) % capacity
            slot = slots[idx]
            if slot is None:
                return None
            if slot[0] == sig:
                return idx
        return None

    def _probe_insert(self, sig: EventSignature) -> Optional[int]:
        slots = self._slots
        capacity = self.capacity
        start = sig.stable_hash() % capacity
        for step in range(capacity):
            idx = (start + step) % capacity
            slot = slots[idx]
            if slot is None:
                if step:
                    self.collisions += 1
                return idx
            if slot[0] == sig:
                return idx
        return None

    def _get_or_create(self, sig: EventSignature) -> CallStats:
        idx = self._probe_insert(sig)
        if idx is None:
            stats = self._overflow.get(sig)
            if stats is None:
                stats = CallStats()
                self._overflow[sig] = stats
                self.overflowed += 1
            return stats
        slot = self._slots[idx]
        if slot is not None:
            return slot[1]
        stats = CallStats()
        self._slots[idx] = (sig, stats)
        self.entries += 1
        insort(self._occupied, idx)
        return stats

    def locate(self, sig: EventSignature) -> Optional[int]:
        idx = self._find(sig)
        if idx is not None:
            return idx
        if sig in self._overflow:
            return self.OVERFLOW
        return None

    def update(
        self, sig: EventSignature, duration: float, hint: Optional[int] = None
    ) -> CallStats:
        self.version += 1
        if hint is not None:
            if hint >= 0:
                slot = self._slots[hint] if hint < self.capacity else None
                if slot is not None and slot[0] is sig:
                    stats = slot[1]
                    stats.update(duration)
                    return stats
            else:
                stats = self._overflow.get(sig)
                if stats is not None:
                    stats.update(duration)
                    return stats
        stats = self._get_or_create(sig)
        stats.update(duration)
        return stats

    def load(
        self,
        sig: EventSignature,
        count: int,
        total: float,
        tmin: float,
        tmax: float,
    ) -> None:
        self.version += 1
        stats = self._get_or_create(sig)
        stats.count = count
        stats.total = total
        stats.tmin = tmin
        stats.tmax = tmax

    def get(self, sig: EventSignature) -> Optional[CallStats]:
        idx = self._find(sig)
        if idx is not None:
            return self._slots[idx][1]
        return self._overflow.get(sig)

    def iter_rows(self) -> Iterator[Tuple[EventSignature, int, float, float, float]]:
        slots = self._slots
        for idx in self._occupied:
            sig, stats = slots[idx]
            yield sig, stats.count, stats.total, stats.tmin, stats.tmax
        for sig, stats in self._overflow.items():
            yield sig, stats.count, stats.total, stats.tmin, stats.tmax

    def items(self) -> Iterator[Tuple[EventSignature, CallStats]]:
        slots = self._slots
        for idx in self._occupied:
            yield slots[idx]
        yield from self._overflow.items()

    def __len__(self) -> int:
        return self.entries + len(self._overflow)

    def _agg_cache(self) -> Dict[object, object]:
        if self._agg_version != self.version:
            self._agg = {}
            self._agg_version = self.version
        return self._agg

    by_name = PerfHashTable.by_name
    total_time = PerfHashTable.total_time
    total_bytes = PerfHashTable.total_bytes

    def merge(self, other) -> None:
        self.version += 1
        for sig, count, total, tmin, tmax in other.iter_rows():
            stats = self._get_or_create(sig)
            stats.count += count
            stats.total += total
            stats.tmin = min(stats.tmin, tmin)
            stats.tmax = max(stats.tmax, tmax)

    def _canonical_rows(self):
        slot_rows = []
        for idx in self._occupied:
            sig, stats = self._slots[idx]
            slot_rows.append(
                (idx, sig, stats.count, stats.total, stats.tmin, stats.tmax)
            )
        overflow_rows = [
            (sig, stats.count, stats.total, stats.tmin, stats.tmax)
            for sig, stats in self._overflow.items()
        ]
        return tuple(slot_rows), tuple(overflow_rows)

    __reduce__ = PerfHashTable.__reduce__

    def _restore(self, slot_rows, overflow_rows, collisions) -> None:
        for idx, sig, count, total, tmin, tmax in slot_rows:
            self._slots[idx] = (sig, CallStats(count, total, tmin, tmax))
            self.entries += 1
        self._occupied = sorted(row[0] for row in slot_rows)
        for sig, count, total, tmin, tmax in overflow_rows:
            self._overflow[sig] = CallStats(count, total, tmin, tmax)
        self.overflowed = len(overflow_rows)
        self.collisions = collisions
        self.version = len(slot_rows) + len(overflow_rows)
