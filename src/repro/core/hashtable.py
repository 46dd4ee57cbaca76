"""The performance data hash table (paper Fig. 1).

An open-addressing table of fixed capacity, as in real IPM: linear
probing from ``stable_hash(sig) % capacity``; each entry holds the
event signature and its running statistics {count, total, min, max}
("for each hash table entry IPM stores the number of calls made and
the average duration, as well as the minimum and maximum", §II).

Storage is columnar ("slab") rather than per-slot objects: parallel
lists of counts/totals/min/max/bytes indexed by slot, so the per-event
update performed by the interposition wrappers is a handful of list
writes with no attribute lookups and no allocation.  ``CallStats``
views are reconstructed lazily at report time.  Tables pickle
through one canonical reducer that records each entry at its slot
address.

If the table fills up, further *new* signatures go to an overflow
dict (counted, so tests and reports can flag it) — real IPM's
behaviour under overflow is implementation-defined; losing data
silently would be worse for a reproduction.  Overflow entries extend
the same columns past ``capacity``, so every entry has one stable
integer address for the wrappers' interned fast path.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.sig import EventSignature

_INF = float("inf")


@dataclass
class CallStats:
    """Running statistics of one event signature."""

    count: int = 0
    total: float = 0.0
    tmin: float = float("inf")
    tmax: float = 0.0

    def update(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        self.count += 1
        self.total += duration
        if duration < self.tmin:
            self.tmin = duration
        if duration > self.tmax:
            self.tmax = duration

    @property
    def avg(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "CallStats") -> None:
        self.count += other.count
        self.total += other.total
        self.tmin = min(self.tmin, other.tmin)
        self.tmax = max(self.tmax, other.tmax)

    def copy(self) -> "CallStats":
        return CallStats(self.count, self.total, self.tmin, self.tmax)


def _rebuild_table(capacity, slot_rows, overflow_rows, collisions):
    """Canonical unpickler of :class:`PerfHashTable`.

    The pickled form records entries at their exact slot addresses (a
    re-insertion could probe differently if capacities ever diverged),
    so the bytes depend only on the event stream, not on how the
    columns happen to be laid out in memory.
    """
    table = PerfHashTable(capacity)
    table._restore(slot_rows, overflow_rows, collisions)
    return table


class PerfHashTable:
    """Fixed-capacity open-addressing table over columnar slabs."""

    #: :meth:`locate` address of an overflow-resident signature.
    OVERFLOW = -1

    def __init__(self, capacity: int = 8192) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        # Parallel column slabs, indexed by slot; overflow entries are
        # appended past ``capacity`` so they too have flat addresses.
        self._sigs: List[Optional[EventSignature]] = [None] * capacity
        self._count: List[int] = [0] * capacity
        self._total: List[float] = [0.0] * capacity
        self._tmin: List[float] = [_INF] * capacity
        self._tmax: List[float] = [0.0] * capacity
        self._nbytes: List[int] = [0] * capacity
        #: signature → extended column index (>= capacity).
        self._overflow: Dict[EventSignature, int] = {}
        #: occupied slot indexes, ascending: row walks skip the holes.
        self._occupied: List[int] = []
        self.entries = 0
        self.collisions = 0
        self.overflowed = 0
        # Mutations through the explicit API bump ``_version_base``;
        # wrapper fast-path writes only touch the count column of
        # interned ("hot") indexes, and ``version`` folds those counts
        # in lazily — the hot path carries no version bookkeeping.
        self._version_base = 0
        self._hot: List[int] = []
        self._hot_set: set = set()
        self._agg: Dict[object, object] = {}
        self._agg_version = -1

    # -- versioning ---------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation stamp; aggregate caches key on it."""
        base = self._version_base
        if self._hot:
            count = self._count
            base += sum(map(count.__getitem__, self._hot))
        return base

    def hot_count(self) -> int:
        """Events recorded through interned fast-path addresses."""
        if not self._hot:
            return 0
        count = self._count
        return sum(map(count.__getitem__, self._hot))

    # -- probing ------------------------------------------------------------

    def _find(self, sig: EventSignature) -> Optional[int]:
        """Read-only lookup: index of the slot holding ``sig``, else None.

        Stops at the first free slot — entries are never deleted, so a
        resident signature always precedes the first hole of its probe
        chain.  Never touches the ``collisions`` counter, which tracks
        insert-path probe steps only.
        """
        sigs = self._sigs
        capacity = self.capacity
        start = sig.stable_hash() % capacity
        for step in range(capacity):
            idx = (start + step) % capacity
            resident = sigs[idx]
            if resident is None:
                return None
            if resident == sig:
                return idx
        return None

    def _probe_insert(self, sig: EventSignature) -> Optional[int]:
        """Index of the slot holding ``sig`` or the first free slot;
        None when the table is full and ``sig`` absent."""
        sigs = self._sigs
        capacity = self.capacity
        start = sig.stable_hash() % capacity
        for step in range(capacity):
            idx = (start + step) % capacity
            resident = sigs[idx]
            if resident is None:
                if step:
                    self.collisions += 1
                return idx
            if resident == sig:
                return idx
        return None

    def _append_overflow(self, sig: EventSignature) -> int:
        idx = len(self._sigs)
        self._sigs.append(sig)
        self._count.append(0)
        self._total.append(0.0)
        self._tmin.append(_INF)
        self._tmax.append(0.0)
        self._nbytes.append(sig.nbytes or 0)
        self._overflow[sig] = idx
        self.overflowed += 1
        return idx

    def _locate_or_insert(self, sig: EventSignature) -> int:
        """Flat column index of ``sig``, inserting an empty entry if
        absent (spilling to the extended overflow columns when full)."""
        idx = self._probe_insert(sig)
        if idx is None:
            oidx = self._overflow.get(sig)
            if oidx is None:
                oidx = self._append_overflow(sig)
            return oidx
        if self._sigs[idx] is None:
            self._sigs[idx] = sig
            self._nbytes[idx] = sig.nbytes or 0
            self.entries += 1
            insort(self._occupied, idx)
        return idx

    def index_of(self, sig: EventSignature) -> Optional[int]:
        """Flat column index of a resident signature (read-only)."""
        idx = self._find(sig)
        if idx is not None:
            return idx
        return self._overflow.get(sig)

    def intern(self, sig: EventSignature) -> int:
        """Stable flat address for the wrappers' fused record path.

        The returned index addresses the column slabs directly; it is
        also registered as "hot" so :attr:`version` and the overhead
        model's derived call count observe fast-path writes.
        """
        idx = self.index_of(sig)
        if idx is None:
            idx = self._locate_or_insert(sig)
        if idx not in self._hot_set:
            self._hot_set.add(idx)
            self._hot.append(idx)
        return idx

    # -- recording ----------------------------------------------------------

    def locate(self, sig: EventSignature) -> Optional[int]:
        """Stable address of ``sig`` for hinted updates.

        Returns a slot index, :data:`OVERFLOW` for overflow residents,
        or None when absent.  Addresses stay valid for the table's
        lifetime: entries never move and are never deleted.
        """
        idx = self._find(sig)
        if idx is not None:
            return idx
        if sig in self._overflow:
            return self.OVERFLOW
        return None

    def update(
        self, sig: EventSignature, duration: float, hint: Optional[int] = None
    ) -> CallStats:
        """Record one observation of ``sig``; returns a stats snapshot.

        ``hint`` — a prior :meth:`intern` (the wrappers) or
        :meth:`locate` result for ``sig`` — turns the steady-state path
        into a single identity check instead of a hash + probe; a stale
        or wrong hint falls back to the probing path.
        """
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        self._version_base += 1
        idx = None
        if hint is not None:
            if 0 <= hint < self.capacity:
                if self._sigs[hint] is sig:
                    idx = hint
            else:
                idx = self._overflow.get(sig)
        if idx is None:
            idx = self._locate_or_insert(sig)
        self._count[idx] += 1
        self._total[idx] += duration
        if duration < self._tmin[idx]:
            self._tmin[idx] = duration
        if duration > self._tmax[idx]:
            self._tmax[idx] = duration
        return CallStats(
            self._count[idx], self._total[idx], self._tmin[idx], self._tmax[idx]
        )

    def load(
        self,
        sig: EventSignature,
        count: int,
        total: float,
        tmin: float,
        tmax: float,
    ) -> None:
        """Overwrite the stats of ``sig`` (XML round-trip rebuilds)."""
        self._version_base += 1
        idx = self._locate_or_insert(sig)
        self._count[idx] = count
        self._total[idx] = total
        self._tmin[idx] = tmin
        self._tmax[idx] = tmax

    def get(self, sig: EventSignature) -> Optional[CallStats]:
        idx = self.index_of(sig)
        if idx is None:
            return None
        return CallStats(
            self._count[idx], self._total[idx], self._tmin[idx], self._tmax[idx]
        )

    def iter_rows(self) -> Iterator[Tuple[EventSignature, int, float, float, float]]:
        """Raw (sig, count, total, tmin, tmax) rows, slot order then
        overflow insertion order — the allocation-light report path."""
        sigs = self._sigs
        count, total = self._count, self._total
        tmin, tmax = self._tmin, self._tmax
        for idx in self._occupied:
            yield sigs[idx], count[idx], total[idx], tmin[idx], tmax[idx]
        for sig, idx in self._overflow.items():
            yield sig, count[idx], total[idx], tmin[idx], tmax[idx]

    def items(self) -> Iterator[Tuple[EventSignature, CallStats]]:
        for sig, count, total, tmin, tmax in self.iter_rows():
            yield sig, CallStats(count, total, tmin, tmax)

    def __len__(self) -> int:
        return self.entries + len(self._overflow)

    # -- aggregation helpers -------------------------------------------------
    #
    # All aggregates are cached until the next mutation, so the report
    # layer (banner + XML + CUBE each read the same views several
    # times) scans the columns once instead of once per section.
    # Cached results are shared between callers: treat them as
    # read-only.

    def _agg_cache(self) -> Dict[object, object]:
        version = self.version
        if self._agg_version != version:
            self._agg = {}
            self._agg_version = version
        return self._agg

    def by_name(self) -> Dict[str, CallStats]:
        """Collapse byte/callsite attributes: one entry per call name."""
        cache = self._agg_cache()
        out = cache.get("by_name")
        if out is None:
            out = {}
            for sig, count, total, tmin, tmax in self.iter_rows():
                agg = out.get(sig.name)
                if agg is None:
                    out[sig.name] = CallStats(count, total, tmin, tmax)
                else:
                    agg.count += count
                    agg.total += total
                    agg.tmin = min(agg.tmin, tmin)
                    agg.tmax = max(agg.tmax, tmax)
            cache["by_name"] = out
        return out

    def total_time(self, prefix: str = "") -> float:
        """Summed time over signatures whose name starts with ``prefix``."""
        cache = self._agg_cache()
        key = ("time", prefix)
        total = cache.get(key)
        if total is None:
            total = sum(
                row_total
                for sig, _count, row_total, _tmin, _tmax in self.iter_rows()
                if sig.name.startswith(prefix)
            )
            cache[key] = total
        return total

    def total_bytes(self, prefix: str = "") -> int:
        cache = self._agg_cache()
        key = ("bytes", prefix)
        total = cache.get(key)
        if total is None:
            total = sum(
                (sig.nbytes or 0) * count
                for sig, count, _total, _tmin, _tmax in self.iter_rows()
                if sig.name.startswith(prefix)
            )
            cache[key] = total
        return total

    def merge(self, other: "PerfHashTable") -> None:
        """Fold another table in (cross-rank aggregation)."""
        self._version_base += 1
        for sig, count, total, tmin, tmax in other.iter_rows():
            idx = self._locate_or_insert(sig)
            self._count[idx] += count
            self._total[idx] += total
            if tmin < self._tmin[idx]:
                self._tmin[idx] = tmin
            if tmax > self._tmax[idx]:
                self._tmax[idx] = tmax

    # -- pickling ------------------------------------------------------------

    def _canonical_rows(self):
        slot_rows = [
            (idx, self._sigs[idx], self._count[idx], self._total[idx],
             self._tmin[idx], self._tmax[idx])
            for idx in self._occupied
        ]
        overflow_rows = [
            (sig, self._count[idx], self._total[idx],
             self._tmin[idx], self._tmax[idx])
            for sig, idx in self._overflow.items()
        ]
        return tuple(slot_rows), tuple(overflow_rows)

    def __reduce__(self):
        slot_rows, overflow_rows = self._canonical_rows()
        return (
            _rebuild_table,
            (self.capacity, slot_rows, overflow_rows, self.collisions),
        )

    def _restore(self, slot_rows, overflow_rows, collisions) -> None:
        for idx, sig, count, total, tmin, tmax in slot_rows:
            self._sigs[idx] = sig
            self._count[idx] = count
            self._total[idx] = total
            self._tmin[idx] = tmin
            self._tmax[idx] = tmax
            self._nbytes[idx] = sig.nbytes or 0
            self.entries += 1
        self._occupied = sorted(row[0] for row in slot_rows)
        for sig, count, total, tmin, tmax in overflow_rows:
            idx = self._append_overflow(sig)
            self._count[idx] = count
            self._total[idx] = total
            self._tmin[idx] = tmin
            self._tmax[idx] = tmax
        self.overflowed = len(overflow_rows)
        self.collisions = collisions
        self._version_base = len(slot_rows) + len(overflow_rows)
