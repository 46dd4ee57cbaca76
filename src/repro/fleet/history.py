"""Durable fleet history: a segmented append-only NDJSON record log.

The aggregator's store is memory-resident by design; this module is
what makes a restart survivable.  A :class:`HistoryLog` is a
directory of numbered segments::

    data/
      history-00000001.compact.ndjson   (old, rewritten by compaction)
      history-00000002.ndjson           (closed raw segment)
      history-00000003.ndjson           (active — appends go here)

``FleetStore.ingest`` tees every *accepted* wire record into
:meth:`append` (WAL-style: the line is flushed before ingest
returns; ``fsync`` policy is configurable).  Segments are size-capped
and rotated atomically — a segment is only ever appended to or
replaced wholesale, never edited in place.  On startup
:meth:`replay` streams every retained record back in order so the
store reconstructs its registry, rollups and counters; reading reuses
the sweep journal's torn-write repair semantics: a line truncated by
a kill mid-append is counted (``torn_lines``) and skipped, a complete
final line that merely lost its newline is recovered, and the next
append starts on a fresh line instead of gluing onto the wreckage.

Retention is *downsampling, not forgetting* (the G-NetMon
long-horizon pattern): :meth:`compact` rewrites closed raw segments
into compacted summary segments — lifecycle records pass through
verbatim, per-tick ``sample`` records merge into per-(job, coarse
bucket) ``sample_agg`` records carrying exact mergeable
:class:`~repro.fleet.rollup.StatWindow` state — so lifetime
count/sum/min/max/last survive compaction bit-exactly while the disk
footprint shrinks by roughly the ticks-per-bucket ratio.  A coarse
bucket is :data:`COMPACT_TIER_FACTOR` of the store's native buckets,
so a replayed store serves the same series as the live one at that
coarser resolution; only detail inside a coarse bucket is merged
away.  Compaction
is crash-safe: the summary is written to a temp file, fsynced,
``os.replace``d into place, and only then is the raw segment removed;
if both survive a crash, replay prefers the raw source and the next
compaction pass redoes the rewrite.

Like the journal and the result cache, the log is an accelerator and
a flight recorder, never a point of failure: any ``OSError`` while
appending disables persistence with a warning instead of taking the
aggregator down.
"""

from __future__ import annotations

import os
import re
import threading
import warnings
from typing import Any, Dict, Iterator, List, NamedTuple, Optional

from repro.fleet.protocol import END_KINDS, decode_line, encode_record
from repro.fleet.rollup import SampleWindowFolder

#: rotate the active segment once it reaches this many bytes.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: closed raw segments kept un-compacted by a serving aggregator.
DEFAULT_RETAIN_SEGMENTS = 4

#: compacted sample_agg buckets are this many native resolutions wide
#: (matching the first in-memory retention tier).
COMPACT_TIER_FACTOR = 10

#: when to fsync the active segment: "never" (flush only), "rotate"
#: (on segment rotation and close), "always" (every append).
FSYNC_POLICIES = ("never", "rotate", "always")

_SEGMENT_RE = re.compile(r"^history-(\d{8})(\.compact)?\.ndjson$")


class Segment(NamedTuple):
    """One on-disk log segment."""

    seq: int
    path: str
    compacted: bool
    bytes: int


class HistoryLog:
    """Segmented append-only NDJSON log with replay and compaction."""

    def __init__(
        self,
        root: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: str = "rotate",
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}: {fsync!r}"
            )
        if segment_bytes <= 0:
            raise ValueError(
                f"segment_bytes must be positive: {segment_bytes}"
            )
        self.root = os.fspath(root)
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self._lock = threading.RLock()
        self._fh: Optional[Any] = None
        self._active_seq: Optional[int] = None
        self._active_size = 0
        #: segments below this are fenced (rotate() moved past them).
        self._min_next_seq = 1
        #: set after the first failed append; later writes are no-ops.
        self.disabled = False
        #: records appended by this process.
        self.appended = 0
        #: torn/undecodable lines seen by the most recent replay.
        self.torn_lines = 0
        #: records yielded by the most recent replay.
        self.replayed = 0
        #: compaction passes that rewrote at least one segment.
        self.compactions = 0
        #: raw segments rewritten into compacted form, lifetime.
        self.compacted_segments = 0
        os.makedirs(self.root, exist_ok=True)

    # -- segment bookkeeping ----------------------------------------------

    def _segment_path(self, seq: int, compacted: bool = False) -> str:
        suffix = ".compact.ndjson" if compacted else ".ndjson"
        return os.path.join(self.root, f"history-{seq:08d}{suffix}")

    def segments(self) -> List[Segment]:
        """All retained segments in replay (sequence) order.

        When a crash left both the raw and the compacted form of one
        sequence number, the raw file wins — it is the complete
        source; the stale compacted copy is ignored (and redone by
        the next :meth:`compact`).
        """
        raw: Dict[int, Segment] = {}
        compacts: Dict[int, Segment] = {}
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        for name in names:
            match = _SEGMENT_RE.match(name)
            if match is None:
                continue
            seq = int(match.group(1))
            compacted = match.group(2) is not None
            path = os.path.join(self.root, name)
            try:
                size = os.path.getsize(path)
            except OSError:
                size = 0
            segment = Segment(seq, path, compacted, size)
            (compacts if compacted else raw)[seq] = segment
        for seq, segment in compacts.items():
            raw.setdefault(seq, segment)
        return [raw[seq] for seq in sorted(raw)]

    def total_bytes(self) -> int:
        return sum(segment.bytes for segment in self.segments())

    # -- appending ---------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._fh is not None:
            return
        segments = self.segments()
        last = segments[-1] if segments else None
        if (
            last is not None
            and not last.compacted
            and last.seq >= self._min_next_seq
            and last.bytes < self.segment_bytes
        ):
            seq, path, size = last.seq, last.path, last.bytes
        else:
            seq = last.seq + 1 if last is not None else 1
            seq = max(seq, self._min_next_seq)
            path, size = self._segment_path(seq), 0
        fh = open(path, "ab")
        if size > 0:
            # torn-tail repair (journal semantics): a previous process
            # killed mid-append left no trailing newline — start this
            # record on a fresh line.
            with open(path, "rb") as check:
                check.seek(-1, os.SEEK_END)
                if check.read(1) != b"\n":
                    fh.write(b"\n")
                    size += 1
        self._fh, self._active_seq, self._active_size = fh, seq, size

    def append(self, record: Dict[str, Any]) -> None:
        """Tee one accepted wire record; never raises (degrades)."""
        if self.disabled:
            return
        line = encode_record(record)
        try:
            with self._lock:
                self._ensure_open()
                assert self._fh is not None
                self._fh.write(line)
                self._fh.flush()
                if self.fsync == "always":
                    os.fsync(self._fh.fileno())
                self._active_size += len(line)
                self.appended += 1
                if self._active_size >= self.segment_bytes:
                    self._close_active()
        except OSError as exc:
            self.disabled = True
            warnings.warn(
                f"fleet history disabled: cannot append to "
                f"{self.root}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )

    def _close_active(self) -> None:
        if self._fh is None:
            return
        if self.fsync in ("rotate", "always"):
            try:
                os.fsync(self._fh.fileno())
            except OSError:
                pass
        self._fh.close()
        self._fh = None
        self._active_seq = None
        self._active_size = 0

    def rotate(self) -> None:
        """Force-close the active segment (next append opens a new one).

        The freshly closed segment is full-size-exempt, so the next
        :meth:`append` still starts a new segment: rotation is how a
        caller fences "everything so far" for compaction.
        """
        with self._lock:
            if self._fh is not None:
                seq = self._active_seq or 0
                path = self._segment_path(seq)
                empty = self._active_size == 0
                self._close_active()
                self._min_next_seq = max(self._min_next_seq, seq + 1)
                if empty:
                    # a never-written active segment leaves nothing
                    try:
                        os.remove(path)
                    except OSError:
                        pass
            else:
                segments = self.segments()
                if segments:
                    self._min_next_seq = max(
                        self._min_next_seq, segments[-1].seq + 1
                    )

    def close(self) -> None:
        with self._lock:
            self._close_active()

    # -- replay ------------------------------------------------------------

    def replay(self) -> Iterator[Dict[str, Any]]:
        """Stream every retained record in log order.

        Decoding mirrors the journal: undecodable lines (torn writes
        from a kill mid-append, foreign garbage) are counted in
        ``torn_lines`` and skipped; a complete final record that lost
        only its newline is recovered.
        """
        self.torn_lines = 0
        self.replayed = 0
        for segment in self.segments():
            try:
                with open(segment.path, "rb") as fh:
                    data = fh.read()
            except OSError:
                continue
            for raw in data.split(b"\n"):
                if not raw.strip():
                    continue
                record = decode_line(raw)
                if record is None:
                    self.torn_lines += 1
                    continue
                self.replayed += 1
                yield record

    # -- compaction --------------------------------------------------------

    def compact(
        self,
        retain: int = DEFAULT_RETAIN_SEGMENTS,
        resolution: float = 0.05,
    ) -> Dict[str, Any]:
        """Rewrite old raw segments into compacted summary segments.

        ``retain`` newest *closed* raw segments are left untouched
        (the active segment always is); everything older is rewritten
        with per-tick samples merged into ``sample_agg`` buckets
        :data:`COMPACT_TIER_FACTOR` native buckets wide.
        ``resolution`` is the native job resolution of the store the
        log belongs to (``FleetStore.resolution``).  Returns the
        pass's stats.
        """
        if retain < 0:
            raise ValueError(f"retain must be >= 0: {retain}")
        if resolution <= 0:
            raise ValueError(f"resolution must be positive: {resolution}")
        with self._lock:
            bytes_before = self.total_bytes()
            raw = [s for s in self.segments() if not s.compacted]
            if self._active_seq is not None:
                closed = [s for s in raw if s.seq != self._active_seq]
            elif raw and raw[-1].seq < self._min_next_seq:
                closed = raw  # rotate() fenced everything on disk
            else:
                # with no open handle, the newest raw segment is the
                # one the next append would continue — leave it alone.
                closed = raw[:-1]
            targets = closed[: max(0, len(closed) - retain)]
            stats = {
                "segments_compacted": 0,
                "records_in": 0,
                "records_out": 0,
                "skipped_lines": 0,
                "bytes_before": bytes_before,
            }
            for segment in targets:
                self._compact_segment(segment, resolution, stats)
            stats["bytes_after"] = self.total_bytes()
            if stats["segments_compacted"]:
                self.compactions += 1
                self.compacted_segments += stats["segments_compacted"]
            return stats

    def _compact_segment(
        self, segment: Segment, resolution: float, stats: Dict[str, Any]
    ) -> None:
        records: List[Dict[str, Any]] = []
        try:
            with open(segment.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return
        for raw in data.split(b"\n"):
            if not raw.strip():
                continue
            record = decode_line(raw)
            if record is None:
                stats["skipped_lines"] += 1
                continue
            records.append(record)
        out = _compact_records(records, resolution)
        tmp = segment.path + ".tmp"
        compact_path = self._segment_path(segment.seq, compacted=True)
        try:
            with open(tmp, "wb") as fh:
                for record in out:
                    fh.write(encode_record(record))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, compact_path)
            os.remove(segment.path)
        except OSError as exc:
            try:
                os.remove(tmp)
            except OSError:
                pass
            warnings.warn(
                f"fleet history: compaction of {segment.path} failed: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        stats["segments_compacted"] += 1
        stats["records_in"] += len(records)
        stats["records_out"] += len(out)


def _compact_records(
    records: List[Dict[str, Any]], resolution: float
) -> List[Dict[str, Any]]:
    """Merge one segment's records into its compacted form.

    Lifecycle records pass through in their original relative order —
    opens (and anything unrecognized) first, terminal records last, so
    a replayed job still starts before its aggregates and finishes
    after them.  ``sample``/``sample_agg`` records fold into one
    ``sample_agg`` per (job, :data:`COMPACT_TIER_FACTOR` native
    buckets) — see :class:`~repro.fleet.rollup.SampleWindowFolder`.
    """
    heads: List[Dict[str, Any]] = []
    tails: List[Dict[str, Any]] = []
    folder = SampleWindowFolder(resolution, COMPACT_TIER_FACTOR)
    for record in records:
        if folder.fold(record):
            continue
        kind = record.get("kind")
        if kind in END_KINDS or kind == "rank_status":
            tails.append(record)
        else:
            heads.append(record)
    return heads + folder.drain() + tails
