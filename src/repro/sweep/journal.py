"""The sweep journal: append-only JSONL record of spec status transitions.

The :class:`~repro.sweep.cache.ResultCache` remembers *results*; the
journal remembers *history* — every spec's start and
terminal status, one JSON object per line, appended and flushed as it
happens so a killed sweep leaves a readable trail.  On the next
invocation ``--resume`` replays the journal (plus the cache) and
re-runs only what never reached ``ok``; specs with enough recorded
failures are quarantined instead of poisoning the run again.

A journal line looks like::

    {"v": 1, "spec": "<sha256>", "event": "timeout",
     "attempt": 2, "error": "...", "t": 1733011200.123}

``event`` is ``"start"`` or a terminal status out of
:data:`repro.errors.STATUSES`.  Reading tolerates torn writes (a
truncated last line from a kill mid-append) and unknown versions by
skipping the offending lines — the journal is an accelerator and a
flight recorder, never a source of truth, exactly like the cache.
Write failures (read-only directory, disk full) disable journaling
with a warning instead of failing the sweep.
"""

from __future__ import annotations

import json
import os
import threading
import time as _time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import STATUSES

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.cache import ResultCache

#: bumped on incompatible line-format changes; old lines are skipped.
JOURNAL_VERSION = 1

#: default file name when the journal lives next to a ResultCache.
JOURNAL_BASENAME = "journal.jsonl"


@dataclass
class JournalEntry:
    """Aggregated journal state of one spec (by content hash)."""

    spec_hash: str
    #: last terminal status seen ("ok", "crashed", ...); None when the
    #: journal only ever saw "start" (the sweep died mid-spec).
    status: Optional[str] = None
    #: consecutive terminal failures since the last "ok".
    failures: int = 0
    #: total attempts recorded across all runs.
    attempts: int = 0
    #: last recorded error string, if any.
    error: Optional[str] = None
    #: True when a "start" was never closed by a terminal event.
    interrupted: bool = field(default=False)


class SweepJournal:
    """Append-only JSONL journal of per-spec status transitions."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        #: set after the first failed append; later writes are no-ops.
        self.disabled = False
        self._lock = threading.Lock()

    @classmethod
    def for_cache(cls, cache: "ResultCache") -> "SweepJournal":
        """The journal that lives next to ``cache`` on disk."""
        return cls(os.path.join(cache.root, JOURNAL_BASENAME))

    # -- writing ----------------------------------------------------------

    def record(
        self,
        spec_hash: str,
        event: str,
        *,
        attempt: int = 1,
        error: Optional[str] = None,
    ) -> None:
        """Append one transition; never raises (degrades with a warning)."""
        if event != "start" and event not in STATUSES:
            raise ValueError(f"unknown journal event {event!r}")
        if self.disabled:
            return
        line = json.dumps(
            {
                "v": JOURNAL_VERSION,
                "spec": spec_hash,
                "event": event,
                "attempt": attempt,
                "error": error,
                "t": _time.time(),
            },
            sort_keys=True,
        )
        try:
            with self._lock:
                os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
                with open(self.path, "a+b") as fh:
                    # a previous sweep killed mid-append leaves a torn
                    # last line without a newline; start a fresh line so
                    # this record is not glued onto the wreckage.
                    if fh.seek(0, os.SEEK_END) > 0:
                        fh.seek(-1, os.SEEK_END)
                        if fh.read(1) != b"\n":
                            fh.write(b"\n")
                    fh.write(line.encode("utf-8") + b"\n")
                    fh.flush()
        except OSError as exc:
            self.disabled = True
            warnings.warn(
                f"sweep journal disabled: cannot append to {self.path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- reading ----------------------------------------------------------

    def replay(self) -> Dict[str, JournalEntry]:
        """Fold the journal into per-spec aggregate entries.

        Corrupt, torn, or incompatible lines are skipped; a missing
        file is an empty history.
        """
        entries: Dict[str, JournalEntry] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return entries
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except ValueError:
                continue  # torn write from a killed sweep
            if not isinstance(rec, dict) or rec.get("v") != JOURNAL_VERSION:
                continue
            spec_hash = rec.get("spec")
            event = rec.get("event")
            if not isinstance(spec_hash, str) or not isinstance(event, str):
                continue
            entry = entries.get(spec_hash)
            if entry is None:
                entry = entries[spec_hash] = JournalEntry(spec_hash)
            if event == "start":
                entry.interrupted = True
                continue
            if event not in STATUSES:
                continue
            entry.interrupted = False
            entry.status = event
            entry.attempts += max(1, int(rec.get("attempt") or 1))
            if event == "ok":
                entry.failures = 0
                entry.error = None
            else:
                entry.failures += 1
                entry.error = rec.get("error")
        return entries

    def failures(self, spec_hash: str) -> int:
        """Consecutive recorded failures of one spec (0 if unknown)."""
        entry = self.replay().get(spec_hash)
        return entry.failures if entry is not None else 0
