"""`FleetForwarder`: leaf→head federation over the fleet protocol.

A leaf aggregator (one rack's ``fleet serve``) tees every record it
accepts into a forwarder; the forwarder ships the stream upstream to
a head aggregator over the same ``ipm-repro/fleet/v1`` NDJSON
protocol — so a head is just another aggregator, and racks stack.

Two paths through the tee:

* lifecycle records (``job_start``, ``job_end``, ``rank_status``,
  ``spec_*``) pass straight through to the
  :class:`~repro.fleet.sink.ResilientClient` — the head should learn
  about state transitions at ingest latency;
* ``sample`` / ``sample_agg`` records fold into a
  :class:`~repro.fleet.rollup.SampleWindowFolder` — the same folder
  history compaction uses — and a background flush emits them as
  ``sample_agg`` windows at the *store's native resolution*.
  StatWindow state is exactly mergeable and bucket-aligned with the
  head's rings, so the head's per-job rollups equal a
  single-aggregator run bit-for-bit, at a fraction of the raw sample
  rate (repeated flushes of a still-open bucket merge exactly, too).

The transport is the resilient client, so federation inherits the
whole failure story: jittered reconnect, bounded buffering, optional
durable spooling under the leaf's ``--data-dir``, and sequence stamps
the head audits — either side can restart without losing a record
the leaf accepted.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Any, Dict, Optional, Tuple, Union

from repro.fleet.rollup import SampleWindowFolder
from repro.fleet.sink import ResilientClient
from repro.fleet.store import FleetStore

#: how often buffered windows flush upstream.
DEFAULT_FORWARD_INTERVAL = 0.25


class FleetForwarder:
    """Ship one store's accepted records upstream to a fleet head."""

    def __init__(
        self,
        store: FleetStore,
        target: Union[str, Tuple[str, int]],
        *,
        interval: float = DEFAULT_FORWARD_INTERVAL,
        spool_dir: Optional[str] = None,
        pub: Optional[str] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.store = store
        self.target = target
        self.interval = interval
        #: forwarded windows are the store's own job buckets, so the
        #: head's job series are identical to direct ingest.
        self.resolution = store.resolution
        self.client = ResilientClient(
            target,
            label="fleet forward",
            pub=pub,
            spool_dir=spool_dir,
        )
        self._folder = SampleWindowFolder(self.resolution)
        self._plock = threading.Lock()
        self.lifecycle_forwarded = 0
        self.samples_folded = 0
        self.windows_forwarded = 0
        self.flushes = 0
        self.tee_errors = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- the store-side tee ----------------------------------------------

    def tee(self, record: Dict[str, Any]) -> None:
        """Called by the store (under its lock) for each accepted record.

        Must be fast and must never raise into the ingest path: a
        broken forwarder degrades federation, not the leaf.
        """
        try:
            kind = record.get("kind")
            if kind == "sample" or kind == "sample_agg":
                with self._plock:
                    if self._folder.fold(record) and kind == "sample":
                        self.samples_folded += 1
            else:
                # the client restamps pub/seq with its own stream ids
                self.client.send(record)
                self.lifecycle_forwarded += 1
        except Exception:
            self.tee_errors += 1

    # -- flushing ---------------------------------------------------------

    def flush(self) -> int:
        """Emit every buffered window upstream; returns windows sent.

        Safe against a bucket still filling: the same (job, bucket)
        flushed twice emits two partial windows whose StatWindow
        states merge exactly at the head (absorb is associative).
        """
        with self._plock:
            windows = self._folder.drain()
        for record in windows:
            record["hts"] = _time.time()
            self.client.send(record)
        self.windows_forwarded += len(windows)
        self.flushes += 1
        return len(windows)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.flush()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "FleetForwarder":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="fleet-forward", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, flush_timeout: float = 5.0) -> None:
        """Drain: final flush, then close the upstream client."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
        self.flush()
        self.client.close(flush_timeout=flush_timeout)

    def abandon(self) -> None:
        """Kill-style stop: no final flush, no client drain."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(1.0)
            self._thread = None
        self.client.close(flush_timeout=0.0)

    def summary(self) -> Dict[str, Any]:
        with self._plock:
            pending_jobs = len(self._folder)
        stats = self.client.stats()
        return {
            "target": (
                self.target
                if isinstance(self.target, str)
                else f"{self.target[0]}:{self.target[1]}"
            ),
            "interval": self.interval,
            "resolution": self.resolution,
            "pub": self.client.pub,
            "connected": stats["connected"],
            "durable": stats["durable"],
            "spool_depth": stats["spool_depth"],
            "reconnects": stats["reconnects"],
            "dropped_lines": stats["dropped_lines"],
            "sent": stats["sent"],
            "acked": stats["acked"],
            "lifecycle_forwarded": self.lifecycle_forwarded,
            "samples_folded": self.samples_folded,
            "windows_forwarded": self.windows_forwarded,
            "flushes": self.flushes,
            "tee_errors": self.tee_errors,
            "pending_jobs": pending_jobs,
        }
