"""`FleetAggregator`: the long-running service, assembled.

One object owns the whole aggregator: the
:class:`~repro.fleet.store.FleetStore`, the socket
:class:`~repro.fleet.ingest.IngestServer` publishers connect to, the
:class:`~repro.fleet.server.FleetHttpServer` queries are served from,
and a background tail loop for any
:class:`~repro.fleet.ingest.JsonlTailIngester` files.  ``start()``
binds everything (port 0 picks ephemeral ports — read the resolved
addresses back from :attr:`ingest_address` / :attr:`http_url`);
``stop()`` is idempotent and drains the tailers before shutting the
servers down.  The CLI front-end is ``python -m repro fleet serve``.

With ``data_dir`` the aggregator is *durable*: accepted records tee
into a segmented :class:`~repro.fleet.history.HistoryLog`, startup
replays the log back into the store (so a restart resumes the
previous fleet state), rollups keep :data:`DEFAULT_RETENTION_TIERS`
(evicted buckets downsample instead of vanishing), and a background
policy thread periodically compacts old log segments into summary
segments, keeping all but the newest ``retain`` raw.

With ``forward`` the aggregator is a *leaf*: every record it accepts
also tees into a :class:`~repro.fleet.forward.FleetForwarder`, which
ships lifecycle records upstream immediately and compacts samples
into ``sample_agg`` windows for a head aggregator (``fleet serve
--forward head:port``).  A durable leaf spools its upstream traffic
under ``data_dir/forward-spool`` so a head outage loses nothing.

:meth:`kill` is the chaos harness's in-process kill -9: freeze the
store, slam the sockets shut, drain nothing.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.fleet.forward import DEFAULT_FORWARD_INTERVAL, FleetForwarder
from repro.fleet.history import DEFAULT_RETAIN_SEGMENTS, HistoryLog
from repro.fleet.ingest import IngestServer, JsonlTailIngester
from repro.fleet.protocol import parse_address
from repro.fleet.rollup import DEFAULT_RETENTION_TIERS
from repro.fleet.server import FleetHttpServer
from repro.fleet.store import FleetStore

Address = Union[str, Tuple[str, int]]

#: how often the durable aggregator's retention policy runs.
DEFAULT_COMPACT_INTERVAL = 60.0

#: seconds between polls of the tailed JSONL files.
TAIL_INTERVAL = 0.2


class FleetAggregator:
    """Ingest + store + query API as one start/stoppable service."""

    def __init__(
        self,
        ingest: Address = "127.0.0.1:0",
        http: Address = "127.0.0.1:0",
        tails: Sequence[str] = (),
        data_dir: Optional[str] = None,
        retain: int = DEFAULT_RETAIN_SEGMENTS,
        fsync: str = "rotate",
        compact_interval: float = DEFAULT_COMPACT_INTERVAL,
        forward: Optional[Address] = None,
        forward_interval: float = DEFAULT_FORWARD_INTERVAL,
        **store_kwargs,
    ) -> None:
        if retain < 0:
            raise ValueError(f"retain must be >= 0: {retain}")
        if data_dir is not None:
            # durable aggregators downsample aged buckets into coarser
            # tiers by default instead of evicting them.
            store_kwargs.setdefault("tiers", DEFAULT_RETENTION_TIERS)
        self.store = FleetStore(**store_kwargs)
        self.data_dir = data_dir
        self.history = (
            HistoryLog(data_dir, fsync=fsync) if data_dir is not None
            else None
        )
        self.forward_target = forward
        self.forward_interval = forward_interval
        self.forwarder: Optional[FleetForwarder] = None
        self.retain = retain
        self.compact_interval = compact_interval
        #: records restored from the log by the last start().
        self.replayed = 0
        self._ingest_bind = parse_address(ingest)
        self._http_bind = parse_address(http)
        self.tailers: List[JsonlTailIngester] = [
            JsonlTailIngester(path, self.store) for path in tails
        ]
        self.ingest_server: Optional[IngestServer] = None
        self.http_server: Optional[FleetHttpServer] = None
        self._tail_stop = threading.Event()
        self._tail_thread: Optional[threading.Thread] = None
        self._compact_stop = threading.Event()
        self._compact_thread: Optional[threading.Thread] = None
        self.started = False

    # -- resolved endpoints ---------------------------------------------

    @property
    def ingest_address(self) -> str:
        if self.ingest_server is None:
            raise RuntimeError("aggregator is not started")
        return self.ingest_server.address_str

    @property
    def http_address(self) -> str:
        if self.http_server is None:
            raise RuntimeError("aggregator is not started")
        return self.http_server.address_str

    @property
    def http_url(self) -> str:
        if self.http_server is None:
            raise RuntimeError("aggregator is not started")
        return self.http_server.url

    # -- lifecycle -------------------------------------------------------

    def add_tail(self, path: str, job: Optional[str] = None) -> JsonlTailIngester:
        """Attach one more JSONL file to the tail loop (live)."""
        tailer = JsonlTailIngester(path, self.store, job=job)
        self.tailers.append(tailer)
        if self.started:
            self._ensure_tail_thread()
        return tailer

    def _ensure_tail_thread(self) -> None:
        if self._tail_thread is None:
            self._tail_thread = threading.Thread(
                target=self._tail_loop, name="fleet-tail", daemon=True
            )
            self._tail_thread.start()

    def _tail_loop(self) -> None:
        while not self._tail_stop.wait(TAIL_INTERVAL):
            for tailer in list(self.tailers):
                tailer.poll()

    def _compact_loop(self) -> None:
        while not self._compact_stop.wait(self.compact_interval):
            self.compact()

    def compact(self) -> Optional[Dict[str, Any]]:
        """Run one retention pass over the history log, if durable."""
        if self.history is None:
            return None
        return self.history.compact(
            retain=self.retain, resolution=self.store.resolution
        )

    def start(self) -> "FleetAggregator":
        if self.started:
            return self
        self.started = True
        if self.history is not None and self.store.history is None:
            # restart into the previous state before accepting new
            # records — replayed and live ingest must not interleave.
            self.replayed = self.store.attach_history(self.history)
        if self.forward_target is not None and self.forwarder is None:
            # attach after replay: replayed records never re-forward
            # (the durable forward spool already holds the unacked
            # tail from the previous life of this leaf).
            spool_dir = pub = None
            if self.data_dir is not None:
                spool_dir = os.path.join(self.data_dir, "forward-spool")
                pub = f"forward:{os.path.abspath(self.data_dir)}"
            self.forwarder = FleetForwarder(
                self.store,
                self.forward_target,
                interval=self.forward_interval,
                spool_dir=spool_dir,
                pub=pub,
            ).start()
            self.store.attach_forward(self.forwarder)
        self.ingest_server = IngestServer(
            self.store, *self._ingest_bind
        ).start()
        self.http_server = FleetHttpServer(
            self.store, *self._http_bind
        ).start()
        if self.tailers:
            self._ensure_tail_thread()
        if self.history is not None and self.compact_interval > 0:
            self._compact_stop.clear()
            self._compact_thread = threading.Thread(
                target=self._compact_loop, name="fleet-compact", daemon=True
            )
            self._compact_thread.start()
        return self

    def stop(self) -> None:
        if not self.started:
            return
        self.started = False
        self._compact_stop.set()
        if self._compact_thread is not None:
            self._compact_thread.join(5.0)
            self._compact_thread = None
        self._tail_stop.set()
        if self._tail_thread is not None:
            self._tail_thread.join(5.0)
            self._tail_thread = None
        # one closing poll so lines written while we were stopping land
        for tailer in self.tailers:
            tailer.poll()
            tailer.finish()
        if self.ingest_server is not None:
            self.ingest_server.stop()
            self.ingest_server = None
        if self.forwarder is not None:
            # after ingest stopped, before http: the final flush ships
            # the buffered tail upstream, then drains the client.  The
            # store must be detached too or a later start() cannot
            # attach a fresh forwarder.
            self.forwarder.stop()
            self.forwarder = None
            self.store.detach_forward()
        if self.http_server is not None:
            self.http_server.stop()
            self.http_server = None
        if self.history is not None:
            self.history.close()

    def kill(self) -> None:
        """Die like kill -9: freeze, close sockets, drain nothing.

        The chaos harness's in-process stand-in for an aggregator
        crash.  The store refuses (and never acks) everything from the
        moment of death, in-flight connections break mid-line, tailers
        and the forwarder are abandoned with their buffers, and the
        history log is left exactly as the last append wrote it — so a
        restart on the same ``data_dir`` must recover from whatever
        is on disk, like after a real SIGKILL.
        """
        if not self.started:
            return
        self.started = False
        self.store.freeze()
        self._compact_stop.set()
        self._tail_stop.set()
        self._compact_thread = None
        self._tail_thread = None
        if self.ingest_server is not None:
            self.ingest_server.stop()
            self.ingest_server = None
        if self.forwarder is not None:
            self.forwarder.abandon()
            self.forwarder = None
            self.store.detach_forward()
        if self.http_server is not None:
            self.http_server.stop()
            self.http_server = None
        if self.history is not None:
            self.history.close()

    def __enter__(self) -> "FleetAggregator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
