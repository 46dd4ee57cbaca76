"""Fleet publishers: `ResilientClient` and the `FleetSink` riding it.

A :class:`FleetSink` quacks like a
:class:`repro.telemetry.sinks.TelemetrySink`, so it rides the existing
sampler unchanged: ``open()`` announces ``job_start``, every tick
becomes a ``sample`` record, ``close()`` publishes terminal rank
statuses and ``job_end``.

Every record that leaves a process for an aggregator — a job's
samples, the sweep runner's lifecycle stream, a leaf's forwarded
windows, a ``fleet drain`` — goes through one publisher,
:class:`ResilientClient`: records are stamped with a publisher id and
a monotonic sequence number, queued in a bounded in-memory deque, and
drained by a background thread that reconnects with jittered
exponential backoff (:func:`repro.faults.retry.retry_with_backoff`).
With ``spool_dir`` it is *durable*: every record spills to an NDJSON
:class:`~repro.fleet.spool.Spool` before it is offered to the socket,
the aggregator acknowledges each stamped record it processed, and the
backlog re-drains (and the aggregator dedups) across either side
restarting.

Publishing stays *best-effort by contract* at the API: ``send`` never
raises and a dead aggregator never fails the job — but with a spool
attached, "best effort" hardens into "at least once", which the
head's sequence audit turns into "exactly once".
"""

from __future__ import annotations

import os
import socket
import threading
import time as _time
import warnings
import zlib
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.faults.retry import RetriesExhausted, retry_with_backoff
from repro.fleet.protocol import (
    encode_record,
    decode_line,
    hello_record,
    parse_address,
    sample_points,
)
from repro.fleet.spool import Spool, pending_spools
from repro.simt.random import RngStreams

#: a publisher's aggregator address: "host:port" or (host, port).
Address = Union[str, Tuple[str, int]]

#: ResilientClient's bounded in-memory queue (records).
DEFAULT_QUEUE_MAX = 4096

#: connect timeout, and the per-send timeout once connected: a slow
#: aggregator backpressures the drain thread, never wedges it forever.
_CONNECT_TIMEOUT = 5.0
_SEND_TIMEOUT = 30.0

#: reconnect backoff growth and jitter (see retry_with_backoff).
_RETRY_FACTOR = 2.0
_RETRY_JITTER = 0.5

#: records sent per sendall batch by the drain thread.
_SEND_BATCH = 64

_PUB_LOCK = threading.Lock()
_PUB_COUNTER = 0


def _default_pub() -> str:
    """A publisher id unique per client instance on this host."""
    global _PUB_COUNTER
    with _PUB_LOCK:
        _PUB_COUNTER += 1
        n = _PUB_COUNTER
    return f"{socket.gethostname()}-{os.getpid()}-{n}"


class ResilientClient:
    """Loss-tolerant NDJSON publisher with queue, backoff and spool.

    Every record is stamped ``{"pub": <publisher id>, "seq": <n>}``
    (monotonic from the stream's start) and enqueued; a background
    drain thread owns the socket, reconnecting with jittered
    exponential backoff whenever it breaks.  Jitter is deterministic:
    the backoff rng is a seeded
    :class:`~repro.simt.random.RngStreams` stream derived from the
    publisher id.

    Without a spool the queue is the only buffer: overflow drops the
    *oldest* records (counted in ``dropped_lines``; the head observes
    the same loss as a sequence gap).  With ``spool_dir`` the client
    is durable: records hit disk before the socket, the connection
    preamble asks the aggregator to acknowledge each stamped record,
    and only acknowledged records are ever dropped from the spool —
    so a crash on either side re-sends the unacknowledged tail and
    the head's dedup makes delivery exactly-once.
    """

    def __init__(
        self,
        target: Address,
        label: str = "fleet",
        *,
        pub: Optional[str] = None,
        spool_dir: Optional[str] = None,
        queue_max: int = DEFAULT_QUEUE_MAX,
        retry_attempts: int = 5,
        retry_base: float = 0.05,
        retry_max_delay: float = 2.0,
    ) -> None:
        if not isinstance(target, (str, tuple)):
            raise ValueError(
                f"fleet publishers need a socket target (HOST:PORT), "
                f"got {type(target).__name__}"
            )
        parse_address(target)  # fail loudly on malformed addresses
        if queue_max <= 0:
            raise ValueError(f"queue_max must be positive: {queue_max}")
        self.target = target
        self.label = label
        self.pub = pub or _default_pub()
        self.queue_max = queue_max
        self.retry_attempts = retry_attempts
        self.retry_base = retry_base
        self.retry_max_delay = retry_max_delay
        self._rng = RngStreams(zlib.crc32(self.pub.encode("utf-8"))).get(
            "fleet.reconnect"
        )
        self.spool: Optional[Spool] = (
            Spool(spool_dir, self.pub) if spool_dir is not None else None
        )
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._queue: Deque[Tuple[int, bytes]] = deque()
        self._inflight = 0
        self._next_seq = 0
        self.acked_seq = -1
        if self.spool is not None:
            self._next_seq = self.spool.next_seq
            self.acked_seq = self.spool.acked_seq
        #: highest seq handed to the socket on the current connection.
        self._sent_floor = self.acked_seq
        self._sock: Optional[socket.socket] = None
        self._connected = False
        self._ever_connected = False
        self._closed = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._ack_thread: Optional[threading.Thread] = None
        # counters (read via stats()/properties; written under _lock)
        self.sent = 0
        self.acked = 0
        self.dropped_lines = 0
        self.drops_by_kind: Dict[str, int] = {}
        self.spooled = 0
        self.spool_drained = 0
        self.reconnects = 0
        self.connect_failures = 0
        self.last_error: Optional[str] = None
        self._warned_kinds: set = set()
        if self.spool is not None and self.spool.depth > 0:
            # a resumed spool drains without waiting for a new send
            self._ensure_thread()

    # -- public surface ---------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.spool is not None

    @property
    def connected(self) -> bool:
        return self._connected

    @property
    def dropped(self) -> int:
        """Back-compat alias for :attr:`dropped_lines`."""
        return self.dropped_lines

    @property
    def spool_depth(self) -> int:
        return self.spool.depth if self.spool is not None else 0

    def send(self, record: Dict[str, Any]) -> bool:
        """Stamp and enqueue one record; never raises, never blocks.

        True means the record was accepted into the pipeline (queue
        and/or spool) — not that it reached the aggregator.  False
        only after :meth:`close`.
        """
        if self._closed.is_set():
            self._count_drop("closed")
            return False
        with self._cond:
            seq = self._next_seq
            self._next_seq += 1
            stamped = dict(record)
            stamped["pub"] = self.pub
            stamped["seq"] = seq
            try:
                line = encode_record(stamped)
            except (TypeError, ValueError) as exc:
                self._next_seq -= 1
                self._count_drop(type(exc).__name__, warn=exc)
                return False
            if self.spool is not None:
                # durable mode drains from the spool; the queue is not
                # consulted.  A dead spool (disk error) cannot buffer,
                # so the record is lost — counted, like every loss.
                if self.spool.append(seq, line):
                    self.spooled += 1
                else:
                    self._count_drop("spool_failed", locked=True)
            else:
                self._queue.append((seq, line))
                while len(self._queue) > self.queue_max:
                    self._queue.popleft()
                    self._count_drop("queue_full", locked=True)
            self._ensure_thread()
            self._cond.notify_all()
        return True

    def flush(self, timeout: float = 5.0) -> bool:
        """Wait until everything accepted so far is on the wire.

        Durable clients wait for *acknowledgement* of every spooled
        record; queue-only clients wait for the queue to drain.
        Returns False on timeout — or early, when the aggregator is
        unreachable and waiting longer cannot help.
        """
        deadline = _time.monotonic() + max(0.0, timeout)
        while True:
            with self._lock:
                if self._flushed_locked():
                    return True
                hopeless = (
                    not self._connected
                    and self.connect_failures >= self.retry_attempts
                )
            if self._closed.is_set():
                return False
            if hopeless or _time.monotonic() >= deadline:
                return False
            _time.sleep(0.02)

    def _flushed_locked(self) -> bool:
        if self.spool is not None:
            return self.acked_seq >= self._next_seq - 1
        return not self._queue and self._inflight == 0

    def close(self, flush_timeout: float = 2.0) -> None:
        """Flush briefly, then stop the drain thread.

        Queue-only leftovers are counted as dropped (kind
        ``unflushed``); a durable backlog stays on disk for a resumed
        publisher or ``fleet drain`` to deliver later.
        """
        if self._closed.is_set():
            return
        if self._thread is not None and flush_timeout > 0:
            self.flush(flush_timeout)
        self._closed.set()
        with self._cond:
            leftovers = len(self._queue) + self._inflight
            if self.spool is None and leftovers:
                self._count_drop("unflushed", n=leftovers, locked=True)
            self._queue.clear()
            self._close_sock_locked()
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(2.0)
        if self._ack_thread is not None:
            self._ack_thread.join(2.0)
        if self.spool is not None:
            self.spool.close()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "pub": self.pub,
                "sent": self.sent,
                "acked": self.acked,
                "acked_seq": self.acked_seq,
                "next_seq": self._next_seq,
                "dropped_lines": self.dropped_lines,
                "drops_by_kind": dict(self.drops_by_kind),
                "spooled": self.spooled,
                "spool_drained": self.spool_drained,
                "spool_depth": self.spool_depth,
                "queue_depth": len(self._queue),
                "reconnects": self.reconnects,
                "connect_failures": self.connect_failures,
                "connected": self._connected,
                "durable": self.durable,
                "last_error": self.last_error,
            }

    # -- internals --------------------------------------------------------

    def _count_drop(
        self,
        kind: str,
        n: int = 1,
        locked: bool = False,
        warn: Optional[Exception] = None,
    ) -> None:
        if locked:
            self.dropped_lines += n
            self.drops_by_kind[kind] = self.drops_by_kind.get(kind, 0) + n
        else:
            with self._lock:
                self.dropped_lines += n
                self.drops_by_kind[kind] = (
                    self.drops_by_kind.get(kind, 0) + n
                )
        if warn is not None:
            self._warn_once(kind, f"cannot encode record: {warn}")

    def _warn_once(self, kind: str, detail: str) -> None:
        with self._lock:
            if kind in self._warned_kinds:
                return
            self._warned_kinds.add(kind)
        try:
            warnings.warn(
                f"{self.label} publishing degraded ({kind}): {detail}",
                RuntimeWarning,
                stacklevel=3,
            )
        except Exception:
            # -W error promotes warnings to exceptions; they must not
            # kill the drain thread.
            pass

    def _ensure_thread(self) -> None:
        if self._thread is None and not self._closed.is_set():
            self._thread = threading.Thread(
                target=self._drain,
                name=f"fleet-pub-{self.pub[:24]}",
                daemon=True,
            )
            self._thread.start()

    # .. the drain thread .................................................

    def _drain(self) -> None:
        while not self._closed.is_set():
            batch = self._next_batch()
            if batch is None:
                # closing, or a spool whose backlog is undecodable —
                # never hot-spin on it.
                self._closed.wait(0.05)
                continue
            self._ship(batch)

    def _have_work_locked(self) -> bool:
        if self.spool is not None:
            return self.spool.max_seq > max(self.acked_seq, self._sent_floor)
        return bool(self._queue)

    def _next_batch(self) -> Optional[List[Tuple[int, bytes]]]:
        with self._cond:
            while not self._closed.is_set() and not self._have_work_locked():
                self._cond.wait(0.25)
            if self._closed.is_set():
                return None
            if self.spool is None:
                batch = []
                while self._queue and len(batch) < _SEND_BATCH:
                    batch.append(self._queue.popleft())
                self._inflight = len(batch)
                return batch
            after = max(self.acked_seq, self._sent_floor)
        # durable: read outside the client lock (the spool has its own)
        batch = self.spool.read_after(after, limit=_SEND_BATCH)
        return batch or None

    def _ship(self, batch: List[Tuple[int, bytes]]) -> None:
        payload = b"".join(line for _, line in batch)
        last_seq = batch[-1][0]
        while not self._closed.is_set():
            if not self._ensure_connected():
                break
            sock = self._sock
            if sock is None:
                continue
            try:
                sock.sendall(payload)
            except OSError as exc:
                self._conn_lost(exc)
                continue
            with self._cond:
                self.sent += len(batch)
                # the floor describes what the *current* connection has
                # been offered; if the ack loop tore the socket down
                # while sendall was off-lock, the batch went to a dead
                # pipe and must stay below the floor for redelivery.
                if self._sock is sock:
                    self._sent_floor = max(self._sent_floor, last_seq)
                self._inflight = 0
                self._cond.notify_all()
            return
        # closing: queue-only leftovers are accounted in close()
        with self._cond:
            if self.spool is None and self._inflight:
                self._queue.extendleft(reversed(batch))
                self._inflight = 0

    def _ensure_connected(self) -> bool:
        while not self._closed.is_set():
            with self._lock:
                if self._connected:
                    return True

            def attempt() -> bool:
                if self._closed.is_set():
                    return True  # non-retryable: abort the cycle
                try:
                    self._open_connection()
                    return True
                except OSError as exc:
                    with self._lock:
                        self.connect_failures += 1
                        self.last_error = f"{type(exc).__name__}: {exc}"
                    self._warn_once(
                        f"connect:{type(exc).__name__}",
                        f"{exc} (target {self.target}; retrying with "
                        f"backoff)",
                    )
                    return False

            try:
                retry_with_backoff(
                    None,
                    attempt,
                    attempts=self.retry_attempts,
                    base_delay=self.retry_base,
                    factor=_RETRY_FACTOR,
                    jitter=_RETRY_JITTER,
                    rng=self._rng,
                    max_delay=self.retry_max_delay,
                    is_retryable=lambda ok: not ok,
                )
            except RetriesExhausted:
                # keep cycling (capped, jittered) until closed — a
                # publisher outliving a long aggregator outage is the
                # whole point.
                self._closed.wait(self.retry_max_delay)
                continue
            with self._lock:
                if self._connected:
                    return True
        return False

    def _open_connection(self) -> None:
        address = parse_address(self.target)
        sock = socket.create_connection(address, timeout=_CONNECT_TIMEOUT)
        try:
            if sock.getsockname() == sock.getpeername():
                # TCP simultaneous-open: dialing an *unbound* localhost
                # port can connect the socket to itself when the kernel
                # picks the target as the ephemeral source port.  The
                # pipe then happily echoes our own records back — a
                # publisher wedged "connected" to nobody, forever.
                raise ConnectionRefusedError(
                    "self-connected (target port is unbound)"
                )
        except OSError:
            try:
                sock.close()
            finally:
                raise
        sock.settimeout(_SEND_TIMEOUT)
        try:
            sock.sendall(encode_record(hello_record(self.pub, self.durable)))
        except OSError:
            try:
                sock.close()
            finally:
                raise
        with self._lock:
            self._sock = sock
            self._connected = True
            if self._ever_connected:
                self.reconnects += 1
            self._ever_connected = True
            self.connect_failures = 0
            if self.spool is not None:
                # the disk backlog this connection will (re-)offer;
                # overlaps with a dead connection dedup at the head.
                backlog = self.spool.max_seq - self.acked_seq
                if backlog > 0:
                    self.spool_drained += backlog
            self._sent_floor = self.acked_seq
        if self.durable:
            self._ack_thread = threading.Thread(
                target=self._ack_loop,
                args=(sock,),
                name=f"fleet-ack-{self.pub[:24]}",
                daemon=True,
            )
            self._ack_thread.start()

    def _conn_lost(self, exc: Exception) -> None:
        with self._cond:
            self._close_sock_locked()
            self.last_error = f"{type(exc).__name__}: {exc}"
            self._sent_floor = self.acked_seq
            self._cond.notify_all()
        self._warn_once(
            f"send:{type(exc).__name__}",
            f"{exc} (buffering and reconnecting)",
        )

    def _close_sock_locked(self) -> None:
        self._connected = False
        if self._sock is not None:
            # shutdown() before close(): close() alone neither wakes
            # the ack thread sleeping in recv() on this socket nor
            # (while that syscall sleeps) lets the kernel send a FIN.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def _ack_loop(self, sock: socket.socket) -> None:
        buf = b""
        lost: Optional[Exception] = None
        while not self._closed.is_set():
            try:
                chunk = sock.recv(4096)
            except socket.timeout:  # idle connection; keep listening
                continue
            except OSError as exc:
                lost = exc
                break
            if not chunk:
                lost = ConnectionResetError("ack stream closed by peer")
                break
            buf += chunk
            lines = buf.split(b"\n")
            buf = lines.pop()
            for line in lines:
                record = decode_line(line)
                if (
                    record is None
                    or record.get("kind") != "ack"
                    or record.get("pub") != self.pub
                ):
                    continue
                seq = record.get("seq")
                if isinstance(seq, bool) or not isinstance(seq, int):
                    continue
                with self._cond:
                    self.acked += 1
                    if seq > self.acked_seq:
                        self.acked_seq = seq
                        if self.spool is not None:
                            self.spool.ack(seq)
                        self._cond.notify_all()
        # A peer that died *after* every queued byte fit its socket
        # buffer is only visible here: the drain thread thinks it is
        # connected and idle, and the unacked tail would wait forever.
        # Tear the connection down (unless a reconnect already swapped
        # the socket out from under us) so the drain thread re-offers
        # everything past the ack cursor.
        if lost is not None and not self._closed.is_set():
            with self._cond:
                if self._sock is sock:
                    self._close_sock_locked()
                    self.last_error = f"{type(lost).__name__}: {lost}"
                    self._sent_floor = self.acked_seq
                    self._cond.notify_all()


def drain_spool_dir(
    target: Address,
    spool_dir: str,
    timeout: float = 10.0,
) -> Dict[str, Any]:
    """Deliver every pending record left in a spool directory.

    Publishers that closed while the aggregator was down leave their
    backlog on disk; this resumes each publisher stream (same ``pub``,
    same cursor) and flushes it.  Returns per-publisher outcomes:
    ``{"spools": n, "delivered": total, "pending": left, "details"}``.
    """
    details: List[Dict[str, Any]] = []
    delivered = 0
    pending_left = 0
    entries = pending_spools(spool_dir)
    deadline = _time.monotonic() + max(0.0, timeout)
    for entry in entries:
        budget = max(0.5, deadline - _time.monotonic())
        client = ResilientClient(
            target,
            label=f"fleet drain ({entry['pub'][:24]})",
            pub=entry["pub"],
            spool_dir=spool_dir,
        )
        try:
            flushed = client.flush(budget)
            stats = client.stats()
        finally:
            client.close(flush_timeout=0.0)
        delivered += stats["acked"]
        pending_left += stats["spool_depth"]
        # detail keys mirror the top-level summary ("delivered",
        # "pending") so callers iterate both with one vocabulary
        details.append(
            {
                "pub": entry["pub"],
                "flushed": flushed,
                "delivered": stats["acked"],
                "pending": stats["spool_depth"],
            }
        )
    return {
        "spools": len(entries),
        "delivered": delivered,
        "pending": pending_left,
        "details": details,
    }


class FleetSink:
    """Telemetry sink streaming one job into a fleet aggregator.

    The transport is a :class:`ResilientClient` — durable when
    ``spool_dir`` is given, and the publisher id is then derived from
    the job so a retried attempt resumes the same stream.  When the
    transport has been stressed, each sample additionally carries the
    publisher's own health as series (``publisher_dropped_lines``,
    ``publisher_spool_depth``, ``publisher_reconnects``) — zero-cost
    on a healthy stream, visible in ``/jobs/<id>/rollups`` on a
    degraded one.
    """

    name = "fleet"

    def __init__(
        self,
        target: Address,
        job: str,
        meta: Optional[Dict[str, Any]] = None,
        source: str = "job",
        spool_dir: Optional[str] = None,
        flush_timeout: float = 5.0,
    ) -> None:
        if not job:
            raise ValueError("FleetSink needs a non-empty job id")
        self.job = job
        self.source = source
        self.flush_timeout = flush_timeout
        self.client = ResilientClient(
            target,
            label=f"fleet sink ({job[:12]})",
            # durable streams must resume the same (pub, seq) axis
            # across publisher restarts; queue-only streams must NOT
            # reuse a pub (a fresh seq=0 would be deduped as a replay).
            pub=f"job:{job}" if spool_dir is not None else None,
            spool_dir=spool_dir,
        )
        self.meta: Dict[str, Any] = dict(meta or {})
        self.ticks = 0
        self.closed = False
        #: terminal outcome, set by the job runner before close().
        self._status: Optional[str] = None
        self._ranks: Dict[str, str] = {}
        self._wallclock: Optional[float] = None

    # -- TelemetrySink protocol -----------------------------------------

    def open(self, meta: Dict) -> None:
        merged = dict(meta)
        merged.update(self.meta)
        self.meta = merged
        self.client.send(
            {
                "kind": "job_start",
                "job": self.job,
                "source": self.source,
                "meta": merged,
                "hts": _time.time(),
            }
        )

    def _health_points(self) -> List[Dict[str, Any]]:
        client = self.client
        out: List[Dict[str, Any]] = []
        for name, value in (
            ("publisher_dropped_lines", client.dropped_lines),
            ("publisher_spool_depth", client.spool_depth),
            ("publisher_reconnects", client.reconnects),
        ):
            if value:
                out.append({"name": name, "labels": {}, "value": value})
        return out

    def emit(self, t: float, points: Sequence[Any]) -> None:
        self.ticks += 1
        wire_points = sample_points(points)
        wire_points.extend(self._health_points())
        self.client.send(
            {
                "kind": "sample",
                "job": self.job,
                "t": round(t, 9),
                "points": wire_points,
                "hts": _time.time(),
            }
        )

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for rank, status in sorted(self._ranks.items()):
            if status != "completed":
                self.client.send(
                    {
                        "kind": "rank_status",
                        "job": self.job,
                        "rank": rank,
                        "status": status,
                        "hts": _time.time(),
                    }
                )
        end: Dict[str, Any] = {
            "kind": "job_end",
            "job": self.job,
            "source": self.source,
            "status": self._status or "unknown",
            "hts": _time.time(),
        }
        if self._ranks:
            end["ranks"] = dict(self._ranks)
        if self._wallclock is not None:
            end["wallclock"] = self._wallclock
        self.client.send(end)
        self.client.close(flush_timeout=self.flush_timeout)

    # -- runner hook ----------------------------------------------------

    def set_job_outcome(
        self,
        status: str,
        ranks: Optional[Dict[Any, str]] = None,
        wallclock: Optional[float] = None,
    ) -> None:
        """Record the job's terminal state for the ``job_end`` record.

        Called by :func:`repro.cluster.jobs.run_job` once the report is
        finalized — duck-typed so any sink can opt in.
        """
        self._status = status
        if ranks:
            self._ranks = {str(r): str(s) for r, s in ranks.items()}
        self._wallclock = wallclock
