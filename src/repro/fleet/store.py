"""`FleetStore`: the aggregator's state — registry + rollups + queries.

One thread-safe object holds everything the query API serves:

* the :class:`~repro.fleet.registry.FleetRegistry` (job/node identity
  and liveness);
* per-job, per-node and fleet-wide :class:`~repro.fleet.rollup.RollupSet`
  aggregates (max/min/avg GPU utilization, copy bytes, error counts,
  host-idle fraction — whatever series the publishers emit);
* ingest accounting (records/samples/points, parse errors, measured
  ingest lag from publisher ``hts`` stamps).

Time axes differ by entity on purpose: a *job's* rollup buckets on the
job's own virtual time (``resolution``), because that is the axis its
samples are meaningful on; *node* and *fleet* rollups bucket on host
wall-clock since the store started (``host_resolution``), because they
mix many jobs' virtual clocks.  Every ingest path and every query
takes the same lock — ingest threads and HTTP handler threads never
see a torn update.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.fleet.protocol import END_KINDS, START_KINDS, record_stamp
from repro.fleet.registry import DEFAULT_STALE_AFTER, FleetRegistry
from repro.fleet.rollup import RollupSet, StatWindow, json_float, sample_header
from repro.telemetry.sinks import escape_label_value, format_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.history import HistoryLog

#: ``# HELP`` text of the aggregator's own exposition families.
FLEET_HELP = {
    "fleet_jobs": "Jobs known to the aggregator, by liveness state",
    "fleet_nodes": "Nodes that published node-level samples",
    "fleet_nodes_stale": "Nodes past the publish-interval staleness horizon",
    "fleet_ingest_records_total": "Wire records ingested",
    "fleet_ingest_samples_total": "Sample records ingested",
    "fleet_ingest_points_total": "Individual sample points ingested",
    "fleet_ingest_parse_errors_total": "Wire lines that failed to parse",
    "fleet_ingest_dropped_total": "Records refused (no job id, unknown kind, bad sample)",
    "fleet_rollup_names_dropped_total": "Metric names refused by the per-entity cap",
    "fleet_publishers": "Resilient publisher streams seen (stamped records)",
    "fleet_publisher_dup_records_total": "Replayed records deduped by the sequence audit",
    "fleet_publisher_gap_records_total": "Records publishers numbered that never arrived",
    "fleet_ingest_lag_seconds": "Publisher-to-store latency measured from hts stamps",
    "fleet_history_segments": "On-disk history log segments retained",
    "fleet_history_bytes": "On-disk history log footprint",
    "fleet_history_appended_total": "Accepted records teed to the history log",
    "fleet_history_replayed_total": "Records restored from the log at startup",
    "fleet_history_torn_total": "Torn/undecodable log lines skipped on replay",
    "fleet_history_compactions_total": "Compaction passes that rewrote segments",
    "fleet_history_compacted_segments_total": "Raw segments rewritten into summaries",
    "fleet_rollup": "Fleet-wide streaming aggregate of one metric",
    "job_up": "1 while the job stream is live (0 finished or stale)",
    "job_rollup": "Per-job streaming aggregate of one metric",
    "node_rollup": "Per-node streaming aggregate of one metric",
    "node_stale": "1 when the node is past the staleness horizon",
}

#: the aggregates each rollup family exposes per metric.
_AGGS = ("avg", "min", "max", "last")


class FleetStore:
    """Live multi-job aggregates with an in-process query API."""

    def __init__(
        self,
        resolution: float = 0.05,
        host_resolution: float = 1.0,
        buckets: int = 512,
        max_metrics: int = 64,
        stale_after: float = DEFAULT_STALE_AFTER,
        clock: Callable[[], float] = _time.time,
        tiers: Sequence[Tuple[int, int]] = (),
    ) -> None:
        self.clock = clock
        self.started_at = clock()
        self.resolution = resolution
        self.host_resolution = host_resolution
        self.buckets = buckets
        self.max_metrics = max_metrics
        #: retention-tier ladder handed to every RollupSet — evicted
        #: buckets downsample into coarser rings instead of vanishing.
        self.tiers = tuple(tiers)
        self.registry = FleetRegistry(stale_after=stale_after, clock=clock)
        self._lock = threading.RLock()
        self._job_rollups: Dict[str, RollupSet] = {}
        self._node_rollups: Dict[str, RollupSet] = {}
        self.fleet_rollups = RollupSet(
            host_resolution, buckets, max_metrics, self.tiers
        )
        #: ingest accounting.
        self.records = 0
        self.samples = 0
        self.points = 0
        self.parse_errors = 0
        self.dropped = 0
        #: replayed (pub, seq) records deduped by the sequence audit.
        self.dup_records = 0
        self.lag = StatWindow()
        self.connections = 0
        #: durable history (attach_history); None = memory-resident.
        self.history: Optional["HistoryLog"] = None
        self.history_replayed = 0
        self._replaying = False
        #: frozen stores refuse (and never acknowledge) everything —
        #: the chaos harness's in-process stand-in for kill -9.
        self.frozen = False
        #: accepted-record tee toward a fleet head (attach_forward).
        self._forward: Optional[Callable[[Dict[str, Any]], None]] = None
        #: the owning FleetForwarder, for health/vitals summaries.
        self.forwarder: Optional[Any] = None

    # -- ingest accounting (called by transports) -------------------------

    def note_parse_error(self, n: int = 1) -> None:
        with self._lock:
            self.parse_errors += n

    def note_connection(self, delta: int) -> None:
        with self._lock:
            self.connections += delta

    # -- ingest -----------------------------------------------------------

    def ingest(self, record: Dict[str, Any]) -> bool:
        """Fold one parsed wire record in; False when not folded."""
        return self.ingest_status(record) == "accepted"

    def ingest_status(self, record: Dict[str, Any]) -> str:
        """Fold one parsed wire record; says what happened to it.

        ``"accepted"``
            folded into the store (and teed to history/forwarder);
        ``"duplicate"``
            a stamped replay the sequence audit already holds — not
            folded again, but the publisher should be acknowledged so
            it stops re-sending;
        ``"refused"``
            bookkeeping, never an exception: unknown kinds, job-scoped
            records without a job id, samples without a points
            list or with a non-finite ``t``/``samples`` and end
            records whose ``wallclock`` is not a float-sized number
            or whose ``attempts`` is not an integer bump
            ``dropped`` (a stamped refusal still consumes its seq, so
            it is not a gap);
        ``"frozen"``
            the store was killed; nothing was recorded and the record
            must NOT be acknowledged.

        With a history log attached, every accepted record is teed to
        disk before ingest returns (WAL semantics) — still under the
        store lock, so the log order matches the fold order.  The
        forwarder tee runs under the same lock for the same reason.
        """
        kind = record.get("kind")
        job = record.get("job")
        with self._lock:
            if self.frozen:
                return "frozen"
            stamp = record_stamp(record)
            if stamp is not None:
                fresh, _gap = self.registry.publisher_seen(*stamp)
                if not fresh:
                    self.dup_records += 1
                    return "duplicate"
            if not isinstance(job, str) or not job:
                self.dropped += 1
                return "refused"
            accepted = self._fold(kind, job, record)
            if accepted and not self._replaying:
                if self.history is not None:
                    self.history.append(record)
                if self._forward is not None:
                    self._forward(record)
            return "accepted" if accepted else "refused"

    def freeze(self) -> None:
        """Stop accepting (and acknowledging) records, permanently.

        The chaos harness's in-process kill: everything folded so far
        stays queryable, every ingest path sees ``"frozen"`` and the
        publishers' unacknowledged records stay theirs to re-send.
        """
        with self._lock:
            self.frozen = True

    def attach_forward(self, forwarder: Any) -> None:
        """Tee accepted records into a FleetForwarder (under the lock)."""
        with self._lock:
            if self._forward is not None:
                raise RuntimeError("store already has a forwarder")
            self._forward = forwarder.tee
            self.forwarder = forwarder

    def detach_forward(self) -> None:
        """Stop teeing accepted records upstream (idempotent).

        Called when the owning forwarder shuts down so a stopped
        aggregator can be started again — attach_forward refuses a
        second forwarder while one is still wired in.
        """
        with self._lock:
            self._forward = None
            self.forwarder = None

    def _fold(self, kind: Any, job: str, record: Dict[str, Any]) -> bool:
        self.records += 1
        hts = json_float(record.get("hts"))
        if hts is not None and not self._replaying:
            # replayed records carry stale publisher stamps — folding
            # them would poison the measured live ingest lag.
            self.lag.observe(max(0.0, self.clock() - hts), self.clock())
        if kind in START_KINDS:
            meta = record.get("meta")
            self.registry.job_started(
                job,
                meta=meta if isinstance(meta, dict) else None,
                source=record.get("source"),
            )
            return True
        if kind == "sample":
            return self._ingest_sample(job, record)
        if kind == "sample_agg":
            return self._ingest_sample_agg(job, record)
        if kind == "rank_status":
            self.registry.rank_status(
                job, record.get("rank"), str(record.get("status"))
            )
            return True
        if kind in END_KINDS:
            wallclock = record.get("wallclock")
            attempts = record.get("attempts")
            # refuse before the registry changes: a JSON int, not a
            # bool, for attempts; a float-sized number for wallclock.
            if (
                (wallclock is not None and json_float(wallclock) is None)
                or (attempts is not None and type(attempts) is not int)
            ):
                self.dropped += 1
                return False
            ranks = record.get("ranks")
            self.registry.job_finished(
                job,
                status=record.get("status"),
                wallclock=wallclock,
                attempts=attempts,
                from_cache=record.get("from_cache"),
                error=record.get("error"),
                ranks=ranks if isinstance(ranks, dict) else None,
            )
            return True
        self.dropped += 1
        return False

    def _ingest_sample(self, job: str, record: Dict[str, Any]) -> bool:
        header = sample_header("sample", record)
        points = record.get("points")
        if header is None or not isinstance(points, list):
            self.dropped += 1
            return False
        t = header[0]
        job_record = self.registry.job_seen(job)
        job_record.samples += 1
        self.samples += 1
        host_t = self.clock() - self.started_at
        job_set = self._job_set(job)
        for point in points:
            if not isinstance(point, dict):
                continue
            name = point.get("name")
            value = json_float(point.get("value"))
            if not isinstance(name, str) or value is None:
                continue
            job_record.points += 1
            self.points += 1
            job_set.observe(name, t, value)
            self.fleet_rollups.observe(name, host_t, value)
            labels = point.get("labels")
            node = labels.get("node") if isinstance(labels, dict) else None
            if isinstance(node, str) and node:
                job_record.nodes.add(node)
                self.registry.node_seen(node, job)
                self._node_set(node).observe(name, host_t, value)
        return True

    def _job_set(self, job: str) -> RollupSet:
        job_set = self._job_rollups.get(job)
        if job_set is None:
            job_set = self._job_rollups[job] = RollupSet(
                self.resolution, self.buckets, self.max_metrics, self.tiers
            )
        return job_set

    def _node_set(self, node: str) -> RollupSet:
        node_set = self._node_rollups.get(node)
        if node_set is None:
            node_set = self._node_rollups[node] = RollupSet(
                self.host_resolution, self.buckets, self.max_metrics,
                self.tiers
            )
        return node_set

    def _ingest_sample_agg(self, job: str, record: Dict[str, Any]) -> bool:
        """Fold one compacted-history bucket (exact StatWindow state).

        Counts are preserved through compaction: the record carries
        the number of original samples it merged, and each point's
        window count feeds the point totals — so /jobs summaries and
        lifetime aggregates match the uncompacted stream bit-for-bit.
        """
        header = sample_header("sample_agg", record)
        points = record.get("points")
        if header is None or not isinstance(points, list):
            self.dropped += 1
            return False
        t, n_samples = header
        job_record = self.registry.job_seen(job)
        job_record.samples += n_samples
        self.samples += n_samples
        host_t = self.clock() - self.started_at
        job_set = self._job_set(job)
        for point in points:
            if not isinstance(point, dict):
                continue
            name = point.get("name")
            if not isinstance(name, str):
                continue
            window = StatWindow.from_state(point.get("agg"))
            if window is None or window.count == 0:
                continue
            job_record.points += window.count
            self.points += window.count
            job_set.absorb(name, t, window)
            self.fleet_rollups.absorb(name, host_t, window)
            labels = point.get("labels")
            node = labels.get("node") if isinstance(labels, dict) else None
            if isinstance(node, str) and node:
                job_record.nodes.add(node)
                self.registry.node_seen(node, job, count=window.count)
                self._node_set(node).absorb(name, host_t, window)
        return True

    # -- durable history ---------------------------------------------------

    def attach_history(self, history: "HistoryLog") -> int:
        """Replay a history log into the store, then tee into it.

        The startup path of a durable aggregator: every retained
        record folds back in (rebuilding registry, rollups and
        counters), then the log becomes the store's write-ahead tee.
        Staleness clocks re-base naturally — replayed records are
        touched at *this* process's wall-clock, so a job that was
        live before the restart stays non-stale for a fresh
        ``stale_after`` horizon.  Returns the records restored.
        """
        with self._lock:
            if self.history is not None:
                raise RuntimeError("store already has a history log")
            self._replaying = True
            count = 0
            try:
                for record in history.replay():
                    if self.ingest(record):
                        count += 1
            finally:
                self._replaying = False
            self.history = history
            self.history_replayed = count
            return count

    def history_summary(self) -> Dict[str, Any]:
        """The durable-history vitals (``/history`` endpoint)."""
        with self._lock:
            if self.history is None:
                return {"enabled": False}
            segments = self.history.segments()
            return {
                "enabled": True,
                "root": self.history.root,
                "fsync": self.history.fsync,
                "segment_bytes": self.history.segment_bytes,
                "segments": [
                    {
                        "seq": s.seq,
                        "compacted": s.compacted,
                        "bytes": s.bytes,
                    }
                    for s in segments
                ],
                "bytes": sum(s.bytes for s in segments),
                "appended": self.history.appended,
                "replayed": self.history_replayed,
                "torn_lines": self.history.torn_lines,
                "compactions": self.history.compactions,
                "compacted_segments": self.history.compacted_segments,
                "disabled": self.history.disabled,
            }

    # -- queries ----------------------------------------------------------

    def health_summary(self) -> Dict[str, Any]:
        """What ``/healthz`` serves: healthy, or degraded and why.

        The process answering at all is liveness; this is the honest
        part — partial ingest (publisher sequence gaps), a dead
        history log, a forwarder with a growing backlog, and frozen
        stores all surface as ``degraded`` with the evidence attached,
        instead of the permanent ``{"ok": true}`` the endpoint used to
        return.
        """
        with self._lock:
            reasons: List[str] = []
            totals = self.registry.publisher_totals()
            gaps = {
                p.pub: p.gap_records
                for p in self.registry.publishers()
                if p.gap_records
            }
            if totals["gap_records"]:
                reasons.append(
                    f"{totals['gap_records']} records lost upstream "
                    f"(publisher sequence gaps)"
                )
            if self.history is not None and self.history.disabled:
                reasons.append("history log disabled after a disk error")
            if self.frozen:
                reasons.append("store is frozen (killed)")
            forward: Optional[Dict[str, Any]] = None
            if self.forwarder is not None:
                forward = self.forwarder.summary()
                if not forward["connected"] and forward["spool_depth"]:
                    reasons.append(
                        f"forwarder disconnected with "
                        f"{forward['spool_depth']} records spooled"
                    )
                if forward["dropped_lines"]:
                    reasons.append(
                        f"forwarder dropped {forward['dropped_lines']} "
                        f"records"
                    )
            out: Dict[str, Any] = {
                "ok": not reasons,
                "status": "healthy" if not reasons else "degraded",
                "reasons": reasons,
                "publishers": {
                    "count": totals["publishers"],
                    "duplicates": totals["duplicates"],
                    "gap_records": totals["gap_records"],
                    "gaps": gaps,
                },
                "frozen": self.frozen,
            }
            if forward is not None:
                out["forward"] = forward
            if self.history is not None:
                out["history_disabled"] = self.history.disabled
            return out

    def publishers_summary(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "totals": self.registry.publisher_totals(),
                "publishers": [
                    p.summary() for p in self.registry.publishers()
                ],
            }

    def jobs_summary(self) -> Dict[str, Any]:
        with self._lock:
            now = self.clock()
            return {
                "counts": self.registry.counts(now),
                "jobs": [
                    r.summary(stale=self.registry.job_is_stale(r, now))
                    for r in self.registry.jobs()
                ],
            }

    def job_rollups(
        self, job: str, resolution: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """One job's registry state + rollups; None for unknown jobs.

        ``resolution`` downsamples the returned series on read (it
        must be coarser than the store's native resolution to have an
        effect); retention is untouched.
        """
        with self._lock:
            record = self.registry.job(job)
            if record is None:
                return None
            rollups = self._job_rollups.get(job)
            out = record.summary(
                stale=self.registry.job_is_stale(record)
            )
            out["resolution"] = (
                resolution
                if resolution and resolution > self.resolution
                else self.resolution
            )
            out["metrics"] = (
                rollups.snapshot(resolution) if rollups is not None else {}
            )
            if rollups is not None:
                out["metrics_dropped"] = rollups.dropped_names
            return out

    def node_summary(
        self, node: str, resolution: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        with self._lock:
            record = self.registry.node(node)
            if record is None:
                return None
            rollups = self._node_rollups.get(node)
            out = record.summary(
                stale=self.registry.node_is_stale(record)
            )
            out["metrics"] = (
                rollups.snapshot(resolution) if rollups is not None else {}
            )
            return out

    def nodes_summary(self) -> Dict[str, Any]:
        with self._lock:
            now = self.clock()
            return {
                "nodes": [
                    r.summary(stale=self.registry.node_is_stale(r, now))
                    for r in self.registry.nodes()
                ],
            }

    def fleet_summary(self) -> Dict[str, Any]:
        with self._lock:
            out = {
                "uptime": self.clock() - self.started_at,
                "counts": self.registry.counts(),
                "ingest": {
                    "records": self.records,
                    "samples": self.samples,
                    "points": self.points,
                    "parse_errors": self.parse_errors,
                    "dropped": self.dropped,
                    "dup_records": self.dup_records,
                    "connections": self.connections,
                    "lag": self.lag.as_dict(),
                },
                "rollup_names_dropped": self._names_dropped(),
                "metrics": {
                    name: window.as_dict()
                    for name, window in self.fleet_rollups.stats().items()
                },
            }
            totals = self.registry.publisher_totals()
            if totals["publishers"]:
                out["publishers"] = totals
            if self.forwarder is not None:
                out["forward"] = self.forwarder.summary()
            if self.history is not None:
                out["history"] = self.history_summary()
            return out

    def _names_dropped(self) -> int:
        total = self.fleet_rollups.dropped_names
        total += sum(s.dropped_names for s in self._job_rollups.values())
        total += sum(s.dropped_names for s in self._node_rollups.values())
        return total

    # -- OpenMetrics exposition -------------------------------------------

    def openmetrics(self) -> str:
        """The whole fleet as one OpenMetrics scrape body."""
        with self._lock:
            now = self.clock()
            lines: List[str] = []

            def family(name: str, kind: str = "gauge") -> None:
                lines.append(f"# HELP {name} {FLEET_HELP[name]}")
                lines.append(f"# TYPE {name} {kind}")

            def metric(
                name: str, labels: Dict[str, object], value: float
            ) -> None:
                if labels:
                    lbl = ",".join(
                        f'{k}="{escape_label_value(str(v))}"'
                        for k, v in sorted(labels.items())
                    )
                    lines.append(f"{name}{{{lbl}}} {format_value(value)}")
                else:
                    lines.append(f"{name} {format_value(value)}")

            counts = self.registry.counts(now)
            family("fleet_jobs")
            for state in ("running", "finished", "stale"):
                metric("fleet_jobs", {"state": state}, counts[state])
            family("fleet_nodes")
            metric("fleet_nodes", {}, counts["nodes"])
            family("fleet_nodes_stale")
            metric("fleet_nodes_stale", {}, counts["nodes_stale"])
            for name, value in (
                ("fleet_ingest_records_total", self.records),
                ("fleet_ingest_samples_total", self.samples),
                ("fleet_ingest_points_total", self.points),
                ("fleet_ingest_parse_errors_total", self.parse_errors),
                ("fleet_ingest_dropped_total", self.dropped),
                ("fleet_rollup_names_dropped_total", self._names_dropped()),
            ):
                family(name, "counter")
                metric(name, {}, value)
            family("fleet_ingest_lag_seconds")
            lag = self.lag.as_dict()
            for agg in _AGGS:
                metric("fleet_ingest_lag_seconds", {"agg": agg}, lag[agg])

            totals = self.registry.publisher_totals()
            if totals["publishers"]:
                # publisher-audit families only exist once stamped
                # records arrive — the unstamped exposition stays
                # byte-identical (pinned by test).
                family("fleet_publishers")
                metric("fleet_publishers", {}, totals["publishers"])
                for name, value in (
                    ("fleet_publisher_dup_records_total",
                     totals["duplicates"]),
                    ("fleet_publisher_gap_records_total",
                     totals["gap_records"]),
                ):
                    family(name, "counter")
                    metric(name, {}, value)

            if self.history is not None:
                # durable-history families only exist with persistence
                # on — the memory-resident exposition stays
                # byte-identical (pinned by test).
                segments = self.history.segments()
                family("fleet_history_segments")
                metric("fleet_history_segments", {}, len(segments))
                family("fleet_history_bytes")
                metric("fleet_history_bytes", {},
                       sum(s.bytes for s in segments))
                for name, value in (
                    ("fleet_history_appended_total", self.history.appended),
                    ("fleet_history_replayed_total", self.history_replayed),
                    ("fleet_history_torn_total", self.history.torn_lines),
                    ("fleet_history_compactions_total",
                     self.history.compactions),
                    ("fleet_history_compacted_segments_total",
                     self.history.compacted_segments),
                ):
                    family(name, "counter")
                    metric(name, {}, value)

            family("fleet_rollup")
            for name, window in self.fleet_rollups.stats().items():
                stats = window.as_dict()
                for agg in _AGGS:
                    metric(
                        "fleet_rollup",
                        {"metric": name, "agg": agg},
                        stats[agg],
                    )

            family("job_up")
            for record in self.registry.jobs():
                live = (
                    record.state == "running"
                    and not self.registry.job_is_stale(record, now)
                )
                metric("job_up", {"job": record.job}, 1.0 if live else 0.0)
            family("job_rollup")
            for job in sorted(self._job_rollups):
                for name, window in self._job_rollups[job].stats().items():
                    stats = window.as_dict()
                    for agg in _AGGS:
                        metric(
                            "job_rollup",
                            {"job": job, "metric": name, "agg": agg},
                            stats[agg],
                        )

            family("node_stale")
            for record in self.registry.nodes():
                metric(
                    "node_stale",
                    {"node": record.node},
                    1.0 if self.registry.node_is_stale(record, now) else 0.0,
                )
            family("node_rollup")
            for node in sorted(self._node_rollups):
                for name, window in self._node_rollups[node].stats().items():
                    stats = window.as_dict()
                    for agg in _AGGS:
                        metric(
                            "node_rollup",
                            {"node": node, "metric": name, "agg": agg},
                            stats[agg],
                        )
            lines.append("# EOF")
            return "\n".join(lines) + "\n"
