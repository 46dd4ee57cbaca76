"""Fleet aggregation: live multi-job telemetry ingest, rollups, queries.

The paper's end goal is *cluster-wide* monitoring — per-host GPU and
host metrics rolled up across a whole system, not one job's
post-mortem banner.  This package is that service layer on top of the
existing per-job telemetry:

* :mod:`repro.fleet.protocol` — the newline-delimited JSON wire
  format every publisher speaks;
* :class:`~repro.fleet.sink.FleetSink` — a telemetry sink that
  streams a running job's samples and lifecycle events to the
  aggregator over a socket;
* :mod:`repro.fleet.ingest` — the threaded socket listener plus a
  torn-write-tolerant JSONL tailer that replays existing sink files;
* :mod:`repro.fleet.rollup` — bounded streaming per-metric aggregates
  (count/sum/min/max/last over a downsampling bucket ring), plus the
  one :class:`~repro.fleet.rollup.SampleWindowFolder` that
  federation and history compaction both downsample samples with;
* :class:`~repro.fleet.registry.FleetRegistry` — job/node liveness
  with publish-interval staleness detection;
* :class:`~repro.fleet.store.FleetStore` — the thread-safe in-process
  query API composing all of the above;
* :class:`~repro.fleet.server.FleetHttpServer` — ``/metrics``
  (OpenMetrics), ``/jobs``, ``/jobs/<id>/rollups``, ``/nodes/<host>``;
* :class:`~repro.fleet.history.HistoryLog` — the durable layer: a
  segmented append-only NDJSON record log every accepted record tees
  into, replayed on startup (``fleet serve --data-dir``) so restarts
  resume the previous fleet state, with retention compaction that
  downsamples old segments instead of forgetting them;
* :class:`~repro.fleet.service.FleetAggregator` — the long-running
  service (``python -m repro fleet serve``).

The sweep runner streams into all of this with ``SweepRunner(...,
fleet="host:port")`` / ``python -m repro sweep --fleet`` — progress
becomes observable live instead of only via the journal, and fleet
mode off stays byte-identical (pinned by test).

The pipeline is *resilient* end to end: every publisher (job sinks,
the sweep lifecycle stream, forwarders, ``fleet drain``) is a
:class:`~repro.fleet.sink.ResilientClient` stream (bounded queue or
durable :class:`~repro.fleet.spool.Spool`, jittered reconnect,
per-record sequence stamps the head audits and acks), leaves federate
into heads via :class:`~repro.fleet.forward.FleetForwarder`, and the
seed-driven :mod:`repro.fleet.chaos` harness (refusal windows, torn
mid-line cuts, kill/restart) proves no accepted record is ever lost.
"""

from repro.fleet.chaos import ChaosPlan, ChaosProxy, tear_tail
from repro.fleet.forward import FleetForwarder
from repro.fleet.history import HistoryLog
from repro.fleet.ingest import IngestServer, JsonlTailIngester
from repro.fleet.protocol import FLEET_SCHEMA, decode_line, encode_record
from repro.fleet.registry import FleetRegistry, JobRecord, NodeRecord
from repro.fleet.rollup import MetricRollup, RollupRing, RollupSet, StatWindow
from repro.fleet.server import FleetHttpServer
from repro.fleet.service import FleetAggregator
from repro.fleet.sink import FleetSink, ResilientClient, drain_spool_dir
from repro.fleet.spool import Spool, pending_spools
from repro.fleet.store import FleetStore

__all__ = [
    "FLEET_SCHEMA",
    "ChaosPlan",
    "ChaosProxy",
    "FleetAggregator",
    "FleetForwarder",
    "FleetHttpServer",
    "FleetRegistry",
    "FleetSink",
    "FleetStore",
    "HistoryLog",
    "IngestServer",
    "JobRecord",
    "JsonlTailIngester",
    "MetricRollup",
    "NodeRecord",
    "ResilientClient",
    "RollupRing",
    "RollupSet",
    "Spool",
    "StatWindow",
    "decode_line",
    "drain_spool_dir",
    "encode_record",
    "pending_spools",
    "tear_tail",
]
