"""The virtual-time sampler: a recurring simulation event.

:class:`TelemetryHub` owns one telemetry session: the series store,
the sinks, and the sampling loop.  Every ``interval`` seconds of
*virtual* time it snapshots

* per-rank counters from each registered ``Ipm`` (monitored-event
  rate, MPI time fraction, per-rank GPU busy fraction,
  ``@CUDA_HOST_IDLE`` fraction, memcpy bytes/s by direction,
  hash-table occupancy and collisions);
* per-GPU engine activity from each registered device (compute-engine
  busy fraction, kernel retirement rate, copy-engine bytes/s by
  direction);
* per-node rollups aggregating the rank series of co-located ranks
  and the node's devices.

Monotonic totals become rates by delta against the previous tick.

Ticks run off a *sample plan* (:class:`_SamplePlan`), built on the
first tick after any registration: the series of the tick in order,
each with its canonical labels and the store ring it appends to; the
rank counters, hash tables and GPUs to read; the value offsets the node
rollups average; and the previous totals in flat slots.  A tick is then
one pass of rate arithmetic plus appends — no label dicts, sorting or
store lookups per point.  Source objects are resolved when the plan is
built, so register a rank once its ``Ipm`` is fully constructed.

Scheduling protocol: the tick reschedules itself only while (a) the
``keep_running`` predicate holds (the job runner passes "any rank
still alive") and (b) the event heap holds at least one other event.
Condition (b) is what preserves the simulator's deadlock detection —
without it a perpetual sampler event would keep ``Simulator.run``
spinning forever on a deadlocked job.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING,
)

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.series import LabelSet, SamplePoint, TimeSeriesStore
from repro.telemetry.sinks import TelemetrySink, make_sinks

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ipm import Ipm
    from repro.cluster.node import Node
    from repro.simt.simulator import Simulator

#: tick priority — large, so a tick observes every same-timestamp
#: event's effects (lower priorities run first).
TICK_PRIORITY = 1_000_000

#: JSONL/OpenMetrics metadata schema tag.
META_SCHEMA = "ipm-repro/telemetry/v1"

#: per-rank series of a rank with telemetry counters, in tick order.
_RANK_SERIES = (
    "ipm_events_per_sec",
    "ipm_errors_per_sec",
    "ipm_errors_total",
    "ipm_mpi_fraction",
    "ipm_gpu_busy_fraction",
    "ipm_host_idle_fraction",
    "ipm_copy_h2d_bytes_per_sec",
    "ipm_copy_d2h_bytes_per_sec",
    "ipm_launches_per_sec",
)
#: offsets of the series the node rollups average within _RANK_SERIES.
_RANK_MPI = _RANK_SERIES.index("ipm_mpi_fraction")
_RANK_IDLE = _RANK_SERIES.index("ipm_host_idle_fraction")
#: hash-table series, emitted for every rank.
_TABLE_SERIES = ("ipm_hash_occupancy", "ipm_hash_collisions_total")
_GPU_SERIES = (
    "gpu_busy_fraction",
    "gpu_kernels_per_sec",
    "gpu_copy_h2d_bytes_per_sec",
    "gpu_copy_d2h_bytes_per_sec",
)
#: node rollups over member ranks (after node_gpu_busy_fraction).
_NODE_RANK_SERIES = (
    "node_events_per_sec",
    "node_mpi_fraction",
    "node_host_idle_fraction",
)
#: previous-total keys per source, in :meth:`RankCounters.totals` order
#: for ranks and the order the tick reads a GPU's totals.
_RANK_PREV = (
    "rk.ev", "rk.err", "rk.mpi", "rk.kern", "rk.idle", "rk.h2d", "rk.d2h",
    "rk.lnch",
)
_GPU_PREV = ("gpu.busy", "gpu.kern", "gpu.h2d", "gpu.d2h")


class _SamplePlan:
    """What one tick reads and writes, resolved once per registration set.

    ``keys``/``appends`` are the series in tick order: (name, canonical
    labels) and the ring append (:meth:`TimeSeries.appender`) of each.
    ``ranks`` is ``(counters or None, hash table)`` per registration,
    ``devices`` the GPUs by id, and ``nodes`` per hostname the value
    offsets its rollups average: GPU busy, then the member ranks'
    events, MPI and host-idle series.  ``prev`` holds the previous
    totals flat, keyed by ``prev_keys``.
    """

    __slots__ = (
        "keys", "appends", "ranks", "devices", "nodes", "prev", "prev_keys",
    )

    def __init__(self) -> None:
        self.keys: List[Tuple[str, LabelSet]] = []
        self.appends: List[Callable[[Tuple[float, float]], None]] = []
        self.ranks: List[tuple] = []
        self.devices: List[Any] = []
        self.nodes: List[tuple] = []
        self.prev: List[float] = []
        self.prev_keys: List[tuple] = []


class TelemetryHub:
    """One telemetry session: store + sinks + the sampling loop."""

    def __init__(
        self,
        sim: "Simulator",
        config: Optional[TelemetryConfig] = None,
        meta: Optional[Dict] = None,
        sinks: Optional[Sequence[TelemetrySink]] = None,
    ) -> None:
        self.sim = sim
        self.config = config or TelemetryConfig(enabled=True)
        self.store = TimeSeriesStore(retention=self.config.retention)
        self.sinks: List[TelemetrySink] = (
            list(sinks) if sinks is not None else make_sinks(self.config)
        )
        self.meta: Dict = {"schema": META_SCHEMA, "interval": self.config.interval}
        if meta:
            self.meta.update(meta)
        #: (rank, ipm, node-or-None) registrations, in rank order.
        self._ranks: List[tuple] = []
        #: device_id -> device, discovered from registered nodes.
        self._devices: Dict[int, Any] = {}
        #: hostname -> node, for the rollups.
        self._nodes: Dict[str, Any] = {}
        #: previous totals of sources dropped with an old plan.
        self._prev: Dict[tuple, float] = {}
        self._plan: Optional[_SamplePlan] = None
        self._last_t: Optional[float] = None
        self._keep_running: Optional[Callable[[], bool]] = None
        self._opened = False
        self._finished = False
        self.ticks = 0

    # -- registration ---------------------------------------------------

    def register_rank(
        self, rank: int, ipm: "Ipm", node: Optional["Node"] = None
    ) -> None:
        """Register one monitored rank (and its node's GPUs, if given)."""
        if any(r == rank for r, _ipm, _node in self._ranks):
            raise ValueError(f"rank {rank} is already registered")
        self._invalidate()
        self._ranks.append((rank, ipm, node))
        if node is not None:
            self.register_node(node)

    def register_node(self, node: "Node") -> None:
        self._invalidate()
        self._nodes.setdefault(node.hostname, node)
        for dev in node.devices:
            self._devices.setdefault(dev.device_id, dev)

    # -- lifecycle ------------------------------------------------------

    def _ensure_open(self) -> None:
        if not self._opened:
            self._opened = True
            meta = dict(self.meta)
            try:  # record the §III-C blocking set if it has been identified
                from repro.core.hostidle import cached_blocking_set

                blocking = cached_blocking_set()
                if blocking is not None:
                    meta["blocking_calls"] = sorted(blocking)
            except ImportError:  # pragma: no cover - core always present
                pass
            for sink in self.sinks:
                sink.open(meta)

    def start(self, keep_running: Optional[Callable[[], bool]] = None) -> None:
        """Open the sinks and schedule the first tick."""
        self._ensure_open()
        self._keep_running = keep_running
        self._last_t = self.sim.now
        self.sim.schedule(
            self.config.interval, self._tick, priority=TICK_PRIORITY
        )

    def _tick(self) -> None:
        self.sample_now()
        # Reschedule only while the job is live AND other events exist:
        # an otherwise-empty heap means completion or deadlock, and in
        # both cases the sampler must let the run loop terminate.
        alive = self._keep_running is None or self._keep_running()
        if alive and bool(self.sim.heap):
            self.sim.schedule(
                self.config.interval, self._tick, priority=TICK_PRIORITY
            )

    def sample_now(self, t: Optional[float] = None) -> List[SamplePoint]:
        """Take one sample at time ``t`` (default: the virtual now).

        Public so callers without a running simulation (benchmarks,
        interactive use) can drive the sampler by hand.
        """
        self._ensure_open()
        if t is None:
            t = self.sim.now
        if self._last_t is None:
            self._last_t = t
        dt = t - self._last_t
        self._last_t = t
        points = self._collect(t, dt)
        for sink in self.sinks:
            sink.emit(t, points)
        self.ticks += 1
        return points

    def finish(self) -> None:
        """Take a closing sample (if time advanced) and close the sinks."""
        if self._finished:
            return
        self._finished = True
        self._ensure_open()
        if self._last_t is None or self.sim.now > self._last_t:
            self.sample_now()
        for sink in self.sinks:
            sink.close()

    # -- collection -----------------------------------------------------

    def _invalidate(self) -> None:
        """Drop the sample plan; the next tick rebuilds it.

        The plan's previous totals are parked in :attr:`_prev` (keyed
        on source) so the rebuilt plan resumes every existing rate.
        """
        plan = self._plan
        if plan is not None:
            self._prev.update(zip(plan.prev_keys, plan.prev))
            self._plan = None

    def _build_plan(self) -> "_SamplePlan":
        plan = _SamplePlan()
        keys = plan.keys
        prev_keys = plan.prev_keys
        # values-list offset of each rank's first series, per hostname
        members: Dict[str, List[int]] = {}
        for rank, ipm, node in self._ranks:
            lbl = (("rank", str(rank)),)
            tele = ipm.tele
            if tele is not None:
                if node is not None:
                    members.setdefault(node.hostname, []).append(len(keys))
                keys.extend((name, lbl) for name in _RANK_SERIES)
                prev_keys.extend((kind, rank) for kind in _RANK_PREV)
            keys.extend((name, lbl) for name in _TABLE_SERIES)
            plan.ranks.append((tele, ipm.table))
        gpu_offset: Dict[int, int] = {}
        for dev_id in sorted(self._devices):
            lbl = (("gpu", str(dev_id)),)
            gpu_offset[dev_id] = len(keys)
            keys.extend((name, lbl) for name in _GPU_SERIES)
            prev_keys.extend((kind, dev_id) for kind in _GPU_PREV)
            plan.devices.append(self._devices[dev_id])
        for hostname in sorted(self._nodes):
            lbl = (("node", hostname),)
            node = self._nodes[hostname]
            busy = tuple(gpu_offset[d.device_id] for d in node.devices)
            if busy:
                keys.append(("node_gpu_busy_fraction", lbl))
            ranks = tuple(members.get(hostname, ()))
            if ranks:
                keys.extend((name, lbl) for name in _NODE_RANK_SERIES)
            plan.nodes.append((
                busy,
                ranks,
                tuple(o + _RANK_MPI for o in ranks),
                tuple(o + _RANK_IDLE for o in ranks),
            ))
        plan.appends = [
            self.store.series_for(n, l).appender() for n, l in keys
        ]
        plan.prev = [self._prev.get(k, 0.0) for k in prev_keys]
        return plan

    def _collect(self, t: float, dt: float) -> List[SamplePoint]:
        plan = self._plan
        if plan is None:
            plan = self._plan = self._build_plan()

        # every monotonic total, in prev-slot order, then all rates at once
        cur: List[float] = []
        for tele, _table in plan.ranks:
            if tele is not None:
                cur.extend(tele.totals())
        for dev in plan.devices:
            compute = dev.compute
            copies = dev.copy_bytes
            cur.extend((
                compute.busy_time_at(t),
                float(compute.kernels_executed),
                float(copies.get("h2d", 0)),
                float(copies.get("d2h", 0)),
            ))
        if dt > 0:
            rates = [(c - p) / dt for c, p in zip(cur, plan.prev)]
        else:
            rates = [0.0] * len(cur)
        plan.prev = cur

        # values in series order (see _RANK_SERIES etc.)
        values: List[float] = []
        push = values.extend
        k = 0
        for tele, table in plan.ranks:
            if tele is not None:
                push((
                    rates[k],  # events
                    rates[k + 1],  # errors
                    cur[k + 1],  # errors total
                    rates[k + 2],  # MPI time
                    rates[k + 3],  # kernel time
                    rates[k + 4],  # host-idle time
                    rates[k + 5],  # H2D bytes
                    rates[k + 6],  # D2H bytes
                    rates[k + 7],  # launches
                ))
                k += len(_RANK_PREV)
            push((table.entries / table.capacity, float(table.collisions)))
        push(rates[k:])  # per GPU: busy, kernels, H2D, D2H
        get = values.__getitem__
        for busy, ranks, mpi, idle in plan.nodes:
            if busy:
                values.append(sum(map(get, busy)) / len(busy))
            if ranks:
                n = len(ranks)
                push((
                    sum(map(get, ranks)),
                    sum(map(get, mpi)) / n,
                    sum(map(get, idle)) / n,
                ))

        for append, value in zip(plan.appends, values):
            append((t, value))
        new = tuple.__new__
        return [
            new(SamplePoint, (t, name, labels, value))
            for (name, labels), value in zip(plan.keys, values)
        ]

    # -- convenience ----------------------------------------------------

    def sink(self, name: str) -> Optional[TelemetrySink]:
        """The first sink of a given registered name, if present."""
        for s in self.sinks:
            if getattr(s, "name", None) == name:
                return s
        return None
