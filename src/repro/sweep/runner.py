"""`SweepRunner`: execute many job specs, in parallel, through a cache.

The paper's figures are all *sweeps* — the same deterministic
simulation re-run across ranks, GPU counts, seeds and monitoring
configurations.  The runner exploits the two properties that makes
cheap:

* **independence** — specs share nothing at runtime, so they fan out
  onto a pool of persistent *warm workers*
  (:class:`~repro.sweep.warmpool.WarmWorkerPool`: long-lived children
  that import the simulation stack once and serve one spec at a time
  over a pipe; nothing mutable crosses the process boundary);
* **determinism** — a spec maps to one byte-exact
  :class:`~repro.core.report.JobReport`, so results are content-
  addressed by ``spec.content_hash()`` and replayed from disk on the
  next invocation.

Every spec takes one path: ``retries + 1`` attempts at most, each
contained, ending in one terminal state from
:data:`repro.errors.STATUSES` that lands in
:attr:`~repro.sweep.report.SweepResult.status`.  A crashing, hanging
or deadlocking spec never raises out of :meth:`SweepRunner.run` — the
sweep always *completes* and reports.  An attempt runs inline when
``mode="serial"``, or when there is no ``timeout`` and either one
worker or at most one runnable spec; otherwise it runs on a borrowed
warm worker (one kill contains one spec; a dead or hung worker is
replaced, not mourned), and ``mode="auto"`` degrades to inline when
the pool cannot be stood up.  Results are byte-identical wherever the
attempt ran (pinned by test).

The supervision knobs layer onto that path: a wall-clock ``timeout``
kills a hung worker and marks the spec ``timeout``, the simulator's
:class:`~repro.simt.simulator.LivenessLimits` watchdog converts
livelock into ``livelock``, ``retries`` re-run infrastructural
failures with host-clock backoff through
:func:`repro.faults.retry.retry_with_backoff`, and ``resume`` journals
every transition (:class:`~repro.sweep.journal.SweepJournal`) so a
re-run replays finished work from cache+journal and quarantines specs
that keep failing.

The pool is *persistent*: it outlives one ``run()`` call, so repeated
sweeps through the same runner reuse the warmed-up children.  It is
torn down by :meth:`SweepRunner.close` (the runner is a context
manager), when the runner is garbage-collected, and hard-killed on
KeyboardInterrupt — a Ctrl-C'd sweep leaves no children behind and
its journal stays resumable.
"""

from __future__ import annotations

import os
import pickle
import time as _time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    QuarantinedSpec,
    SpecTimeout,
    WorkerCrashed,
    classify_error,
)
from repro.faults.retry import RetriesExhausted, retry_with_backoff
from repro.simt.simulator import LivenessLimits
from repro.sweep import events as _events
from repro.sweep.cache import ResultCache, pickle_report
from repro.sweep.journal import SweepJournal
from repro.sweep.report import SweepReport, SweepResult
from repro.sweep.spec import JobSpec
from repro.sweep.warmpool import WarmWorkerPool, WorkerPoolBroken

#: executor modes: "auto" tries a process pool and falls back serial.
MODES = ("auto", "process", "serial")

#: statuses worth a bounded retry: they smell infrastructural (a dead
#: worker, an exceeded deadline, an unclassified error) rather than a
#: deterministic property of the spec (a deadlock will deadlock again).
RETRYABLE_STATUSES = frozenset({"crashed", "timeout", "failed"})

#: base host-clock seconds between retries (doubling each attempt).
RETRY_BACKOFF = 0.05

#: payload a worker returns: (report pickle, wallclock, events, xml).
_WorkerOut = Tuple[bytes, float, int, Optional[str]]

#: payload of a spec that produced nothing (failed / quarantined).
_EMPTY_OUT: _WorkerOut = (b"", 0.0, 0, None)


def _default_workers() -> int:
    return max(1, min(8, (os.cpu_count() or 2) - 1))


def execute_spec_json(
    spec_json: str,
    want_xml: bool,
    liveness: Optional[LivenessLimits] = None,
    fleet: Optional[Tuple[object, ...]] = None,
) -> _WorkerOut:
    """Run one spec from its JSON form (the worker-side entry point).

    Top-level so a warm worker can look it up by reference; also the
    inline path, so both placements share one code path and the
    report bytes are produced identically either way.  ``liveness``
    arms the simulator's watchdog (runtime policy, not part of the
    spec's identity).  ``fleet`` is a
    ``(target, job_id)`` pair — or ``(target, job_id, spool_dir)``
    with a non-None ``spool_dir`` for durable (spooled, zero-loss)
    publishing: when the spec's telemetry is enabled, a
    :class:`~repro.fleet.sink.FleetSink` streams its samples to the
    aggregator at ``target`` live.  Both are runtime policy — neither
    touches the spec's content hash or the report bytes (pinned by
    test).
    """
    from repro.cluster.jobs import run_job

    spec = JobSpec.from_json(spec_json)
    extra_sinks = None
    if (
        fleet is not None
        and spec.ipm is not None
        and spec.ipm.telemetry.enabled
    ):
        from repro.fleet.sink import FleetSink

        target, job_id = fleet[0], fleet[1]
        spool_dir = fleet[2] if len(fleet) > 2 else None
        extra_sinks = [FleetSink(
            target, job_id, source="sweep", spool_dir=spool_dir,
        )]
    result = run_job(spec, liveness=liveness, extra_sinks=extra_sinks)
    report_pickle = b""
    xml_text: Optional[str] = None
    if result.report is not None:
        report_pickle = pickle_report(result.report)
        if want_xml:
            import io

            from repro.core.xmlog import job_to_xml
            from xml.etree import ElementTree as ET

            tree = ET.ElementTree(job_to_xml(result.report))
            ET.indent(tree)
            buf = io.StringIO()
            tree.write(buf, encoding="unicode", xml_declaration=True)
            xml_text = buf.getvalue()
    return (report_pickle, result.wallclock, result.events_executed, xml_text)


@dataclass
class _Outcome:
    """One attempt's terminal state, and whether it ran inline."""

    status: str
    payload: Optional[_WorkerOut] = None
    error: Optional[str] = None
    inline: bool = False


@dataclass
class _Settled:
    """A finished spec inside ``run()``."""

    payload: _WorkerOut
    from_cache: bool
    status: str = "ok"
    error: Optional[str] = None
    attempts: int = 1
    inline: bool = False


class SweepRunner:
    """Runs batches of :class:`JobSpec` with parallelism and caching.

    The keyword-only supervision knobs (all off by default; a failing
    spec is a status with or without them):

    ``timeout``
        wall-clock seconds one attempt may take before its worker is
        killed and the spec marked ``timeout``.  Setting it puts every
        attempt on a warm worker (unless ``mode="serial"``: the
        in-process path cannot preempt a hard hang).
    ``retries``
        extra attempts for specs ending in a
        :data:`RETRYABLE_STATUSES` state, with exponential host-clock
        backoff (:data:`RETRY_BACKOFF` base seconds) via
        :func:`~repro.faults.retry.retry_with_backoff`.
    ``liveness``
        :class:`~repro.simt.simulator.LivenessLimits` armed inside
        every attempt's simulator — livelock becomes ``livelock``.
    ``resume``
        needs a cache: a :class:`~repro.sweep.journal.SweepJournal`
        next to it records every status transition, and the run
        re-runs only specs that never reached ``ok`` and quarantines
        specs with ``quarantine_after``+ recorded failures.
    ``fleet``
        a fleet aggregator's ingest address (``"host:port"``): per-spec
        lifecycle records (start/finish/status/attempts) stream there
        live through one :class:`~repro.fleet.sink.ResilientClient`,
        flushed before ``run()`` returns, and specs whose telemetry is
        enabled additionally attach a
        :class:`~repro.fleet.sink.FleetSink` so their samples stream
        too.  Observability only — it does not change which specs run,
        where they run, the cache keys, or any report byte.  Close the
        runner (or use it as a context manager) so its last records
        are delivered.
    ``fleet_spool``
        a directory (needs ``fleet``): publishers become *durable* —
        records spool to disk while the aggregator is unreachable and
        replay on reconnect with sequence numbers the aggregator
        dedups, so an aggregator crash mid-sweep loses nothing.  The
        end of ``run()`` drains whatever is still spooled (see
        :attr:`fleet_drain`), and ``python -m repro fleet drain`` can
        deliver leftovers later.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        mode: str = "auto",
        *,
        timeout: Optional[float] = None,
        retries: int = 0,
        quarantine_after: Optional[int] = 3,
        liveness: Optional[LivenessLimits] = None,
        resume: bool = False,
        fleet: Optional[str] = None,
        fleet_spool: Optional[str] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; known: {list(MODES)}")
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be positive: {workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive: {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0: {retries}")
        if quarantine_after is not None and quarantine_after <= 0:
            raise ValueError(
                f"quarantine_after must be positive or None: {quarantine_after}"
            )
        self.workers = workers if workers is not None else _default_workers()
        self.cache = cache
        self.mode = mode
        self.timeout = timeout
        self.retries = retries
        self.quarantine_after = quarantine_after
        self.liveness = liveness if liveness is not None and liveness.active \
            else None
        if resume and cache is None:
            raise ValueError(
                "resume=True needs a cache (the journal lives next to it)"
            )
        #: the resume journal; None unless ``resume``.
        self.journal: Optional[SweepJournal] = (
            SweepJournal.for_cache(cache) if resume else None
        )
        if fleet_spool is not None and fleet is None:
            raise ValueError("fleet_spool needs fleet (it spools the "
                             "fleet stream)")
        #: fleet aggregator ingest address ("host:port") — lifecycle
        #: records stream there and workers attach FleetSinks; pure
        #: observability, results stay byte-identical (pinned by test).
        self.fleet = fleet
        #: spool directory for durable fleet publishing (zero loss
        #: across aggregator outages); None = fire-and-forget.
        self.fleet_spool = fleet_spool
        #: outcome of the end-of-run spool drain, for inspection:
        #: {"spools", "delivered", "pending", "details"} or None.
        self.fleet_drain: Optional[Dict[str, object]] = None
        self._fleet_client = None
        #: lazily-created persistent worker pool; reused across run()
        #: calls so repeated sweeps skip child start-up entirely.
        self._pool: Optional[WarmWorkerPool] = None
        #: set on interrupt/failure teardown so in-flight attempt
        #: threads stop borrowing workers instead of respawning them.
        self._tearing_down = False

    # -- warm-pool lifecycle ----------------------------------------------

    def _ensure_pool(self, need: int) -> WarmWorkerPool:
        """Return the persistent pool, creating/growing it to fit ``need``."""
        if self._tearing_down:
            raise WorkerPoolBroken("runner is tearing down")
        target = max(1, min(self.workers, need))
        pool = self._pool
        if pool is None or pool.closed:
            pool = WarmWorkerPool(target)
            self._pool = pool
            # belt-and-braces: if the runner is garbage-collected with
            # the pool still up, kill the children rather than leak them.
            weakref.finalize(self, pool.terminate)
        else:
            pool.grow(target)
        return pool

    def _teardown_pool(self) -> None:
        """Hard-kill the pool (interrupt / fatal-error path)."""
        self._tearing_down = True
        if self._pool is not None:
            self._pool.terminate()

    def close(self) -> None:
        """Gracefully shut down the persistent worker pool."""
        if self._pool is not None:
            self._pool.close()
        if self._fleet_client is not None:
            self._fleet_client.close()
            self._fleet_client = None

    # -- lifecycle events --------------------------------------------------

    def _notify(self, record: Dict[str, object]) -> None:
        """Publish one lifecycle record (log always, fleet when set)."""
        _events.log_event(record)
        if self.fleet is None:
            return
        client = self._fleet_client
        if client is None:
            from repro.fleet.sink import ResilientClient

            spooled = self.fleet_spool is not None
            client = self._fleet_client = ResilientClient(
                self.fleet,
                label="sweep lifecycle",
                # a spooled stream resumes its (pub, seq) axis; a
                # queue-only one restarts at seq 0 and must not reuse
                # a pub, or the aggregator dedups it as a replay.
                pub="sweep:lifecycle" if spooled else None,
                spool_dir=self.fleet_spool,
            )
        client.send(record)

    def _flush_fleet(self) -> None:
        """Put the fleet stream on the wire before ``run`` returns.

        Without a spool, this waits for the lifecycle client to send
        its queue.  With one, it also delivers records worker sinks
        left spooled: a worker whose aggregator vanished mid-spec
        closes its durable sink with the backlog still on disk; once
        the aggregator is back, this hands every orphaned publisher
        stream to it exactly once (sequence numbers dedup any
        overlap).  Best-effort: an aggregator still down leaves the
        spools for ``fleet drain``.
        """
        if self.fleet is None:
            return
        if self.fleet_spool is None:
            if self._fleet_client is not None:
                self._fleet_client.flush()
            return
        from repro.fleet.sink import drain_spool_dir
        from repro.fleet.spool import pending_spools

        # the live lifecycle client owns its spool file — flush and
        # release it before the scan so the drain never opens a spool
        # a second writer still holds.
        if self._fleet_client is not None:
            self._fleet_client.close()
            self._fleet_client = None
        if not pending_spools(self.fleet_spool):
            self.fleet_drain = None
            return
        self.fleet_drain = drain_spool_dir(
            self.fleet, self.fleet_spool, timeout=10.0
        )

    def _fleet_item(self, key: str) -> Optional[Tuple[str, ...]]:
        """What a worker needs to attach a FleetSink (opaque to the
        pool): ``(target, job)`` plus the spool dir when durable."""
        if self.fleet is None:
            return None
        if self.fleet_spool is None:
            return (self.fleet, key)
        return (self.fleet, key, self.fleet_spool)

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public API -------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> SweepReport:
        """Execute ``specs``; results come back in submission order.

        Duplicate specs (same content hash) are simulated once and
        fanned out; cached specs are not simulated at all.  A failing
        spec lands in its result's ``status``/``error``, never as an
        exception; only an interrupt, a non-JobSpec input and (with
        ``mode="process"``) a worker pool that cannot be used raise.
        """
        t0 = _time.perf_counter()
        specs = list(specs)
        for i, spec in enumerate(specs):
            if not isinstance(spec, JobSpec):
                raise TypeError(
                    f"specs[{i}] is not a JobSpec: {type(spec).__name__}"
                )
            if not spec.serializable:
                raise TypeError(
                    f"specs[{i}] wraps a raw callable and cannot be swept; "
                    "name a registered app instead (repro.sweep.registry)"
                )
        hits0 = self.cache.hits if self.cache else 0
        misses0 = self.cache.misses if self.cache else 0

        #: hash -> finished outcome.
        done: Dict[str, _Settled] = {}
        unique: Dict[str, JobSpec] = {}
        order: List[str] = []
        for spec in specs:
            key = spec.content_hash()
            order.append(key)
            if key in done or key in unique:
                continue
            record = self.cache.lookup(spec) if self.cache else None
            if record is not None:
                done[key] = _Settled(
                    (record.report_pickle, record.wallclock,
                     record.events_executed, None),
                    from_cache=True,
                    attempts=0,
                )
                self._notify(_events.spec_finish(
                    key, "ok", attempts=0, from_cache=True,
                    wallclock=record.wallclock,
                ))
            else:
                unique[key] = spec

        self._tearing_down = False
        try:
            mode_used = self._execute(unique, done)
            self._flush_fleet()
        except BaseException:
            # interrupt or fatal error mid-sweep: kill the warm workers
            # before unwinding so a Ctrl-C'd sweep leaves no children
            # behind (the journal keeps its "start" entries → resumable).
            self._teardown_pool()
            raise

        results: List[SweepResult] = []
        reports: Dict[str, object] = {}
        for spec, key in zip(specs, order):
            settled = done[key]
            report_pickle, wallclock, events, _xml = settled.payload
            if key not in reports:
                reports[key] = (
                    pickle.loads(report_pickle) if report_pickle else None
                )
            results.append(SweepResult(
                spec=spec,
                spec_hash=key,
                report=reports[key],
                wallclock=wallclock,
                events_executed=events,
                from_cache=settled.from_cache,
                report_pickle=report_pickle,
                status=settled.status,
                error=settled.error,
                attempts=settled.attempts,
            ))
        return SweepReport(
            results=results,
            cache_hits=(self.cache.hits - hits0) if self.cache else 0,
            cache_misses=(self.cache.misses - misses0) if self.cache else 0,
            host_seconds=_time.perf_counter() - t0,
            workers=self.workers,
            mode=mode_used,
            executed=len(unique),
        )

    # -- execution -------------------------------------------------------

    def _execute(
        self,
        pending: Dict[str, JobSpec],
        done: Dict[str, _Settled],
    ) -> str:
        """Settle every pending spec into ``done``; returns the mode.

        The mode is ``"serial"`` if any executed spec finished inline
        (or none executed), else ``"process"``.
        """
        history = self.journal.replay() if self.journal is not None else {}
        runnable: Dict[str, JobSpec] = {}
        for key, spec in pending.items():
            entry = history.get(key)
            if (
                self.quarantine_after is not None
                and entry is not None
                and entry.failures >= self.quarantine_after
            ):
                exc = QuarantinedSpec(key, entry.failures)
                self.journal.record(key, "quarantined", error=str(exc))
                done[key] = _Settled(
                    _EMPTY_OUT, False,
                    status="quarantined", error=str(exc), attempts=0,
                )
                self._notify(_events.spec_finish(
                    key, "quarantined", attempts=0, error=str(exc)
                ))
            else:
                runnable[key] = spec
        inline = self.mode == "serial" or (
            self.timeout is None
            and (self.workers <= 1 or len(runnable) <= 1)
        )
        threads = 1 if inline else min(self.workers, len(runnable))
        if threads <= 1:
            for key, spec in runnable.items():
                done[key] = self._supervise_one(key, spec, inline)
        else:
            try:
                # stand the warm pool up once, before the attempt
                # threads race to borrow workers from it.
                self._ensure_pool(len(runnable))
            except (OSError, WorkerPoolBroken):
                pass  # each attempt degrades (or raises) on its own
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = {
                    key: pool.submit(self._supervise_one, key, spec, False)
                    for key, spec in runnable.items()
                }
                try:
                    for key, future in futures.items():
                        done[key] = future.result()
                except BaseException:
                    # interrupt while attempt threads block on worker
                    # pipes: kill the workers *inside* the with-block,
                    # or shutdown(wait=True) would deadlock waiting on
                    # threads stuck in conn.poll().
                    self._teardown_pool()
                    raise
        placed = [done[key].inline for key in runnable]
        return "process" if placed and not any(placed) else "serial"

    def _store(self, spec: JobSpec, payload: _WorkerOut) -> None:
        if self.cache is None:
            return
        report_pickle, wallclock, events, xml_text = payload
        self.cache.store(
            spec, report_pickle, wallclock, events, xml_text=xml_text
        )

    def _supervise_one(self, key: str, spec: JobSpec, inline: bool) -> _Settled:
        """All attempts of one spec: journal, retry, cache, one finish."""
        want_xml = self.cache is not None
        if self.journal is not None:
            self.journal.record(key, "start")
        self._notify(_events.spec_start(key))
        attempts = [0]

        def one_attempt() -> _Outcome:
            attempts[0] += 1
            if inline:
                return self._attempt_inline(spec, key, want_xml)
            return self._attempt(spec, key, want_xml)

        try:
            outcome = retry_with_backoff(
                None,
                one_attempt,
                attempts=self.retries + 1,
                base_delay=RETRY_BACKOFF,
                factor=2.0,
                is_retryable=lambda o: o.status in RETRYABLE_STATUSES,
            )
        except RetriesExhausted as exc:
            outcome = exc.last_result
        if self.journal is not None:
            self.journal.record(
                key, outcome.status, attempt=attempts[0], error=outcome.error
            )
        ok = outcome.status == "ok"
        if ok:
            self._store(spec, outcome.payload)
        self._notify(_events.spec_finish(
            key,
            outcome.status,
            attempts=attempts[0],
            wallclock=outcome.payload[1] if ok else None,
            error=outcome.error,
        ))
        return _Settled(
            outcome.payload if ok else _EMPTY_OUT, False,
            status=outcome.status, error=outcome.error, attempts=attempts[0],
            inline=outcome.inline,
        )

    def _attempt(self, spec: JobSpec, key: str, want_xml: bool) -> _Outcome:
        """One attempt on a warm worker, contained.

        Raises only in ``mode="process"`` when the pool cannot be used;
        ``mode="auto"`` degrades to an inline attempt instead.
        """
        try:
            return self._attempt_warm(spec, key, want_xml)
        except (OSError, WorkerPoolBroken):
            if self.mode == "process":
                raise
            if self._tearing_down:
                return _Outcome("crashed", None, "worker pool torn down")
            # cannot stand up / borrow from the warm pool (fork limits,
            # ...): degrade to the in-process attempt — crashes are
            # still contained, hard wall-clock hangs are not
            # (documented limitation).
            return self._attempt_inline(spec, key, want_xml)

    def _attempt_inline(
        self, spec: JobSpec, key: str, want_xml: bool
    ) -> _Outcome:
        try:
            payload = execute_spec_json(
                spec.to_json(), want_xml, liveness=self.liveness,
                fleet=self._fleet_item(key),
            )
        except Exception as exc:
            return _Outcome(
                classify_error(exc), None, f"{type(exc).__name__}: {exc}",
                inline=True,
            )
        return _Outcome("ok", payload, inline=True)

    def _attempt_warm(
        self, spec: JobSpec, key: str, want_xml: bool
    ) -> _Outcome:
        """Run one attempt on a borrowed warm worker; kill it on timeout.

        A healthy worker goes back into the pool for the next attempt;
        a hung or dead one is discarded (killed + replaced), so one bad
        spec costs one child restart, never the pool.
        """
        if self._tearing_down:
            return _Outcome("crashed", None, "worker pool torn down")
        pool = self._ensure_pool(1)
        worker = pool.checkout()
        healthy = False
        try:
            worker.conn.send(
                (key, spec.to_json(), want_xml, self.liveness,
                 self._fleet_item(key))
            )
            # poll(None) blocks until a message arrives or the worker
            # dies (EOF also makes the pipe readable).
            if not worker.conn.poll(self.timeout):
                exc = SpecTimeout(key, float(self.timeout))
                return _Outcome("timeout", None, str(exc))
            try:
                _tag, status, payload, error = worker.conn.recv()
            except (EOFError, OSError, pickle.UnpicklingError):
                worker.proc.join(5.0)
                exc = WorkerCrashed(key, worker.proc.exitcode)
                return _Outcome("crashed", None, str(exc))
            healthy = True
            return _Outcome(status, payload, error)
        except (BrokenPipeError, OSError):
            worker.proc.join(5.0)
            exc = WorkerCrashed(key, worker.proc.exitcode)
            return _Outcome("crashed", None, str(exc))
        finally:
            if healthy:
                pool.checkin(worker)
            else:
                pool.discard(worker)
