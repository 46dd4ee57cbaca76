"""Fleet-aggregator benchmark: concurrent ingest and live rollups.

The fleet aggregator's contract is that one process absorbs telemetry
from a whole sweep *while it runs*: hundreds of jobs holding sockets
open, samples folding into bounded rollup rings, and the query API
answering over HTTP throughout.  This benchmark measures that pipeline
at the acceptance scale:

* **synthetic ingest** — ``JOBS`` concurrent :class:`repro.FleetSink`
  publishers (one open socket each) stream ``TICKS`` samples apiece
  from ``PUBLISHERS`` threads; measured: samples/sec into the store,
  jobs/sec through the start->end lifecycle, and the ingest lag
  distribution (wall-clock from the publisher's ``hts`` stamp to the
  rollup fold).
* **live sweep** — a real ``SweepRunner(fleet=...)`` run of
  telemetry-enabled specs streaming into the same aggregator, with
  the ``/jobs`` and ``/metrics`` endpoints queried while it drains.
* **durable replay** — the synthetic workload again, teed into a
  :class:`repro.fleet.HistoryLog` (``fsync="never"``), then replayed
  into a fresh store the way ``fleet serve --data-dir`` restarts;
  measured: ``replay_records_per_sec`` against the live-ingest
  record rate, plus the on-disk footprint before/after retention
  compaction.
* **chaos recovery** — a durable publisher behind a
  :class:`repro.fleet.ChaosProxy` is partitioned mid-stream
  (disconnect -> spool), then healed (reconnect -> drain); measured:
  spool write throughput during the outage, ``recovery_seconds``
  from heal to full convergence, drain throughput, and
  ``records_lost`` — whose acceptance floor is exactly 0.

Results are written to ``BENCH_fleet.json`` at the repository root
(schema documented in EXPERIMENTS.md §Fleet).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--jobs N]

or via pytest with the other benchmarks (``pytest benchmarks/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import threading
import time
import urllib.request
from typing import Dict, List

from repro import IpmConfig, JobSpec, SweepRunner, TelemetryConfig
from repro.fleet import (
    ChaosPlan,
    ChaosProxy,
    FleetAggregator,
    FleetSink,
    FleetStore,
    HistoryLog,
    ResilientClient,
)
from repro.fleet.rollup import DEFAULT_RETENTION_TIERS
from repro.telemetry.series import SamplePoint

SCHEMA = "ipm-repro/bench-fleet/v3"

#: concurrent synthetic publishers — the acceptance floor is 200.
JOBS = 200

#: samples each synthetic job publishes.
TICKS = 10

#: publisher threads the synthetic jobs are sharded across.
PUBLISHERS = 8

#: telemetry-enabled specs for the live sweep phase.
SWEEP_JOBS = 6

#: records published into the spool during the chaos outage.
CHAOS_RECORDS = 2000


def _point(t: float, name: str, value: float, **labels) -> SamplePoint:
    return SamplePoint(
        t, name, tuple(sorted((k, str(v)) for k, v in labels.items())), value
    )


def _wait(cond, timeout: float = 120.0, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(interval)
    return cond()


def _publish(sinks: List[FleetSink], ticks: int) -> None:
    for sink in sinks:
        sink.open({"ntasks": 1})
    for tick in range(ticks):
        t = tick * 0.05
        for i, sink in enumerate(sinks):
            sink.emit(t, [
                _point(t, "gpu_busy_fraction", 0.5, gpu=0),
                _point(t, "node_gpu_busy_fraction", 0.5,
                       node=f"dirac{i % 16:02d}"),
            ])
    for sink in sinks:
        sink.set_job_outcome("ok")
        sink.close()


def _synthetic_phase(jobs: int, ticks: int, publishers: int) -> Dict:
    with FleetAggregator() as agg:
        sinks = [
            FleetSink(agg.ingest_address, job=f"bench-{i:04d}")
            for i in range(jobs)
        ]
        shards = [sinks[i::publishers] for i in range(publishers)]
        threads = [
            threading.Thread(target=_publish, args=(shard, ticks))
            for shard in shards if shard
        ]
        store = agg.store
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        landed = _wait(lambda: store.samples >= jobs * ticks)
        ingest_s = time.perf_counter() - t0
        finished = _wait(
            lambda: store.registry.counts()["finished"] >= jobs
        )
        lifecycle_s = time.perf_counter() - t0
        lag = store.lag
        return {
            "jobs": jobs,
            "ticks_per_job": ticks,
            "publisher_threads": publishers,
            "samples": store.samples,
            "points": store.points,
            "all_samples_landed": bool(landed),
            "all_jobs_finished": bool(finished),
            "parse_errors": store.parse_errors,
            "dropped_records": store.dropped,
            "ingest_seconds": round(ingest_s, 3),
            "samples_per_sec": round(store.samples / ingest_s, 1),
            "jobs_per_sec": round(jobs / lifecycle_s, 1),
            "rollup_lag_avg_seconds": round(lag.avg, 6) if lag.count else None,
            "rollup_lag_max_seconds": round(lag.max, 6) if lag.count else None,
        }


def _sweep_phase(jobs: int) -> Dict:
    specs = [
        JobSpec(
            app="square", ntasks=2, seed=500 + i,
            ipm=IpmConfig(telemetry=TelemetryConfig(
                enabled=True, sinks=("memory",),
            )),
        )
        for i in range(jobs)
    ]
    with FleetAggregator() as agg:
        t0 = time.perf_counter()
        with SweepRunner(mode="serial", fleet=agg.ingest_address) as runner:
            report = runner.run(specs)
        store = agg.store
        finished = _wait(
            lambda: store.registry.counts()["finished"] >= jobs
        )
        sweep_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        with urllib.request.urlopen(agg.http_url + "/jobs",
                                    timeout=10.0) as resp:
            payload = json.loads(resp.read())
        jobs_query_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        with urllib.request.urlopen(agg.http_url + "/metrics",
                                    timeout=10.0) as resp:
            metrics = resp.read().decode("utf-8")
        metrics_query_s = time.perf_counter() - t0
        return {
            "jobs": jobs,
            # asserted by check_result: run() reports a failed spec
            # as a status, it never raises.
            "all_ok": report.ok,
            "all_jobs_finished": bool(finished),
            "streamed_samples": store.samples,
            "sweep_seconds": round(sweep_s, 3),
            "jobs_per_sec": round(jobs / sweep_s, 2),
            "jobs_query_seconds": round(jobs_query_s, 4),
            "metrics_query_seconds": round(metrics_query_s, 4),
            "metrics_openmetrics_terminated": metrics.endswith("# EOF\n"),
            "queried_finished": payload["counts"]["finished"],
        }


def _replay_phase(jobs: int, ticks: int, publishers: int) -> Dict:
    data_dir = tempfile.mkdtemp(prefix="bench-fleet-history-")
    try:
        # live ingest, teed into the history log the way
        # `fleet serve --data-dir` runs (fsync off to measure the
        # pipeline, not the disk).
        with FleetAggregator(
            data_dir=data_dir, fsync="never", compact_interval=0.0,
        ) as agg:
            sinks = [
                FleetSink(agg.ingest_address, job=f"bench-{i:04d}")
                for i in range(jobs)
            ]
            shards = [sinks[i::publishers] for i in range(publishers)]
            threads = [
                threading.Thread(target=_publish, args=(shard, ticks))
                for shard in shards if shard
            ]
            store = agg.store
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            _wait(lambda: store.registry.counts()["finished"] >= jobs)
            live_s = time.perf_counter() - t0
            live_records = store.records
            live_samples = store.samples

        # restart path: a fresh store rebuilt from the log alone.
        replay_store = FleetStore(tiers=DEFAULT_RETENTION_TIERS)
        log = HistoryLog(data_dir, fsync="never")
        t0 = time.perf_counter()
        replayed = replay_store.attach_history(log)
        replay_s = time.perf_counter() - t0
        bytes_before = log.total_bytes()
        log.rotate()
        compact_stats = log.compact(retain=0)
        bytes_after = log.total_bytes()
        log.close()
        return {
            "jobs": jobs,
            "live_records": live_records,
            "live_records_per_sec": round(live_records / live_s, 1),
            "replayed_records": replayed,
            "replay_seconds": round(replay_s, 3),
            "replay_records_per_sec": round(replayed / replay_s, 1),
            "replay_samples_match": replay_store.samples == live_samples,
            "replay_torn_lines": log.torn_lines,
            "compacted_segments": compact_stats["segments_compacted"],
            "disk_bytes_before_compaction": bytes_before,
            "disk_bytes_after_compaction": bytes_after,
        }
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def _chaos_phase(records: int = CHAOS_RECORDS) -> Dict:
    """Disconnect -> spool -> reconnect -> drain, with a stopwatch."""

    def sample(i: int) -> Dict:
        return {
            "kind": "sample", "job": "bench-chaos", "t": i * 0.01,
            "points": [{"name": "gpu_busy_fraction", "labels": {},
                        "value": 0.5}],
        }

    spool_dir = tempfile.mkdtemp(prefix="bench-fleet-spool-")
    warmup = 10
    total = warmup + records
    try:
        with FleetAggregator() as agg:
            proxy = ChaosProxy(agg.ingest_address, ChaosPlan(seed=42))
            proxy.start()
            client = ResilientClient(
                proxy.address_str,
                label="bench chaos",
                pub="bench-chaos",
                spool_dir=spool_dir,
                retry_base=0.02,
                retry_max_delay=0.25,
            )
            store = agg.store
            try:
                # healthy warm-up: prove the pipe works end to end
                for i in range(warmup):
                    client.send(sample(i))
                assert client.flush(30.0)

                # the outage: partition, keep publishing into the spool
                proxy.pause()
                t0 = time.perf_counter()
                for i in range(warmup, total):
                    client.send(sample(i))
                # the queue drains to disk in the background; the
                # write rate is only honest once it all lands
                _wait(lambda: client.spool_depth >= records)
                spool_s = time.perf_counter() - t0
                spooled = client.spool_depth

                # the heal: reconnect, drain, converge
                proxy.resume()
                t0 = time.perf_counter()
                drained = client.flush(120.0)
                converged = _wait(lambda: store.samples >= total)
                recovery_s = time.perf_counter() - t0
                stats = client.stats()
            finally:
                client.close(flush_timeout=0.0)
                proxy.stop()
            totals = store.publishers_summary()["totals"]
            return {
                "records": records,
                "spooled_during_outage": spooled,
                "spool_write_per_sec": round(records / spool_s, 1),
                "drained": bool(drained),
                "converged": bool(converged),
                "recovery_seconds": round(recovery_s, 3),
                "drain_records_per_sec": round(spooled / recovery_s, 1),
                "reconnects": stats["reconnects"],
                "records_lost": total - totals["received"],
                "duplicates_deduped": totals["duplicates"],
                "gap_records": totals["gap_records"],
            }
    finally:
        shutil.rmtree(spool_dir, ignore_errors=True)


def run_fleet_bench(jobs: int = JOBS) -> Dict:
    """Measure synthetic ingest + live sweep streaming; returns the dict."""
    if jobs < 2:
        raise ValueError(f"jobs must be >= 2: {jobs}")
    try:
        cpu_count = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpu_count = os.cpu_count() or 1
    return {
        "schema": SCHEMA,
        "cpu_count": cpu_count,
        "synthetic": _synthetic_phase(jobs, TICKS, PUBLISHERS),
        "sweep": _sweep_phase(SWEEP_JOBS),
        "replay": _replay_phase(jobs, TICKS, PUBLISHERS),
        "chaos": _chaos_phase(CHAOS_RECORDS),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def default_output_path() -> str:
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_fleet.json",
    )


def write_result(result: Dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_result(result: Dict) -> str:
    syn, swp = result["synthetic"], result["sweep"]
    rep, cha = result["replay"], result["chaos"]
    lag = syn["rollup_lag_avg_seconds"]
    lag_max = syn["rollup_lag_max_seconds"]
    return "\n".join([
        "Fleet aggregator — concurrent ingest + live sweep streaming",
        f"synthetic jobs      : {syn['jobs']:10d}"
        f"   ({syn['publisher_threads']} publisher threads, "
        f"{syn['ticks_per_job']} ticks each)",
        f"samples ingested    : {syn['samples']:10d}"
        f"   ({syn['samples_per_sec']:.0f}/s)",
        f"job lifecycles      : {syn['jobs_per_sec']:10.1f}/s",
        f"rollup lag [s]      : "
        f"{'n/a' if lag is None else f'avg {lag:.6f}, max {lag_max:.6f}'}",
        f"parse errors/drops  : {syn['parse_errors']:10d}"
        f" / {syn['dropped_records']}",
        f"live sweep          : {swp['jobs']:10d} specs"
        f"   ({swp['jobs_per_sec']:.2f}/s, "
        f"{swp['streamed_samples']} samples streamed)",
        f"query /jobs [s]     : {swp['jobs_query_seconds']:10.4f}",
        f"query /metrics [s]  : {swp['metrics_query_seconds']:10.4f}",
        f"history replay      : {rep['replayed_records']:10d} records"
        f"   ({rep['replay_records_per_sec']:.0f}/s vs "
        f"{rep['live_records_per_sec']:.0f}/s live)",
        f"history footprint   : {rep['disk_bytes_before_compaction']:10d}"
        f" -> {rep['disk_bytes_after_compaction']} bytes"
        f" ({rep['compacted_segments']} segments compacted)",
        f"chaos spool write   : {cha['spool_write_per_sec']:10.0f}/s"
        f"   ({cha['spooled_during_outage']} records through the outage)",
        f"chaos recovery [s]  : {cha['recovery_seconds']:10.3f}"
        f"   ({cha['drain_records_per_sec']:.0f}/s drained, "
        f"{cha['reconnects']} reconnects)",
        f"chaos records lost  : {cha['records_lost']:10d}"
        f"   ({cha['duplicates_deduped']} replays deduped, "
        f"{cha['gap_records']} gaps)",
    ])


def check_result(result: Dict) -> None:
    """The acceptance floors (shared by pytest and the CLI)."""
    syn, swp = result["synthetic"], result["sweep"]
    assert syn["all_samples_landed"]
    assert syn["all_jobs_finished"]
    assert syn["parse_errors"] == 0
    assert syn["dropped_records"] == 0
    assert syn["samples"] == syn["jobs"] * syn["ticks_per_job"]
    assert syn["rollup_lag_avg_seconds"] is not None
    assert swp["all_ok"]
    assert swp["all_jobs_finished"]
    assert swp["streamed_samples"] > 0
    assert swp["queried_finished"] == swp["jobs"]
    assert swp["metrics_openmetrics_terminated"]
    rep = result["replay"]
    assert rep["replayed_records"] == rep["live_records"]
    assert rep["replay_samples_match"]
    assert rep["replay_torn_lines"] == 0
    # restart must never be slower than ingesting the same records
    # live over sockets.
    assert rep["replay_records_per_sec"] >= rep["live_records_per_sec"]
    assert (
        rep["disk_bytes_after_compaction"]
        < rep["disk_bytes_before_compaction"]
    )
    cha = result["chaos"]
    assert cha["drained"] and cha["converged"]
    assert cha["reconnects"] >= 1
    assert cha["gap_records"] == 0
    # the resilience contract: an outage costs time, never records
    assert cha["records_lost"] == 0
    assert cha["drain_records_per_sec"] > 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=JOBS,
                    help=f"concurrent synthetic jobs (default: {JOBS})")
    ap.add_argument("--out", default=default_output_path(),
                    help="output JSON path")
    args = ap.parse_args(argv)
    if args.jobs < 2:
        ap.error(f"--jobs must be >= 2 (got {args.jobs})")
    result = run_fleet_bench(jobs=args.jobs)
    print(format_result(result))
    path = write_result(result, args.out)
    print(f"[saved to {path}]")
    check_result(result)
    return 0


def test_fleet_ingest_throughput(benchmark):
    """pytest-benchmark entry point alongside the paper benchmarks."""
    from conftest import emit, once

    result = once(benchmark, run_fleet_bench)
    emit("bench_fleet.txt", format_result(result))
    write_result(result, default_output_path())
    check_result(result)


if __name__ == "__main__":
    sys.exit(main())
