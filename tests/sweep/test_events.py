"""Sweep lifecycle events: structured logs, fleet streaming, identity."""

import json
import logging
import time

import pytest

from repro import IpmConfig, JobSpec, ResultCache, SweepRunner, TelemetryConfig
from repro.fleet import FleetAggregator
from repro.sweep.events import (
    LIFECYCLE_LOGGER,
    log_event,
    spec_finish,
    spec_start,
)

SPECS = [JobSpec(app="square", ntasks=1, seed=s) for s in (1, 2)]

TELEMETRY_SPECS = [
    JobSpec(
        app="square", ntasks=2, seed=s,
        ipm=IpmConfig(telemetry=TelemetryConfig(
            enabled=True, sinks=("memory",),
        )),
    )
    for s in (1, 2)
]


def wait_until(cond, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(interval)
    return cond()


def _pickles(report):
    return [r.report_pickle for r in report.results]


class TestEventRecords:
    def test_spec_start_shape(self):
        record = spec_start("abc123", meta={"app": "hpl"})
        assert record["kind"] == "spec_start"
        assert record["job"] == "abc123"
        assert record["source"] == "sweep"
        assert record["meta"] == {"app": "hpl"}
        assert record["hts"] > 0

    def test_spec_finish_shape(self):
        record = spec_finish("abc123", "timeout", attempts=3,
                             wallclock=1.5, error="took too long")
        assert record["kind"] == "spec_finish"
        assert record["status"] == "timeout"
        assert record["attempts"] == 3
        assert record["from_cache"] is False
        assert record["wallclock"] == 1.5
        assert record["error"] == "took too long"

    def test_log_event_emits_json_line_plus_attribute(self, caplog):
        record = spec_finish("abc123", "ok")
        with caplog.at_level(logging.INFO, logger=LIFECYCLE_LOGGER):
            log_event(record)
        [entry] = caplog.records
        assert json.loads(entry.getMessage()) == json.loads(
            json.dumps(record)
        )
        assert entry.sweep_event is record

    def test_log_event_is_free_when_logger_disabled(self, caplog):
        logger = logging.getLogger(LIFECYCLE_LOGGER)
        old = logger.level
        logger.setLevel(logging.WARNING)
        try:
            log_event(spec_start("quiet"))
        finally:
            logger.setLevel(old)
        assert not caplog.records


class TestRunnerLifecycleLogging:
    def events(self, caplog):
        return [r.sweep_event for r in caplog.records
                if r.name == LIFECYCLE_LOGGER]

    def test_serial_run_logs_start_and_finish_per_spec(self, caplog):
        with caplog.at_level(logging.INFO, logger=LIFECYCLE_LOGGER):
            SweepRunner(mode="serial").run(SPECS)
        events = self.events(caplog)
        kinds = [e["kind"] for e in events]
        assert kinds.count("spec_start") == 2
        assert kinds.count("spec_finish") == 2
        finishes = [e for e in events if e["kind"] == "spec_finish"]
        assert all(e["status"] == "ok" for e in finishes)
        assert all(e["wallclock"] > 0 for e in finishes)

    def test_cache_hits_log_finish_with_provenance(self, caplog, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        SweepRunner(mode="serial", cache=cache).run(SPECS)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger=LIFECYCLE_LOGGER):
            SweepRunner(mode="serial", cache=cache).run(SPECS)
        events = self.events(caplog)
        assert [e["kind"] for e in events] == ["spec_finish", "spec_finish"]
        assert all(e["from_cache"] and e["attempts"] == 0 for e in events)

    def test_supervised_failure_logs_status_and_attempts(self, caplog):
        spec = JobSpec(app="canary", ntasks=2,
                       app_params={"mode": "crash", "work": 1e-3})
        with caplog.at_level(logging.INFO, logger=LIFECYCLE_LOGGER):
            report = SweepRunner(mode="serial", retries=1).run([spec])
        status = report.results[0].status
        assert status != "ok"
        finish = [e for e in self.events(caplog)
                  if e["kind"] == "spec_finish"][0]
        assert finish["status"] == status
        assert finish["attempts"] == report.results[0].attempts >= 1
        assert finish["error"]


class TestRunnerFleetStreaming:
    def test_lifecycle_records_reach_the_aggregator(self):
        with FleetAggregator() as agg:
            with SweepRunner(mode="serial",
                             fleet=agg.ingest_address) as runner:
                runner.run(SPECS)
            store = agg.store
            assert wait_until(
                lambda: store.registry.counts()["finished"] == 2
            )
            for spec in SPECS:
                record = store.registry.job(spec.content_hash())
                assert record.source == "sweep"
                assert record.status == "ok"

    def test_telemetry_samples_stream_from_warm_workers(self):
        with FleetAggregator() as agg:
            with SweepRunner(workers=2, mode="process",
                             fleet=agg.ingest_address) as runner:
                runner.run(TELEMETRY_SPECS)
            store = agg.store
            assert wait_until(
                lambda: store.registry.counts()["finished"] == 2,
                timeout=30.0,
            )
            assert store.samples > 0
            key = TELEMETRY_SPECS[0].content_hash()
            rollups = store.job_rollups(key)
            assert "gpu_busy_fraction" in rollups["metrics"]
            # node-level series carried hostnames into the node registry
            assert store.registry.nodes()

    def test_back_to_back_runners_are_not_deduped(self, tmp_path):
        """Each queue-only lifecycle stream gets its own publisher id:
        a second runner restarting at seq 0 must not be taken for a
        replay of the first."""
        cache = ResultCache(str(tmp_path / "cache"))
        with FleetAggregator() as agg:
            for _ in range(2):
                with SweepRunner(mode="serial", cache=cache,
                                 fleet=agg.ingest_address) as runner:
                    runner.run(SPECS)
            store = agg.store
            assert wait_until(lambda: all(
                getattr(store.registry.job(s.content_hash()),
                        "from_cache", False)
                for s in SPECS
            ))
            totals = store.publishers_summary()["totals"]
            assert totals["publishers"] == 2
            assert totals["duplicates"] == 0

    def test_fleet_does_not_change_placement(self):
        plain = SweepRunner(workers=2).run(SPECS)
        with FleetAggregator() as agg:
            with SweepRunner(workers=2,
                             fleet=agg.ingest_address) as runner:
                streamed = runner.run(SPECS)
        assert streamed.mode == plain.mode == "process"
        assert streamed.wallclocks() == plain.wallclocks()

    def test_unreachable_aggregator_does_not_fail_the_sweep(self):
        with pytest.warns(RuntimeWarning, match="degraded"):
            with SweepRunner(mode="serial", fleet="127.0.0.1:1") as runner:
                report = runner.run(SPECS)
        assert all(r.status == "ok" for r in report.results)


class TestFleetByteIdentity:
    """The acceptance pin: fleet mode changes no result byte."""

    def test_reports_identical_with_fleet_on_and_off(self):
        plain = SweepRunner(mode="serial").run(TELEMETRY_SPECS)
        with FleetAggregator() as agg:
            with SweepRunner(mode="serial",
                             fleet=agg.ingest_address) as runner:
                streamed = runner.run(TELEMETRY_SPECS)
        assert _pickles(streamed) == _pickles(plain)

    def test_content_hash_ignores_fleet(self):
        # the fleet knob is runner state, not spec state: same hashes
        hashes = [s.content_hash() for s in TELEMETRY_SPECS]
        with FleetAggregator() as agg:
            with SweepRunner(mode="serial",
                             fleet=agg.ingest_address) as runner:
                report = runner.run(TELEMETRY_SPECS)
        assert [r.spec_hash for r in report.results] == hashes
