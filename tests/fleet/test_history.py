"""Durable history: segmented log, restart replay, retention compaction."""

import json
import os

import pytest

from repro.fleet.history import HistoryLog, Segment
from repro.fleet.service import FleetAggregator
from repro.fleet.store import FleetStore


def _stream(store, jobs=3, ticks=4, node=True):
    """Ingest a small deterministic multi-job stream; returns job ids."""
    ids = []
    for i in range(jobs):
        job = f"job-{i:03d}"
        ids.append(job)
        store.ingest({"kind": "job_start", "job": job,
                      "meta": {"app": "square", "ntasks": 2}})
        for tick in range(ticks):
            points = [{"name": "gpu_busy", "value": 0.25 + i + tick,
                       "labels": {}}]
            if node:
                points.append({"name": "node_busy", "value": float(tick),
                               "labels": {"node": f"n{i % 2}"}})
            store.ingest({"kind": "sample", "job": job, "t": tick * 0.05,
                          "points": points})
        store.ingest({"kind": "rank_status", "job": job, "rank": 1,
                      "status": "crashed" if i == 1 else "completed"})
        store.ingest({"kind": "job_end", "job": job,
                      "status": "ok", "wallclock": 1.0 + i})
    return ids


def _strip_clocks(summary):
    """Job summaries minus the host-clock fields that re-base on restart."""
    rows = []
    for row in summary["jobs"]:
        row = dict(row)
        row.pop("first_seen")
        row.pop("last_seen")
        rows.append(row)
    return {"counts": summary["counts"], "jobs": rows}


class TestHistoryLog:
    def test_append_replay_roundtrip(self, tmp_path):
        log = HistoryLog(tmp_path)
        records = [
            {"kind": "job_start", "job": "a"},
            {"kind": "sample", "job": "a", "t": 0.0,
             "points": [{"name": "m", "value": 1.0, "labels": {}}]},
            {"kind": "job_end", "job": "a", "status": "ok"},
        ]
        for record in records:
            log.append(record)
        log.close()
        replayed = list(HistoryLog(tmp_path).replay())
        assert replayed == records

    def test_segments_rotate_at_the_size_cap(self, tmp_path):
        log = HistoryLog(tmp_path, segment_bytes=256)
        for i in range(32):
            log.append({"kind": "job_start", "job": f"job-{i:04d}"})
        log.close()
        segments = log.segments()
        assert len(segments) > 1
        assert [s.seq for s in segments] == list(
            range(1, len(segments) + 1)
        )
        assert all(not s.compacted for s in segments)
        # replay preserves every record across the segment boundaries
        assert sum(1 for _ in log.replay()) == 32

    def test_restart_continues_the_active_segment(self, tmp_path):
        log = HistoryLog(tmp_path)
        log.append({"kind": "job_start", "job": "a"})
        log.close()
        again = HistoryLog(tmp_path)
        again.append({"kind": "job_start", "job": "b"})
        again.close()
        assert len(again.segments()) == 1
        assert [r["job"] for r in again.replay()] == ["a", "b"]

    def test_kill_mid_append_counts_one_torn_line(self, tmp_path):
        """A kill -9 mid-append leaves a truncated final line: replay
        recovers every complete record and counts exactly one torn
        line; the next append starts on a fresh line."""
        log = HistoryLog(tmp_path)
        for i in range(5):
            log.append({"kind": "job_start", "job": f"job-{i}"})
        log.close()
        (segment,) = log.segments()
        with open(segment.path, "ab") as fh:
            fh.write(b'{"kind": "sample", "job": "job-0", "poi')  # torn
        survivor = HistoryLog(tmp_path)
        replayed = list(survivor.replay())
        assert len(replayed) == 5
        assert survivor.torn_lines == 1
        survivor.append({"kind": "job_end", "job": "job-0", "status": "ok"})
        survivor.close()
        replayed = list(survivor.replay())
        assert len(replayed) == 6  # repair kept the new record intact
        assert replayed[-1]["kind"] == "job_end"

    def test_final_line_without_newline_is_recovered(self, tmp_path):
        log = HistoryLog(tmp_path)
        log.append({"kind": "job_start", "job": "a"})
        log.close()
        (segment,) = log.segments()
        with open(segment.path, "rb+") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.truncate()  # strip only the newline: record is complete
        survivor = HistoryLog(tmp_path)
        assert [r["job"] for r in survivor.replay()] == ["a"]
        assert survivor.torn_lines == 0

    def test_bad_parameters_raise(self, tmp_path):
        with pytest.raises(ValueError):
            HistoryLog(tmp_path, fsync="sometimes")
        with pytest.raises(ValueError):
            HistoryLog(tmp_path, segment_bytes=0)
        log = HistoryLog(tmp_path)
        with pytest.raises(ValueError):
            log.compact(retain=-1)
        with pytest.raises(ValueError):
            log.compact(resolution=0)

    def test_compaction_rewrites_closed_segments(self, tmp_path):
        log = HistoryLog(tmp_path, segment_bytes=512)
        store = FleetStore(clock=lambda: 100.0)
        store.history = log  # tee without replay
        _stream(store, jobs=6, ticks=8)
        log.rotate()
        stats = log.compact(retain=0, resolution=0.05)
        assert stats["segments_compacted"] >= 1
        assert stats["records_out"] < stats["records_in"]
        assert stats["bytes_after"] < stats["bytes_before"]
        assert all(s.compacted for s in log.segments())
        # lifecycle records survive verbatim: every job still opens,
        # carries its rank status, and closes.
        kinds = {}
        for record in log.replay():
            kinds.setdefault(record["kind"], 0)
            kinds[record["kind"]] += 1
        assert kinds["job_start"] == 6
        assert kinds["job_end"] == 6
        assert kinds["rank_status"] == 6
        assert kinds["sample_agg"] >= 6
        assert "sample" not in kinds

    def test_crash_between_replace_and_remove_prefers_raw(self, tmp_path):
        log = HistoryLog(tmp_path)
        log.append({"kind": "job_start", "job": "raw-truth"})
        log.close()
        (segment,) = log.segments()
        # simulate the crash window: a stale compacted twin exists
        compact_twin = segment.path.replace(".ndjson", ".compact.ndjson")
        with open(compact_twin, "wb") as fh:
            fh.write(b'{"kind": "job_start", "job": "stale-summary"}\n')
        survivor = HistoryLog(tmp_path)
        assert [r["job"] for r in survivor.replay()] == ["raw-truth"]

    def test_append_failure_degrades_with_a_warning(
        self, tmp_path, monkeypatch
    ):
        log = HistoryLog(tmp_path, fsync="always")
        log.append({"kind": "job_start", "job": "a"})

        def explode(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.warns(RuntimeWarning, match="history disabled"):
            log.append({"kind": "job_start", "job": "b"})
        assert log.disabled
        log.append({"kind": "job_start", "job": "c"})  # silent no-op
        assert log.appended == 1


class TestStoreReplay:
    def test_restart_reconstructs_registry_rollups_and_counters(
        self, tmp_path
    ):
        store = FleetStore(clock=lambda: 50.0)
        log = HistoryLog(tmp_path)
        assert store.attach_history(log) == 0
        _stream(store, jobs=4, ticks=5)
        pre_jobs = _strip_clocks(store.jobs_summary())
        pre_roll = store.job_rollups("job-002")
        pre = (store.records, store.samples, store.points)
        log.close()

        fresh = FleetStore(clock=lambda: 90.0)
        replayed = fresh.attach_history(HistoryLog(tmp_path))
        assert replayed == store.records
        assert fresh.history_replayed == replayed
        assert _strip_clocks(fresh.jobs_summary()) == pre_jobs
        post_roll = fresh.job_rollups("job-002")
        assert post_roll["metrics"] == pre_roll["metrics"]
        assert (fresh.records, fresh.samples, fresh.points) == pre

    def test_replay_does_not_feed_lag_or_reappend(self, tmp_path):
        store = FleetStore()
        log = HistoryLog(tmp_path)
        store.attach_history(log)
        store.ingest({"kind": "job_start", "job": "a", "hts": 1.0})
        appended = log.appended
        log.close()

        fresh_log = HistoryLog(tmp_path)
        fresh = FleetStore()
        fresh.attach_history(fresh_log)
        assert fresh.lag.count == 0  # stale hts stamps are not lag
        assert fresh_log.appended == 0  # replay never re-tees
        assert sum(1 for _ in HistoryLog(tmp_path).replay()) == appended

    def test_attach_twice_raises(self, tmp_path):
        store = FleetStore()
        store.attach_history(HistoryLog(tmp_path / "a"))
        with pytest.raises(RuntimeError):
            store.attach_history(HistoryLog(tmp_path / "b"))

    def test_lifetime_stats_survive_compaction_exactly(self, tmp_path):
        store = FleetStore(clock=lambda: 10.0)
        log = HistoryLog(tmp_path)
        store.attach_history(log)
        _stream(store, jobs=3, ticks=7)
        pre = store.job_rollups("job-001")["metrics"]["gpu_busy"]["stats"]
        pre_jobs = _strip_clocks(store.jobs_summary())
        log.rotate()
        stats = log.compact(retain=0, resolution=0.05)
        assert stats["segments_compacted"] == 1
        log.close()

        fresh = FleetStore(clock=lambda: 20.0)
        fresh.attach_history(HistoryLog(tmp_path))
        post = fresh.job_rollups("job-001")["metrics"]["gpu_busy"]["stats"]
        assert post == pre  # count/sum/min/max/avg/last all bit-exact
        assert _strip_clocks(fresh.jobs_summary()) == pre_jobs

    def test_history_summary_and_metrics_families(self, tmp_path):
        store = FleetStore()
        store.attach_history(HistoryLog(tmp_path))
        _stream(store, jobs=1, ticks=1)
        summary = store.history_summary()
        assert summary["enabled"]
        assert summary["appended"] == store.records
        exposition = store.openmetrics()
        assert "fleet_history_segments" in exposition
        assert "fleet_history_appended_total" in exposition


class TestPersistenceOffByteIdentity:
    def test_metrics_and_jobs_output_identical_without_history(
        self, tmp_path
    ):
        """The memory-resident default must not change at all: same
        records, with and without a history log, give byte-identical
        /jobs output, and /metrics differs only by the fleet_history_*
        families (absent entirely with persistence off)."""
        clock = lambda: 42.0  # noqa: E731 - deterministic exposition
        plain = FleetStore(clock=clock)
        durable = FleetStore(clock=clock)
        durable.attach_history(HistoryLog(tmp_path))
        for store in (plain, durable):
            _stream(store, jobs=3, ticks=4)
        plain_jobs = json.dumps(plain.jobs_summary(), sort_keys=True)
        durable_jobs = json.dumps(durable.jobs_summary(), sort_keys=True)
        assert plain_jobs == durable_jobs
        plain_metrics = plain.openmetrics()
        assert "fleet_history" not in plain_metrics
        durable_metrics = "\n".join(
            line for line in durable.openmetrics().splitlines()
            if "fleet_history" not in line
        ) + "\n"
        assert durable_metrics == plain_metrics
        assert (
            plain.job_rollups("job-000") == durable.job_rollups("job-000")
        )


class TestDurableAggregator:
    def test_restart_after_200_jobs_serves_identical_state(self, tmp_path):
        """The acceptance bar: ingest >= 200 jobs, restart from the
        same --data-dir, and every job summary and lifetime aggregate
        matches (modulo the re-based staleness clocks)."""
        data = str(tmp_path / "data")
        agg = FleetAggregator(data_dir=data, compact_interval=0)
        with agg:
            _stream(agg.store, jobs=200, ticks=3)
            pre_jobs = _strip_clocks(agg.store.jobs_summary())
            pre_rollups = {
                job: agg.store.job_rollups(job)["metrics"]
                for job in ("job-000", "job-117", "job-199")
            }
            pre_fleet = agg.store.fleet_summary()["metrics"]
        restarted = FleetAggregator(data_dir=data, compact_interval=0)
        with restarted:
            assert restarted.replayed > 0
            assert _strip_clocks(restarted.store.jobs_summary()) == pre_jobs
            for job, metrics in pre_rollups.items():
                assert restarted.store.job_rollups(job)["metrics"] == metrics
            assert restarted.store.fleet_summary()["metrics"] == pre_fleet

    def test_durable_aggregator_defaults_to_retention_tiers(self, tmp_path):
        agg = FleetAggregator(data_dir=str(tmp_path / "d"))
        assert agg.store.tiers  # downsample instead of evict
        plain = FleetAggregator()
        assert not plain.store.tiers

    def test_compact_runs_via_the_service(self, tmp_path):
        agg = FleetAggregator(
            data_dir=str(tmp_path / "d"), compact_interval=0, retain=0
        )
        with agg:
            _stream(agg.store, jobs=2, ticks=3)
            agg.history.rotate()
            stats = agg.compact()
            assert stats["segments_compacted"] == 1
        memory_resident = FleetAggregator()
        assert memory_resident.compact() is None

    def test_bad_retain_raises(self, tmp_path):
        with pytest.raises(ValueError):
            FleetAggregator(data_dir=str(tmp_path / "d"), retain=-1)


class TestCompactionReplayParity:
    def test_compacted_history_replays_onto_the_live_buckets(self, tmp_path):
        """Downsample, don't shift: samples every 0.025 s over
        t in [0.5, 1.5) are compacted into 10x-native windows, and the
        store replayed from them serves the live series bucket for
        bucket at that resolution."""
        data = str(tmp_path / "data")
        agg = FleetAggregator(data_dir=data, compact_interval=0, retain=0)
        with agg:
            store = agg.store
            store.ingest({"kind": "job_start", "job": "j"})
            for i in range(40):
                store.ingest({
                    "kind": "sample", "job": "j", "t": 0.5 + i * 0.025,
                    # integral values: sums are exact in any merge order
                    "points": [{"name": "m", "labels": {},
                                "value": float(i)}],
                })
            store.ingest({"kind": "job_end", "job": "j", "status": "ok"})
            live = store.job_rollups("j", resolution=0.5)["metrics"]["m"]
            agg.history.rotate()
            assert agg.compact()["segments_compacted"] == 1
        assert all(s.compacted for s in HistoryLog(data).segments())
        with FleetAggregator(data_dir=data, compact_interval=0) as again:
            replayed = again.store.job_rollups("j", resolution=0.5)
        replayed = replayed["metrics"]["m"]
        assert [(b["t"], b["count"]) for b in live["series"]] == [
            (0.0, 1), (0.5, 20), (1.0, 19)
        ]
        assert replayed["series"] == live["series"]
        assert replayed["stats"] == live["stats"]
