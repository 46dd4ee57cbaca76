"""`FleetStore`: ingest semantics, time axes, queries, exposition."""

import json

import pytest

from repro.fleet.protocol import decode_line
from repro.fleet.store import FleetStore


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def store(clock):
    return FleetStore(resolution=0.05, host_resolution=1.0, clock=clock)


def sample(job, t, name="gpu_busy_fraction", value=0.5, node=None, **extra):
    labels = {"node": node} if node else {}
    return {
        "kind": "sample", "job": job, "t": t,
        "points": [{"name": name, "labels": labels, "value": value}],
        **extra,
    }


class TestIngest:
    def test_full_job_stream(self, store):
        assert store.ingest({"kind": "job_start", "job": "j1",
                             "meta": {"app": "hpl"}, "source": "job"})
        assert store.ingest(sample("j1", 0.01, value=0.25))
        assert store.ingest({"kind": "rank_status", "job": "j1",
                             "rank": 1, "status": "aborted"})
        assert store.ingest({"kind": "job_end", "job": "j1",
                             "status": "degraded", "wallclock": 1.5})
        record = store.registry.job("j1")
        assert record.state == "finished"
        assert record.status == "degraded"
        assert record.ranks == {"1": "aborted"}
        assert store.records == 4
        assert store.samples == 1
        assert store.points == 1

    def test_spec_lifecycle_kinds_behave_like_job_kinds(self, store):
        store.ingest({"kind": "spec_start", "job": "h1", "source": "sweep"})
        assert store.registry.job("h1").state == "running"
        store.ingest({"kind": "spec_finish", "job": "h1", "status": "ok",
                      "attempts": 2, "from_cache": False})
        record = store.registry.job("h1")
        assert record.state == "finished"
        assert record.attempts == 2

    def test_missing_job_id_is_refused_and_counted(self, store):
        assert not store.ingest({"kind": "sample", "t": 0.0, "points": []})
        assert not store.ingest({"kind": "job_start", "job": ""})
        assert store.dropped == 2
        assert store.records == 0

    def test_unknown_kind_is_refused_and_counted(self, store):
        assert not store.ingest({"kind": "wat", "job": "j1"})
        assert store.dropped == 1

    def test_sample_without_points_list_is_refused(self, store):
        assert not store.ingest({"kind": "sample", "job": "j1", "t": 0.0,
                                 "points": "nope"})
        assert store.dropped == 1

    @pytest.mark.parametrize("line", [
        '{"kind": "sample", "job": "j1", "t": NaN, "points": []}',
        '{"kind": "sample", "job": "j1", "t": -Infinity, "points": []}',
        '{"kind": "sample", "job": "j1", "t": 1e999, "points": []}',
        '{"kind": "sample", "job": "j1", "t": 1' + "0" * 400
        + ', "points": []}',
        '{"kind": "sample_agg", "job": "j1", "t": 0.0, "samples": Infinity,'
        ' "points": []}',
        '{"kind": "sample_agg", "job": "j1", "t": 0.0, "samples": NaN,'
        ' "points": []}',
        '{"kind": "sample_agg", "job": "j1", "t": NaN, "samples": 2,'
        ' "points": []}',
    ], ids=["nan-t", "neg-inf-t", "overflow-t", "huge-int-t",
            "inf-samples", "nan-samples", "agg-nan-t"])
    def test_non_finite_time_or_count_is_refused_not_raised(
        self, store, line
    ):
        assert store.ingest_status(decode_line(line)) == "refused"
        assert store.dropped == 1
        assert store.samples == 0
        assert store.registry.job("j1") is None

    @pytest.mark.parametrize("line", [
        '{"kind": "job_end", "job": "a", "wallclock": "abc"}',
        '{"kind": "spec_finish", "job": "a", "status": "ok",'
        ' "attempts": "x"}',
        '{"kind": "job_end", "job": "a", "wallclock": 1' + "0" * 400 + '}',
    ], ids=["text-wallclock", "text-attempts", "huge-int-wallclock"])
    def test_unparseable_end_record_is_refused_before_any_state_change(
        self, store, line
    ):
        store.ingest({"kind": "job_start", "job": "a"})
        assert store.ingest_status(decode_line(line)) == "refused"
        assert store.dropped == 1
        record = store.registry.job("a")
        assert record.state == "running"
        assert record.wallclock is None and record.attempts is None

    def test_malformed_points_are_skipped_not_fatal(self, store):
        assert store.ingest({
            "kind": "sample", "job": "j1", "t": 0.0,
            "points": [
                "garbage",
                {"name": 7, "labels": {}, "value": 1.0},
                {"name": "ok_metric", "labels": {}, "value": "NaNope"},
                {"name": "ok_metric", "labels": {}, "value": 2.0},
            ],
        })
        assert store.points == 1
        assert store.registry.job("j1").points == 1

    @pytest.mark.parametrize("value", ["1" + "0" * 400, '"NaNope"'],
                             ids=["huge-int", "non-numeric"])
    def test_unfloatable_point_value_is_skipped_not_raised(self, store, value):
        """A JSON integer too large for a float is skipped exactly like
        a non-numeric value: no counter, rollup or node sees it."""
        line = (
            '{"kind": "sample", "job": "j1", "t": 0.0, "points": ['
            '{"name": "bad", "labels": {"node": "n1"}, "value": '
            + value + '}, {"name": "good", "labels": {}, "value": 2.0}]}'
        )
        assert store.ingest_status(decode_line(line)) == "accepted"
        assert store.samples == 1 and store.points == 1
        job = store.registry.job("j1")
        assert job.points == 1 and job.nodes == set()
        assert store.registry.node("n1") is None
        assert set(store.job_rollups("j1")["metrics"]) == {"good"}
        assert set(store.fleet_summary()["metrics"]) == {"good"}
        assert store.dropped == 0

    def test_huge_int_hts_is_left_out_of_the_lag(self, store):
        line = json.dumps(sample("j1", 0.0))[:-1] + ', "hts": 1' + "0" * 400
        line += "}"
        assert store.ingest_status(decode_line(line)) == "accepted"
        assert store.lag.count == 0
        assert store.samples == 1 and store.points == 1

    def test_hts_stamp_feeds_measured_lag(self, store, clock):
        store.ingest(sample("j1", 0.0, hts=clock.t - 0.25))
        assert store.lag.count == 1
        assert store.lag.last == pytest.approx(0.25)


class TestTimeAxes:
    def test_job_rollups_bucket_on_virtual_time(self, store):
        store.ingest(sample("j1", 0.01, value=1.0))
        store.ingest(sample("j1", 0.09, value=3.0))
        out = store.job_rollups("j1")
        series = out["metrics"]["gpu_busy_fraction"]["series"]
        assert [b["t"] for b in series] == [0.0, pytest.approx(0.05)]

    def test_node_rollups_bucket_on_host_time(self, store, clock):
        store.ingest(sample("j1", 0.0, node="dirac01", value=1.0))
        clock.t += 2.5
        store.ingest(sample("j2", 0.0, node="dirac01", value=3.0))
        out = store.node_summary("dirac01")
        series = out["metrics"]["gpu_busy_fraction"]["series"]
        # two host-seconds apart -> separate 1s buckets despite equal t
        assert len(series) == 2
        assert out["jobs"] == ["j1", "j2"]

    def test_fleet_rollups_merge_all_jobs(self, store):
        store.ingest(sample("j1", 0.0, value=1.0))
        store.ingest(sample("j2", 7.0, value=3.0))
        summary = store.fleet_summary()
        assert summary["metrics"]["gpu_busy_fraction"]["count"] == 2
        assert summary["metrics"]["gpu_busy_fraction"]["max"] == 3.0


class TestQueries:
    def test_unknown_ids_return_none(self, store):
        assert store.job_rollups("nope") is None
        assert store.node_summary("nope") is None

    def test_jobs_summary_counts_and_rows(self, store, clock):
        store.ingest({"kind": "job_start", "job": "live"})
        store.ingest({"kind": "job_start", "job": "gone"})
        clock.t += 100.0
        store.ingest(sample("live", 0.0))
        out = store.jobs_summary()
        assert out["counts"]["running"] == 1
        assert out["counts"]["stale"] == 1
        by_job = {row["job"]: row for row in out["jobs"]}
        assert by_job["gone"]["stale"] is True
        assert by_job["live"]["stale"] is False

    def test_job_rollups_read_time_downsampling(self, store):
        for i in range(4):
            store.ingest(sample("j1", i * 0.05, value=float(i)))
        fine = store.job_rollups("j1")
        coarse = store.job_rollups("j1", resolution=0.1)
        assert len(fine["metrics"]["gpu_busy_fraction"]["series"]) == 4
        assert len(coarse["metrics"]["gpu_busy_fraction"]["series"]) == 2
        assert coarse["resolution"] == 0.1

    def test_everything_is_json_serializable(self, store):
        store.ingest({"kind": "job_start", "job": "j1", "meta": {"n": 2}})
        store.ingest(sample("j1", 0.0, node="dirac01", hts=999.9))
        store.ingest({"kind": "job_end", "job": "j1", "status": "ok"})
        json.dumps(store.jobs_summary())
        json.dumps(store.job_rollups("j1"))
        json.dumps(store.nodes_summary())
        json.dumps(store.node_summary("dirac01"))
        json.dumps(store.fleet_summary())


class TestOpenMetrics:
    def test_exposition_shape(self, store):
        store.ingest({"kind": "job_start", "job": "j1"})
        store.ingest(sample("j1", 0.0, node="dirac01", value=0.5))
        body = store.openmetrics()
        assert body.endswith("# EOF\n")
        lines = body.splitlines()
        # HELP precedes TYPE for every family
        for i, line in enumerate(lines):
            if line.startswith("# TYPE "):
                name = line.split()[2]
                assert lines[i - 1].startswith(f"# HELP {name} ")
        assert 'fleet_jobs{state="running"} 1' in body
        assert 'job_up{job="j1"} 1' in body
        assert ('job_rollup{agg="avg",job="j1",'
                'metric="gpu_busy_fraction"} 0.5') in body
        assert 'node_rollup{agg="max",metric="gpu_busy_fraction",' \
               'node="dirac01"} 0.5' in body
        assert "fleet_ingest_records_total 2" in body

    def test_label_values_are_escaped(self, store):
        store.ingest({"kind": "job_start", "job": 'we"ird\\job'})
        body = store.openmetrics()
        assert 'job_up{job="we\\"ird\\\\job"} 1' in body

    def test_non_finite_wire_values_render_per_spec(self, store):
        # publishers may send JSON NaN/Infinity: json.loads accepts them
        store.ingest({"kind": "job_start", "job": "j1"})
        record = decode_line(
            '{"kind": "sample", "job": "j1", "t": 0.0, "points": ['
            '{"name": "a", "labels": {}, "value": NaN}, '
            '{"name": "b", "labels": {}, "value": Infinity}, '
            '{"name": "c", "labels": {}, "value": -Infinity}]}'
        )
        assert store.ingest(record)
        lines = store.openmetrics().splitlines()
        assert 'job_rollup{agg="last",job="j1",metric="a"} NaN' in lines
        assert 'job_rollup{agg="max",job="j1",metric="b"} +Inf' in lines
        assert 'fleet_rollup{agg="min",metric="c"} -Inf' in lines
        assert not any(
            line.split()[-1] in ("nan", "inf", "-inf")
            for line in lines if not line.startswith("#")
        )

    def test_rollup_name_cap_is_exposed(self, clock):
        store = FleetStore(max_metrics=1, clock=clock)
        store.ingest({
            "kind": "sample", "job": "j1", "t": 0.0,
            "points": [
                {"name": "a", "labels": {}, "value": 1.0},
                {"name": "b", "labels": {}, "value": 1.0},
            ],
        })
        assert store.fleet_summary()["rollup_names_dropped"] > 0
        assert "fleet_rollup_names_dropped_total" in store.openmetrics()
