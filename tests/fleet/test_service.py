"""`FleetAggregator` + `FleetSink`: the assembled service, end to end."""

import json
import time
import urllib.request

import pytest

from repro.fleet import FleetAggregator, FleetSink
from repro.telemetry.series import SamplePoint


def wait_until(cond, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(interval)
    return cond()


def get_json(url):
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return json.loads(resp.read())


def point(name, value, t=0.0, **labels):
    return SamplePoint(
        t=t, name=name, labels=tuple(sorted(labels.items())), value=value
    )


class TestFleetSinkEndToEnd:
    def test_job_stream_over_the_socket(self):
        with FleetAggregator() as agg:
            sink = FleetSink(agg.ingest_address, job="job-1",
                             meta={"app": "hpl"})
            sink.open({"ntasks": 4, "seed": 7})
            for i in range(5):
                sink.emit(i * 0.05, [
                    point("gpu_busy_fraction", 0.5 + i / 10, t=i * 0.05),
                    point("node_gpu_busy_fraction", 0.4, t=i * 0.05,
                          node="dirac03"),
                ])
            sink.set_job_outcome("ok", ranks={0: "completed", 1: "aborted"},
                                 wallclock=2.0)
            sink.close()
            store = agg.store
            assert wait_until(
                lambda: store.registry.job("job-1") is not None
                and store.registry.job("job-1").state == "finished"
            )
            record = store.registry.job("job-1")
            assert record.status == "ok"
            assert record.meta["app"] == "hpl"
            assert record.meta["ntasks"] == 4
            assert record.ranks["1"] == "aborted"
            assert record.wallclock == 2.0
            assert record.nodes == {"dirac03"}
            # aborted rank published an explicit rank_status record too
            payload = get_json(agg.http_url + "/jobs/job-1/rollups")
            assert payload["metrics"]["gpu_busy_fraction"]["stats"]["count"] \
                == 5
            assert store.lag.count > 0  # hts stamps measured ingest lag

    def test_sink_survives_a_dead_aggregator(self):
        # publishing is asynchronous now: open() buffers and returns,
        # the drain thread warns and retries in the background, and
        # close() accounts whatever could never be delivered.
        sink = FleetSink("127.0.0.1:1", job="doomed", flush_timeout=0.5)
        sink.open({})
        sink.emit(0.0, [point("m", 1.0)])
        sink.close()  # must not raise
        assert sink.client.dropped > 0
        assert "unflushed" in sink.client.drops_by_kind

    def test_empty_job_id_is_rejected(self):
        with pytest.raises(ValueError):
            FleetSink("127.0.0.1:1", job="")

    @pytest.mark.parametrize("target", ["no-port", "host:http", 42])
    def test_non_socket_target_is_rejected(self, target):
        with pytest.raises(ValueError):
            FleetSink(target, job="j")


class TestAggregatorLifecycle:
    def test_non_finite_line_does_not_stop_the_tail_loop(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text(
            '{"kind": "sample", "t": NaN, "points": []}\n'
            + json.dumps({
                "kind": "sample", "t": 0.1,
                "points": [{"name": "m", "labels": {}, "value": 1.0}],
            }) + "\n",
            encoding="utf-8",
        )
        with FleetAggregator() as agg:
            agg.add_tail(str(path))
            assert wait_until(lambda: agg.store.samples == 1)
            assert agg.store.dropped == 1

    def test_tail_loop_follows_a_growing_file(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text("", encoding="utf-8")
        with FleetAggregator(tails=[str(path)]) as agg:
            line = json.dumps({
                "kind": "sample", "t": 0.1,
                "points": [{"name": "m", "labels": {}, "value": 1.0}],
            })
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()
            assert wait_until(lambda: agg.store.samples == 1)
        # stop() closed the tailed job stream
        assert agg.store.registry.job("live").state == "finished"

    def test_restart_with_forwarding_reattaches_cleanly(self):
        # stop() must detach the forwarder from the store, or the
        # second start() refuses with "store already has a forwarder"
        head = FleetAggregator().start()
        try:
            leaf = FleetAggregator(forward=head.ingest_address,
                                   forward_interval=0.05)
            leaf.start()
            leaf.stop()
            assert leaf.store.forwarder is None
            leaf.start()
            assert leaf.store.forwarder is leaf.forwarder
            leaf.stop()
        finally:
            head.stop()

    def test_stop_is_idempotent_and_endpoints_require_start(self):
        agg = FleetAggregator()
        with pytest.raises(RuntimeError):
            agg.ingest_address
        agg.start()
        agg.stop()
        agg.stop()

    def test_add_tail_while_running(self, tmp_path):
        path = tmp_path / "late.jsonl"
        line = json.dumps({
            "kind": "sample", "t": 0.0,
            "points": [{"name": "m", "labels": {}, "value": 2.0}],
        })
        path.write_text(line + "\n", encoding="utf-8")
        with FleetAggregator() as agg:
            agg.add_tail(str(path), job="late")
            assert wait_until(lambda: agg.store.samples == 1)


class TestConcurrentJobs:
    def test_many_concurrent_publishers(self):
        """The acceptance floor: >= 200 jobs streaming at once."""
        n = 200
        with FleetAggregator() as agg:
            sinks = [
                FleetSink(agg.ingest_address, job=f"job-{i:03d}")
                for i in range(n)
            ]
            for i, sink in enumerate(sinks):
                sink.open({"ntasks": 1, "seed": i})
            for tick in range(3):
                for sink in sinks:
                    sink.emit(tick * 0.05, [
                        point("gpu_busy_fraction", 0.5, t=tick * 0.05),
                    ])
            store = agg.store
            assert wait_until(
                lambda: store.samples == n * 3, timeout=30.0
            ), f"only {store.samples}/{n * 3} samples arrived"
            counts = store.registry.counts()
            assert counts["running"] == n
            for sink in sinks:
                sink.set_job_outcome("ok")
                sink.close()
            assert wait_until(
                lambda: store.registry.counts()["finished"] == n,
                timeout=30.0,
            )
            assert store.parse_errors == 0
            assert store.dropped == 0
            payload = get_json(agg.http_url + "/jobs")
            assert payload["counts"]["finished"] == n
