"""Ingest transports: socket listener + JSONL tailer (torn writes)."""

import json
import socket
import time

import pytest

from repro.fleet.ingest import IngestServer, JsonlTailIngester
from repro.fleet.protocol import decode_line, encode_record, hello_record
from repro.fleet.store import FleetStore


def wait_until(cond, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(interval)
    return cond()


class TestDecodeLine:
    @pytest.mark.parametrize("bad", [
        b"", b"   \n", b"{not json", b'"a string"', b"[1,2]",
        b'{"no": "kind"}', b'{"kind": 7}', b"\xff\xfe garbage",
    ])
    def test_malformed_lines_decode_to_none(self, bad):
        assert decode_line(bad) is None

    def test_roundtrip(self):
        record = {"kind": "sample", "job": "j", "t": 1.5, "points": []}
        assert decode_line(encode_record(record)) == record


class TestIngestServer:
    def test_socket_stream_reaches_the_store(self):
        store = FleetStore()
        server = IngestServer(store).start()
        try:
            with socket.create_connection(server.address, timeout=5.0) as s:
                s.sendall(encode_record(
                    {"kind": "job_start", "job": "j1"}
                ))
                s.sendall(b"this is not json\n")  # counted, not fatal
                s.sendall(encode_record({
                    "kind": "sample", "job": "j1", "t": 0.0,
                    "points": [{"name": "m", "labels": {}, "value": 1.0}],
                }))
            assert wait_until(lambda: store.samples == 1)
            assert store.parse_errors == 1
            assert store.registry.job("j1") is not None
        finally:
            server.stop()

    def test_non_finite_record_does_not_drop_the_connection(self):
        """json.loads accepts NaN/Infinity: such a record is refused
        and counted, and the rest of the connection still folds."""
        store = FleetStore()
        server = IngestServer(store).start()
        try:
            with socket.create_connection(server.address, timeout=5.0) as s:
                s.sendall(
                    b'{"kind": "sample", "job": "j1", "t": NaN, '
                    b'"points": []}\n'
                    b'{"kind": "sample_agg", "job": "j1", "t": 0.0, '
                    b'"samples": Infinity, "points": []}\n'
                )
                s.sendall(encode_record({
                    "kind": "sample", "job": "j1", "t": 0.0,
                    "points": [{"name": "m", "labels": {}, "value": 1.0}],
                }))
            assert wait_until(lambda: store.samples == 1)
            assert store.dropped == 2
        finally:
            server.stop()

    def test_huge_int_record_is_acked_and_the_connection_survives(self):
        """A point value or ``hts`` too large for a float must not raise
        out of the handler: both records are processed and acked, and
        the good record after them still folds."""
        store = FleetStore()
        server = IngestServer(store).start()
        huge = b"1" + b"0" * 400
        try:
            with socket.create_connection(server.address, timeout=5.0) as s:
                s.sendall(encode_record(hello_record("p", True)))
                s.sendall(
                    b'{"kind": "sample", "job": "j1", "t": 0.0, "pub": "p",'
                    b' "seq": 0, "points": [{"name": "m", "labels": {},'
                    b' "value": ' + huge + b'}]}\n'
                    b'{"kind": "sample", "job": "j1", "t": 0.0, "pub": "p",'
                    b' "seq": 1, "hts": ' + huge + b', "points": []}\n'
                )
                s.sendall(encode_record({
                    "kind": "sample", "job": "j1", "t": 0.0, "pub": "p",
                    "seq": 2,
                    "points": [{"name": "m", "labels": {}, "value": 1.0}],
                }))
                acks = s.makefile("rb")
                assert [decode_line(acks.readline())["seq"]
                        for _ in range(3)] == [0, 1, 2]
            assert store.samples == 3 and store.points == 1
            assert store.lag.count == 0
        finally:
            server.stop()

    def test_unparseable_end_record_is_acked_and_the_connection_survives(
        self
    ):
        """A ``job_end`` whose wallclock is not a number is refused (and
        still acked); the good end record after it folds."""
        store = FleetStore()
        server = IngestServer(store).start()
        try:
            with socket.create_connection(server.address, timeout=5.0) as s:
                s.sendall(encode_record(hello_record("p", True)))
                s.sendall(encode_record({
                    "kind": "job_end", "job": "j1", "pub": "p", "seq": 0,
                    "wallclock": "abc",
                }))
                s.sendall(encode_record({
                    "kind": "job_end", "job": "j1", "pub": "p", "seq": 1,
                    "wallclock": 1.5,
                }))
                acks = s.makefile("rb")
                assert [decode_line(acks.readline())["seq"]
                        for _ in range(2)] == [0, 1]
            assert store.dropped == 1
            assert store.registry.job("j1").wallclock == 1.5
        finally:
            server.stop()

    def test_connection_count_tracks_publishers(self):
        store = FleetStore()
        server = IngestServer(store).start()
        try:
            with socket.create_connection(server.address, timeout=5.0) as s:
                s.sendall(encode_record({"kind": "job_start", "job": "x"}))
                assert wait_until(lambda: store.connections == 1)
            assert wait_until(lambda: store.connections == 0)
        finally:
            server.stop()


class TestJsonlTailTornWrites:
    """The satellite contract: ingest mirrors journal repair semantics."""

    def test_torn_final_line_is_retained_until_complete(self, tmp_path):
        path = tmp_path / "job.jsonl"
        store = FleetStore()
        full = json.dumps({
            "kind": "sample", "t": 0.1,
            "points": [{"name": "m", "labels": {}, "value": 2.0}],
        })
        path.write_bytes((full + "\n").encode() + full[:17].encode())
        tailer = JsonlTailIngester(str(path), store, job="j1")
        tailer.poll()
        assert store.samples == 1  # the whole line landed
        assert store.parse_errors == 0  # the fragment is buffered, not judged
        # the writer finishes the append -> the fragment completes
        with open(path, "ab") as fh:
            fh.write((full[17:] + "\n").encode())
        tailer.poll()
        assert store.samples == 2
        assert store.parse_errors == 0

    def test_torn_line_that_never_completes_counts_once_at_finish(
        self, tmp_path
    ):
        path = tmp_path / "job.jsonl"
        path.write_bytes(b'{"kind": "sample", "t"')
        store = FleetStore()
        tailer = JsonlTailIngester(str(path), store, job="j1")
        tailer.poll()
        assert store.parse_errors == 0
        tailer.finish()
        assert store.parse_errors == 1
        tailer.finish()  # idempotent
        assert store.parse_errors == 1

    def test_interior_garbage_is_counted_and_skipped(self, tmp_path):
        path = tmp_path / "job.jsonl"
        good = json.dumps({
            "kind": "sample", "t": 0.2,
            "points": [{"name": "m", "labels": {}, "value": 1.0}],
        })
        path.write_text(
            good + "\n" + "NOT JSON AT ALL\n" + good + "\n", encoding="utf-8"
        )
        store = FleetStore()
        JsonlTailIngester(str(path), store, job="j1").poll()
        assert store.samples == 2
        assert store.parse_errors == 1

    def test_truncated_file_resets_instead_of_reading_a_torn_middle(
        self, tmp_path
    ):
        path = tmp_path / "job.jsonl"
        line = json.dumps({"kind": "sample", "t": 0.0, "points": []}) + "\n"
        path.write_text(line * 3, encoding="utf-8")
        store = FleetStore()
        tailer = JsonlTailIngester(str(path), store, job="j1")
        tailer.poll()
        assert store.samples == 3
        path.write_text(line, encoding="utf-8")  # rewritten, shorter
        tailer.poll()
        assert store.samples == 4  # re-read from offset 0, no crash

    def test_missing_file_polls_zero(self, tmp_path):
        store = FleetStore()
        tailer = JsonlTailIngester(str(tmp_path / "nope.jsonl"), store)
        assert tailer.poll() == 0


class TestJsonlReplay:
    def test_replaying_a_real_sink_file_maps_meta_and_samples(self, tmp_path):
        from repro import IpmConfig, JobSpec, TelemetryConfig, run_job

        path = tmp_path / "telemetry.jsonl"
        run_job(JobSpec(
            app="square", ntasks=1,
            ipm=IpmConfig(telemetry=TelemetryConfig(
                enabled=True, sinks=("jsonl",), jsonl_path=str(path),
            )),
        ))
        store = FleetStore()
        tailer = JsonlTailIngester(str(path), store)
        assert tailer.replay() > 0
        record = store.registry.job("telemetry")  # job id from the filename
        assert record is not None
        assert record.state == "finished"
        assert record.meta.get("ntasks") == 1
        assert store.samples > 0
        rollups = store.job_rollups("telemetry")
        assert "gpu_busy_fraction" in rollups["metrics"]

    def test_finish_without_any_job_start_sends_no_job_end(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        store = FleetStore()
        tailer = JsonlTailIngester(str(path), store, job="ghost")
        tailer.replay()
        assert store.registry.job("ghost") is None


class TestJsonlTailJobNaming:
    def test_job_id_derives_from_file_stem(self, tmp_path):
        path = tmp_path / "run-a.jsonl"
        path.write_text("")
        assert JsonlTailIngester(str(path), FleetStore()).job == "run-a"

    def test_bare_jsonl_filename_never_yields_an_empty_job(self, tmp_path):
        # regression: a file named exactly ".jsonl" stripped its suffix
        # down to "" and every record was filed under the empty job id.
        path = tmp_path / ".jsonl"
        path.write_text("")
        tailer = JsonlTailIngester(str(path), FleetStore())
        assert tailer.job == ".jsonl"

    def test_non_jsonl_name_is_used_whole(self, tmp_path):
        path = tmp_path / "sink.log"
        path.write_text("")
        assert JsonlTailIngester(str(path), FleetStore()).job == "sink.log"

    def test_explicit_empty_job_raises(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="non-empty"):
            JsonlTailIngester(str(path), FleetStore(), job="")

    def test_explicit_job_overrides_the_stem(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("")
        assert JsonlTailIngester(str(path), FleetStore(), job="x").job == "x"
