"""The benchmark's own checks, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import shutil
import subprocess
import sys

import pytest

from perfbench import common, fleet_ingest, hpl_paper, monitor_stream
from perfbench import run as bench
from perfbench import sweep_telemetry
from perfbench.tracing import SpanRecorder, rollup, self_times


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to seconds of work."""
    monkeypatch.setattr(hpl_paper, "PRESET", "tiny")
    monkeypatch.setattr(hpl_paper, "NTASKS", 2)
    monkeypatch.setattr(sweep_telemetry, "MIX", (("hpl", 2),))
    monkeypatch.setattr(sweep_telemetry, "SPEC_SEEDS", 2)
    monkeypatch.setattr(sweep_telemetry, "WARM_PASSES", 2)
    monkeypatch.setattr(monitor_stream, "CALLS", 20_000)
    monkeypatch.setattr(monitor_stream, "QUERY_EVERY", 256)
    monkeypatch.setattr(fleet_ingest, "QUERY_PERIOD_S", 0.01)
    monkeypatch.setattr(fleet_ingest, "LADDER_STEP_S", 0.2)


SECONDS = {"hpl-paper": 1.0, "sweep-telemetry": 1.0, "fleet-ingest": 10.0,
           "monitor-stream": 1.0}


def test_catalogue_matches_benchmark_json():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(common.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(common.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", sorted(bench.MODULES))
def test_every_metric_is_emitted_with_its_unit(tiny, workload):
    ledger, metrics, named = bench.measure(workload, 3, SECONDS[workload],
                                           trace=False)
    assert ledger.failed == 0, ledger.failures
    assert ledger.attempted > 0
    assert {n: m["unit"] for n, m in metrics.items()} == {
        n: u for n, u, _b in common.END_TO_END
    }
    for name, entry in metrics.items():
        assert isinstance(entry["value"], (int, float)), name
        assert entry["value"] > 0, name
    assert named and all(len(row) == 3 for row in named)


@pytest.mark.parametrize("workload", sorted(bench.MODULES))
def test_traced_run_reports_every_layer(tiny, workload):
    ledger, metrics, _named = bench.measure(workload, 3, SECONDS[workload],
                                            trace=True)
    assert ledger.failed == 0, ledger.failures
    assert {n: m["unit"] for n, m in metrics.items()} == {
        n: u for n, u, _b in common.PER_LAYER
    }
    assert metrics["bench.trace_overhead"]["value"] > 0
    telemetry = metrics["telemetry.ticks"]["value"]
    if workload == "sweep-telemetry":
        assert telemetry > 0
    else:
        assert telemetry == 0


def _fleet_lines(seed, n):
    lines = fleet_ingest._Lines(fleet_ingest.make_inputs(seed))
    out = []
    for seq in range(n):
        record = json.loads(lines.line(seq))
        record.pop("hts")  # the send wall-clock, not an input
        out.append(record)
    return out


@pytest.mark.parametrize("make", [
    lambda seed: hpl_paper.make_spec(seed).content_hash(),
    lambda seed: [s.content_hash() for s in sweep_telemetry.make_specs(seed)],
    lambda seed: monitor_stream.make_stream(seed, 10_000),
    lambda seed: fleet_ingest.make_inputs(seed),
    lambda seed: _fleet_lines(seed, 50),
], ids=["hpl-spec", "sweep-specs", "call-stream", "fleet-inputs",
        "fleet-records"])
def test_inputs_depend_on_the_seed_alone(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


class _FakePublisher:
    """Acks every record of a rate within ``capacity`` after 1 ms, and
    none of a faster one, on a simulated clock."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.clock = 0.0
        self.due, self.acked, self.late = [], [], []
        self.n_acked = 0

    @property
    def sent(self):
        return len(self.due)

    def drain(self, _timeout):
        self.n_acked = self.sent
        return True

    def send_phase(self, rate, seconds):
        first = self.sent
        keeps_up = rate <= self.capacity
        for k in range(int(rate * seconds)):
            due = self.clock + k / rate
            self.due.append(due)
            self.acked.append(due + 0.001 if keeps_up else None)
            self.late.append(0.0)
        if keeps_up:
            self.n_acked = self.sent
        self.clock += seconds
        return first

    def latencies(self, lo, hi, _now):
        return [(a if a is not None else self.clock) - d
                for d, a in zip(self.due[lo:hi], self.acked[lo:hi])]


@pytest.mark.parametrize("capacity", [60.0, 20_000.0])
def test_ladder_finds_the_knee_wherever_it_lies(monkeypatch, capacity):
    monkeypatch.setattr(fleet_ingest, "LADDER_STEP_S", 0.05)
    ledger = common.Ledger()
    knee, rows = fleet_ingest._run_ladder(_FakePublisher(capacity), ledger,
                                          30.0)
    assert ledger.failed == 0, ledger.failures
    assert capacity / fleet_ingest.LADDER_RATIO <= knee <= capacity
    assert not rows[-1]["ok"]


def test_ladder_without_a_knee_fails_a_check(monkeypatch):
    monkeypatch.setattr(fleet_ingest, "LADDER_STEP_S", 0.002)
    ledger = common.Ledger()
    fleet_ingest._run_ladder(_FakePublisher(float("inf")), ledger, 30.0)
    assert any("outside" in f for f in ledger.failures)


def test_tampered_warm_result_counts_as_a_failure(tiny, monkeypatch):
    lookup = sweep_telemetry.ResultCache.lookup

    def tampered(cache, spec):
        record = lookup(cache, spec)
        if record is None:
            return None
        report = pickle.loads(record.report_pickle)
        report.tasks[0].gflops += 1.0
        return dataclasses.replace(record, report_pickle=pickle.dumps(report))

    monkeypatch.setattr(sweep_telemetry.ResultCache, "lookup", tampered)
    ledger = common.Ledger()
    sweep_telemetry.run(5, 1.0, ledger)
    assert ledger.failed > 0
    assert ledger.error_rate > 0
    assert any("pickles differ" in f for f in ledger.failures)


def test_monitor_counts_match_the_stream():
    names, stream = monitor_stream.make_stream(4, 5_000)
    ipm, _busy, _batches = monitor_stream._pass(names, stream, True, None)
    ledger = common.Ledger()
    monitor_stream._check_counts(
        ledger, ipm, monitor_stream.expected_counts(names, stream)
    )
    assert ledger.failed == 0
    # one call more than the table saw breaks the equality
    extra = monitor_stream.expected_counts(names, stream + stream[:1])
    monitor_stream._check_counts(ledger, ipm, extra)
    assert ledger.failed == 1


def test_self_time_subtracts_children():
    rec = SpanRecorder()

    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            sum(range(10_000))

    rec.wrap(Layer, "outer", "outer")
    rec.wrap(Layer, "inner", "inner")
    try:
        Layer().outer()
    finally:
        rec.uninstall()
    assert Layer.outer.__name__ == "outer"  # restored
    spans = {s[1]: s for s in rec.spans}
    outer = spans["outer"]
    inners = [s for s in rec.spans if s[1] == "inner"]
    assert all(s[4] == outer[0] and s[5] == outer[5] for s in inners)
    selfs = self_times(rec.spans)
    covered = sum(s[3] - s[2] for s in inners)
    assert selfs[outer[0]] == pytest.approx(outer[3] - outer[2] - covered)
    assert rollup(rec.spans)["inner"]["count"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(common.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hpl-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
