"""Sink implementations: memory ring, JSONL framing, OpenMetrics text."""

import json

import pytest

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.series import SamplePoint
from repro.telemetry.sinks import (
    JSONL_SCHEMA,
    METRIC_HELP,
    JsonlSink,
    MemorySink,
    OpenMetricsSink,
    escape_label_value,
    format_value,
    make_sinks,
)


def _pt(t, name, value, **labels):
    return SamplePoint(
        t, name, tuple(sorted((k, str(v)) for k, v in labels.items())), value
    )


def test_memory_sink_bounds_and_drop_count():
    sink = MemorySink(capacity=3)
    sink.open({"command": "./a.out"})
    sink.emit(0.0, [_pt(0.0, "x", 1.0, rank=0), _pt(0.0, "y", 2.0, rank=0)])
    sink.emit(1.0, [_pt(1.0, "x", 3.0, rank=0), _pt(1.0, "y", 4.0, rank=0)])
    assert sink.ticks == 2
    assert sink.emitted == 4
    assert len(sink) == 3
    assert sink.dropped == 1
    assert [p.value for p in sink.points()] == [2.0, 3.0, 4.0]
    assert sink.meta["command"] == "./a.out"
    sink.close()
    assert sink.closed


def test_memory_sink_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        MemorySink(capacity=0)


def test_jsonl_sink_framing(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    sink = JsonlSink(str(path))
    sink.open({"command": "./a.out", "ntasks": 2})
    sink.emit(0.01, [_pt(0.01, "x", 1.5, rank=0)])
    sink.emit(0.02, [])
    sink.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    header = json.loads(lines[0])
    assert header["kind"] == "meta"
    assert header["schema"] == JSONL_SCHEMA
    assert header["ntasks"] == 2
    sample = json.loads(lines[1])
    assert sample["kind"] == "sample"
    assert sample["points"] == [
        {"name": "x", "labels": {"rank": "0"}, "value": 1.5}
    ]
    assert json.loads(lines[2])["points"] == []
    # close is idempotent and text() mirrors the file
    sink.close()
    assert sink.text() == path.read_text()


def test_openmetrics_exposition(tmp_path):
    path = tmp_path / "metrics.prom"
    sink = OpenMetricsSink(str(path))
    sink.open({})
    sink.emit(0.5, [_pt(0.5, "gpu_busy_fraction", 0.25, gpu=0)])
    sink.emit(
        1.0,
        [
            _pt(1.0, "gpu_busy_fraction", 0.75, gpu=0),
            _pt(1.0, "ipm_events_per_sec", 123.0, rank=1),
        ],
    )
    text = sink.expose()
    assert "# TYPE gpu_busy_fraction gauge" in text
    # latest value wins, labels render in OpenMetrics syntax
    assert 'gpu_busy_fraction{gpu="0"} 0.75 1.000000' in text
    assert 'ipm_events_per_sec{rank="1"} 123 1.000000' in text
    assert text.endswith("# EOF\n")
    # families appear exactly once even with repeated emits
    assert text.count("# TYPE gpu_busy_fraction") == 1
    sink.close()
    assert path.read_text() == text


@pytest.mark.parametrize("raw, escaped", [
    ("plain", "plain"),
    ('say "hi"', 'say \\"hi\\"'),
    ("back\\slash", "back\\\\slash"),
    ("two\nlines", "two\\nlines"),
    ('\\"\n', '\\\\\\"\\n'),
])
def test_escape_label_value_per_openmetrics_spec(raw, escaped):
    assert escape_label_value(raw) == escaped


def test_openmetrics_format_pin(tmp_path):
    """Satellite pin: HELP precedes TYPE; label values are escaped."""
    sink = OpenMetricsSink(str(tmp_path / "m.prom"))
    sink.open({})
    sink.emit(0.5, [
        _pt(0.5, "gpu_busy_fraction", 0.25, gpu=0),
        _pt(0.5, "host_idle_fraction", 0.5, host='we"ird\\h\nost'),
    ])
    text = sink.expose()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("# TYPE "):
            name = line.split()[2]
            if name in METRIC_HELP:
                assert lines[i - 1] == f"# HELP {name} {METRIC_HELP[name]}"
    assert "# HELP gpu_busy_fraction " in text
    assert 'host_idle_fraction{host="we\\"ird\\\\h\\nost"} 0.5' in text
    sink.close()


@pytest.mark.parametrize("value, text", [
    (0.25, "0.25"),
    (123.0, "123"),
    (7, "7"),
    (1.0 / 3.0, "0.333333333"),
    (1e21, "1e+21"),
    (float("nan"), "NaN"),
    (float("inf"), "+Inf"),
    (float("-inf"), "-Inf"),
])
def test_format_value_uses_openmetrics_spellings(value, text):
    assert format_value(value) == text


def test_openmetrics_exposition_of_non_finite_values():
    sink = OpenMetricsSink()
    sink.open({})
    sink.emit(1.0, [
        _pt(1.0, "a", float("nan"), rank=0),
        _pt(1.0, "b", float("inf")),
        _pt(1.0, "c", float("-inf"), gpu=1),
    ])
    lines = sink.expose().splitlines()
    assert 'a{rank="0"} NaN 1.000000' in lines
    assert "b +Inf 1.000000" in lines
    assert 'c{gpu="1"} -Inf 1.000000' in lines
    assert not any(
        word in ("nan", "inf", "-inf") for line in lines for word in line.split()
    )


def test_make_sinks_from_config(tmp_path):
    cfg = TelemetryConfig(
        enabled=True,
        sinks=("memory", "jsonl", "openmetrics"),
        memory_capacity=7,
        jsonl_path=str(tmp_path / "t.jsonl"),
        openmetrics_path=str(tmp_path / "t.prom"),
    )
    sinks = make_sinks(cfg)
    assert [s.name for s in sinks] == ["memory", "jsonl", "openmetrics"]
    assert sinks[0].capacity == 7
    assert sinks[1].path == cfg.jsonl_path
    assert sinks[2].path == cfg.openmetrics_path


def test_config_validates_sink_names_and_interval():
    with pytest.raises(ValueError):
        TelemetryConfig(sinks=("carrier-pigeon",))
    with pytest.raises(ValueError):
        TelemetryConfig(interval=0.0)
    with pytest.raises(ValueError):
        TelemetryConfig(retention=0)
