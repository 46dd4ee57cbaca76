"""Telemetry teardown is guaranteed: sinks flush even when the app dies."""

import json

import pytest

from repro.cluster import run_job
from repro.core import IpmConfig
from repro.simt import ProcessCrashed
from repro.sweep import JobSpec
from repro.telemetry.config import TelemetryConfig


def _tcfg(tmp_path):
    return TelemetryConfig(
        enabled=True,
        interval=0.010,
        sinks=("memory", "jsonl"),
        jsonl_path=str(tmp_path / "telemetry.jsonl"),
    )


def test_sinks_flushed_when_the_app_raises(tmp_path):
    def dying_app(env):
        env.hostcompute(0.05)  # let the sampler take a few samples
        raise RuntimeError("application bug")

    with pytest.raises(ProcessCrashed):
        run_job(JobSpec(
            app=dying_app, ntasks=2, ipm=IpmConfig(telemetry=_tcfg(tmp_path)),
        ))

    # the try/finally around the run loop still flushed + closed sinks:
    # the JSONL file is complete and well-formed despite the crash.
    lines = (tmp_path / "telemetry.jsonl").read_text().splitlines()
    assert lines, "jsonl sink never flushed"
    head = json.loads(lines[0])
    assert head["kind"] == "meta"
    kinds = {json.loads(l)["kind"] for l in lines[1:]}
    assert kinds == {"sample"}


def test_sinks_closed_on_the_clean_path_too(tmp_path):
    res = run_job(JobSpec(
        app=lambda env: env.hostcompute(0.05), ntasks=1,
        ipm=IpmConfig(telemetry=_tcfg(tmp_path)),
    ))
    mem = res.telemetry.sink("memory")
    assert mem.closed and len(mem) > 0
