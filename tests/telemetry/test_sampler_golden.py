"""Golden output of the sampler: every sink and the store, byte for byte.

A telemetry-on HPL job on 4 ranks over 2 nodes feeds all three sinks
plus a tap that renders each tick the way :class:`FleetSink` puts it on
the wire.  One sha256 over the store series, the memory-sink points,
the JSONL text, the OpenMetrics text and the wire records pins the
sampler's output; any change to which points a tick emits, their
order, labels or values moves the digest.
"""

import hashlib
import json

from repro import IpmConfig, JobSpec, run_job
from repro.fleet.protocol import sample_points
from repro.telemetry.config import TelemetryConfig

GOLDEN_SHA256 = (
    "4a82578dd50f155939e79f8b4c9d672b1c196d87eb77f7382661aa47c6e4e67e"
)


class _WireTap:
    """Renders every tick as the fleet publisher's sample record."""

    name = "wire"

    def __init__(self):
        self.lines = []

    def open(self, meta):
        pass

    def emit(self, t, points):
        self.lines.append(json.dumps(
            {"t": round(t, 9), "points": sample_points(points)},
            sort_keys=True,
        ))

    def close(self):
        pass


def _golden_run():
    tcfg = TelemetryConfig(
        enabled=True,
        interval=0.010,
        sinks=("memory", "jsonl", "openmetrics"),
    )
    tap = _WireTap()
    result = run_job(
        JobSpec(
            app="hpl",
            ntasks=4,
            ranks_per_node=2,
            ipm=IpmConfig(telemetry=tcfg),
            seed=5,
            app_params={"preset": "tiny"},
        ),
        extra_sinks=[tap],
    )
    return result.telemetry, tap


def _digest(hub, tap):
    h = hashlib.sha256()
    for s in hub.store.series():
        h.update(repr((s.name, s.labels, s.points)).encode())
    for p in hub.sink("memory").points():
        h.update(repr((p.t, p.name, p.labels, p.value)).encode())
    h.update(hub.sink("jsonl").text().encode())
    h.update(hub.sink("openmetrics").expose().encode())
    for line in tap.lines:
        h.update(line.encode())
    return h.hexdigest()


def test_sampler_output_matches_golden_digest():
    hub, tap = _golden_run()
    nodes = {
        dict(p.labels)["node"]
        for p in hub.sink("memory").points()
        if p.name.startswith("node_")
    }
    assert len(nodes) == 2
    assert hub.ticks > 10
    assert _digest(hub, tap) == GOLDEN_SHA256
