#!/usr/bin/env python
"""Cluster-wide utilization dashboard from the streaming telemetry.

Runs a small shared-GPU HPL job with the virtual-time sampler enabled
and renders what a monitoring UI would show: per-GPU and per-node
utilization sparklines, per-rank activity rates, and the three sink
outputs (memory ring for this dashboard, ``telemetry.jsonl`` for a
collector, ``metrics.prom`` for a Prometheus scrape) plus a
Perfetto-loadable ``trace.json``.

Usage::

    PYTHONPATH=src python examples/telemetry_dashboard.py [outdir]
"""

import os
import sys

from repro.apps.hpl import HplConfig, hpl_app
from repro.cluster import run_job
from repro.core import IpmConfig
from repro.sweep import JobSpec
from repro.telemetry import TelemetryConfig, write_chrome_trace

_TICKS = " ▁▂▃▄▅▆▇█"


def spark(values, lo=0.0, hi=1.0, width=64):
    """Render a value sequence as a unicode sparkline (last ``width``)."""
    values = values[-width:]
    span = max(hi - lo, 1e-12)
    out = []
    for v in values:
        frac = min(max((v - lo) / span, 0.0), 1.0)
        out.append(_TICKS[round(frac * (len(_TICKS) - 1))])
    return "".join(out)


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "."
    os.makedirs(outdir, exist_ok=True)
    jsonl = os.path.join(outdir, "telemetry.jsonl")
    prom = os.path.join(outdir, "metrics.prom")
    trace = os.path.join(outdir, "trace.json")

    # 4 ranks on 2 nodes — two ranks share each node's GPU, so the
    # utilization series show real contention
    result = run_job(JobSpec(
        app=lambda env: hpl_app(env, HplConfig.tiny()), ntasks=4,
        command="./xhpl.cuda", ranks_per_node=2,
        ipm=IpmConfig(
            trace_capacity=65536,
            telemetry=TelemetryConfig(
                enabled=True,
                interval=0.050,
                sinks=("memory", "jsonl", "openmetrics"),
                jsonl_path=jsonl,
                openmetrics_path=prom,
            ),
        ),
        seed=11,
    ))
    hub = result.telemetry
    store = hub.store

    print(f"HPL x4 (2 ranks/GPU): wallclock {result.wallclock:.2f}s, "
          f"{hub.ticks} sampler ticks @ {hub.config.interval * 1000:.0f}ms")
    print()
    print("GPU busy fraction")
    for series in store.series("gpu_busy_fraction"):
        gpu = dict(series.labels)["gpu"]
        values = series.values()
        mean = sum(values) / len(values)
        print(f"  gpu {gpu}   {spark(values)}  mean {mean * 100:5.1f}%")
    print()
    print("Node rollups (gpu busy | events/s | mpi fraction)")
    for series in store.series("node_gpu_busy_fraction"):
        host = dict(series.labels)["node"]
        busy = series.values()
        evs = store.get("node_events_per_sec", node=host)
        mpi = store.get("node_mpi_fraction", node=host)
        print(f"  {host}  {spark(busy)}  "
              f"ev/s {max(evs.values()) if evs else 0:8.0f}  "
              f"mpi {100 * (mpi.values()[-1] if mpi else 0):5.1f}%")
    print()
    print("Per-rank activity (latest tick)")
    for series in store.series("ipm_events_per_sec"):
        rank = dict(series.labels)["rank"]
        idle = store.latest("ipm_host_idle_fraction", rank=rank) or 0.0
        busy = store.latest("ipm_gpu_busy_fraction", rank=rank) or 0.0
        print(f"  rank {rank}  {spark(series.values(), hi=max(series.values()) or 1)}"
              f"  gpu {100 * busy:5.1f}%  host-idle {100 * idle:5.1f}%")

    write_chrome_trace(result.report, trace, store)
    print()
    for path, what in ((jsonl, "JSONL stream"), (prom, "OpenMetrics exposition"),
                       (trace, "Chrome trace (ui.perfetto.dev)")):
        print(f"wrote {path}  ({what})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
