"""Workload ``hpl-paper``: the paper's own job (Fig. 9).

One 16-rank CUDA HPL job at preset ``paper_16rank`` runs monitored
with ``IpmConfig()`` and writes its banner, XML log and CUBE file; the
same spec with ``ipm=None`` runs as the unmonitored twin.  About half
of the wall time is simulator thread hand-offs, so simulator,
CUDA-model and IPM-overhead changes show here.  Telemetry, the fleet
and the sweep cache do no work here.

Operations are monitored jobs (with their outputs); queries are reads
of the written profile (XML log parsed back and rendered as a banner).
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Any, Dict, List, NamedTuple

from repro import IpmConfig, JobSpec
from repro.simt.simulator import Simulator
from repro.telemetry.sampler import TelemetryHub

from perfbench.common import (
    Ledger,
    layer_zeros,
    median,
    percentile,
    report_counts,
    scratch_dir,
    WORK,
)
from perfbench.tracing import SpanRecorder, rollup

# the defining modules, looked up per call so the traced run can wrap
# them (``repro.core.banner`` the attribute is the function, hence
# import_module).
jobs = importlib.import_module("repro.cluster.jobs")
banner_mod = importlib.import_module("repro.core.banner")
xmlog = importlib.import_module("repro.core.xmlog")
cube = importlib.import_module("repro.core.cube")

NTASKS = 16
PRESET = "paper_16rank"
#: profile reads timed after each pair, so they sample the whole run
#: rather than one stretch of it (>= 100 at 16 s, so 10 lie beyond
#: p90), and the share of --seconds kept free for them.
QUERIES_PER_PAIR = 50
QUERY_SHARE = 0.2
#: nominal seconds of one monitored + twin pair.  The pair count comes
#: from --seconds alone, not from how fast the host runs: later jobs
#: in a process run slower than the first, so a count that varied
#: with host speed would move the median.
PAIR_S = 8.0


def make_spec(seed: int) -> JobSpec:
    return JobSpec(
        app="hpl", ntasks=NTASKS, command="./xhpl.cuda", ipm=IpmConfig(),
        seed=seed, app_params={"preset": PRESET},
    )


def setup(seed: int) -> Dict[str, Any]:
    spec = make_spec(seed)
    warm = JobSpec(app="hpl", ntasks=2, ipm=IpmConfig(), seed=seed,
                   app_params={"preset": "tiny"})
    banner_mod.banner(jobs.run_job(warm).report)
    return {"spec": spec, "twin": spec.replace(ipm=None)}


class _Facts(NamedTuple):
    events_executed: int
    wallclock: float


def _monitored_job(spec: JobSpec, out_dir: str):
    """run_job to written banner + XML + CUBE; returns (wall, result)."""
    t0 = time.perf_counter()
    res = jobs.run_job(spec)
    with open(os.path.join(out_dir, "banner.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(banner_mod.banner(res.report))
    xmlog.write_xml(res.report, os.path.join(out_dir, "profile.xml"))
    cube.write_cube(res.report, os.path.join(out_dir, "profile.cube"))
    return time.perf_counter() - t0, res


def _twin_job(spec: JobSpec):
    t0 = time.perf_counter()
    res = jobs.run_job(spec)
    return time.perf_counter() - t0, res


def _check_pair(ledger: Ledger, res, twin, out_dir: str, first) -> None:
    report = res.report
    ledger.check(report is not None and report.complete,
                 "hpl: a rank did not complete")
    if report is None:
        return
    with open(os.path.join(out_dir, "banner.txt"), encoding="utf-8") as fh:
        text = fh.read()
    back = xmlog.read_xml(os.path.join(out_dir, "profile.xml"))
    ledger.check(banner_mod.banner(back) == text,
                 "hpl: banner -> write_xml -> read_xml changed the banner")
    ledger.check(_app_results(res) == _app_results(twin),
                 "hpl: app results differ from the unmonitored twin")
    ledger.check(res.wallclock >= twin.wallclock,
                 "hpl: monitored virtual wallclock below the twin's")
    if first is not None:
        ledger.check(
            (res.events_executed, res.wallclock)
            == (first.events_executed, first.wallclock),
            "hpl: events or virtual time did not repeat for the same spec",
        )


def _app_results(res) -> List[Dict[str, Any]]:
    """Per-rank app outputs without their ``*_time`` timing facts.

    Monitoring dilates virtual time by design, so only the computed
    values (HPL's residual) must equal the unmonitored twin's.
    """
    return [
        {k: v for k, v in r.items() if not k.endswith("_time")}
        for r in res.results
    ]


def _queries(out_dir: str, n: int) -> List[float]:
    """Time ``n`` reads of the written profile, as ``repro report`` does.

    Each read parses the XML log back into a report and renders its
    banner: the user's view of a finished job.
    """
    xml_path = os.path.join(out_dir, "profile.xml")
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        banner_mod.banner(xmlog.read_xml(xml_path))
        out.append(time.perf_counter() - t0)
    return out


def run(seed: int, seconds: float, ledger: Ledger) -> Dict[str, Any]:
    state = setup(seed)
    out_dir = scratch_dir(f"hpl-{os.getpid()}")
    walls: List[float] = []
    twin_walls: List[float] = []
    first = None
    queries: List[float] = []
    for _ in range(max(1, int((1 - QUERY_SHARE) * seconds / PAIR_S))):
        wall, res = _monitored_job(state["spec"], out_dir)
        twall, twin = _twin_job(state["twin"])
        ledger.ops(2)
        _check_pair(ledger, res, twin, out_dir, first)
        # keep only what the repeat check needs, so peak memory is one
        # job's whatever the number of jobs
        first = first or _Facts(res.events_executed, res.wallclock)
        res = twin = None
        walls.append(wall)
        twin_walls.append(twall)
        queries.extend(_queries(out_dir, QUERIES_PER_PAIR))
    ledger.ops(len(queries))
    dilation = median([w / t for w, t in zip(walls, twin_walls)])
    # monitored and twin jobs alike, so the twin's wall (the base of
    # ipm_dilation) is gated too; op_p50_ms covers the monitored job.
    jobs_per_s = (len(walls) + len(twin_walls)) / (sum(walls)
                                                    + sum(twin_walls))
    return {
        "e2e": {
            "throughput_per_s": jobs_per_s,
            "op_p50_ms": 1000 * median(walls),
            "query_p90_ms": 1000 * percentile(queries, 0.90),
        },
        "named": [
            ("job_s", median(walls), "s"),
            ("ipm_dilation", dilation, "ratio"),
            ("twin_job_s", median(twin_walls), "s"),
            ("jobs_per_s", jobs_per_s, "jobs/s"),
            ("slowest_job_s", max(walls), "s"),
            ("query_p50_ms", 1000 * median(queries), "ms"),
            ("jobs_measured", len(walls), "count"),
            ("report_queries", len(queries), "count"),
        ],
    }


def trace(seed: int, seconds: float, ledger: Ledger) -> Dict[str, float]:
    """A traced monitored job + twin between two untraced jobs.

    The tracing overhead compares the traced job with the mean of the
    untraced ones around it, since later jobs in a process run slower.
    """
    state = setup(seed)
    out_dir = scratch_dir(f"hpl-{os.getpid()}")
    before_wall, res = _monitored_job(state["spec"], out_dir)
    first = _Facts(res.events_executed, res.wallclock)
    res = None
    rec = SpanRecorder()
    rec.wrap(jobs, "run_job", "cluster.run_job")
    rec.wrap(Simulator, "run", "simt.run")
    rec.wrap(TelemetryHub, "sample_now", "telemetry.sample_now")
    rec.wrap(banner_mod, "banner", "core.banner")
    rec.wrap(xmlog, "write_xml", "core.write_xml")
    rec.wrap(cube, "write_cube", "core.write_cube")
    try:
        wall, res = _monitored_job(state["spec"], out_dir)
        monitored_spans = list(rec.spans)
        _twall, twin = _twin_job(state["twin"])
    finally:
        rec.uninstall()
    after_wall, _res = _monitored_job(state["spec"], out_dir)
    _res = None
    rec.dump(os.path.join(WORK, f"trace-hpl-paper-{seed}.json"))
    ledger.ops(4)
    _check_pair(ledger, res, twin, out_dir, first)
    spans = rollup(monitored_spans)

    def span(name: str, key: str = "time") -> float:
        return spans.get(name, {}).get(key, 0.0)

    layers = layer_zeros()
    layers.update(report_counts([res.report]))
    run_s = span("simt.run")
    run_job_s = span("cluster.run_job")
    layers.update({
        "simt.run_s": run_s,
        "simt.events": res.events_executed,
        "simt.events_per_s": res.events_executed / run_s if run_s else 0.0,
        "simt.virtual_s": res.wallclock,
        "cluster.run_job_s": run_job_s,
        "core.extra_events": res.events_executed - twin.events_executed,
        "core.banner_s": span("core.banner"),
        "core.xml_s": span("core.write_xml"),
        "core.cube_s": span("core.write_cube"),
        "telemetry.sample_s": span("telemetry.sample_now"),
        "telemetry.ticks": span("telemetry.sample_now", "count"),
        "telemetry.share": (
            span("telemetry.sample_now") / run_job_s if run_job_s else 0.0
        ),
        "bench.trace_overhead": wall / ((before_wall + after_wall) / 2),
    })
    return layers
