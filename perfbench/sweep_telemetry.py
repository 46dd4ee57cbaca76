"""Workload ``sweep-telemetry``: a cached serial sweep with telemetry on.

A serial ``SweepRunner`` runs telemetry-enabled ``tiny`` HPL, PARATEC
and Amber specs over a fresh ``ResultCache`` (the cold pass, which
writes the cache), replays the same specs from the cache (the warm
passes, which read it), then analyses the sweep.  The telemetry
sampler is nearly all of a telemetry job's time and does nothing in
``hpl-paper``; a cache change that helps one side and hurts the other
shows up in the cold/warm pair.

Serial because worker processes would time-share two cores: a probe
gave 5.3-7.2 s with 2 workers against a steady 9.8 s serial.

Operations are specs of the cold pass; queries are reads of the
finished sweep: ``analyze_sweep``, the summary, and a cold/warm diff.
"""

from __future__ import annotations

import importlib
import logging
import os
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import IpmConfig, JobSpec, ResultCache, SweepRunner, TelemetryConfig
from repro.analysis import diff_sweeps
from repro.simt.simulator import Simulator
from repro.sweep.events import LIFECYCLE_LOGGER
from repro.telemetry.sampler import TelemetryHub

from perfbench.common import (
    Ledger,
    WORK,
    layer_zeros,
    median,
    percentile,
    report_counts,
    scratch_dir,
)
from perfbench.tracing import SpanRecorder, rollup

jobs = importlib.import_module("repro.cluster.jobs")
diagnose = importlib.import_module("repro.analysis.diagnose")

#: (app, ntasks) per spec seed; every entry runs at preset ``tiny``.
#: Three classes of distinct size (about 0.6, 0.85 and 1.7 s on a
#: 2-vCPU host), so the median spec wall lies inside the middle class
#: rather than on the boundary between two.
MIX: Tuple[Tuple[str, int], ...] = (
    ("hpl", 4), ("paratec", 2), ("amber", 2),
)
#: spec seeds drawn from the benchmark seed: 2 x 3 = 6 specs per pass.
SPEC_SEEDS = 2
#: warm replay passes after each cold pass (one pass of 6 specs takes
#: ~30 ms, too short to time steadily on its own).
WARM_PASSES = 20
#: sweep reads timed after each warm pass, so they sample the whole
#: run rather than one stretch of it (at least 100 in all, so 10 lie
#: beyond p90), and the share of --seconds kept free for them.
QUERIES_PER_WARM_PASS = 6
QUERY_SHARE = 0.1
#: nominal seconds of one cold + warm cycle; the cycle count comes from
#: --seconds alone, not from how fast the host runs.
CYCLE_S = 7.0


def make_specs(seed: int) -> List[JobSpec]:
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 1_000_000), SPEC_SEEDS)
    ipm = IpmConfig(telemetry=TelemetryConfig(enabled=True,
                                              sinks=("memory",)))
    return [
        JobSpec(app=app, ntasks=ntasks, ipm=ipm, seed=s,
                app_params={"preset": "tiny"})
        for s in seeds for app, ntasks in MIX
    ]


def setup(seed: int) -> Dict[str, Any]:
    specs = make_specs(seed)
    warm = JobSpec(app="hpl", ntasks=2, seed=seed,
                   app_params={"preset": "tiny"},
                   ipm=specs[0].ipm)
    cache = ResultCache(scratch_dir(f"sweep-warmup-{os.getpid()}"))
    with SweepRunner(mode="serial", cache=cache) as runner:
        runner.run([warm])
        runner.run([warm])
    return {"specs": specs}


class _SpecTimer(logging.Handler):
    """Per-spec wall time from the runner's lifecycle log records."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.started: Dict[str, float] = {}
        self.walls: List[float] = []

    def emit(self, record: logging.LogRecord) -> None:
        event = getattr(record, "sweep_event", None)
        if not isinstance(event, dict):
            return
        now = time.perf_counter()
        if event.get("kind") == "spec_start":
            self.started[event["job"]] = now
        elif event.get("kind") == "spec_finish" and not event.get(
            "from_cache"
        ):
            start = self.started.pop(event["job"], None)
            if start is not None:
                self.walls.append(now - start)


class _Lifecycle:
    """Attach a :class:`_SpecTimer` to the lifecycle logger."""

    def __enter__(self) -> _SpecTimer:
        self.logger = logging.getLogger(LIFECYCLE_LOGGER)
        self.level = self.logger.level
        self.timer = _SpecTimer()
        self.logger.addHandler(self.timer)
        self.logger.setLevel(logging.INFO)
        return self.timer

    def __exit__(self, *exc_info) -> None:
        self.logger.removeHandler(self.timer)
        self.logger.setLevel(self.level)


def _cycle(specs: List[JobSpec], ledger: Ledger, warm_passes: int,
           queries: Optional[List[float]] = None):
    """One cold pass over a fresh cache, then ``warm_passes`` replays,
    each followed by ``QUERIES_PER_WARM_PASS`` sweep reads timed into
    ``queries`` when it is a list.

    Returns (cold seconds, cold report, warm pass seconds, last warm
    report, cache).
    """
    cache = ResultCache(scratch_dir(f"sweep-cache-{os.getpid()}"))
    t0 = time.perf_counter()
    with SweepRunner(mode="serial", cache=cache) as runner:
        cold = runner.run(specs)
    cold_s = time.perf_counter() - t0
    ledger.ops(len(cold), sum(1 for r in cold if not r.ok), "cold specs")
    ledger.check(cold.executed == len(specs),
                 f"sweep: cold pass executed {cold.executed} of "
                 f"{len(specs)} specs")
    warm_s = []
    warm = cold
    for _ in range(warm_passes):
        t0 = time.perf_counter()
        with SweepRunner(mode="serial", cache=cache) as runner:
            warm = runner.run(specs)
        warm_s.append(time.perf_counter() - t0)
        ledger.ops(len(warm), sum(1 for r in warm if not r.ok),
                   "warm specs")
        ledger.check(
            warm.cache_hits == len(specs) and warm.executed == 0,
            f"sweep: warm pass hit {warm.cache_hits} of {len(specs)} "
            f"and executed {warm.executed}",
        )
        ledger.check(
            [r.report_pickle for r in warm]
            == [r.report_pickle for r in cold],
            "sweep: warm report pickles differ from the cold pass",
        )
        if queries is not None:
            queries.extend(_queries(cold, warm, QUERIES_PER_WARM_PASS))
    return cold_s, cold, warm_s, warm, cache


def _queries(cold, warm, n: int) -> List[float]:
    """``n`` timed sweep reads, cycling three kinds."""
    kinds = (
        lambda: diagnose.analyze_sweep(cold),
        cold.summary,
        lambda: diff_sweeps(cold, warm),
    )
    out = []
    for i in range(n):
        t0 = time.perf_counter()
        kinds[i % len(kinds)]()
        out.append(time.perf_counter() - t0)
    return out


def run(seed: int, seconds: float, ledger: Ledger) -> Dict[str, Any]:
    specs = setup(seed)["specs"]
    n = len(specs)
    cold_s: List[float] = []
    warm_s: List[float] = []
    queries: List[float] = []
    with _Lifecycle() as timer:
        for _ in range(max(1, int((1 - QUERY_SHARE) * seconds / CYCLE_S))):
            # drop the previous cycle's reports first, so peak memory is
            # one cycle's whatever the number of cycles
            cold = warm = None
            c_s, cold, w_s, warm, _cache = _cycle(specs, ledger, WARM_PASSES,
                                                  queries)
            cold_s.append(c_s)
            warm_s.extend(w_s)
    ledger.check(len(timer.walls) == n * len(cold_s),
                 "sweep: lifecycle log missed spec timings")
    ledger.ops(len(queries))
    # The fastest cold pass, and each spec's fastest cold wall: other
    # tenants of a shared host slow whole seconds of a run by up to
    # 1.7x, so the slower repeats measure them, not the program.
    cold_rate = n / min(cold_s)
    spec_walls = [min(timer.walls[i::n]) for i in range(n)]
    warm_rate = median([n / s for s in warm_s])
    return {
        "e2e": {
            "throughput_per_s": cold_rate,
            "op_p50_ms": 1000 * median(spec_walls),
            "query_p90_ms": 1000 * percentile(queries, 0.90),
        },
        "named": [
            ("cold_specs_per_s", cold_rate, "specs/s"),
            ("warm_specs_per_s", warm_rate, "specs/s"),
            ("slowest_spec_ms", 1000 * max(timer.walls), "ms"),
            ("query_p50_ms", 1000 * median(queries), "ms"),
            ("specs_per_pass", n, "count"),
            ("cold_passes", len(cold_s), "count"),
            ("warm_passes", len(warm_s), "count"),
            ("sweep_queries", len(queries), "count"),
        ],
    }


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _dirs, files in os.walk(root) for f in files
    )


def trace(seed: int, seconds: float, ledger: Ledger) -> Dict[str, float]:
    """An untraced cold pass, then a traced cold + warm + analysis."""
    specs = setup(seed)["specs"]
    untraced_s, *_rest = _cycle(specs, ledger, 0)
    rec = SpanRecorder()
    rec.wrap(jobs, "run_job", "cluster.run_job")
    rec.wrap(Simulator, "run", "simt.run")
    rec.wrap(TelemetryHub, "sample_now", "telemetry.sample_now",
             measure=len)
    rec.wrap(ResultCache, "lookup", "sweep.cache_lookup")
    rec.wrap(ResultCache, "store", "sweep.cache_store")
    rec.wrap(diagnose, "analyze_sweep", "analysis.analyze_sweep")
    try:
        cold_s, cold, warm_s, warm, cache = _cycle(specs, ledger, 1)
        diag = diagnose.analyze_sweep(cold)
    finally:
        rec.uninstall()
    rec.dump(os.path.join(WORK, f"trace-sweep-telemetry-{seed}.json"))
    spans = rollup(rec.spans)

    def span(name: str, key: str = "time") -> float:
        return spans.get(name, {}).get(key, 0.0)

    layers = layer_zeros()
    layers.update(report_counts([r.report for r in cold]))
    run_s = span("simt.run")
    run_job_s = span("cluster.run_job")
    events = sum(r.events_executed for r in cold)
    lookups = span("sweep.cache_lookup", "count")
    layers.update({
        "simt.run_s": run_s,
        "simt.events": events,
        "simt.events_per_s": events / run_s if run_s else 0.0,
        "simt.virtual_s": sum(r.wallclock for r in cold),
        "cluster.run_job_s": run_job_s,
        "telemetry.sample_s": span("telemetry.sample_now"),
        "telemetry.ticks": span("telemetry.sample_now", "count"),
        "telemetry.points": rec.counts["telemetry.sample_now"],
        "telemetry.share": (
            span("telemetry.sample_now") / run_job_s if run_job_s else 0.0
        ),
        "sweep.cold_s": cold_s,
        "sweep.warm_s": sum(warm_s),
        "sweep.executed": cold.executed + warm.executed,
        "sweep.cache_hits": cold.cache_hits + warm.cache_hits,
        "sweep.hit_ratio": (
            (cold.cache_hits + warm.cache_hits) / lookups if lookups else 0.0
        ),
        "sweep.cache_lookup_s": span("sweep.cache_lookup"),
        "sweep.cache_store_s": span("sweep.cache_store"),
        "sweep.cache_bytes": _tree_bytes(cache.root),
        "analysis.analyze_s": span("analysis.analyze_sweep"),
        "analysis.findings": len(diag.findings) + sum(
            len(d.findings) for d in diag.diagnoses
        ),
        "bench.trace_overhead": cold_s / untraced_s,
    })
    return layers
