"""Sweep-runner benchmark: parallel fan-out and warm-cache replay.

The figure scripts re-run the same deterministic simulations over and
over; :class:`repro.SweepRunner` attacks that cost twice — independent
specs fan out onto worker processes, and every result is content-
addressed on disk so the next invocation replays it.  This benchmark
quantifies both levers on a small ensemble of monitored tiny-HPL jobs:

* **serial vs parallel** — the same specs through ``mode="serial"``
  and a 4-worker warm-worker pool, asserting byte-identical reports;
* **cold vs warm cache** — a fresh cache directory filled once, then
  replayed, asserting hits and byte-identity again.

Results are written to ``BENCH_sweep.json`` at the repository root
(schema documented in EXPERIMENTS.md §Sweeps).  The parallel speedup
floor (>= 2x at 4 workers) is asserted only on hosts with more than
one usable core: the simulation is pure CPU work, so a single-core
container physically cannot go faster by forking — the recorded
``cpu_count`` tells readers which regime a given JSON measured.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sweep.py [--jobs N]

or via pytest with the other benchmarks (``pytest benchmarks/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from typing import Dict, List

from repro import IpmConfig, JobSpec, ResultCache, SweepRunner

SCHEMA = "ipm-repro/bench-sweep/v2"

#: parallel speedup floor asserted on multi-core hosts.
PARALLEL_FLOOR = 2.0

#: worker processes for the parallel pass (the acceptance point).
WORKERS = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _specs(jobs: int) -> List[JobSpec]:
    base = JobSpec(
        app="hpl",
        ntasks=4,
        app_params={"preset": "tiny"},
        command="./xhpl.cuda",
        ipm=IpmConfig(),
    )
    return [base.replace(seed=100 + i) for i in range(jobs)]


def _pickles(report) -> List[bytes]:
    return [r.report_pickle for r in report]


def run_sweep_bench(jobs: int = 8) -> Dict:
    """Measure serial/parallel/cached sweep timings; returns the dict."""
    if jobs <= 1:
        raise ValueError(f"jobs must be > 1: {jobs}")
    specs = _specs(jobs)

    t0 = time.perf_counter()
    serial = SweepRunner(mode="serial").run(specs)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    par = SweepRunner(workers=WORKERS, mode="auto").run(specs)
    parallel_s = time.perf_counter() - t0
    identical = _pickles(par) == _pickles(serial)

    cache_dir = tempfile.mkdtemp(prefix="bench_sweep_cache_")
    try:
        cached_runner = SweepRunner(
            mode="serial", cache=ResultCache(cache_dir)
        )
        t0 = time.perf_counter()
        cold = cached_runner.run(specs)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = cached_runner.run(specs)
        warm_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    for report in (serial, par, cold, warm):
        if not report.ok:  # a failed spec would drop out of the timing
            bad = report.failures()[0]
            raise RuntimeError(
                f"sweep spec {bad.spec_hash[:12]} ended {bad.status}: "
                f"{bad.error}"
            )
    cached_identical = (
        _pickles(warm) == _pickles(cold) == _pickles(serial)
    )

    cpu_count = _usable_cores()
    floor_checked = cpu_count >= 2
    return {
        "schema": SCHEMA,
        "jobs": jobs,
        "cpu_count": cpu_count,
        "workers": WORKERS,
        "parallel_floor": PARALLEL_FLOOR,
        "parallel_floor_checked": floor_checked,
        "parallel_floor_skip_reason": None if floor_checked else (
            f"host exposes {cpu_count} usable core(s): forked workers "
            "time-share one CPU, so a parallel speedup floor is "
            "physically unmeasurable here"
        ),
        "parallel_mode_used": par.mode,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        "parallel_byte_identical": identical,
        "cache_cold_seconds": round(cold_s, 3),
        "cache_warm_seconds": round(warm_s, 3),
        "cache_speedup": round(cold_s / warm_s, 2),
        "cache_hits_warm": warm.cache_hits,
        "cache_byte_identical": cached_identical,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def default_output_path() -> str:
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_sweep.json",
    )


def write_result(result: Dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_result(result: Dict) -> str:
    lines = [
        "Sweep — serial vs parallel vs content-addressed cache",
        f"jobs (tiny HPL x4)  : {result['jobs']:10d}"
        f"   on {result['cpu_count']} usable core(s)",
        f"serial       [s]    : {result['serial_seconds']:10.3f}",
        f"parallel x{result['workers']}  [s]   : "
        f"{result['parallel_seconds']:10.3f}"
        f"   ({result['parallel_speedup']:.2f}x, "
        f"mode={result['parallel_mode_used']}, "
        f"byte-identical={result['parallel_byte_identical']})",
        f"cache cold   [s]    : {result['cache_cold_seconds']:10.3f}",
        f"cache warm   [s]    : {result['cache_warm_seconds']:10.3f}"
        f"   ({result['cache_speedup']:.2f}x, "
        f"{result['cache_hits_warm']} hits, "
        f"byte-identical={result['cache_byte_identical']})",
    ]
    if not result["parallel_floor_checked"]:
        lines.append(
            f"parallel floor      :    SKIPPED "
            f"({result['parallel_floor_skip_reason']})"
        )
    return "\n".join(lines)


def check_result(result: Dict) -> None:
    """The acceptance floors (shared by pytest and the CLI).

    The parallel speedup floor only applies where it is physically
    measurable; on single-core hosts the skip is recorded in the JSON
    (``parallel_floor_checked`` / ``parallel_floor_skip_reason``) and
    logged to stderr rather than silently waved through.
    """
    assert result["parallel_byte_identical"]
    assert result["cache_byte_identical"]
    assert result["cache_hits_warm"] == result["jobs"]
    assert result["cache_speedup"] >= 10.0
    if result["parallel_floor_checked"]:
        assert result["parallel_speedup"] >= result["parallel_floor"]
    else:
        print(
            f"[bench_sweep] skipping >= {result['parallel_floor']}x "
            f"parallel floor: {result['parallel_floor_skip_reason']}",
            file=sys.stderr,
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=8,
                    help="ensemble size (default: 8)")
    ap.add_argument("--out", default=default_output_path(),
                    help="output JSON path")
    args = ap.parse_args(argv)
    if args.jobs <= 1:
        ap.error(f"--jobs must be > 1 (got {args.jobs})")
    result = run_sweep_bench(jobs=args.jobs)
    print(format_result(result))
    path = write_result(result, args.out)
    print(f"[saved to {path}]")
    check_result(result)
    return 0


def test_sweep_throughput(benchmark):
    """pytest-benchmark entry point alongside the paper benchmarks."""
    from conftest import emit, once

    result = once(benchmark, run_sweep_bench)
    emit("bench_sweep.txt", format_result(result))
    write_result(result, default_output_path())
    check_result(result)


if __name__ == "__main__":
    sys.exit(main())
