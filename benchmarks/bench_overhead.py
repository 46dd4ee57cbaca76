"""Wrapper-stack overhead microbenchmark (paper §V's headline claim).

The paper's selling point is that IPM is cheap enough to leave on in
production: per-event overheads in the microsecond range.  The other
benchmarks measure *simulated* dilatation; this one measures the real
wall-clock cost of our reproduction's interposition hot path — how many
monitored events per second the wrapper stack itself can push through,
versus the same wrappers with ``ipm.active = False`` (the bypass a real
preloaded-but-disabled IPM pays).

Two call shapes are driven in a 50/50 mix, matching the two wrapper
flavours that exist in the wild:

* a **plain** call (no hooks) — e.g. ``cudaConfigureCall``;
* a **refined** call whose signature carries a direction suffix and a
  byte count cycling over four sizes — e.g. ``cudaMemcpy(D2H)``.

A third configuration re-runs the monitored pass with the streaming
telemetry subsystem enabled (per-event counter folding plus a sampler
tick every ``_TICK_EVERY`` loop iterations into a memory sink), so the
recorded JSON quantifies what leaving telemetry on costs per event.

Besides throughput, a separate sampling pass times individual wrapped
calls with ``perf_counter_ns`` and reports the p50/p99 per-event
latency (timer overhead included — the numbers are upper bounds).

Results are written to ``BENCH_overhead.json`` at the repository root
(schema documented in EXPERIMENTS.md §Overhead) so future PRs have a
perf trajectory to compare against.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_overhead.py [--events N]

``--gate`` compares a fresh run against the committed
``BENCH_overhead.json`` and exits non-zero when monitored throughput
regressed by more than ``--gate-tolerance`` (default 20 %) — the CI
bench-regression job runs exactly that.

Or via pytest with the other benchmarks (``pytest benchmarks/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict

from repro.core import Ipm, IpmConfig
from repro.core.wrapper_gen import WrapperHooks, generate_wrappers
from repro.simt import Simulator

#: monitored events/sec measured at the commit *before* the fast-path
#: optimisation (signature interning + memoized hashing + slot hints),
#: on the same harness: best of three runs.  Kept as the fixed
#: reference point for the speedup the optimisation PR claims.
PRE_OPT_EVENTS_PER_SEC = 306_000.0

SCHEMA = "ipm-repro/bench-overhead/v3"

#: byte sizes the refined call cycles through (4 distinct signatures).
_SIZES = (1024, 4096, 65536, 1048576)

#: loop iterations between synthetic sampler ticks in the telemetry
#: pass (the simulator clock is frozen here, so the benchmark advances
#: a virtual 10 ms per tick by hand).
_TICK_EVERY = 4096


class _NullApi:
    """A do-nothing host API: the measurement is pure wrapper cost."""

    def plain_call(self, x):
        return 0

    def sized_call(self, dst, src, count, kind):
        return 0


def _make_monitor(active: bool):
    sim = Simulator()
    ipm = Ipm(sim, config=IpmConfig(host_idle=False), blocking_calls=set())
    hooks = {
        "sized_call": WrapperHooks(refine=lambda a, k, r: ("(D2H)", a[2]))
    }
    proxy = generate_wrappers(
        ipm, _NullApi(), ["plain_call", "sized_call"], domain="CUDA",
        hooks=hooks, pass_kwargs=False,
    )
    ipm.active = active
    return ipm, proxy


def _make_telemetry_monitor():
    """The monitored stack plus an enabled telemetry hub (memory sink)."""
    from repro.telemetry import TelemetryConfig, TelemetryHub

    sim = Simulator()
    tcfg = TelemetryConfig(enabled=True, sinks=("memory",))
    ipm = Ipm(
        sim,
        config=IpmConfig(host_idle=False, telemetry=tcfg),
        blocking_calls=set(),
    )
    hooks = {
        "sized_call": WrapperHooks(refine=lambda a, k, r: ("(D2H)", a[2]))
    }
    proxy = generate_wrappers(
        ipm, _NullApi(), ["plain_call", "sized_call"], domain="CUDA",
        hooks=hooks, pass_kwargs=False,
    )
    hub = TelemetryHub(sim, tcfg)
    hub.register_rank(0, ipm)
    return ipm, proxy, hub


def _drive(proxy, n: int) -> float:
    """Issue ``2*n`` wrapped calls; returns events/sec (wall clock)."""
    plain = proxy.plain_call
    sized = proxy.sized_call
    sizes = _SIZES
    t0 = time.perf_counter()
    for i in range(n):
        plain(i)
        sized(0, 0, sizes[i & 3], 2)
    elapsed = time.perf_counter() - t0
    return 2 * n / elapsed


def _drive_telemetry(proxy, hub, n: int) -> float:
    """The monitored loop with periodic sampler ticks interleaved.

    Ticks advance a synthetic virtual clock (one interval per tick)
    because nothing runs the simulator here; a closing sample keeps
    even tiny smoke-test passes from measuring zero ticks.
    """
    plain = proxy.plain_call
    sized = proxy.sized_call
    sizes = _SIZES
    dt = hub.config.interval
    mask = _TICK_EVERY - 1
    t0 = time.perf_counter()
    for i in range(n):
        plain(i)
        sized(0, 0, sizes[i & 3], 2)
        if (i & mask) == mask:
            hub.sample_now(dt * (hub.ticks + 1))
    hub.sample_now(dt * (hub.ticks + 1))
    elapsed = time.perf_counter() - t0
    return 2 * n / elapsed


def _sample_latencies(proxy, samples: int):
    """Per-event latency distribution: (p50_us, p99_us, n_samples).

    Times individual wrapped calls with ``perf_counter_ns`` in the same
    50/50 plain/refined mix as the throughput loop.  Timer read cost is
    part of each sample, so treat the percentiles as upper bounds.
    """
    pc = time.perf_counter_ns
    plain = proxy.plain_call
    sized = proxy.sized_call
    sizes = _SIZES
    lat = [0] * samples
    for i in range(samples):
        if i & 1:
            t0 = pc()
            sized(0, 0, sizes[i & 3], 2)
            t1 = pc()
        else:
            t0 = pc()
            plain(i)
            t1 = pc()
        lat[i] = t1 - t0
    lat.sort()
    def pct(p: float) -> float:
        return lat[min(samples - 1, int(p * samples))] / 1000.0
    return pct(0.50), pct(0.99), samples


def run_overhead_bench(events: int = 300_000, warmup: int = 2_000) -> Dict:
    """Measure monitored vs inactive throughput; returns the result dict.

    ``events`` is the total number of monitored events per measured
    pass (two wrapped calls per loop iteration).
    """
    if events <= 0:
        raise ValueError(f"events must be positive: {events}")
    iterations = max(1, events // 2)
    ipm_on, proxy_on = _make_monitor(active=True)
    _drive(proxy_on, warmup)
    monitored = _drive(proxy_on, iterations)
    p50, p99, lat_samples = _sample_latencies(
        proxy_on, max(1000, min(events, 100_000))
    )
    _ipm_off, proxy_off = _make_monitor(active=False)
    _drive(proxy_off, warmup)
    inactive = _drive(proxy_off, iterations)
    _ipm_tel, proxy_tel, hub = _make_telemetry_monitor()
    _drive_telemetry(proxy_tel, hub, warmup)
    ticks_before = hub.ticks
    telemetry = _drive_telemetry(proxy_tel, hub, iterations)
    telemetry_ticks = hub.ticks - ticks_before
    hub.finish()
    return {
        "schema": SCHEMA,
        "events": 2 * iterations,
        "monitored_events_per_sec": round(monitored, 1),
        "inactive_events_per_sec": round(inactive, 1),
        "overhead_us_per_event": round(
            (1.0 / monitored - 1.0 / inactive) * 1e6, 4
        ),
        "latency_p50_us": round(p50, 4),
        "latency_p99_us": round(p99, 4),
        "latency_samples": lat_samples,
        "telemetry_events_per_sec": round(telemetry, 1),
        "telemetry_overhead_us_per_event": round(
            (1.0 / telemetry - 1.0 / inactive) * 1e6, 4
        ),
        "telemetry_ticks": telemetry_ticks,
        "prechange_monitored_events_per_sec": PRE_OPT_EVENTS_PER_SEC,
        "speedup_vs_prechange": round(monitored / PRE_OPT_EVENTS_PER_SEC, 2),
        "distinct_signatures": len(ipm_on.table),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def default_output_path() -> str:
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_overhead.json",
    )


def write_result(result: Dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_result(result: Dict) -> str:
    lines = [
        "Overhead — wall-clock wrapper-stack throughput",
        f"events measured        : {result['events']}",
        f"monitored  [events/s]  : {result['monitored_events_per_sec']:12.0f}",
        f"inactive   [events/s]  : {result['inactive_events_per_sec']:12.0f}",
        f"overhead per event [us]: {result['overhead_us_per_event']:12.4f}",
        f"latency p50/p99 [us]   : {result['latency_p50_us']:12.4f}"
        f" / {result['latency_p99_us']:.4f}"
        f"  ({result['latency_samples']} samples)",
        f"telemetry  [events/s]  : {result['telemetry_events_per_sec']:12.0f}"
        f"  ({result['telemetry_ticks']} sampler ticks)",
        f"telemetry overhead [us]: "
        f"{result['telemetry_overhead_us_per_event']:12.4f}",
        f"pre-opt    [events/s]  : "
        f"{result['prechange_monitored_events_per_sec']:12.0f}",
        f"speedup vs pre-opt     : {result['speedup_vs_prechange']:11.2f}x",
    ]
    return "\n".join(lines)


def gate_against(result: Dict, committed_path: str, tolerance: float):
    """Compare ``result`` to the committed reference.

    Returns ``(ok, floor, reference)``; ``ok`` is True when monitored
    throughput is within ``tolerance`` of the committed number (or no
    reference exists yet — first run on a branch must not fail).
    """
    if not os.path.exists(committed_path):
        return True, 0.0, None
    with open(committed_path, encoding="utf-8") as fh:
        committed = json.load(fh)
    reference = committed.get("monitored_events_per_sec")
    if not reference:
        return True, 0.0, None
    floor = reference * (1.0 - tolerance)
    return result["monitored_events_per_sec"] >= floor, floor, reference


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--events", type=int, default=300_000,
                    help="monitored events per measured pass")
    ap.add_argument("--out", default=default_output_path(),
                    help="output JSON path")
    ap.add_argument("--gate", action="store_true",
                    help="compare against the committed BENCH_overhead.json "
                         "and exit 2 on a throughput regression; the "
                         "committed file is left untouched")
    ap.add_argument("--gate-tolerance", type=float, default=0.20,
                    help="allowed fractional drop before --gate fails")
    args = ap.parse_args(argv)
    if args.events <= 0:
        ap.error(f"--events must be positive (got {args.events})")
    if not 0.0 <= args.gate_tolerance < 1.0:
        ap.error(f"--gate-tolerance must be in [0, 1) "
                 f"(got {args.gate_tolerance})")
    result = run_overhead_bench(events=args.events)
    print(format_result(result))
    if args.gate:
        committed = default_output_path()
        ok, floor, reference = gate_against(
            result, committed, args.gate_tolerance
        )
        if reference is None:
            print("[gate] no committed reference — pass")
            return 0
        measured = result["monitored_events_per_sec"]
        verdict = "pass" if ok else "REGRESSION"
        print(f"[gate] {verdict}: measured {measured:.0f} ev/s vs "
              f"committed {reference:.0f} (floor {floor:.0f}, "
              f"tolerance {args.gate_tolerance:.0%})")
        return 0 if ok else 2
    path = write_result(result, args.out)
    print(f"[saved to {path}]")
    return 0


def test_overhead_throughput(benchmark):
    """pytest-benchmark entry point alongside the paper benchmarks."""
    from conftest import emit, once

    result = once(benchmark, run_overhead_bench)
    emit("bench_overhead.txt", format_result(result))
    write_result(result, default_output_path())
    assert result["monitored_events_per_sec"] > 0
    assert (
        result["monitored_events_per_sec"]
        >= 2.0 * result["prechange_monitored_events_per_sec"]
    )


if __name__ == "__main__":
    sys.exit(main())
