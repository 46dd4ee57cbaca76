#!/usr/bin/env python
"""Fault injection and graceful monitoring degradation.

Runs the tiny HPL model three times under a deterministic, seed-driven
:class:`~repro.faults.plan.FaultPlan`:

1. **chaos** — probabilistic CUDA launch failures plus MPI delay
   spikes: IPM tags the failing calls, accumulates ``@CUDA_ERROR``
   region time and keeps an ``ipm_errors_total`` telemetry series;
2. **brown-out** — a windowed node slowdown stretches one host's
   compute and the whole job's wallclock with it;
3. **rank death** — one rank aborts mid-factorization: the survivors'
   profiles are still harvested into a *partial* job report whose
   banner carries a per-rank status line.

Same seed, same plan => byte-identical fault schedule and reports.
"""

from repro.apps.hpl import HplConfig, hpl_app
from repro.cluster import run_job
from repro.core import IpmConfig
from repro.core.banner import banner
from repro.cuda import cudaError_t
from repro.faults import (
    CudaFaultSpec,
    FaultPlan,
    MpiDelaySpec,
    NodeSlowdownSpec,
    RankAbortSpec,
)
from repro.sweep import JobSpec
from repro.telemetry.config import TelemetryConfig

E = cudaError_t


def _run(faults, seed=11):
    tcfg = TelemetryConfig(enabled=True, interval=0.050, sinks=("memory",))
    return run_job(JobSpec(
        app=lambda env: hpl_app(env, HplConfig.tiny()), ntasks=2,
        command="./xhpl.cuda", ipm=IpmConfig(telemetry=tcfg), seed=seed,
        faults=faults,
    ))


def main() -> None:
    print("=== 1. chaos: CUDA launch failures + MPI delay spikes ===")
    chaos = FaultPlan(
        cuda=[CudaFaultSpec(call="*", error=E.cudaErrorLaunchFailure,
                            rate=0.15)],
        mpi=[MpiDelaySpec(rate=0.3, extra_mean=0.005)],
    )
    res = _run(chaos)
    by = res.report.merged_by_name()
    tagged = {n: s.count for n, s in by.items() if "(!" in n}
    print(f"wallclock {res.wallclock:.3f}s, "
          f"{len(res.faults.events)} faults fired")
    for name, count in sorted(tagged.items()):
        print(f"  {count:3d} x {name}")
    if "@CUDA_ERROR" in by:
        print(f"  @CUDA_ERROR region: {by['@CUDA_ERROR'].total:.6f}s")

    print("\n=== 2. brown-out: node 0 at one third speed for 2s ===")
    base = _run(None)
    slow = _run(FaultPlan(nodes=[NodeSlowdownSpec(multiplier=3.0, nodes=(0,),
                                                  t0=0.0, t1=2.0)]))
    print(f"baseline {base.wallclock:.3f}s -> degraded {slow.wallclock:.3f}s")

    print("\n=== 3. rank death mid-factorization ===")
    res = _run(FaultPlan(aborts=[RankAbortSpec(rank=1, at=2.0)]))
    print(banner(res.report))


if __name__ == "__main__":
    main()
