#!/usr/bin/env python
"""Amber/PMEMD profile on 16 Dirac nodes (paper §IV-E, Fig. 11).

Prints the parallel banner and the §IV-E analysis: GPU utilization,
host idle, the per-kernel GPU-time shares of the 39 kernels, and the
cross-rank load imbalance that IPM's per-rank data exposes
(ReduceForces/ClearForces up to ~55 %).
"""

from repro.analysis import format_table
from repro.apps.amber import AmberConfig, amber_app
from repro.cluster import run_job
from repro.core import IpmConfig, banner_parallel, metrics
from repro.cuda.costmodel import GpuTimingModel
from repro.simt import NoiseConfig
from repro.sweep import JobSpec


def main() -> None:
    gpu_timing = GpuTimingModel()
    gpu_timing.device_enum_time = 0.5225   # busy-system device probing
    gpu_timing.context_init_sigma = 0.01   # warm, homogeneous driver state
    print("running pmemd.cuda.MPI (JAC DHFR) on 16 nodes...")
    result = run_job(JobSpec(
        app=lambda env: amber_app(env, AmberConfig(steps=150)), ntasks=16,
        command="pmemd.cuda.MPI -O -i mdin -c inpcrd.equil", ipm=IpmConfig(),
        noise=NoiseConfig(jitter_mean=0.001, daemon_rate=0.02,
                          daemon_mean=0.002),
        seed=4,
    ), gpu_timing=gpu_timing)
    job = result.report
    print(banner_parallel(job, top=14))

    print(f"\nGPU utilization : {metrics.gpu_utilization(job):6.2f} %wall "
          "(paper: 35.96)")
    print(f"host idle       : {metrics.host_idle_percent(job):6.2f} %wall "
          "(paper: 0.08)")
    print(f"%comm           : {metrics.comm_percent(job):6.2f} "
          "(paper: 0.60)")

    shares = metrics.kernel_share(job)
    imb = metrics.kernel_imbalance(job)
    rows = [
        [k, 100 * v, 100 * imb[k].imbalance]
        for k, v in sorted(shares.items(), key=lambda kv: -kv[1])[:8]
    ]
    print()
    print(format_table(
        ["GPU kernel", "share of GPU time [%]", "imbalance (max-avg)/avg [%]"],
        rows, floatfmt=".1f",
        title="top kernels (paper: 37/18/10/8/7 %, imbalance up to 55 %)",
    ))


if __name__ == "__main__":
    main()
