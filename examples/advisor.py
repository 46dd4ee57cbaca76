#!/usr/bin/env python
"""Automated performance guidance from IPM profiles (paper §VI).

The paper's third future-work item: "using the derived monitoring data
for performance modeling and advanced guidance to users on the merits
or pitfalls of accelerating their applications."  This example profiles
three workloads and lets the rule engine rediscover the paper's own
per-application recommendations:

* Amber → use the CPU during GPU waits; rebalance ReduceForces;
* PARATEC → escape the thunking wrappers' blocking transfers;
* a naive offload → offloading too little to pay for the transfers.
"""

from repro.apps.amber import AmberConfig, amber_app
from repro.apps.paratec import ParatecConfig, paratec_app
from repro.cluster import run_job
from repro.core import IpmConfig
from repro.core.advisor import advise, format_findings
from repro.cuda import Kernel, cudaMemcpyKind
from repro.cuda.costmodel import GpuTimingModel
from repro.cuda.memory import HostRef
from repro.sweep import JobSpec

K = cudaMemcpyKind


def naive_offload(env):
    """Tiny kernels behind big synchronous transfers: a GPU port that
    should not have been one."""
    rt = env.rt
    _, buf = rt.cudaMalloc(64 << 20)
    for _ in range(20):
        rt.cudaMemcpy(buf, HostRef(64 << 20), 64 << 20, K.cudaMemcpyHostToDevice)
        rt.launch(Kernel("tiny_axpy", nominal_duration=300e-6), 64, 64)
        rt.cudaMemcpy(HostRef(64 << 20), buf, 64 << 20, K.cudaMemcpyDeviceToHost)
    rt.cudaFree(buf)


def main() -> None:
    gt = GpuTimingModel()
    gt.context_init_sigma = 0.01

    print("=== Amber (16 nodes, scaled) ===")
    amber = run_job(JobSpec(
        app=lambda env: amber_app(env, AmberConfig(steps=60)), ntasks=16,
        command="pmemd.cuda.MPI", ipm=IpmConfig(), seed=4,
    ), gpu_timing=gt)
    print(format_findings(advise(amber.report)))

    print("\n=== PARATEC with thunking CUBLAS (scaled) ===")
    paratec = run_job(JobSpec(
        app=lambda env: paratec_app(env, ParatecConfig.tiny()), ntasks=8,
        command="paratec.cublas", ranks_per_node=2, ipm=IpmConfig(), seed=2,
    ))
    print(format_findings(advise(paratec.report)))

    print("\n=== naive offload ===")
    naive = run_job(JobSpec(
        app=naive_offload, ntasks=2, command="naive.x", ipm=IpmConfig(),
        seed=7,
    ))
    print(format_findings(advise(naive.report)))


if __name__ == "__main__":
    main()
