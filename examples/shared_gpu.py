#!/usr/bin/env python
"""GPU sharing between MPI ranks (issue 5 of the paper's introduction).

"In the shared GPU case, the kernel performance might be dramatically
different in the production MPI case compared to an isolated
workstation setting."  This example runs the same GPU-heavy rank
program with one rank per GPU and with four ranks sharing each GPU,
and shows how IPM's per-rank @CUDA_EXEC data reveals the contention —
something a single-kernel workstation profiler cannot see.
"""

from repro.analysis import format_table
from repro.cluster import run_job
from repro.core import IpmConfig, metrics
from repro.cuda import Kernel, cudaMemcpyKind
from repro.cuda.memory import HostRef
from repro.sweep import JobSpec

K = cudaMemcpyKind


def rank_program(env):
    rt = env.rt
    _, buf = rt.cudaMalloc(32 << 20)
    env.mpi.MPI_Barrier()
    t0 = env.sim.now
    for _ in range(25):
        rt.launch(Kernel("stencil", nominal_duration=0.004), 256, 128,
                  args=(buf,))
        rt.launch(Kernel("reduce", nominal_duration=0.001), 64, 128,
                  args=(buf,))
        rt.cudaMemcpy(HostRef(1 << 20), buf, 1 << 20, K.cudaMemcpyDeviceToHost)
    env.mpi.MPI_Barrier()
    rt.cudaFree(buf)
    return env.sim.now - t0


def run(ranks_per_node: int):
    return run_job(JobSpec(
        app=rank_program, ntasks=8, ranks_per_node=ranks_per_node,
        command=f"stencil.x ({ranks_per_node}/GPU)", ipm=IpmConfig(), seed=3,
    ))


def main() -> None:
    exclusive = run(1)
    shared = run(4)
    rows = []
    for label, res in (("1 rank / GPU", exclusive), ("4 ranks / GPU", shared)):
        job = res.report
        by = job.merged_by_name()
        rows.append([
            label,
            max(res.results),
            metrics.gpu_utilization(job),
            by["@CUDA_HOST_IDLE"].total / job.ntasks if "@CUDA_HOST_IDLE" in by else 0.0,
        ])
    print(format_table(
        ["configuration", "compute loop [s]", "GPU util [%wall]",
         "host idle [s/rank]"],
        rows, floatfmt=".3f",
        title="the same binary, exclusive vs shared GPU:",
    ))
    slowdown = max(shared.results) / max(exclusive.results)
    print(f"\nsharing slows the compute loop {slowdown:.1f}x — visible only "
          "when the whole parallel job is monitored.")


if __name__ == "__main__":
    main()
