#!/usr/bin/env python
"""PARATEC scaling study (paper §IV-D, Fig. 10) — scaled-down edition.

Runs the DFT workload with thunked CUBLAS at 8/16/32/64 processes on 8
nodes (the benchmark harness runs the paper's full 32/64/128/256 on 32
nodes) plus the MKL baseline at the smallest size, and prints the
Fig. 10 breakdown: wallclock, MPI vs CUBLAS, and the contributions of
MPI_Allreduce / MPI_Wait / MPI_Gather / cublasSetMatrix /
cublasGetMatrix.  Watch MPI_Gather explode at 8 ranks/node.

The study is expressed as declarative :class:`repro.JobSpec` values
and executed as one batch through :class:`repro.SweepRunner` — the
independent configurations fan out onto worker processes, and passing
``--cache DIR`` replays previously computed points from disk
(determinism makes the cached results byte-identical to fresh runs).
"""

import sys

from repro import IpmConfig, JobSpec, ResultCache, SweepRunner
from repro.analysis import format_scaling, scaling_series
from repro.sweep import SweepReport

N_NODES = 8
PARATEC = {
    "iterations": 8,
    "gemm_calls_total": 240,
    "fft_parallel_seconds": 440.0,
    "fft_serial_seconds": 4.0,
    "gather_bytes_per_rank": 40 << 20,
}
CATEGORIES = ["MPI", "CUBLAS", "MPI_Allreduce", "MPI_Wait", "MPI_Gather",
              "cublasSetMatrix", "cublasGetMatrix"]


def spec(nprocs: int, blas: str) -> JobSpec:
    return JobSpec(
        app="paratec",
        ntasks=nprocs,
        app_params={**PARATEC, "blas": blas},
        command=f"paratec.{blas}",
        ranks_per_node=max(1, nprocs // N_NODES),
        n_nodes=N_NODES,
        ipm=IpmConfig(),
        seed=2,
    )


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    cache = ResultCache(argv[argv.index("--cache") + 1]) \
        if "--cache" in argv else None
    runner = SweepRunner(cache=cache)

    sweep = runner.run(
        [spec(8, "mkl")] + [spec(n, "cublas") for n in (8, 16, 32, 64)]
    )
    if not sweep.ok:
        bad = sweep.failures()[0]
        raise SystemExit(f"paratec_scaling: {bad.spec.ntasks}-rank "
                         f"{bad.spec.command} ended {bad.status}: {bad.error}")
    mkl, cublas = sweep[0], sweep.results[1:]
    print(f"MKL BLAS baseline at 8 procs: {mkl.wallclock:.0f} s")
    for pt in cublas:
        print(f"CUBLAS at {pt.spec.ntasks:3d} procs: {pt.wallclock:.0f} s")
    if cache is not None:
        print(f"[{sweep.cache_hits} cached, {sweep.executed} simulated, "
              f"mode={sweep.mode}]")
    speedup = mkl.wallclock / cublas[0].wallclock
    print(f"\nCUBLAS vs MKL at 8 procs: {100 * (1 - 1 / speedup):.0f}% faster "
          "(paper: ~35% at 32 procs)\n")

    # the CUBLAS points (MKL baseline dropped) as a Fig. 10 table
    points = scaling_series(SweepReport(results=list(cublas)), CATEGORIES)
    print(format_scaling(points, CATEGORIES))
    print("\nNote the MPI_Gather (and the waits it causes) at "
          f"{points[-1].nprocs} procs = 8 ranks/node — the paper's NUMA "
          "effect; CUBLAS time per rank stays relatively constant.")


if __name__ == "__main__":
    main()
