"""Fig. 10: the scaling of PARATEC on 32 Dirac nodes.

Runs the full operating points of the paper: MKL baseline at 32
processes, then thunked-CUBLAS runs at 32/64/128/256 processes, and
regenerates the stacked breakdown (MPI and CUBLAS, with the
MPI_Allreduce / MPI_Wait / MPI_Gather and cublasSetMatrix /
cublasGetMatrix contributions).  Reproduced claims:

* CUBLAS accelerates the 32-process run by ≈35 % (1976 → 1285 s);
* good scaling to 128 processes, then MPI dominates;
* ``MPI_Gather`` blows up at 256 processes (8 ranks/node — NUMA);
* per-rank CUBLAS time stays relatively constant;
* the thunked transfers dwarf the zgemm compute.
"""

import pytest

from repro.analysis import Comparison, ScalingPoint, format_comparisons, format_scaling
from repro.apps.paratec import ParatecConfig, paratec_app
from repro.cluster import run_job
from repro.core import IpmConfig
from repro.sweep import JobSpec

from conftest import emit, once

CATEGORIES = ["MPI", "CUBLAS", "MPI_Allreduce", "MPI_Wait", "MPI_Gather",
              "cublasSetMatrix", "cublasGetMatrix"]


def _measure(nprocs: int, blas: str) -> ScalingPoint:
    res = run_job(JobSpec(
        app=lambda env: paratec_app(env, blas=blas), ntasks=nprocs,
        command=f"paratec.{blas}", ranks_per_node=max(1, nprocs // 32),
        n_nodes=32, ipm=IpmConfig(), seed=2,
    ))
    job = res.report
    by = job.merged_by_name()
    breakdown = {
        "MPI": sum(job.domain_times("MPI")) / nprocs,
        "CUBLAS": sum(job.domain_times("CUBLAS")) / nprocs,
    }
    for name in CATEGORIES[2:]:
        breakdown[name] = (by[name].total / nprocs) if name in by else 0.0
    return ScalingPoint(nprocs, res.wallclock, breakdown)


def _run_all():
    mkl = _measure(32, "mkl")
    cublas = {p: _measure(p, "cublas") for p in (32, 64, 128, 256)}
    return mkl, cublas


@pytest.mark.benchmark(group="fig10")
def test_fig10_paratec_scaling(benchmark):
    mkl, cublas = once(benchmark, _run_all)
    points = [cublas[p] for p in (32, 64, 128, 256)]

    text = format_scaling(points, CATEGORIES)
    text = (
        f"Fig. 10 — PARATEC on 32 nodes (medium problem)\n"
        f"MKL BLAS at 32 procs: {mkl.wallclock:.0f} s "
        f"(paper: 1976 s); CUBLAS: {cublas[32].wallclock:.0f} s "
        f"(paper: 1285 s)\n\n" + text
    )
    comparisons = [
        Comparison("Fig10", "MKL wallclock @32", 1976.0, mkl.wallclock, "s", 0.05),
        Comparison("Fig10", "CUBLAS wallclock @32", 1285.0,
                   cublas[32].wallclock, "s", 0.05),
        Comparison(
            "Fig10", "CUBLAS speedup", 0.35,
            1.0 - cublas[32].wallclock / mkl.wallclock, "", 0.10,
        ),
    ]
    text += "\n\n" + format_comparisons(comparisons, "calibration check")
    emit("fig10_paratec_scaling.txt", text)

    # ≈35 % acceleration at 32 processes
    assert 1.0 - cublas[32].wallclock / mkl.wallclock == pytest.approx(0.35, abs=0.05)
    # scales well up to 128 …
    assert cublas[64].wallclock < 0.62 * cublas[32].wallclock
    assert cublas[128].wallclock < 0.72 * cublas[64].wallclock
    # … then MPI starts to dominate: 256 is no faster than 128
    assert cublas[256].wallclock > 0.9 * cublas[128].wallclock
    mpi_frac_256 = cublas[256].breakdown["MPI"] / cublas[256].wallclock
    assert mpi_frac_256 > 0.25
    # MPI_Gather becomes very large at 256 (NUMA)
    assert cublas[256].breakdown["MPI_Gather"] > 3 * cublas[128].breakdown["MPI_Gather"]
    # CUBLAS per rank stays relatively constant from 64 on
    cb = [cublas[p].breakdown["CUBLAS"] for p in (64, 128, 256)]
    assert max(cb) / min(cb) < 1.25
    # transfers dwarf compute: Set+Get dominates the CUBLAS time
    p32 = cublas[32].breakdown
    assert p32["cublasSetMatrix"] + p32["cublasGetMatrix"] > 0.5 * p32["CUBLAS"]
    for p, pt in cublas.items():
        benchmark.extra_info[f"wallclock_{p}"] = pt.wallclock
