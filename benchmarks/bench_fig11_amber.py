"""Fig. 11: the IPM profile of Amber/PMEMD on 16 Dirac nodes.

Runs the JAC DHFR workload (scaled to 250 MD steps; per-step call mix
and time fractions preserved) and regenerates the banner plus the
§IV-E analysis.  Reproduced claims:

* GPU utilization ≈ 35.96 % of wallclock;
* host idle very small (≈0.08 %) despite synchronous transfers;
* ≈22.5 % of wallclock in host-side ``cudaThreadSynchronize``;
* 39 GPU kernels with the reported share ranking
  (Nonbond 37 % / Reduce 18 % / Shake 10 % / Clear 8 % / Update 7 %,
  rest ≈20 %);
* PMEShake/PMEUpdate well balanced; ReduceForces/ClearForces
  imbalanced up to ≈55 %;
* CUFFT present, concentrated on one task (total 0.87 s, max 0.86 s);
* small %comm (≈0.6).
"""

import pytest

from repro.analysis import Comparison, format_comparisons, format_table
from repro.apps.amber import AmberConfig, amber_app
from repro.cluster import run_job
from repro.core import IpmConfig, banner_parallel, metrics
from repro.cuda.costmodel import GpuTimingModel
from repro.simt import NoiseConfig
from repro.sweep import JobSpec

from conftest import emit, once


def _run():
    gpu_timing = GpuTimingModel()
    gpu_timing.device_enum_time = 0.5225
    gpu_timing.context_init_sigma = 0.01
    return run_job(JobSpec(
        app=lambda env: amber_app(env, AmberConfig()), ntasks=16,
        command="pmemd.cuda.MPI -O -i mdin -c inpcrd.equil", ipm=IpmConfig(),
        noise=NoiseConfig(jitter_mean=0.001, daemon_rate=0.02,
                          daemon_mean=0.002),
        seed=4,
    ), gpu_timing=gpu_timing)


@pytest.mark.benchmark(group="fig11")
def test_fig11_amber_profile(benchmark):
    res = once(benchmark, _run)
    job = res.report

    gpu_util = metrics.gpu_utilization(job)
    host_idle = metrics.host_idle_percent(job)
    comm = metrics.comm_percent(job)
    by = job.merged_by_name()
    wall_total = sum(t.wallclock for t in job.tasks)
    sync_pct = 100 * by["cudaThreadSynchronize"].total / wall_total
    shares = metrics.kernel_share(job)
    imb = metrics.kernel_imbalance(job)
    cufft = job.domain_times("CUFFT")

    text = banner_parallel(job, top=14)
    comparisons = [
        Comparison("Fig11", "wallclock", 45.78, job.wallclock, "s", 0.02),
        Comparison("Fig11", "GPU utilization", 35.96, gpu_util, "%wall", 0.03),
        Comparison("Fig11", "cudaThreadSynchronize", 22.50, sync_pct, "%wall", 0.05),
        Comparison("Fig11", "host idle", 0.08, host_idle, "%wall", 0.30),
        Comparison("Fig11", "%comm", 0.60, comm, "%", 0.60),
        Comparison("Fig11", "NonbondForces share", 37.0,
                   100 * shares["CalculatePMEOrthogonalNonbondForces"], "%", 0.05),
        Comparison("Fig11", "ReduceForces share", 18.0,
                   100 * shares["ReduceForces"], "%", 0.05),
        Comparison("Fig11", "PMEShake share", 10.0,
                   100 * shares["PMEShake"], "%", 0.05),
        Comparison("Fig11", "ClearForces share", 8.0,
                   100 * shares["ClearForces"], "%", 0.06),
        Comparison("Fig11", "PMEUpdate share", 7.0,
                   100 * shares["PMEUpdate"], "%", 0.06),
        Comparison("Fig11", "ReduceForces imbalance", 55.0,
                   100 * imb["ReduceForces"].imbalance, "%", 0.10),
        Comparison("Fig11", "CUFFT total", 0.87, sum(cufft), "s", 0.10),
        Comparison("Fig11", "CUFFT max/task", 0.86, max(cufft), "s", 0.10),
    ]
    text += "\n\n" + format_comparisons(comparisons, "paper vs measured (§IV-E)")
    emit("fig11_amber_profile.txt", text)

    for c in comparisons:
        assert c.ok, f"{c.quantity}: paper {c.paper} vs measured {c.measured}"
    # 39 distinct PMEMD kernels (CUFFT's own kernels counted separately)
    pmemd_kernels = {k for k in shares if not k.startswith("exec")}
    assert len(pmemd_kernels) == 39
    # the balanced kernels really are balanced
    assert imb["PMEShake"].imbalance < 0.05
    assert imb["PMEUpdate"].imbalance < 0.05
    benchmark.extra_info["gpu_utilization_pct"] = gpu_util
    benchmark.extra_info["threadsync_pct"] = sync_pct
