"""Fig. 9: the CUBE view of CUDA-accelerated HPL on 16 nodes.

Runs monitored HPL, exports the profile to the CUBE format, reads it
back, and regenerates the Fig. 9 analysis: the distribution of GPU
kernel runtimes per kernel, per stream and per node.  Checks the
paper's observations:

* the four kernels (dgemm_nn_e_kernel, dgemm_nt_tex_kernel,
  dtrsm_gpu_64_mm, transpose) carry all GPU time;
* the computation is well balanced across the 16 nodes;
* ``@CUDA_HOST_IDLE`` is almost zero (asynchronous transfers);
* 2–5 s per MPI task in ``cudaEventSynchronize``.
"""

import os

import pytest

from repro import IpmConfig, JobSpec, NoiseConfig
from repro.analysis import format_table
from repro.core import metrics, read_cube, write_cube, write_xml

from conftest import RESULTS_DIR, emit, once, run_sweep

FIG9_KERNELS = [
    "dgemm_nn_e_kernel", "dgemm_nt_tex_kernel", "dtrsm_gpu_64_mm", "transpose",
]


def _run():
    spec = JobSpec(
        app="hpl", ntasks=16, command="./xhpl.cuda", ipm=IpmConfig(),
        noise=NoiseConfig(), seed=1,
    )
    return run_sweep([spec])[0]


@pytest.mark.benchmark(group="fig9")
def test_fig9_hpl_cube_view(benchmark):
    res = once(benchmark, _run)
    job = res.report

    os.makedirs(RESULTS_DIR, exist_ok=True)
    xml_path = os.path.join(RESULTS_DIR, "fig9_hpl_profile.xml")
    cube_path = os.path.join(RESULTS_DIR, "fig9_hpl_profile.cube")
    write_xml(job, xml_path)
    model = write_cube(job, cube_path)
    # the CUBE file round-trips (what the GUI would load)
    back = read_cube(cube_path)
    assert back.cnodes == model.cnodes
    assert len(back.processes) == 16

    per_rank = metrics.kernel_time_by_rank(job)
    rows = []
    for kernel in FIG9_KERNELS:
        times = per_rank[kernel]
        rows.append([kernel, sum(times), min(times), max(times),
                     f"{100 * metrics.kernel_imbalance(job)[kernel].imbalance:.1f}"])
    by = job.merged_by_name()
    sync = by["cudaEventSynchronize"]
    text = format_table(
        ["GPU kernel", "total[s]", "min/node", "max/node", "imb[%]"],
        rows, floatfmt=".2f",
        title="Fig. 9 — HPL GPU kernel time per kernel across 16 nodes "
              "(from the CUBE export)",
    )
    text += (
        f"\n\n@CUDA_HOST_IDLE: {metrics.host_idle_percent(job):.4f} %wall "
        "(paper: almost zero — asynchronous transfers)"
        f"\ncudaEventSynchronize: {sync.total:.1f} s total, "
        f"{sync.total / 16:.2f} s per task (paper: 2-5 s per task)"
    )
    emit("fig9_hpl_cube.txt", text)

    assert set(per_rank) == set(FIG9_KERNELS)
    assert metrics.host_idle_percent(job) < 0.01
    assert 2.0 <= sync.total / 16 <= 5.0
    for kernel in FIG9_KERNELS:  # "fairly well balanced"
        assert metrics.kernel_imbalance(job)[kernel].imbalance < 0.1
    # the CUBE severity matrix carries the same totals
    gpu_total = sum(sum(v) for v in per_rank.values())
    assert model.metric_total("gpu_exec") == pytest.approx(gpu_total, rel=1e-6)
