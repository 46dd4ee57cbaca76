"""Figs. 4/5/6: the three banner levels for the square example.

Regenerates the three profiling banners the paper uses to introduce
its monitoring mechanisms and checks their defining features:

* Fig. 4 — ``cudaMalloc`` (context creation) dominates; the blocking
  D2H transfer silently absorbs the kernel time;
* Fig. 5 — ``@CUDA_EXEC_STRM00`` appears, ≈1.15 s;
* Fig. 6 — ``@CUDA_HOST_IDLE`` ≈ ``@CUDA_EXEC`` exposes the D2H wait,
  and the transfer itself collapses to ~0.
"""

import pytest

from repro import IpmConfig, JobSpec
from repro.core import banner_serial

from conftest import emit, once, run_sweep


def _run(config: IpmConfig):
    spec = JobSpec(
        app="square", ntasks=1, command="./cuda.ipm", ipm=config, seed=15,
    )
    return run_sweep([spec])[0]


@pytest.mark.benchmark(group="fig4-6")
def test_fig4_host_timing_banner(benchmark):
    res = once(benchmark, lambda: _run(IpmConfig(kernel_timing=False,
                                                 host_idle=False)))
    task = res.report.tasks[0]
    text = banner_serial(task)
    emit("fig4_banner.txt", text)
    by = task.table.by_name()
    assert by["cudaMalloc"].total > 1.0                      # context init
    assert by["cudaMemcpy(D2H)"].total > 1.0                 # hidden wait
    assert by["cudaMemcpy(H2D)"].total < 0.01
    assert not any(n.startswith("@") for n in by)


@pytest.mark.benchmark(group="fig4-6")
def test_fig5_kernel_timing_banner(benchmark):
    res = once(benchmark, lambda: _run(IpmConfig(host_idle=False)))
    task = res.report.tasks[0]
    emit("fig5_banner.txt", banner_serial(task))
    by = task.table.by_name()
    assert by["@CUDA_EXEC_STRM00"].total == pytest.approx(1.15, rel=0.02)
    benchmark.extra_info["gpu_exec_s"] = by["@CUDA_EXEC_STRM00"].total


@pytest.mark.benchmark(group="fig4-6")
def test_fig6_host_idle_banner(benchmark):
    res = once(benchmark, lambda: _run(IpmConfig()))
    task = res.report.tasks[0]
    emit("fig6_banner.txt", banner_serial(task))
    by = task.table.by_name()
    exec_t = by["@CUDA_EXEC_STRM00"].total
    idle_t = by["@CUDA_HOST_IDLE"].total
    assert by["@CUDA_HOST_IDLE"].count == 1
    assert idle_t == pytest.approx(exec_t, rel=0.02)   # Fig. 6: 1.15 vs 1.15
    assert by["cudaMemcpy(D2H)"].total < 0.01          # wait separated out
    benchmark.extra_info["host_idle_s"] = idle_t
