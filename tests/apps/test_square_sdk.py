"""Tests for the square example and the Table I SDK benchmark models."""

import pytest

from repro.apps.sdk import PAPER_TABLE1, SDK_BENCHMARKS
from repro.apps.square import SquareConfig, square_app
from repro.cluster import run_job
from repro.core import IpmConfig
from repro.sweep import JobSpec


class TestSquare:
    def test_fig4_banner_rows(self):
        res = run_job(JobSpec(
            app=lambda env: square_app(env), ntasks=1, command="./cuda.ipm",
            ipm=IpmConfig(kernel_timing=False, host_idle=False),
        ))
        by = res.report.merged_by_name()
        assert by["cudaSetupArgument"].count == 2
        assert by["cudaLaunch"].count == 1
        assert by["cudaConfigureCall"].count == 1
        # context init dominates (Fig. 4: cudaMalloc 67.71 %wall)
        top = max(by.items(), key=lambda kv: kv[1].total)[0]
        assert top == "cudaMalloc"

    def test_fig6_exec_and_idle_match(self):
        res = run_job(JobSpec(
            app=lambda env: square_app(env), ntasks=1, command="./cuda.ipm",
            ipm=IpmConfig(),
        ))
        by = res.report.merged_by_name()
        exec_t = by["@CUDA_EXEC_STRM00"].total
        idle_t = by["@CUDA_HOST_IDLE"].total
        assert exec_t == pytest.approx(1.15, rel=0.02)
        assert idle_t == pytest.approx(exec_t, rel=0.02)

    def test_verified_data_roundtrip(self):
        cfg = SquareConfig(n=512, repeat=2, verify=True)
        res = run_job(JobSpec(app=lambda env: square_app(env, cfg), ntasks=1))
        assert res.results[0] == float(512 * 512)

    def test_kernel_scales_with_problem(self):
        small = SquareConfig(n=1000, repeat=100)
        assert small.kernel_seconds() == pytest.approx(
            1.15 * (1000 * 100) / 1e9, rel=1e-9
        )


class TestSdkBenchmarks:
    @pytest.mark.parametrize("name", sorted(SDK_BENCHMARKS))
    def test_invocation_counts_match_table1(self, name):
        res = run_job(JobSpec(
            app=SDK_BENCHMARKS[name], ntasks=1, command=name,
            cuda_profile=True,
        ))
        prof = res.profilers[0]
        assert prof.kernel_invocations() == PAPER_TABLE1[name].invocations

    @pytest.mark.parametrize("name", sorted(SDK_BENCHMARKS))
    def test_profiler_total_near_paper(self, name):
        res = run_job(JobSpec(
            app=SDK_BENCHMARKS[name], ntasks=1, command=name,
            cuda_profile=True, seed=9,
        ))
        prof_total = res.profilers[0].kernel_time_total()
        assert prof_total == pytest.approx(
            PAPER_TABLE1[name].profiler_seconds, rel=0.05
        )

    @pytest.mark.parametrize("name", sorted(SDK_BENCHMARKS))
    def test_ipm_exceeds_profiler(self, name):
        """The Table I sign, per benchmark."""
        res = run_job(JobSpec(
            app=SDK_BENCHMARKS[name], ntasks=1, command=name,
            cuda_profile=True, ipm=IpmConfig(), seed=5,
        ))
        ipm_total = res.report.tasks[0].gpu_exec_time()
        prof_total = res.profilers[0].kernel_time_total()
        assert ipm_total > prof_total
        # and within a few percent (Table I: 0.04–1.87 %)
        assert (ipm_total - prof_total) / prof_total < 0.05

    def test_short_kernels_have_larger_relative_error(self):
        """Table I's trend: scan (0.43 ms kernels) shows a larger
        relative difference than eigenvalues (17.8 ms kernels)."""

        def diff(name):
            res = run_job(JobSpec(
                app=SDK_BENCHMARKS[name], ntasks=1, command=name,
                cuda_profile=True, ipm=IpmConfig(), seed=7,
            ))
            ipm_total = res.report.tasks[0].gpu_exec_time()
            prof_total = res.profilers[0].kernel_time_total()
            return (ipm_total - prof_total) / prof_total

        assert diff("scan") > diff("eigenvalues")

    def test_concurrent_kernels_overlap(self):
        """concurrentKernels: 8 streams overlap — the device-side span
        of the clock_block kernels is ≈ 1/8 of their summed time."""
        res = run_job(JobSpec(
            app=SDK_BENCHMARKS["concurrentKernels"], ntasks=1,
            command="concurrentKernels", cuda_profile=True,
        ))
        prof = res.profilers[0]
        blocks = [r for r in prof.kernel_records() if r.method == "clock_block"]
        assert len(blocks) == 8
        span_end = max(r.timestamp for r in blocks)
        span_start = min(r.timestamp - r.gputime_us * 1e-6 for r in blocks)
        summed = sum(r.gputime_us for r in blocks) * 1e-6
        assert span_end - span_start < summed / 3
