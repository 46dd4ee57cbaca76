"""HPL workload-model tests (the Figs. 8/9 application)."""

import pytest

from repro.apps.hpl import HplConfig, hpl_app
from repro.cluster import run_job
from repro.core import IpmConfig, metrics
from repro.simt import NoiseConfig
from repro.sweep import JobSpec


def run_tiny(ipm=None):
    return run_job(JobSpec(
        app=lambda env: hpl_app(env, HplConfig.tiny()), ntasks=4,
        command="xhpl.tiny", ipm=ipm,
    ))


class TestHplStructure:
    def test_four_fig9_kernels(self):
        res = run_tiny(ipm=IpmConfig())
        kernels = set(metrics.kernel_time_by_rank(res.report))
        assert kernels == {
            "dgemm_nn_e_kernel",
            "dgemm_nt_tex_kernel",
            "dtrsm_gpu_64_mm",
            "transpose",
        }

    def test_dgemm_dominates(self):
        res = run_tiny(ipm=IpmConfig())
        shares = metrics.kernel_share(res.report)
        assert max(shares, key=shares.get) == "dgemm_nn_e_kernel"
        assert shares["dgemm_nn_e_kernel"] > 0.5

    def test_host_idle_near_zero(self):
        """Async transfers ⇒ @CUDA_HOST_IDLE ≈ 0 (§IV-C)."""
        res = run_tiny(ipm=IpmConfig())
        assert metrics.host_idle_percent(res.report) < 0.01

    def test_event_sync_present_but_small(self):
        res = run_tiny(ipm=IpmConfig())
        by = res.report.merged_by_name()
        assert by["cudaEventSynchronize"].count > 0
        sync = by["cudaEventSynchronize"].total
        assert 0 < sync < 0.25 * sum(t.wallclock for t in res.report.tasks)

    def test_well_balanced_across_ranks(self):
        res = run_tiny(ipm=IpmConfig())
        imb = metrics.kernel_imbalance(res.report)
        assert imb["dgemm_nn_e_kernel"].imbalance < 0.1

    def test_bcast_and_pivot_collectives(self):
        res = run_tiny(ipm=IpmConfig())
        by = res.report.merged_by_name()
        steps = HplConfig.tiny().steps
        assert by["MPI_Bcast"].count == steps * 4
        assert by["MPI_Allreduce"].count == steps * 4 + 4

    def test_all_ranks_agree_on_residual(self):
        res = run_tiny()
        residuals = {r["residual"] for r in res.results}
        assert residuals == {4.0}

    def test_no_device_memory_leak(self):
        res = run_tiny()
        for node in res.cluster.nodes:
            assert node.devices[0].memory.bytes_in_use == 0


class TestHplCalibration:
    def test_paper_16rank_wallclock(self):
        """The Fig. 8 operating point: ≈126.4 s on 16 nodes."""
        res = run_job(JobSpec(
            app=lambda env: hpl_app(env, HplConfig.paper_16rank()), ntasks=16,
            command="xhpl.cuda", noise=NoiseConfig(), seed=1,
        ))
        assert res.wallclock == pytest.approx(126.4, rel=0.01)

    def test_event_sync_in_paper_band(self):
        """2–5 s per task in cudaEventSynchronize (§IV-C)."""
        res = run_job(JobSpec(
            app=lambda env: hpl_app(env, HplConfig.paper_16rank()), ntasks=16,
            command="xhpl.cuda", seed=1,
        ))
        for r in res.results:
            assert 2.0 <= r["event_sync_time"] <= 5.0

    def test_monitoring_dilatation_below_noise(self):
        """Fig. 8's claim: IPM's dilatation ≪ run-to-run variability."""
        import statistics

        walls = []
        for seed in range(4):
            res = run_job(JobSpec(
                app=lambda env: hpl_app(env, HplConfig.tiny()), ntasks=4,
                noise=NoiseConfig(), seed=seed,
            ))
            walls.append(res.wallclock)
        sigma = statistics.stdev(walls)
        plain = run_job(JobSpec(
            app=lambda env: hpl_app(env, HplConfig.tiny()), ntasks=4, seed=11,
        ))
        mon = run_job(JobSpec(
            app=lambda env: hpl_app(env, HplConfig.tiny()), ntasks=4, seed=11,
            ipm=IpmConfig(),
        ))
        dilatation = mon.wallclock - plain.wallclock
        assert dilatation > 0
        assert dilatation < sigma
