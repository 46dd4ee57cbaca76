"""End-to-end pipeline integration: run → XML → ipm_parse → outputs,
performance-model projections, and a large-job smoke test."""

import pytest

from repro.apps.hpl import HplConfig, hpl_app
from repro.cluster import run_job
from repro.core import IpmConfig, banner_parallel, metrics, read_xml, write_xml
from repro.core.advisor import model_projections
from repro.core.parser import main as ipm_parse_main
from repro.sweep import JobSpec


class TestFullPipeline:
    def test_real_run_through_ipm_parse(self, tmp_path, capsys):
        """A real monitored job's XML log regenerates the identical
        banner through the CLI, and converts to HTML + CUBE."""
        res = run_job(JobSpec(
            app=lambda env: hpl_app(env, HplConfig.tiny()), ntasks=4,
            command="./xhpl.tiny", ipm=IpmConfig(), seed=3,
        ))
        xml_path = str(tmp_path / "hpl.xml")
        write_xml(res.report, xml_path)

        # banner from the CLI equals banner from the in-memory report
        assert ipm_parse_main([xml_path, "--top", "50"]) == 0
        cli_banner = capsys.readouterr().out.strip()
        assert cli_banner == banner_parallel(read_xml(xml_path), top=50).strip()
        assert cli_banner == banner_parallel(res.report, top=50).strip()

        html = str(tmp_path / "hpl.html")
        cube = str(tmp_path / "hpl.cube")
        assert ipm_parse_main([xml_path, "--html", html, "--cube", cube]) == 0
        assert "dgemm_nn_e_kernel" in open(html).read()

        # metrics computed from the parsed report match the original
        parsed = read_xml(xml_path)
        assert metrics.gpu_utilization(parsed) == pytest.approx(
            metrics.gpu_utilization(res.report), rel=1e-6
        )
        # XML stores times at 9-decimal precision; tolerate that rounding
        assert metrics.comm_percent(parsed) == pytest.approx(
            metrics.comm_percent(res.report), rel=1e-6
        )

    def test_cli_rejects_missing_file(self):
        with pytest.raises(Exception):
            ipm_parse_main(["/nonexistent/profile.xml"])


class TestProjections:
    def test_paratec_projection_matches_direct_ablation_direction(self):
        """The model predicts savings from escaping the thunking
        wrappers; the prediction is positive and plausible."""
        from repro.apps.paratec import ParatecConfig, paratec_app

        res = run_job(JobSpec(
            app=lambda env: paratec_app(env, ParatecConfig.tiny()), ntasks=4,
            ipm=IpmConfig(),
        ))
        projections = {p.name: p for p in model_projections(res.report)}
        direct = projections["direct-blas"]
        assert 0.0 < direct.savings_fraction < 1.0
        assert direct.projected_wallclock < direct.current_wallclock

    def test_amber_heterogeneous_projection(self):
        from repro.apps.amber import AmberConfig, amber_app
        from repro.cuda.costmodel import GpuTimingModel

        gt = GpuTimingModel()
        gt.context_init_sigma = 0.01
        res = run_job(JobSpec(
            app=lambda env: amber_app(env, AmberConfig(steps=20)), ntasks=4,
            ipm=IpmConfig(),
        ), gpu_timing=gt)
        projections = {p.name: p for p in model_projections(res.report)}
        hetero = projections["heterogeneous-cpu"]
        # the recoverable time is ~ the 22.5% threadSync share
        assert hetero.savings_fraction == pytest.approx(0.225, abs=0.06)

    def test_clean_profile_has_no_projections(self):
        def app(env):
            env.hostcompute(1.0)

        res = run_job(JobSpec(
            app=app, ntasks=2,
            ipm=IpmConfig(monitor_cuda=False, host_idle=False),
        ))
        assert model_projections(res.report) == []


class TestScaleSmoke:
    def test_256_rank_job(self):
        """The substrate holds up at the paper's largest configuration."""

        def app(env):
            env.mpi.MPI_Barrier()
            total = env.mpi.MPI_Allreduce(env.rank)
            env.hostcompute(0.001)
            env.mpi.MPI_Barrier()
            return total

        res = run_job(JobSpec(
            app=app, ntasks=256, ranks_per_node=8, n_nodes=32, seed=5,
        ))
        assert res.results == [255 * 256 // 2] * 256

    def test_many_sequential_jobs_do_not_interfere(self):
        walls = set()
        for seed in range(3):
            res = run_job(JobSpec(
                app=lambda env: hpl_app(env, HplConfig.tiny()), ntasks=2,
                seed=0,
            ))
            walls.add(round(res.wallclock, 9))
        assert len(walls) == 1  # identical seed ⇒ identical result
