"""Cluster model and job-runner tests."""

import numpy as np
import pytest

from repro.cluster import Cluster, make_dirac, run_job
from repro.core import IpmConfig
from repro.cuda import Kernel, cudaMemcpyKind
from repro.simt import NoiseConfig, Simulator
from repro.sweep import JobSpec

K = cudaMemcpyKind


class TestClusterModel:
    def test_dirac_defaults(self):
        sim = Simulator()
        dirac = make_dirac(sim)
        assert dirac.n_nodes == 48
        assert dirac.nodes[0].hostname == "dirac01"
        assert dirac.nodes[0].spec.cores == 8
        assert len(dirac.nodes[0].devices) == 1
        assert dirac.nodes[0].devices[0].spec.name == "Tesla C2050"
        assert dirac.nodes[0].devices[0].spec.memory_bytes == 3 * 1024**3

    def test_rank_mapping(self):
        sim = Simulator()
        c = Cluster(sim, 4)
        assert c.node_of_rank(0, 2).index == 0
        assert c.node_of_rank(1, 2).index == 0
        assert c.node_of_rank(7, 2).index == 3
        with pytest.raises(ValueError):
            c.node_of_rank(8, 2)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            Cluster(Simulator(), 0)


def tiny_app(env):
    """A little MPI+CUDA program used by the runner tests."""
    err, ptr = env.rt.cudaMalloc(8000)
    host = np.zeros(1000)
    env.rt.cudaMemcpy(ptr, host, 8000, K.cudaMemcpyHostToDevice)
    env.rt.launch(Kernel("work", nominal_duration=0.01), 100, 64, args=(ptr,))
    env.rt.cudaMemcpy(host, ptr, 8000, K.cudaMemcpyDeviceToHost)
    env.hostcompute(0.05)
    total = env.mpi.MPI_Allreduce(env.rank)
    env.rt.cudaFree(ptr)
    return total


class TestRunJob:
    def test_unmonitored_run(self):
        res = run_job(JobSpec(app=tiny_app, ntasks=4, command="tiny"))
        assert res.report is None
        assert res.results == [6, 6, 6, 6]
        assert res.wallclock > 0.06

    def test_monitored_run_produces_report(self):
        res = run_job(JobSpec(
            app=tiny_app, ntasks=4, command="tiny", ipm=IpmConfig(),
        ))
        job = res.report
        assert job is not None and job.ntasks == 4
        by = job.merged_by_name()
        assert by["cudaLaunch"].count == 4
        assert by["MPI_Allreduce"].count == 4
        assert "@CUDA_EXEC_STRM00" in by
        assert by["@CUDA_EXEC_STRM00"].count == 4
        assert job.domains["MPI_Allreduce"] == "MPI"
        assert job.domains["cudaLaunch"] == "CUDA"

    def test_each_rank_has_own_host(self):
        res = run_job(JobSpec(
            app=tiny_app, ntasks=4, command="tiny", ipm=IpmConfig(),
        ))
        hosts = [t.hostname for t in res.report.tasks]
        assert hosts == ["dirac01", "dirac02", "dirac03", "dirac04"]

    def test_shared_gpu_mapping(self):
        res = run_job(JobSpec(
            app=tiny_app, ntasks=4, command="tiny", ranks_per_node=4,
            ipm=IpmConfig(),
        ))
        hosts = {t.hostname for t in res.report.tasks}
        assert hosts == {"dirac01"}
        assert res.cluster.n_nodes == 1

    def test_shared_gpu_contention_slows_kernels(self):
        """Issue 5 of the paper: ranks sharing one GPU contend."""

        def gpu_heavy(env):
            env.rt.cudaMalloc(64)
            env.mpi.MPI_Barrier()
            t0 = env.sim.now
            env.rt.launch(Kernel("big", nominal_duration=0.1), 1024, 128)
            env.rt.cudaThreadSynchronize()
            return env.sim.now - t0

        exclusive = run_job(JobSpec(
            app=gpu_heavy, ntasks=4, ranks_per_node=1, command="x",
        ))
        shared = run_job(JobSpec(
            app=gpu_heavy, ntasks=4, ranks_per_node=4, command="x",
        ))
        assert max(shared.results) > 3 * max(exclusive.results)

    def test_noise_changes_wallclock_between_seeds(self):
        def compute(env):
            env.hostcompute(1.0)

        a = run_job(JobSpec(
            app=compute, ntasks=2, seed=1, noise=NoiseConfig(),
        ))
        b = run_job(JobSpec(
            app=compute, ntasks=2, seed=2, noise=NoiseConfig(),
        ))
        assert a.wallclock != b.wallclock
        assert a.wallclock > 1.0 and b.wallclock > 1.0

    def test_determinism_same_seed(self):
        a = run_job(JobSpec(
            app=tiny_app, ntasks=4, seed=7, noise=NoiseConfig(),
        ))
        b = run_job(JobSpec(
            app=tiny_app, ntasks=4, seed=7, noise=NoiseConfig(),
        ))
        assert a.wallclock == b.wallclock
        assert a.events_executed == b.events_executed

    def test_monitored_dilatation_small(self):
        """The Fig. 8 premise at job level: IPM costs well under 1%."""

        def app(env):
            err, ptr = env.rt.cudaMalloc(8000)
            host = np.zeros(1000)
            for _ in range(50):
                env.rt.launch(Kernel("k", nominal_duration=0.002), 32, 32)
                env.rt.cudaMemcpy(host, ptr, 8000, K.cudaMemcpyDeviceToHost)
            env.mpi.MPI_Barrier()

        plain = run_job(JobSpec(app=app, ntasks=2, seed=3))
        monitored = run_job(JobSpec(
            app=app, ntasks=2, seed=3, ipm=IpmConfig(),
        ))
        dilatation = (monitored.wallclock - plain.wallclock) / plain.wallclock
        assert 0.0 < dilatation < 0.01

    def test_task_wallclocks_use_rank_exit_times(self):
        def staggered(env):
            env.sim.sleep(float(env.rank))

        res = run_job(JobSpec(app=staggered, ntasks=3, ipm=IpmConfig()))
        walls = [t.wallclock for t in res.report.tasks]
        assert walls[0] < walls[1] < walls[2]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            run_job(JobSpec(app=tiny_app, ntasks=0))
        with pytest.raises(ValueError):
            run_job(JobSpec(app=tiny_app, ntasks=2, ranks_per_node=0))
