"""Failure injection: the stack must fail loudly and precisely."""

import numpy as np
import pytest

from repro.cluster import run_job
from repro.core import IpmConfig
from repro.cuda import Kernel, cudaError_t, cudaMemcpyKind
from repro.libs import CublasStatus
from repro.simt import ProcessCrashed, SimulationError
from repro.sweep import JobSpec

E = cudaError_t
K = cudaMemcpyKind


class TestRankCrashes:
    def test_crash_in_one_rank_surfaces_with_cause(self):
        def app(env):
            if env.rank == 2:
                raise RuntimeError("segfault stand-in")
            env.mpi.MPI_Barrier()

        with pytest.raises(ProcessCrashed) as ei:
            run_job(JobSpec(app=app, ntasks=4))
        assert "rank2" in str(ei.value)
        assert isinstance(ei.value.__cause__, RuntimeError)

    def test_crash_mid_collective_is_a_deadlock_or_crash(self):
        """A rank dying before entering a collective leaves the others
        stuck — the simulator reports it instead of hanging."""

        def app(env):
            if env.rank == 0:
                raise ValueError("died early")
            env.mpi.MPI_Allreduce(1)

        with pytest.raises((ProcessCrashed, SimulationError)):
            run_job(JobSpec(app=app, ntasks=3))

    def test_missing_recv_reports_deadlock_with_names(self):
        def app(env):
            if env.rank == 0:
                env.mpi.MPI_Recv(source=1)  # nobody sends

        with pytest.raises(SimulationError, match="deadlock.*rank0"):
            run_job(JobSpec(app=app, ntasks=2))

    def test_monitored_crash_still_propagates(self):
        def app(env):
            env.rt.cudaMalloc(64)
            raise KeyError("boom")

        with pytest.raises(ProcessCrashed):
            run_job(JobSpec(app=app, ntasks=2, ipm=IpmConfig()))


class TestResourceFailures:
    def test_device_oom_returns_code_not_crash(self):
        def app(env):
            err, ptr = env.rt.cudaMalloc(1 << 40)
            assert err == E.cudaErrorMemoryAllocation and ptr is None
            # the error is observable through cudaGetLastError
            assert env.rt.cudaGetLastError() == E.cudaErrorMemoryAllocation
            # and the runtime still works afterwards
            err, ptr = env.rt.cudaMalloc(4096)
            assert err == E.cudaSuccess
            env.rt.cudaFree(ptr)

        run_job(JobSpec(app=app, ntasks=1))

    def test_oom_under_monitoring_records_the_failed_call(self):
        def app(env):
            env.rt.cudaMalloc(1 << 40)

        res = run_job(JobSpec(app=app, ntasks=1, ipm=IpmConfig()))
        by = res.report.merged_by_name()
        # failures are still events — recorded under the error-tagged
        # name, plus the @CUDA_ERROR accounting region
        assert by["cudaMalloc(!cudaErrorMemoryAllocation)"].count == 1
        assert by["@CUDA_ERROR"].count == 1

    def test_cublas_alloc_failure_cleanup(self):
        def app(env):
            cb = env.cublas
            cb.cublasInit()
            st, ptr = cb.cublasAlloc(1 << 40, 1)
            assert st == CublasStatus.CUBLAS_STATUS_ALLOC_FAILED
            # thunking reports failure without leaking what it allocated
            st = env.thunking.zgemm(20_000, 20_000, 20_000)
            assert st == CublasStatus.CUBLAS_STATUS_ALLOC_FAILED

        res = run_job(JobSpec(app=app, ntasks=1))
        assert res.cluster.nodes[0].devices[0].memory.bytes_in_use == 0

    def test_double_free_is_an_error_code(self):
        def app(env):
            err, ptr = env.rt.cudaMalloc(64)
            assert env.rt.cudaFree(ptr) == E.cudaSuccess
            assert env.rt.cudaFree(ptr) == E.cudaErrorInvalidDevicePointer

        run_job(JobSpec(app=app, ntasks=1))

    def test_kernel_launch_failure_monitored(self):
        def app(env):
            env.rt.cudaConfigureCall(1, 1)
            assert env.rt.cudaLaunch("garbage") == E.cudaErrorLaunchFailure

        res = run_job(JobSpec(app=app, ntasks=1, ipm=IpmConfig()))
        by = res.report.merged_by_name()
        assert by["cudaLaunch(!cudaErrorLaunchFailure)"].count == 1
        # no phantom kernel timing was recorded
        assert not any(n.startswith("@CUDA_EXEC") for n in by)


class TestMonitoringRobustness:
    def test_ktt_exhaustion_is_counted_not_fatal(self):
        def app(env):
            rt = env.rt
            rt.cudaMalloc(64)
            streams = [rt.cudaStreamCreate()[1] for _ in range(4)]
            for i in range(30):  # > capacity, all pending, no D2H
                rt.launch(Kernel("slow", nominal_duration=30.0, occupancy=0.01),
                          1, 1, stream=streams[i % 4])
            rt.cudaThreadSynchronize()

        res = run_job(JobSpec(
            app=app, ntasks=1, ipm=IpmConfig(ktt_capacity=8),
        ))
        # IPM stayed alive; kernels beyond the table were dropped,
        # everything else was drained at finalize
        by = res.report.merged_by_name()
        timed = sum(s.count for n, s in by.items() if n.startswith("@CUDA_EXEC"))
        assert 8 <= timed < 30

    def test_report_survives_empty_rank(self):
        """A rank that makes no monitored calls still produces a task."""

        def app(env):
            if env.rank == 0:
                env.rt.cudaMalloc(64)

        res = run_job(JobSpec(app=app, ntasks=2, ipm=IpmConfig()))
        assert res.report.ntasks == 2
        assert len(res.report.tasks[1].table) == 0

    def test_hash_overflow_under_monitoring(self):
        def app(env):
            host = np.zeros(16, dtype=np.uint8)
            err, ptr = env.rt.cudaMalloc(4096)
            for i in range(64):  # 64 distinct byte sizes > capacity 16
                env.rt.cudaMemcpy(host[: i % 16 + 1], ptr, i % 16 + 1,
                                  K.cudaMemcpyDeviceToHost)

        res = run_job(JobSpec(
            app=app, ntasks=1,
            ipm=IpmConfig(hash_capacity=16, host_idle=False),
        ))
        task = res.report.tasks[0]
        assert task.table.overflowed > 0
        total = sum(s.count for _n, s in task.table.items())
        assert total >= 64  # nothing lost
