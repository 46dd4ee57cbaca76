"""Tests for the §VI extensions: the advisor and the PAPI GPU component."""

import numpy as np
import pytest

from repro.core import EventSignature, Ipm, IpmConfig, JobReport, PerfHashTable, TaskReport
from repro.core.advisor import AdvisorConfig, Severity, advise, format_findings
from repro.core.ktt import KernelRecord
from repro.core.papi import (
    CUDA_COMPONENT_EVENTS,
    GpuCounterComponent,
    PAPI_EINVAL,
    PAPI_ENOEVNT,
    PAPI_OK,
    PAPI_VER_CURRENT,
    Papi,
    attach_to_ipm,
)
from repro.cuda import Device, GpuTimingModel, Kernel, Runtime, cudaMemcpyKind
from repro.simt import Simulator

K = cudaMemcpyKind


def make_report(rows, kernel_details=None, wall=100.0, ntasks=2,
                domains=None, mem=0.0):
    tasks = []
    for rank in range(ntasks):
        table = PerfHashTable()
        for name, total, count in rows.get(rank, rows.get("all", [])):
            for _ in range(count - 1):
                table.update(EventSignature(name), 0.0)
            table.update(EventSignature(name), total)
        tasks.append(TaskReport(
            rank=rank, nranks=ntasks, hostname=f"h{rank}", command="x",
            start_time=0.0, stop_time=wall, table=table,
            kernel_details=(kernel_details or {}).get(rank, []),
        ))
    return JobReport(tasks=tasks, domains=domains or {})


class TestAdvisorRules:
    def test_host_idle_rule_fires(self):
        job = make_report(
            {"all": [("@CUDA_HOST_IDLE", 20.0, 5), ("cudaMemcpy(D2H)", 1.0, 5)]},
            domains={"cudaMemcpy": "CUDA"},
        )
        findings = advise(job)
        assert any(f.rule == "host-idle" for f in findings)
        idle = next(f for f in findings if f.rule == "host-idle")
        assert idle.severity == Severity.WARNING
        assert "cudaMemcpyAsync" in idle.recommendation

    def test_host_idle_rule_quiet_below_threshold(self):
        job = make_report({"all": [("@CUDA_HOST_IDLE", 0.1, 1)]},
                          domains={"x": "CUDA"})
        assert not any(f.rule == "host-idle" for f in advise(job))

    def test_sync_wait_rule(self):
        job = make_report(
            {"all": [("cudaThreadSynchronize", 25.0, 100)]},
            domains={"cudaThreadSynchronize": "CUDA"},
        )
        findings = advise(job)
        wait = next(f for f in findings if f.rule == "sync-wait")
        assert "CPU" in wait.recommendation

    def test_kernel_imbalance_rule(self):
        details = {
            0: [KernelRecord("ReduceForces", 0, 10.0)],
            1: [KernelRecord("ReduceForces", 0, 30.0)],
        }
        job = make_report(
            {"all": [("@CUDA_EXEC_STRM00", 20.0, 1)]},
            kernel_details=details, domains={"x": "CUDA"},
        )
        findings = advise(job)
        imb = next(f for f in findings if f.rule == "kernel-imbalance")
        assert "ReduceForces" in imb.title

    def test_thunking_rule(self):
        details = {r: [KernelRecord("zgemm_gpu", 0, 2.0)] for r in range(2)}
        job = make_report(
            {"all": [("cublasSetMatrix", 20.0, 50), ("cublasGetMatrix", 20.0, 50),
                     ("@CUDA_EXEC_STRM00", 2.0, 1)]},
            kernel_details=details,
            domains={"cublasSetMatrix": "CUBLAS", "cublasGetMatrix": "CUBLAS"},
        )
        findings = advise(job)
        thunk = next(f for f in findings if f.rule == "thunking-transfers")
        assert "direct" in thunk.recommendation

    def test_comm_bound_rule_names_top_contributor(self):
        job = make_report(
            {"all": [("MPI_Gather", 30.0, 10), ("MPI_Allreduce", 5.0, 10)]},
            domains={"MPI_Gather": "MPI", "MPI_Allreduce": "MPI"},
        )
        comm = next(f for f in advise(job) if f.rule == "comm-bound")
        assert "MPI_Gather" in comm.evidence

    def test_root_collective_rule(self):
        rows = {
            0: [("MPI_Gather", 40.0, 10)],
            1: [("MPI_Gather", 2.0, 10)],
            2: [("MPI_Gather", 2.0, 10)],
            3: [("MPI_Gather", 2.0, 10)],
        }
        job = make_report(rows, ntasks=4, domains={"MPI_Gather": "MPI"})
        assert any(f.rule == "root-collective" for f in advise(job))

    def test_low_gpu_util_rule(self):
        details = {r: [KernelRecord("k", 0, 0.5)] for r in range(2)}
        job = make_report(
            {"all": [("@CUDA_EXEC_STRM00", 0.5, 10), ("cudaLaunch", 0.1, 10)]},
            kernel_details=details, domains={"cudaLaunch": "CUDA"},
        )
        assert any(f.rule == "low-gpu-util" for f in advise(job))

    def test_healthy_profile_no_findings(self):
        job = make_report(
            {"all": [("cudaLaunch", 0.5, 100), ("@CUDA_EXEC_STRM00", 40.0, 100)]},
            kernel_details={r: [KernelRecord("k", 0, 40.0)] for r in range(2)},
            domains={"cudaLaunch": "CUDA"},
        )
        findings = advise(job)
        assert findings == []
        assert "healthy" in format_findings(findings)

    def test_findings_sorted_by_severity(self):
        job = make_report(
            {"all": [("@CUDA_HOST_IDLE", 20.0, 5),
                     ("cudaThreadSynchronize", 25.0, 5)]},
            domains={"cudaThreadSynchronize": "CUDA"},
        )
        findings = advise(job)
        sevs = [f.severity for f in findings]
        assert sevs == sorted(sevs, reverse=True)

    def test_format_contains_all_parts(self):
        job = make_report({"all": [("@CUDA_HOST_IDLE", 20.0, 5)]},
                          domains={"x": "CUDA"})
        text = format_findings(advise(job))
        assert "[WARNING]" in text and "evidence:" in text


class TestAdvisorOnRealProfiles:
    def test_amber_gets_sync_wait_advice(self):
        """The advisor rediscovers the paper's own §IV-E recommendation."""
        from repro.apps.amber import AmberConfig, amber_app
        from repro.cluster import run_job
        from repro.sweep import JobSpec

        gt = GpuTimingModel()
        gt.context_init_sigma = 0.01
        res = run_job(JobSpec(
            app=lambda env: amber_app(env, AmberConfig(steps=20)), ntasks=4,
            ipm=IpmConfig(),
        ), gpu_timing=gt)
        findings = advise(res.report)
        assert any(f.rule == "sync-wait" for f in findings)
        assert any(f.rule == "kernel-imbalance" for f in findings)

    def test_paratec_gets_thunking_advice(self):
        """…and the §IV-D recommendation for PARATEC."""
        from repro.apps.paratec import ParatecConfig, paratec_app
        from repro.cluster import run_job
        from repro.sweep import JobSpec

        res = run_job(JobSpec(
            app=lambda env: paratec_app(env, ParatecConfig.tiny()), ntasks=4,
            ipm=IpmConfig(),
        ))
        findings = advise(res.report)
        assert any(f.rule == "thunking-transfers" for f in findings)

    def test_hpl_profile_is_mostly_clean(self):
        from repro.apps.hpl import HplConfig, hpl_app
        from repro.cluster import run_job
        from repro.sweep import JobSpec

        res = run_job(JobSpec(
            app=lambda env: hpl_app(env, HplConfig.tiny()), ntasks=4,
            ipm=IpmConfig(),
        ))
        findings = advise(res.report)
        assert not any(f.rule == "host-idle" for f in findings)
        assert not any(f.rule == "thunking-transfers" for f in findings)


class TestPapiComponent:
    def _setup(self):
        sim = Simulator()
        t = GpuTimingModel()
        t.context_init_mean = 0.0
        t.context_init_sigma = 0.0
        t.kernel_jitter_cv = 0.0
        t.launch_gap_sigma = 0.0
        dev = Device(sim, timing=t, rng=np.random.default_rng(0))
        rt = Runtime(sim, [dev])
        return sim, rt

    def test_library_init_version_check(self):
        papi = Papi(GpuCounterComponent())
        assert papi.PAPI_library_init(12345) == PAPI_EINVAL
        assert papi.PAPI_library_init() == PAPI_VER_CURRENT

    def test_eventset_lifecycle(self):
        papi = Papi(GpuCounterComponent())
        papi.PAPI_library_init()
        code, es = papi.PAPI_create_eventset()
        assert code == PAPI_OK
        assert papi.PAPI_add_event(es, "cuda:::kernels_executed") == PAPI_OK
        assert papi.PAPI_add_event(es, "cuda:::bogus") == PAPI_ENOEVNT
        assert papi.PAPI_start(es) == PAPI_OK
        assert papi.PAPI_start(es) == PAPI_EINVAL  # already running
        code, values = papi.PAPI_stop(es)
        assert code == PAPI_OK and values == [0]
        assert papi.PAPI_cleanup_eventset(es) == PAPI_OK

    def test_counters_track_device_activity(self):
        sim, rt = self._setup()
        comp = GpuCounterComponent()

        def body():
            rt.cudaMalloc(64)
            comp.attach(rt.context)
            papi = Papi(comp)
            papi.PAPI_library_init()
            _, es = papi.PAPI_create_eventset()
            for ev in ("cuda:::kernels_executed", "cuda:::kernel_time_ns",
                       "cuda:::memcpy_d2h_bytes"):
                papi.PAPI_add_event(es, ev)
            papi.PAPI_start(es)
            _, ptr = rt.cudaMalloc(4096)
            rt.launch(Kernel("k", nominal_duration=0.010), 32, 32)
            rt.launch(Kernel("k", nominal_duration=0.005), 32, 32)
            host = np.zeros(4096, dtype=np.uint8)
            rt.cudaMemcpy(host, ptr, 4096, K.cudaMemcpyDeviceToHost)
            _, values = papi.PAPI_stop(es)
            return values

        proc = sim.spawn(body)
        sim.run()
        kernels, kernel_ns, d2h = proc.result
        assert kernels == 2
        assert kernel_ns == pytest.approx(15e6, rel=0.01)
        assert d2h == 4096

    def test_delta_semantics(self):
        sim, rt = self._setup()
        comp = GpuCounterComponent()

        def body():
            rt.cudaMalloc(64)
            comp.attach(rt.context)
            rt.launch(Kernel("warmup", nominal_duration=0.01), 1, 1)
            rt.cudaThreadSynchronize()
            papi = Papi(comp)
            papi.PAPI_library_init()
            _, es = papi.PAPI_create_eventset()
            papi.PAPI_add_event(es, "cuda:::kernels_executed")
            papi.PAPI_start(es)  # baseline excludes the warmup kernel
            rt.launch(Kernel("k", nominal_duration=0.01), 1, 1)
            rt.cudaThreadSynchronize()
            _, values = papi.PAPI_read(es)
            return values

        proc = sim.spawn(body)
        sim.run()
        assert proc.result == [1]

    def test_ipm_integration_counters_in_report_and_xml(self, tmp_path):
        sim, rt = self._setup()
        ipm = Ipm(sim, config=IpmConfig(host_idle=False))
        wrapped = ipm.wrap_runtime(rt)

        def body():
            wrapped.cudaMalloc(64)
            attach_to_ipm(ipm, wrapped)
            wrapped.launch(Kernel("k", nominal_duration=0.01), 1, 1)
            wrapped.cudaThreadSynchronize()

        sim.spawn(body)
        sim.run()
        task = ipm.finalize()
        assert task.counters["cuda:::kernels_executed"] == 1
        assert task.counters["cuda:::kernel_time_ns"] > 0
        # counters round-trip through the XML log
        from repro.core import JobReport, read_xml, write_xml

        job = JobReport(tasks=[task], domains=dict(ipm.domains))
        path = str(tmp_path / "p.xml")
        write_xml(job, path)
        back = read_xml(path)
        assert back.tasks[0].counters == task.counters

    def test_occupancy_weighting(self):
        sim, rt = self._setup()
        comp = GpuCounterComponent()

        def body():
            rt.cudaMalloc(64)
            comp.attach(rt.context)
            rt.launch(Kernel("half", nominal_duration=0.010, occupancy=0.5),
                      1, 1)
            rt.cudaThreadSynchronize()

        sim.spawn(body)
        sim.run()
        assert comp.value("cuda:::sm_busy_ns") == pytest.approx(5e6, rel=0.01)
        assert comp.value("cuda:::kernel_time_ns") == pytest.approx(10e6, rel=0.01)
