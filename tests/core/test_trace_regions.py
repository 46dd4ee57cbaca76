"""Tests for the trace ring, timeline rendering, and user regions."""

import pytest

from repro.cluster import run_job
from repro.core import IpmConfig
from repro.core.trace import TraceRecord, TraceRing, render_timeline
from repro.cuda import Kernel, cudaMemcpyKind
from repro.cuda.memory import HostRef
from repro.sweep import JobSpec

K = cudaMemcpyKind


class TestTraceRing:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceRing(0)

    def test_eviction_keeps_newest(self):
        ring = TraceRing(3)
        for i in range(5):
            ring.add(TraceRecord(float(i), float(i) + 0.5, f"e{i}"))
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [r.name for r in ring.records()] == ["e2", "e3", "e4"]

    def test_records_sorted_by_time(self):
        ring = TraceRing(10)
        ring.add(TraceRecord(2.0, 3.0, "late"))
        ring.add(TraceRecord(0.0, 1.0, "early"))
        assert [r.name for r in ring.records()] == ["early", "late"]


class TestTimelineRendering:
    def test_empty(self):
        assert render_timeline([]) == "(empty trace)"

    def test_lanes_and_bars(self):
        recs = [
            TraceRecord(0.0, 0.5, "cudaLaunch", "host"),
            TraceRecord(0.1, 0.9, "square", "gpu:strm00"),
            TraceRecord(0.9, 1.0, "cudaMemcpy(D2H)", "host"),
        ]
        out = render_timeline(recs, width=60)
        lines = out.splitlines()
        assert lines[0].startswith("timeline:")
        assert any("host" in l for l in lines)
        assert any("gpu:strm00" in l for l in lines)
        assert "square" in out  # label fits inside the bar

    def test_host_lane_first(self):
        recs = [
            TraceRecord(0.0, 1.0, "k", "gpu:strm00"),
            TraceRecord(0.0, 1.0, "call", "host"),
        ]
        out = render_timeline(recs).splitlines()
        host_idx = next(i for i, l in enumerate(out) if "host" in l)
        gpu_idx = next(i for i, l in enumerate(out) if "gpu:" in l)
        assert host_idx < gpu_idx

    def test_overlapping_events_stack_rows(self):
        recs = [
            TraceRecord(0.0, 1.0, "a", "host"),
            TraceRecord(0.2, 0.8, "b", "host"),
        ]
        out = render_timeline(recs, width=40)
        # two rows under the host lane
        assert len(out.splitlines()) >= 3


class TestTracedMonitoring:
    def _app(self, env):
        rt = env.rt
        _, ptr = rt.cudaMalloc(4096)
        rt.launch(Kernel("square", nominal_duration=0.05), 64, 64, args=(ptr,))
        rt.cudaMemcpy(HostRef(4096), ptr, 4096, K.cudaMemcpyDeviceToHost)
        rt.cudaFree(ptr)

    def test_trace_off_by_default(self):
        res = run_job(JobSpec(app=self._app, ntasks=1, ipm=IpmConfig()))
        assert res.report is not None  # and no trace attribute populated

    def test_trace_records_host_and_gpu_lanes(self):
        ipms = []

        def app(env):
            ipms.append(env.ipm)
            self._app(env)

        # host-idle separation off so the memcpy's traced window shows
        # the raw blocking behaviour (with it on, IPM's pre-probe
        # absorbs the wait before the measured window opens)
        run_job(JobSpec(
            app=app, ntasks=1,
            ipm=IpmConfig(trace_capacity=128, host_idle=False),
        ))
        trace = ipms[0].trace
        recs = trace.records()
        lanes = {r.lane for r in recs}
        assert "host" in lanes and "gpu:strm00" in lanes
        names = [r.name for r in recs]
        assert "cudaLaunch" in names and "square" in names
        # the Fig. 7 ordering is visible in the trace itself
        launch = next(r for r in recs if r.name == "cudaLaunch")
        kernel = next(r for r in recs if r.name == "square")
        memcpy = next(r for r in recs if r.name == "cudaMemcpy(D2H)")
        assert launch.end <= kernel.begin + 1e-3
        assert memcpy.begin < kernel.end   # posted while kernel runs
        assert memcpy.end >= kernel.end    # completes after it

    def test_timeline_renders_from_real_trace(self):
        ipms = []

        def app(env):
            ipms.append(env.ipm)
            self._app(env)

        run_job(JobSpec(app=app, ntasks=1, ipm=IpmConfig(trace_capacity=128)))
        out = render_timeline(ipms[0].trace.records(), width=64)
        assert "gpu:strm00" in out


class TestUserRegions:
    def test_pcontrol_scopes_events(self):
        def app(env):
            env.mpi.MPI_Pcontrol(1, "solver")
            env.mpi.MPI_Allreduce(1)
            env.mpi.MPI_Pcontrol(-1)
            env.mpi.MPI_Barrier()

        res = run_job(JobSpec(
            app=app, ntasks=2,
            ipm=IpmConfig(monitor_cuda=False, host_idle=False),
        ))
        task = res.report.tasks[0]
        regions = {sig.region for sig, _ in task.table.items()}
        assert regions == {"ipm_main", "solver"}
        by_region = {
            (sig.region, sig.name) for sig, _ in task.table.items()
        }
        assert ("solver", "MPI_Allreduce") in by_region
        assert ("ipm_main", "MPI_Barrier") in by_region

    def test_regions_survive_xml_roundtrip(self, tmp_path):
        from repro.core import read_xml, write_xml

        def app(env):
            env.mpi.MPI_Pcontrol(1, "io_phase")
            env.mpi.MPI_Allreduce(1)
            env.mpi.MPI_Pcontrol(-1)

        res = run_job(JobSpec(
            app=app, ntasks=2,
            ipm=IpmConfig(monitor_cuda=False, host_idle=False),
        ))
        path = str(tmp_path / "p.xml")
        write_xml(res.report, path)
        back = read_xml(path)
        regions = {sig.region for sig, _ in back.tasks[0].table.items()}
        assert "io_phase" in regions

    def test_unbalanced_pcontrol_raises(self):
        from repro.simt import ProcessCrashed

        def app(env):
            env.mpi.MPI_Pcontrol(-1)  # exit without enter

        with pytest.raises(ProcessCrashed):
            run_job(JobSpec(
                app=app, ntasks=1,
                ipm=IpmConfig(monitor_cuda=False, host_idle=False),
            ))
