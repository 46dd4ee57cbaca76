"""Tests for the secondary runtime calls (2-D ops, pinned alloc,
attributes, limits) and multi-GPU nodes."""

import numpy as np
import pytest

from repro.cluster import run_job
from repro.cluster.node import NodeSpec
from repro.cluster.cluster import Cluster
from repro.cuda import Kernel, cudaError_t, cudaMemcpyKind
from repro.simt import Simulator
from repro.sweep import JobSpec

from tests.cuda.conftest import run_in_proc

E = cudaError_t
K = cudaMemcpyKind


class TestPitchedMemory:
    def test_pitch_is_aligned_and_covers_width(self, sim, rt):
        def body():
            return rt.cudaMallocPitch(1000, 4)

        err, ptr, pitch = run_in_proc(sim, body)
        assert err == E.cudaSuccess
        assert pitch >= 1000 and pitch % 512 == 0

    def test_bad_shape(self, sim, rt):
        def body():
            return rt.cudaMallocPitch(0, 4)[0], rt.cudaMallocPitch(4, -1)[0]

        assert run_in_proc(sim, body) == (E.cudaErrorInvalidValue,) * 2

    def test_memcpy2d_roundtrip(self, sim, rt):
        src = np.arange(256, dtype=np.uint8)
        dst = np.zeros_like(src)

        def body():
            err, ptr, pitch = rt.cudaMallocPitch(256, 1)
            rt.cudaMemcpy2D(ptr, pitch, src, 256, 256, 1,
                            K.cudaMemcpyHostToDevice)
            rt.cudaMemcpy2D(dst, 256, ptr, pitch, 256, 1,
                            K.cudaMemcpyDeviceToHost)

        run_in_proc(sim, body)
        np.testing.assert_array_equal(src, dst)

    def test_memcpy2d_pitch_validation(self, sim, rt):
        def body():
            err, ptr, pitch = rt.cudaMallocPitch(128, 2)
            return rt.cudaMemcpy2D(ptr, 64, None, 128, 128, 2)  # dpitch < width

        assert run_in_proc(sim, body) == E.cudaErrorInvalidValue

    def test_memset2d(self, sim, rt):
        def body():
            err, ptr, pitch = rt.cudaMallocPitch(64, 2)
            assert rt.cudaMemset2D(ptr, pitch, 0, 64, 2) == E.cudaSuccess
            assert rt.cudaMemset2D(ptr, 8, 0, 64, 2) == E.cudaErrorInvalidValue

        run_in_proc(sim, body)


class TestHostAllocAndInfo:
    def test_hostalloc_is_pinned(self, sim, rt):
        def body():
            err, buf = rt.cudaHostAlloc(4096)
            return err, buf.pinned

        assert run_in_proc(sim, body) == (E.cudaSuccess, True)

    def test_mem_get_info_tracks_allocations(self, sim, rt, quiet_device):
        def body():
            _, free0, total = rt.cudaMemGetInfo()
            rt.cudaMalloc(1 << 20)
            _, free1, _ = rt.cudaMemGetInfo()
            return free0, free1, total

        free0, free1, total = run_in_proc(sim, body)
        assert total == quiet_device.spec.memory_bytes
        assert free0 - free1 == 1 << 20

    def test_choose_device(self, sim, rt):
        def body():
            return rt.cudaChooseDevice()

        assert run_in_proc(sim, body) == (E.cudaSuccess, 0)

    def test_func_attributes(self, sim, rt):
        def body():
            k = Kernel("k", nominal_duration=1.0, occupancy=0.5)
            err, attrs = rt.cudaFuncGetAttributes(k)
            bad, _ = rt.cudaFuncGetAttributes("nope")
            return err, attrs, bad

        err, attrs, bad = run_in_proc(sim, body)
        assert err == E.cudaSuccess
        assert attrs["occupancy"] == 0.5
        assert attrs["maxThreadsPerBlock"] == 1024
        assert bad == E.cudaErrorInvalidResourceHandle

    def test_symbol_size(self, sim, rt):
        def body():
            rt.cudaMemcpyToSymbol("c_tbl", None, 4096)
            err, size = rt.cudaGetSymbolSize("c_tbl")
            missing, _ = rt.cudaGetSymbolSize("nope")
            return err, size, missing

        err, size, missing = run_in_proc(sim, body)
        assert err == E.cudaSuccess and size >= 4096
        assert missing == E.cudaErrorInvalidValue

    def test_thread_limits(self, sim, rt):
        def body():
            _, default = rt.cudaThreadGetLimit("cudaLimitStackSize")
            rt.cudaThreadSetLimit("cudaLimitStackSize", 8192)
            _, after = rt.cudaThreadGetLimit("cudaLimitStackSize")
            bad = rt.cudaThreadSetLimit("cudaLimitStackSize", -1)
            return default, after, bad

        default, after, bad = run_in_proc(sim, body)
        assert default == 1024 and after == 8192
        assert bad == E.cudaErrorInvalidValue


class TestMultiGpuNodes:
    def test_set_device_switches_contexts_and_memory(self):
        spec = NodeSpec(gpus=2)

        def app(env):
            rt = env.rt
            err, n = rt.cudaGetDeviceCount()
            assert n == 2
            _, p0 = rt.cudaMalloc(1 << 20)
            rt.cudaSetDevice(1)
            _, p1 = rt.cudaMalloc(2 << 20)
            assert p0.device_id != p1.device_id
            rt.cudaFree(p1)
            rt.cudaSetDevice(0)
            rt.cudaFree(p0)

        sim = Simulator()
        cluster = Cluster(sim, 1, node_spec=spec)
        run_job(JobSpec(app=app, ntasks=1), cluster=cluster)
        for dev in cluster.nodes[0].devices:
            assert dev.memory.bytes_in_use == 0

    def test_kernels_on_two_gpus_overlap(self):
        spec = NodeSpec(gpus=2)

        def app(env):
            rt = env.rt
            t0 = env.sim.now
            rt.cudaSetDevice(0)
            rt.launch(Kernel("a", nominal_duration=1.0), 1, 1)
            rt.cudaSetDevice(1)
            rt.launch(Kernel("b", nominal_duration=1.0), 1, 1)
            rt.cudaThreadSynchronize()   # syncs device 1 only
            rt.cudaSetDevice(0)
            rt.cudaThreadSynchronize()
            return env.sim.now - t0

        sim = Simulator()
        cluster = Cluster(sim, 1, node_spec=spec)
        res = run_job(JobSpec(app=app, ntasks=1), cluster=cluster)
        # both contexts pay init (serialized per-device locks are
        # distinct) and kernels overlap: well under 2×(init+kernel)
        assert res.results[0] < 2 * (1.29 * 1.3 + 1.0)
