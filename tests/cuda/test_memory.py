"""Device memory allocator tests (unit + property-based)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuda.errors import CudaError, cudaError_t
from repro.cuda.memory import DeviceMemory, DevicePtr, HostBuffer, HostRef


def mem(capacity=1 << 20):
    return DeviceMemory(device_id=0, capacity=capacity)


class TestMallocFree:
    def test_malloc_returns_aligned_ptr(self):
        m = mem()
        p = m.malloc(100)
        assert p.address % DeviceMemory.ALIGN == 0

    def test_distinct_allocations_do_not_overlap(self):
        m = mem()
        ptrs = [m.malloc(1000) for _ in range(10)]
        spans = sorted((p.address, p.address + 1024) for p in ptrs)
        for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_free_then_reuse(self):
        m = mem(capacity=4096)
        p = m.malloc(4096)
        with pytest.raises(CudaError):
            m.malloc(256)
        m.free(p)
        assert m.malloc(4096).address == p.address

    def test_oom_error_code(self):
        m = mem(capacity=1024)
        with pytest.raises(CudaError) as ei:
            m.malloc(2048)
        assert ei.value.code == cudaError_t.cudaErrorMemoryAllocation

    def test_double_free_rejected(self):
        m = mem()
        p = m.malloc(64)
        m.free(p)
        with pytest.raises(CudaError) as ei:
            m.free(p)
        assert ei.value.code == cudaError_t.cudaErrorInvalidDevicePointer

    def test_free_bogus_pointer_rejected(self):
        m = mem()
        with pytest.raises(CudaError):
            m.free(DevicePtr(0, 12345))

    def test_free_wrong_device_rejected(self):
        m = mem()
        with pytest.raises(CudaError):
            m.free(DevicePtr(1, 0))

    def test_zero_and_negative_malloc_rejected(self):
        m = mem()
        for bad in (0, -1):
            with pytest.raises(CudaError):
                m.malloc(bad)

    def test_accounting(self):
        m = mem()
        p1 = m.malloc(1000)
        p2 = m.malloc(2000)
        assert m.bytes_in_use == 1024 + 2048
        assert m.peak_bytes == m.bytes_in_use
        m.free(p1)
        assert m.bytes_in_use == 2048
        assert m.peak_bytes == 1024 + 2048
        m.free(p2)
        assert m.bytes_in_use == 0

    def test_coalescing_allows_big_realloc(self):
        m = mem(capacity=3 * 256)
        a = m.malloc(256)
        b = m.malloc(256)
        c = m.malloc(256)
        m.free(a)
        m.free(c)
        m.free(b)  # middle last: must coalesce both sides
        assert m.malloc(3 * 256) is not None


class TestDataAccess:
    def test_backed_write_read_roundtrip(self):
        m = mem()
        p = m.malloc(64, backed=True)
        m.write(p, b"hello")
        assert m.read(p, 5) == b"hello"

    def test_offset_pointer_access(self):
        m = mem()
        p = m.malloc(64, backed=True)
        m.write(p + 8, b"xy")
        assert m.read(p + 8, 2) == b"xy"
        assert m.read(p, 10)[8:10] == b"xy"

    def test_read_returns_an_immutable_copy(self):
        m = mem()
        p = m.malloc(64, backed=True)
        m.write(p, bytes(range(64)))
        data = m.read(p + 4, 8)
        assert type(data) is bytes and data == bytes(range(4, 12))
        m.write(p + 4, b"\xff" * 8)  # the backing may change (and resize)
        assert data == bytes(range(4, 12))

    def test_read_past_written_extent_zero_pads_without_growing(self):
        m = mem()
        p = m.malloc(100, backed=True)  # 100 B backing, 256 B allocation
        m.write(p + 96, b"abcd")
        alloc = m.find(p)
        assert len(alloc.backing) == 100
        assert m.read(p + 96, 10) == b"abcd" + bytes(6)  # straddles the end
        assert m.read(p + 120, 16) == bytes(16)  # wholly past it
        assert m.read(p, 256) == bytes(96) + b"abcd" + bytes(156)
        assert len(alloc.backing) == 100
        m.write(p + 250, b"z")  # writes still grow it
        assert m.read(p + 248, 8) == bytes(2) + b"z" + bytes(5)

    def test_unbacked_read_returns_none(self):
        m = mem()
        p = m.malloc(64, backed=False)
        m.write(p, b"data")  # silently priced-only
        assert m.read(p, 4) is None

    def test_overrun_write_rejected(self):
        m = mem()
        p = m.malloc(16, backed=True)
        with pytest.raises(CudaError):
            m.write(p, b"x" * 300)

    def test_overrun_read_rejected(self):
        m = mem()
        p = m.malloc(16, backed=True)
        with pytest.raises(CudaError):
            m.read(p, 300)

    def test_find_inside_allocation(self):
        m = mem()
        p = m.malloc(100)
        assert m.find(p + 50).base == p.address

    def test_negative_ptr_offset_rejected(self):
        with pytest.raises(ValueError):
            DevicePtr(0, 0) + (-1)

    def test_leak_tracking_by_context(self):
        m = mem()
        m.malloc(64, context_id=7)
        m.malloc(64, context_id=8)
        assert len(m.leaked(7)) == 1
        assert len(m.leaked(9)) == 0


class TestHostBuffers:
    def test_hostbuffer_is_real_memory(self):
        hb = HostBuffer(16)
        hb.array[:] = 7
        assert hb.nbytes == 16 and hb.pinned

    def test_hostbuffer_bad_size(self):
        with pytest.raises(ValueError):
            HostBuffer(0)

    def test_hostref_is_synthetic(self):
        r = HostRef(1 << 30)
        assert r.nbytes == 1 << 30 and not r.pinned

    def test_hostref_negative_rejected(self):
        with pytest.raises(ValueError):
            HostRef(-1)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("malloc"), st.integers(min_value=1, max_value=8192)),
            st.tuples(st.just("free"), st.integers(min_value=0, max_value=30)),
        ),
        max_size=60,
    )
)
def test_allocator_invariants(ops):
    """Property: no overlap, exact accounting, capacity conserved."""
    m = mem(capacity=1 << 16)
    live = []
    for op, arg in ops:
        if op == "malloc":
            try:
                p = m.malloc(arg)
                live.append((p, DeviceMemory._round_up(arg)))
            except CudaError:
                pass
        elif live:
            p, _ = live.pop(arg % len(live))
            m.free(p)
    # accounting matches the live set
    assert m.bytes_in_use == sum(sz for _, sz in live)
    # no two live allocations overlap
    spans = sorted((p.address, p.address + sz) for p, sz in live)
    for (a0, a1), (b0, _) in zip(spans, spans[1:]):
        assert a1 <= b0
    # free list + live = capacity
    free_total = sum(sz for _, sz in m._free)
    assert free_total + m.bytes_in_use == m.capacity
