"""Device memory: pointers and a first-fit allocator.

Allocations may carry an optional backing :class:`bytearray` so that
memory copies move real bytes — examples and tests can verify that a
kernel's *semantic function* actually produced the data the host reads
back.  Large synthetic workloads (HPL at cluster scale) allocate
without backing and only the timing model runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cuda.errors import CudaError, cudaError_t


@dataclass(frozen=True)
class DevicePtr:
    """An address in one device's memory space.

    Supports C-style pointer arithmetic (``ptr + 16``) so strided
    application code looks natural.
    """

    device_id: int
    address: int

    def __add__(self, offset: int) -> "DevicePtr":
        if offset < 0:
            raise ValueError(f"negative pointer offset: {offset}")
        return DevicePtr(self.device_id, self.address + offset)

    def __repr__(self) -> str:
        return f"DevicePtr(dev={self.device_id}, 0x{self.address:x})"


class HostBuffer:
    """Host memory allocated through ``cudaMallocHost`` (pinned) or a
    plain stand-in for pageable buffers.

    Wraps a real ``numpy`` byte array so data round-trips through the
    device can be verified.
    """

    def __init__(self, nbytes: int, pinned: bool = True) -> None:
        import numpy as _np

        if nbytes <= 0:
            raise ValueError(f"host buffer size must be positive: {nbytes}")
        self.array = _np.zeros(nbytes, dtype=_np.uint8)
        self.pinned = pinned
        self.freed = False

    @property
    def nbytes(self) -> int:
        return self.array.nbytes


@dataclass(frozen=True)
class HostRef:
    """A *synthetic* host buffer: it has a size but no data.

    Workload models at cluster scale (HPL panels, PARATEC matrices)
    transfer gigabytes that nobody inspects; a ``HostRef`` prices the
    transfer without materializing the bytes.
    """

    nbytes: int
    pinned: bool = False

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"negative size: {self.nbytes}")


@dataclass
class Allocation:
    """One live allocation inside the device heap."""

    base: int
    size: int
    #: real storage; None for synthetic (timing-only) allocations.
    backing: Optional[bytearray] = None
    #: owning context id, for leak detection at context teardown.
    context_id: int = -1


class DeviceMemory:
    """First-fit free-list allocator over a fixed-size device heap.

    CUDA semantics are enforced: freeing an address that is not the
    base of a live allocation is an error; running out of memory
    surfaces as ``cudaErrorMemoryAllocation`` to the caller (we raise
    :class:`CudaError` and the runtime converts it into a return code).
    """

    #: allocation granularity — real CUDA aligns to 256 B.
    ALIGN = 256

    def __init__(self, device_id: int, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.device_id = device_id
        self.capacity = capacity
        # free list of (base, size), sorted by base, coalesced.
        self._free: List[Tuple[int, int]] = [(0, capacity)]
        self._live: Dict[int, Allocation] = {}
        self.bytes_in_use = 0
        self.peak_bytes = 0
        self.alloc_count = 0

    @staticmethod
    def _round_up(n: int) -> int:
        a = DeviceMemory.ALIGN
        return (n + a - 1) // a * a

    def malloc(
        self, size: int, *, backed: bool = False, context_id: int = -1
    ) -> DevicePtr:
        if size <= 0:
            raise CudaError(cudaError_t.cudaErrorInvalidValue, f"malloc({size})")
        need = self._round_up(size)
        for i, (base, free_size) in enumerate(self._free):
            if free_size >= need:
                if free_size == need:
                    del self._free[i]
                else:
                    self._free[i] = (base + need, free_size - need)
                backing = bytearray(size) if backed else None
                self._live[base] = Allocation(base, need, backing, context_id)
                self.bytes_in_use += need
                self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)
                self.alloc_count += 1
                return DevicePtr(self.device_id, base)
        raise CudaError(
            cudaError_t.cudaErrorMemoryAllocation,
            f"device {self.device_id}: out of memory "
            f"({size} requested, {self.capacity - self.bytes_in_use} free)",
        )

    def free(self, ptr: DevicePtr) -> None:
        if ptr.device_id != self.device_id:
            raise CudaError(
                cudaError_t.cudaErrorInvalidDevicePointer,
                f"pointer belongs to device {ptr.device_id}",
            )
        alloc = self._live.pop(ptr.address, None)
        if alloc is None:
            raise CudaError(
                cudaError_t.cudaErrorInvalidDevicePointer,
                f"free of unallocated address 0x{ptr.address:x}",
            )
        self.bytes_in_use -= alloc.size
        self._insert_free(alloc.base, alloc.size)

    def _insert_free(self, base: int, size: int) -> None:
        """Insert a block into the free list, coalescing neighbours."""
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < base:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (base, size))
        # coalesce with successor then predecessor
        if lo + 1 < len(self._free):
            b, s = self._free[lo]
            nb, ns = self._free[lo + 1]
            if b + s == nb:
                self._free[lo] = (b, s + ns)
                del self._free[lo + 1]
        if lo > 0:
            pb, ps = self._free[lo - 1]
            b, s = self._free[lo]
            if pb + ps == b:
                self._free[lo - 1] = (pb, ps + s)
                del self._free[lo]

    # -- data access -----------------------------------------------------

    def find(self, ptr: DevicePtr) -> Allocation:
        """Locate the allocation containing ``ptr`` (for memcpy)."""
        alloc = self._live.get(ptr.address)
        if alloc is not None:
            return alloc
        for base, a in self._live.items():
            if base <= ptr.address < base + a.size:
                return a
        raise CudaError(
            cudaError_t.cudaErrorInvalidDevicePointer,
            f"0x{ptr.address:x} is not inside any allocation",
        )

    def write(self, ptr: DevicePtr, data: bytes) -> None:
        """Store bytes at ``ptr`` if the allocation is backed."""
        alloc = self.find(ptr)
        off = ptr.address - alloc.base
        if off + len(data) > alloc.size:
            raise CudaError(
                cudaError_t.cudaErrorInvalidValue,
                f"write of {len(data)} B overruns allocation of {alloc.size} B",
            )
        if alloc.backing is not None:
            end = off + len(data)
            if end > len(alloc.backing):
                alloc.backing.extend(b"\0" * (end - len(alloc.backing)))
            alloc.backing[off:end] = data

    def read(self, ptr: DevicePtr, nbytes: int) -> Optional[bytes]:
        """Fetch bytes from ``ptr``; None for unbacked allocations.

        Bytes past the backing's written extent (the allocation's
        alignment slack) read as zeros without growing the backing.
        """
        alloc = self.find(ptr)
        off = ptr.address - alloc.base
        if off + nbytes > alloc.size:
            raise CudaError(
                cudaError_t.cudaErrorInvalidValue,
                f"read of {nbytes} B overruns allocation of {alloc.size} B",
            )
        backing = alloc.backing
        if backing is None:
            return None
        end = off + nbytes
        have = len(backing)
        # one copy out of the backing; the views are released before
        # returning so later writes may still resize it
        with memoryview(backing) as view, view[off:min(end, have)] as part:
            if end <= have:
                return part.tobytes()
            return b"".join((part, bytes(end - max(off, have))))

    def leaked(self, context_id: int) -> List[Allocation]:
        """Allocations still live for a context (leak check helper)."""
        return [a for a in self._live.values() if a.context_id == context_id]

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.bytes_in_use
