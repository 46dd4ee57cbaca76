"""The IPM monitor: per-process lifecycle, configuration, wiring.

One :class:`Ipm` instance exists per monitored process (rank), exactly
like the preloaded library in the real tool.  It owns the performance
data hash table, the kernel timing table(s), the overhead model, and
produces interposed proxies for the APIs the process uses::

    ipm = Ipm(sim, rank=0, nranks=16, config=IpmConfig())
    rt_w   = ipm.wrap_runtime(rt)      # CUDA runtime API
    drv_w  = ipm.wrap_driver(drv)      # CUDA driver API
    mpi_w  = ipm.wrap_mpi(comm)        # MPI
    blas_w = ipm.wrap_cublas(cublas)   # CUBLAS
    fft_w  = ipm.wrap_cufft(cufft)     # CUFFT
    ... application runs against the wrapped handles ...
    report = ipm.finalize()
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, TYPE_CHECKING

from repro.core.hashtable import PerfHashTable
from repro.core.ktt import KernelRecord, KernelTimingTable
from repro.core.overhead import OverheadConfig, OverheadModel
from repro.core.report import TaskReport
from repro.core.sig import DEFAULT_REGION, EventSignature, cuda_exec_name
from repro.telemetry.config import TelemetryConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.simt.simulator import Simulator


@dataclass(frozen=True)
class IpmConfig:
    """Feature flags and sizes, mirroring IPM's environment variables."""

    monitor_mpi: bool = True
    monitor_cuda: bool = True
    #: GPU kernel timing via the event API + kernel timing table (§III-B).
    kernel_timing: bool = True
    #: implicit-host-blocking separation (§III-C).
    host_idle: bool = True
    monitor_cublas: bool = True
    monitor_cufft: bool = True
    hash_capacity: int = 8192
    ktt_capacity: int = 256
    #: when the KTT checks completions: "on_d2h" (paper's choice) or
    #: "on_every_call" (the rejected alternative, kept for ablation).
    ktt_policy: str = "on_d2h"
    #: linkage style of the generated wrappers (§III-A).
    linkage: str = "dynamic"
    #: >0 enables the chronological trace ring of that capacity
    #: (repro.core.trace; IPM itself is a profiler — tracing is opt-in).
    trace_capacity: int = 0
    overhead: OverheadConfig = field(default_factory=OverheadConfig)
    #: streaming telemetry (repro.telemetry): virtual-time sampler +
    #: sinks.  Off by default — golden outputs stay byte-identical.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    #: fault-injection plan (repro.faults.FaultPlan) or None.  Off by
    #: default — an unfaulted job stays byte-identical.
    faults: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.ktt_policy not in ("on_d2h", "on_every_call"):
            raise ValueError(f"unknown ktt_policy {self.ktt_policy!r}")


class Ipm:
    """Per-process monitoring state."""

    def __init__(
        self,
        sim: "Simulator",
        rank: int = 0,
        nranks: int = 1,
        config: Optional[IpmConfig] = None,
        hostname: str = "dirac01",
        command: str = "./a.out",
        blocking_calls: Optional[Set[str]] = None,
    ) -> None:
        self.sim = sim
        self.rank = rank
        self.nranks = nranks
        self.config = config or IpmConfig()
        self.hostname = hostname
        self.command = command
        # Never reassigned: generated wrappers bind it at creation time.
        self.table = PerfHashTable(self.config.hash_capacity)
        self.overhead = OverheadModel(sim, self.table, self.config.overhead)
        #: call-name → domain, for banner section totals.
        self.domains: Dict[str, str] = {}
        self.kernel_details: List[KernelRecord] = []
        self.ktts: List[KernelTimingTable] = []
        self.active = True
        self.start_time = sim.now
        self.stop_time: Optional[float] = None
        self.current_region = DEFAULT_REGION
        self._region_stack: List[str] = []
        #: wrappers' signature-interning caches (repro.core.wrapper_gen);
        #: invalidated on region transitions.
        self._sig_caches: List[Dict[Any, Any]] = []
        self.mem_gb = 0.0
        self.gflops = 0.0
        #: optional GPU counter component (repro.core.papi, §VI).
        self.gpu_counters = None
        #: optional OpenCL kernel timer (repro.core.ocl_wrappers, §VI).
        self.ocl_timer = None
        #: optional chronological trace (repro.core.trace).
        self.trace = None
        if self.config.trace_capacity > 0:
            from repro.core.trace import TraceRing

            self.trace = TraceRing(self.config.trace_capacity)
        #: fault-injection abort check (raises RankAborted past the
        #: planned abort time); bound by wrappers at creation, so the
        #: job runner must set it *before* wrapping.  None = no checks.
        self.fault_check: Optional[Any] = None
        #: monitored calls that returned an error code (per domain).
        self.error_counts: Dict[str, int] = {}
        #: optional streaming-telemetry counters (repro.telemetry);
        #: ``None`` keeps the wrapper hot path telemetry-free.
        self.tele = None
        if self.config.telemetry.enabled:
            from repro.telemetry.counters import RankCounters

            self.tele = RankCounters()
            self.tele.attach(self.table, self.domains)
        #: host-launch -> device-kernel correlation (trace flow events).
        self._corr_seq = 0
        self._pending_corr: Optional[int] = None
        if blocking_calls is None and self.config.host_idle:
            from repro.core.hostidle import blocking_wrapper_names, identify_blocking_calls

            blocking_calls = blocking_wrapper_names(identify_blocking_calls())
        self.blocking_calls: Set[str] = blocking_calls or set()

    # -- recording ----------------------------------------------------------

    def update(
        self, sig: EventSignature, duration: float, domain: Optional[str] = None
    ) -> None:
        """UPDATE_DATA of Fig. 2: fold one observation into the table."""
        self.table.update(sig, duration)
        if domain is not None:
            base = sig.name.split("(")[0]
            self.domains.setdefault(base, domain)

    def record_kernel(
        self,
        kernel: str,
        stream_id: int,
        duration: float,
        start: Optional[float] = None,
        corr: Optional[int] = None,
    ) -> None:
        """Record one completed GPU kernel (called by the KTT)."""
        self.update(
            EventSignature(cuda_exec_name(stream_id), self.current_region),
            duration,
            domain="CUDA",
        )
        self.kernel_details.append(KernelRecord(kernel, stream_id, duration))
        if self.tele is not None:
            self.tele.kernel_time += duration
        if self.trace is not None and start is not None:
            from repro.core.trace import TraceRecord

            self.trace.add(
                TraceRecord(start, start + duration, kernel,
                            lane=f"gpu:strm{stream_id:02d}", corr=corr)
            )

    def record_host_idle(self, duration: float) -> None:
        from repro.core.sig import CUDA_HOST_IDLE

        self.update(
            EventSignature(CUDA_HOST_IDLE, self.current_region),
            duration,
            domain="CUDA",
        )
        if self.tele is not None:
            self.tele.host_idle_time += duration

    def record_error(
        self,
        name: str,
        suffix: str,
        error_name: str,
        duration: float,
        nbytes: Optional[int],
        domain: str,
    ) -> EventSignature:
        """Record one *failing* monitored call (graceful degradation).

        The call lands in the hash table under an error-tagged
        signature (so the banner/XML/CUBE show error counts per call),
        and its time also accumulates under the ``@CUDA_ERROR``
        accounting region — the error-side analogue of
        ``@CUDA_HOST_IDLE``.  Rare path: no signature interning.
        """
        from repro.core.sig import CUDA_ERROR, error_tagged_name

        tagged = EventSignature(
            error_tagged_name(name, suffix, error_name),
            self.current_region,
            nbytes,
        )
        self.update(tagged, duration, domain=domain)
        self.update(
            EventSignature(CUDA_ERROR, self.current_region),
            duration,
            domain="CUDA",
        )
        self.error_counts[domain] = self.error_counts.get(domain, 0) + 1
        if self.tele is not None:
            self.tele.on_error(domain)
        return tagged

    # -- launch correlation (trace flow events) -----------------------------

    def next_launch_corr(self) -> int:
        """Allocate a correlation id for the launch being wrapped.

        Called by the kernel timing table's pre-launch hook (only when
        tracing is on); the id is left pending so the generic wrapper
        can stamp it onto the host-side trace record of the same call.
        """
        self._corr_seq += 1
        self._pending_corr = self._corr_seq
        return self._corr_seq

    def take_launch_corr(self) -> Optional[int]:
        """Consume the pending correlation id (None for non-launches)."""
        corr = self._pending_corr
        if corr is not None:
            self._pending_corr = None
        return corr

    # -- signature interning -------------------------------------------------

    def register_sig_cache(self, cache: Dict[Any, Any]) -> None:
        """Register a wrapper's signature-interning cache.

        Wrappers key their caches on (suffix, region, nbytes), so stale
        entries under another region would still be correct — clearing
        on region transitions just keeps each cache bounded to the live
        region's working set.
        """
        self._sig_caches.append(cache)

    def _invalidate_sig_caches(self) -> None:
        for cache in self._sig_caches:
            cache.clear()

    # -- regions (IPM's MPI_Pcontrol-style code regions) ------------------------

    def region_enter(self, name: str) -> None:
        self._region_stack.append(self.current_region)
        self.current_region = name
        self._invalidate_sig_caches()

    def region_exit(self) -> None:
        if not self._region_stack:
            raise RuntimeError("region_exit without matching region_enter")
        self.current_region = self._region_stack.pop()
        self._invalidate_sig_caches()

    # -- wrapping -----------------------------------------------------------------

    def wrap_runtime(self, rt: Any):
        if not self.config.monitor_cuda:
            return rt
        from repro.core.cuda_wrappers import wrap_runtime

        return wrap_runtime(self, rt)

    def wrap_driver(self, drv: Any):
        if not self.config.monitor_cuda:
            return drv
        from repro.core.cuda_wrappers import wrap_driver

        return wrap_driver(self, drv)

    def wrap_mpi(self, comm: Any):
        if not self.config.monitor_mpi:
            return comm
        from repro.core.mpi_wrappers import wrap_mpi

        return wrap_mpi(self, comm)

    def wrap_cublas(self, cublas: Any):
        if not self.config.monitor_cublas:
            return cublas
        from repro.core.blas_wrappers import wrap_cublas

        return wrap_cublas(self, cublas)

    def wrap_cufft(self, cufft: Any):
        if not self.config.monitor_cufft:
            return cufft
        from repro.core.fft_wrappers import wrap_cufft

        return wrap_cufft(self, cufft)

    # -- lifecycle --------------------------------------------------------------------

    def finalize(
        self,
        stop_time: Optional[float] = None,
        *,
        status: str = "completed",
        drain: bool = True,
    ) -> TaskReport:
        """Drain kernel timing, stop monitoring, emit the task report.

        ``stop_time`` overrides the task's end timestamp — the job
        runner passes each rank's actual exit time, since it finalizes
        all ranks after the job drained.  ``status`` marks aborted or
        stalled ranks in the partial report; ``drain=False`` skips the
        KTT drain for ranks whose device work can never complete
        (in-flight kernel timings are abandoned, everything already
        harvested survives).
        """
        if drain:
            for ktt in self.ktts:
                ktt.drain()
            if self.ocl_timer is not None:
                self.ocl_timer.drain()
        self.stop_time = self.sim.now if stop_time is None else stop_time
        self.active = False
        counters = {}
        if self.gpu_counters is not None:
            from repro.core.papi import CUDA_COMPONENT_EVENTS

            counters = {
                e: self.gpu_counters.value(e) for e in CUDA_COMPONENT_EVENTS
            }
        return TaskReport(
            rank=self.rank,
            nranks=self.nranks,
            hostname=self.hostname,
            command=self.command,
            start_time=self.start_time,
            stop_time=self.stop_time,
            table=self.table,
            kernel_details=list(self.kernel_details),
            mem_gb=self.mem_gb,
            gflops=self.gflops,
            counters=counters,
            trace=self.trace,
            status=status,
        )
