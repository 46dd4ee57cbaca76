"""Report data structures: per-task and per-job profiling results.

A :class:`TaskReport` is one rank's finalized IPM state (what real IPM
keeps in memory and writes to its XML log); a :class:`JobReport`
aggregates the tasks of one parallel job, which is what the banner,
XML log, HTML page and CUBE export are rendered from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.hashtable import CallStats, PerfHashTable
from repro.core.ktt import KernelRecord
from repro.core.sig import CUDA_EXEC_PREFIX, CUDA_HOST_IDLE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trace import TraceRing


@dataclass
class TaskReport:
    """Finalized monitoring state of one MPI task (rank)."""

    rank: int
    nranks: int
    hostname: str
    command: str
    start_time: float
    stop_time: float
    table: PerfHashTable
    kernel_details: List[KernelRecord] = field(default_factory=list)
    #: resident memory of the task, GB (modeled by the workload).
    mem_gb: float = 0.0
    #: GF/s achieved (modeled; IPM reports it in the banner header).
    gflops: float = 0.0
    #: GPU hardware-counter totals (Component-PAPI extension, §VI).
    counters: Dict[str, int] = field(default_factory=dict)
    #: the rank's chronological trace ring, when tracing was enabled
    #: (``IpmConfig.trace_capacity > 0``); feeds the banner's trace
    #: footer and the Chrome-trace exporter.
    trace: Optional["TraceRing"] = None
    #: how the rank ended: "completed", "aborted" (fault-plan kill or
    #: crash) or "stalled" (blocked forever after a peer died).
    status: str = "completed"

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def wallclock(self) -> float:
        return self.stop_time - self.start_time

    def domain_time(self, ipm_domains: Dict[str, str], domain: str) -> float:
        """Total time in calls attributed to ``domain`` (MPI/CUDA/…)."""
        return sum(
            stats.total
            for name, stats in self.table.by_name().items()
            if not name.startswith("@")
            and ipm_domains.get(name.split("(")[0]) == domain
        )

    def by_name(self) -> Dict[str, CallStats]:
        """The task table's per-name aggregate (cached; read-only)."""
        return self.table.by_name()

    def gpu_exec_time(self) -> float:
        """Total ``@CUDA_EXEC_STRMxx`` time (GPU kernel execution)."""
        return self.table.total_time(CUDA_EXEC_PREFIX)

    def host_idle_time(self) -> float:
        return self.table.total_time(CUDA_HOST_IDLE)


@dataclass
class JobReport:
    """All tasks of one job plus shared metadata."""

    tasks: List[TaskReport]
    #: map call-name → domain ("MPI", "CUDA", "CUBLAS", "CUFFT").
    domains: Dict[str, str]
    start_stamp: str = ""
    stop_stamp: str = ""

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a JobReport needs at least one task")
        self._merged: Optional[PerfHashTable] = None
        self._merged_versions: Optional[tuple] = None

    @property
    def ntasks(self) -> int:
        return len(self.tasks)

    @property
    def wallclock(self) -> float:
        return max((t.wallclock for t in self.tasks), default=0.0)

    @property
    def command(self) -> str:
        return self.tasks[0].command if self.tasks else "-"

    @property
    def complete(self) -> bool:
        """True when every rank ran to completion (no partial report)."""
        return all(t.completed for t in self.tasks)

    def rank_statuses(self) -> Dict[int, str]:
        """Per-rank completion status (``rank -> status``)."""
        return {t.rank: t.status for t in self.tasks}

    def hosts(self) -> List[str]:
        return sorted({t.hostname for t in self.tasks})

    def merged_table(self) -> PerfHashTable:
        """Cross-rank aggregate table (cached; treat as read-only).

        Rebuilt only when a task table has mutated since the last call
        — the banner, CUBE and advisor consumers all read it.
        """
        versions = tuple(t.table.version for t in self.tasks)
        if self._merged is None or versions != self._merged_versions:
            merged = PerfHashTable(
                max((t.table.capacity for t in self.tasks), default=8192)
            )
            for t in self.tasks:
                merged.merge(t.table)
            self._merged = merged
            self._merged_versions = versions
        return self._merged

    def __getstate__(self) -> Dict[str, object]:
        # Drop the merged-table cache: it is derived state — pickles
        # must stay byte-identical whether or not a report section was
        # rendered (and the cache filled) before pickling.
        state = dict(self.__dict__)
        state["_merged"] = None
        state["_merged_versions"] = None
        return state

    def merged_by_name(self) -> Dict[str, CallStats]:
        return self.merged_table().by_name()

    def domain_times(self, domain: str) -> List[float]:
        return [t.domain_time(self.domains, domain) for t in self.tasks]

    def total_mem_gb(self) -> float:
        return sum(t.mem_gb for t in self.tasks)

    def comm_percent(self) -> float:
        """%comm of the banner header: mean MPI fraction of wallclock."""
        if not self.tasks:
            return 0.0
        fractions = [
            t.domain_time(self.domains, "MPI") / t.wallclock if t.wallclock else 0.0
            for t in self.tasks
        ]
        return 100.0 * sum(fractions) / len(fractions)


def job_summary(job: JobReport, top: int = 20) -> Dict[str, object]:
    """The banner's content as one JSON-ready dict.

    Everything the text banner renders, machine-readable: header
    facts, per-domain totals, per-rank status, and the ``top`` call
    regions by total time.  This is the payload of ``python -m repro
    report --json`` — consumers parse this instead of scraping the
    banner text.  Stamped with the analysis surface's shared schema id
    (lazy import: the analysis package imports this module).
    """
    from repro.analysis.findings import ANALYSIS_SCHEMA

    domain_names = sorted(set(job.domains.values()))
    regions = [
        {
            "name": name,
            "domain": job.domains.get(name.split("(")[0]),
            "count": stats.count,
            "total": stats.total,
            "min": stats.tmin if stats.count else 0.0,
            "max": stats.tmax,
            "avg": stats.avg,
        }
        for name, stats in sorted(
            job.merged_by_name().items(),
            key=lambda kv: (-kv[1].total, kv[0]),
        )[: max(0, top)]
    ]
    return {
        "schema": ANALYSIS_SCHEMA,
        "command": job.command,
        "ntasks": job.ntasks,
        "hosts": job.hosts(),
        "start_stamp": job.start_stamp,
        "stop_stamp": job.stop_stamp,
        "wallclock": job.wallclock,
        "complete": job.complete,
        "rank_statuses": {
            str(rank): status
            for rank, status in sorted(job.rank_statuses().items())
        },
        "total_mem_gb": job.total_mem_gb(),
        "comm_percent": job.comm_percent(),
        "gflops": sum(t.gflops for t in job.tasks),
        "domain_totals": {
            domain: sum(job.domain_times(domain)) for domain in domain_names
        },
        "gpu_exec_time": sum(t.gpu_exec_time() for t in job.tasks),
        "host_idle_time": sum(t.host_idle_time() for t in job.tasks),
        "regions": regions,
    }
