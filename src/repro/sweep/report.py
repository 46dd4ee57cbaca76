"""Sweep results: per-spec outcomes and the cross-sweep aggregate.

A :class:`SweepResult` is the durable slice of one job's outcome —
the :class:`~repro.core.report.JobReport` plus the scalars every
figure script reads (wallclock, event count) and provenance (cache hit
or fresh run, the spec's content hash, the exact pickled bytes for
byte-identity checks).  A :class:`SweepReport` holds the results in
submission order and feeds them to the existing :mod:`repro.analysis`
tools (scaling series, ensemble statistics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.analysis.diff import noise_cv
from repro.analysis.scaling import ScalingPoint
from repro.core.report import JobReport
from repro.sweep.spec import JobSpec


@dataclass
class SweepResult:
    """Outcome of one spec inside a sweep."""

    spec: JobSpec
    spec_hash: str
    #: the job's monitoring report; None when the spec ran unmonitored
    #: or did not finish (``status != "ok"``).
    report: Optional[JobReport]
    #: simulated (virtual-time) wallclock of the job, seconds.
    wallclock: float
    events_executed: int
    #: True when the result came from the on-disk cache.
    from_cache: bool
    #: pickled ``report`` bytes exactly as produced by the run that
    #: computed it (b"" for unmonitored jobs) — the byte-identity
    #: contract between serial, parallel and cached execution.
    report_pickle: bytes = b""
    #: terminal state out of :data:`repro.errors.STATUSES`; anything
    #: but "ok" means the spec failed and carries no report.
    status: str = "ok"
    #: one-line diagnosis when ``status != "ok"`` (exception text, the
    #: worker's exit code, the deadlock site list, …).
    error: Optional[str] = None
    #: attempts consumed (0 for a cache replay or a quarantined spec).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SweepReport:
    """All results of one :meth:`~repro.sweep.runner.SweepRunner.run`."""

    results: List[SweepResult]
    #: cache hits / misses of this run (0/0 when no cache attached).
    cache_hits: int = 0
    cache_misses: int = 0
    #: host wall time the sweep took, seconds.
    host_seconds: float = 0.0
    #: worker processes used (1 = serial).
    workers: int = 1
    #: where attempts ran: "process" (warm workers) or "serial" (inline,
    #: for any executed spec, or nothing executed).
    mode: str = "serial"
    #: unique jobs actually simulated (after dedup and cache hits).
    executed: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SweepResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> SweepResult:
        return self.results[index]

    def wallclocks(self) -> List[float]:
        """Per-spec simulated wallclocks, in submission order."""
        return [r.wallclock for r in self.results]

    def reports(self) -> List[JobReport]:
        """The monitored jobs' reports (skips unmonitored specs)."""
        return [r.report for r in self.results if r.report is not None]

    # -- robustness rollups ----------------------------------------------

    @property
    def ok(self) -> bool:
        """True when every spec finished (the CLI's exit-0 condition)."""
        return all(r.status == "ok" for r in self.results)

    @property
    def errors_total(self) -> int:
        """Specs that ended in a non-ok terminal state.

        The sweep-level analogue of the per-rank ``ipm_errors_total``
        telemetry series: one monotone counter of everything that went
        wrong, rolled up per batch instead of per rank.
        """
        return sum(1 for r in self.results if r.status != "ok")

    def status_counts(self) -> Dict[str, int]:
        """Terminal-status histogram (only statuses that occurred)."""
        counts: Dict[str, int] = {}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    def failures(self) -> List[SweepResult]:
        """The non-ok results, in submission order."""
        return [r for r in self.results if r.status != "ok"]

    def scaling_points(
        self,
        breakdown: Callable[[SweepResult], Dict[str, float]],
    ) -> List[ScalingPoint]:
        """Fig.-10-style scaling series over the sweep.

        ``breakdown(result)`` maps one result to its per-category
        seconds; points are ordered by ``spec.ntasks`` and feed
        :func:`repro.analysis.scaling.format_scaling` directly.
        """
        points = [
            ScalingPoint(r.spec.ntasks, r.wallclock, breakdown(r))
            for r in self.results
            if r.status == "ok"
        ]
        return sorted(points, key=lambda p: p.nprocs)

    def summary(self) -> Dict[str, Any]:
        """JSON-able sweep summary (what the CLI prints/saves)."""
        return {
            "jobs": len(self.results),
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "workers": self.workers,
            "mode": self.mode,
            "host_seconds": self.host_seconds,
            "statuses": self.status_counts(),
            "errors_total": self.errors_total,
            "results": [
                {
                    "app": r.spec.app,
                    "ntasks": r.spec.ntasks,
                    "seed": r.spec.seed,
                    "spec_hash": r.spec_hash,
                    # seed/fault-independent identity + the noise
                    # model's analytic cv: what `repro analyze diff`
                    # matches configs and floors variance with.
                    "config_hash": (
                        r.spec.config_hash() if r.spec.serializable else None
                    ),
                    "noise_cv": noise_cv(r.spec.noise),
                    "wallclock": r.wallclock,
                    "events_executed": r.events_executed,
                    "from_cache": r.from_cache,
                    "monitored": r.report is not None,
                    "status": r.status,
                    "error": r.error,
                    "attempts": r.attempts,
                }
                for r in self.results
            ],
        }
