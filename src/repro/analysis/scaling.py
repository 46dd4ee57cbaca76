"""Scaling-series helpers for the Fig. 10 experiment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.report import SweepReport


@dataclass(frozen=True)
class ScalingPoint:
    """One process-count configuration of a scaling study."""

    nprocs: int
    wallclock: float
    #: per-category times, seconds (averaged per rank), e.g.
    #: {"MPI": …, "CUBLAS": …, "MPI_Gather": …, "cublasSetMatrix": …}.
    breakdown: Dict[str, float] = field(default_factory=dict)


def scaling_series(
    sweep: "SweepReport", categories: Optional[Sequence[str]] = None
) -> Tuple[ScalingPoint, ...]:
    """Scaling series straight from a sweep over process counts.

    Each monitored result becomes one :class:`ScalingPoint` whose
    breakdown holds seconds/rank per monitoring domain ("MPI",
    "CUDA", …) — or only the named ``categories``, which may also be
    individual call names (``"MPI_Gather"``), matching what the
    Fig. 10 script tabulates.  Points come back sorted by rank count,
    ready for :func:`format_scaling`.
    """
    points = []
    for result in sweep:
        job = result.report
        if job is None:
            points.append(ScalingPoint(result.spec.ntasks, result.wallclock))
            continue
        names = list(categories) if categories else sorted(set(job.domains.values()))
        by = job.merged_by_name()
        breakdown = {}
        for name in names:
            if name in set(job.domains.values()):
                seconds = sum(job.domain_times(name))
            else:
                seconds = by[name].total if name in by else 0.0
            breakdown[name] = seconds / job.ntasks
        points.append(
            ScalingPoint(result.spec.ntasks, result.wallclock, breakdown)
        )
    return tuple(sorted(points, key=lambda p: p.nprocs))


def format_scaling(
    points: Sequence[ScalingPoint], categories: Optional[List[str]] = None
) -> str:
    """Render a Fig. 10-style stacked breakdown as a table.

    ``categories`` defaults to every breakdown key seen, sorted.
    """
    if categories is None:
        categories = sorted({c for p in points for c in p.breakdown})
    headers = ["procs", "wallclock[s]"] + [f"{c}[s/rank]" for c in categories]
    rows = [
        [p.nprocs, p.wallclock] + [p.breakdown.get(c, 0.0) for c in categories]
        for p in sorted(points, key=lambda p: p.nprocs)
    ]
    return format_table(headers, rows, floatfmt=".1f")


def scaling_speedups(points: Sequence[ScalingPoint]) -> Dict[int, float]:
    """Speedups relative to the smallest configuration.

    Points with zero wallclock (a run killed by fault injection before
    doing any work) get a speedup of 0.0 rather than dividing by zero.
    """
    pts = sorted(points, key=lambda p: p.nprocs)
    if not pts:
        return {}
    base = pts[0].wallclock
    return {
        p.nprocs: base / p.wallclock if p.wallclock > 0 else 0.0 for p in pts
    }

