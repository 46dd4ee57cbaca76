"""Ensemble statistics and text histograms for the Fig. 8 experiment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True)
class EnsembleStats:
    """Summary of one ensemble of runtimes."""

    n: int
    mean: float
    std: float
    vmin: float
    vmax: float

    @staticmethod
    def of(values: Sequence[float]) -> "EnsembleStats":
        arr = np.asarray(list(values), dtype=np.float64)
        if arr.size == 0:
            raise ValueError("empty ensemble")
        return EnsembleStats(
            n=int(arr.size),
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            vmin=float(arr.min()),
            vmax=float(arr.max()),
        )


@dataclass(frozen=True)
class EnsembleComparison:
    """The Fig. 8 headline result: monitored vs unmonitored ensembles."""

    with_ipm: EnsembleStats
    without_ipm: EnsembleStats
    #: (mean_with − mean_without) / mean_without; 0.0 on a degenerate
    #: all-zero baseline instead of dividing by zero.
    dilatation: float


def compare_ensembles(
    with_ipm: Sequence[float], without_ipm: Sequence[float]
) -> EnsembleComparison:
    """The Fig. 8 headline numbers: mean dilatation vs natural variability."""
    s_with = EnsembleStats.of(with_ipm)
    s_without = EnsembleStats.of(without_ipm)
    if s_without.mean == 0.0:
        dilatation = 0.0
    else:
        dilatation = (s_with.mean - s_without.mean) / s_without.mean
    return EnsembleComparison(
        with_ipm=s_with, without_ipm=s_without, dilatation=dilatation,
    )


def ascii_histogram(
    values: Sequence[float],
    *,
    bins: int = 20,
    width: int = 50,
    lo: float | None = None,
    hi: float | None = None,
    label: str = "",
) -> str:
    """A text histogram (stand-in for the Fig. 8 plot)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty data")
    lo = float(arr.min()) if lo is None else lo
    hi = float(arr.max()) if hi is None else hi
    if hi <= lo:
        hi = lo + 1e-9
    counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
    peak = max(1, counts.max())
    lines: List[str] = []
    if label:
        lines.append(label)
    for c, e0, e1 in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * c / peak))
        lines.append(f"{e0:10.3f}-{e1:10.3f} | {bar} {c}")
    return "\n".join(lines)
