"""``repro.analysis`` — the stable analysis and diagnosis surface.

One public API over what used to be ad-hoc helpers:

* **Diagnosis engine** (:mod:`~repro.analysis.diagnose`):
  :func:`analyze_job` / :func:`analyze_sweep` classify each job's
  dominant bottleneck from the paper's region taxonomy and flag
  stragglers with noise-honest robust z-scores.
* **Regression differ** (:mod:`~repro.analysis.diff`):
  :func:`diff_sweeps` compares two sweeps config-by-config with
  confidence bounds; :func:`gate_metrics` gates flat ``BENCH_*.json``
  documents.  Both power ``python -m repro analyze``.
* **Result types** (:mod:`~repro.analysis.findings`): every engine
  output is a frozen dataclass (:class:`Finding`, :class:`Diagnosis`,
  :class:`SweepDiff`, …) that round-trips JSON through the sweep codec
  under the shared :data:`ANALYSIS_SCHEMA` envelope.
* **Figure/table helpers**: :func:`format_table`,
  :func:`compare_ensembles`, :func:`scaling_series`,
  :func:`scaling_speedups`, :func:`ascii_histogram`,
  :func:`format_comparisons` — the canonical forms of the original
  Fig. 8 / Fig. 10 utilities.
"""

from repro.analysis.findings import (
    ANALYSIS_SCHEMA,
    BOTTLENECKS,
    DELTA_VERDICTS,
    FINDING_KINDS,
    SEVERITIES,
    Diagnosis,
    Finding,
    SpecDelta,
    SweepDiagnosis,
    SweepDiff,
    from_document,
    register_analysis_type,
    to_document,
)
from repro.analysis.diagnose import (
    analyze_job,
    analyze_sweep,
    classify,
    component_times,
    detect_stragglers,
    format_diagnosis,
    format_sweep_diagnosis,
)
from repro.analysis.diff import (
    diff_sweeps,
    format_diff,
    gate_metrics,
    noise_cv,
)
from repro.analysis.tables import format_table
from repro.analysis.histogram import (
    EnsembleComparison,
    EnsembleStats,
    ascii_histogram,
    compare_ensembles,
)
from repro.analysis.scaling import (
    ScalingPoint,
    format_scaling,
    scaling_series,
    scaling_speedups,
)
from repro.analysis.compare import Comparison, format_comparisons

# the helper result dataclasses share the engine's JSON envelope.
for _cls in (EnsembleStats, EnsembleComparison, ScalingPoint, Comparison):
    register_analysis_type(_cls)
del _cls

__all__ = [
    # schema + vocabularies
    "ANALYSIS_SCHEMA",
    "BOTTLENECKS",
    "DELTA_VERDICTS",
    "FINDING_KINDS",
    "SEVERITIES",
    # result types
    "Comparison",
    "Diagnosis",
    "EnsembleComparison",
    "EnsembleStats",
    "Finding",
    "ScalingPoint",
    "SpecDelta",
    "SweepDiagnosis",
    "SweepDiff",
    # engine
    "analyze_job",
    "analyze_sweep",
    "classify",
    "component_times",
    "detect_stragglers",
    "diff_sweeps",
    "gate_metrics",
    "noise_cv",
    # documents
    "from_document",
    "register_analysis_type",
    "to_document",
    # renderers
    "ascii_histogram",
    "format_comparisons",
    "format_diagnosis",
    "format_diff",
    "format_scaling",
    "format_sweep_diagnosis",
    "format_table",
    # figure/table helpers
    "compare_ensembles",
    "scaling_series",
    "scaling_speedups",
]
