"""Parallel sweep execution over declarative job specs.

The paper's whole evaluation is sweeps — every figure and table reruns
HPL/PARATEC/Amber/the SDK suite across ranks, GPU counts and
monitoring configurations.  This package turns that pattern into a
service:

* :class:`~repro.sweep.spec.JobSpec` — a frozen, hashable, JSON-
  round-trippable description of one job (the canonical input of
  :func:`repro.cluster.jobs.run_job`);
* :class:`~repro.sweep.runner.SweepRunner` — executes independent
  specs concurrently on a process pool (serial fallback), deduplicating
  by content hash;
* :class:`~repro.sweep.cache.ResultCache` — content-addressed on-disk
  store of job reports, so re-running a figure script replays from
  disk instead of resimulating;
* :class:`~repro.sweep.report.SweepReport` — ordered results feeding
  the :mod:`repro.analysis` scaling/ensemble/comparison tools;
* :class:`~repro.sweep.journal.SweepJournal` — append-only record of
  per-spec status transitions, powering ``--resume`` and quarantine.
"""

from repro.sweep.cache import ResultCache, pickle_report
from repro.sweep.journal import JournalEntry, SweepJournal
from repro.sweep.registry import AppEntry, build_app, register_app, registered_apps
from repro.sweep.report import SweepReport, SweepResult
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import JobSpec

__all__ = [
    "AppEntry",
    "JobSpec",
    "JournalEntry",
    "ResultCache",
    "SweepJournal",
    "SweepReport",
    "SweepResult",
    "SweepRunner",
    "build_app",
    "pickle_report",
    "register_app",
    "registered_apps",
]
