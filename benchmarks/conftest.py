"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it runs
the corresponding experiment once (``benchmark.pedantic`` with a single
round — the experiments are deterministic simulations, not
microbenchmarks), prints the regenerated rows/series, and saves them
under ``benchmarks/results/`` for EXPERIMENTS.md.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
tables inline).
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: set to a directory to relocate the figure-sweep result cache, or to
#: "0"/"off" to disable caching (every run then resimulates).
SWEEP_CACHE_ENV = "REPRO_SWEEP_CACHE"


def run_sweep(specs):
    """Run the figure scripts' specs through :class:`repro.SweepRunner`.

    Jobs are content-addressed into ``results/.sweep_cache`` (override
    via ``REPRO_SWEEP_CACHE``), so re-running a figure script replays
    the simulations from disk — determinism makes the cached reports
    byte-identical to fresh runs.  A failed spec raises (naming it)
    rather than silently dropping out of a figure.
    """
    from repro import ResultCache, SweepRunner

    where = os.environ.get(
        SWEEP_CACHE_ENV, os.path.join(RESULTS_DIR, ".sweep_cache")
    )
    cache = None if where in ("0", "off", "") else ResultCache(where)
    with SweepRunner(cache=cache) as runner:
        report = runner.run(specs)
    check_sweep(report)
    return report


def check_sweep(report):
    """Raise naming the first failed spec of ``report``, if any."""
    if not report.ok:
        bad = report.failures()[0]
        raise RuntimeError(
            f"sweep spec {bad.spec_hash[:12]} ({bad.spec.app}) ended "
            f"{bad.status}: {bad.error}"
        )


def save_result(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
    return path


def emit(name: str, text: str) -> None:
    """Print the regenerated table and persist it."""
    print()
    print(text)
    path = save_result(name, text)
    print(f"[saved to {path}]")


def once(benchmark, fn):
    """Run the experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
