"""Pieces every workload shares: the metric catalogue, the failure
ledger, percentiles, set-up timing in fresh interpreters and memory.

Nothing here imports ``repro``: ``run.py`` times the import of the
program under test as part of set-up, so the program is imported only
by the workload modules.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: the checkout the benchmark measures (the directory above this one).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: run-time scratch space (caches, data dirs, span dumps); git-ignored.
WORK = os.path.join(ROOT, ".perfbench")
#: one run's caches and fleet data dirs; ``run.py`` removes it when the
#: run ends, so repeated runs do not fill the disk (span dumps stay).
TMP = os.path.join(WORK, "tmp")

#: the workloads BENCHMARK.json lists.  ``hpl-paper`` and
#: ``monitor-stream`` stay runnable by name but are not listed: on the
#: shared 2-vCPU host the bounds were tuned on, their ten-seed spread
#: exceeded the 25% bound (see README.md).
WORKLOADS = ("sweep-telemetry", "fleet-ingest")

#: end-to-end metrics: (name, unit, better).  Every workload reports
#: every one; what each means on each workload is tabled in README.md.
#: Each workload prints its other quantities (bypass rates, tails,
#: medians of queries) by name beside them, ungated: on a shared
#: 2-vCPU host their spread over ten seeds exceeded 25%.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("query_p90_ms", "ms", "lower"),
)

#: per-layer metrics of the traced run: (name, unit, better).  A layer
#: a workload does not exercise reports 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("simt.run_s", "s", "lower"),
    ("simt.events", "count", "lower"),
    ("simt.events_per_s", "1/s", "higher"),
    ("simt.virtual_s", "s", "lower"),
    ("cluster.run_job_s", "s", "lower"),
    ("core.extra_events", "count", "lower"),
    ("core.monitored_calls", "count", "higher"),
    ("core.signatures", "count", "higher"),
    ("core.banner_s", "s", "lower"),
    ("core.xml_s", "s", "lower"),
    ("core.cube_s", "s", "lower"),
    ("core.region_switch_s", "s", "lower"),
    ("core.table_read_s", "s", "lower"),
    ("cuda.calls", "count", "higher"),
    ("cuda.kernel_launches", "count", "higher"),
    ("cuda.copy_bytes", "bytes", "higher"),
    ("mpi.calls", "count", "higher"),
    ("mpi.bytes", "bytes", "higher"),
    ("telemetry.sample_s", "s", "lower"),
    ("telemetry.ticks", "count", "higher"),
    ("telemetry.points", "count", "higher"),
    ("telemetry.share", "ratio", "lower"),
    ("sweep.cold_s", "s", "lower"),
    ("sweep.warm_s", "s", "lower"),
    ("sweep.executed", "count", "lower"),
    ("sweep.cache_hits", "count", "higher"),
    ("sweep.hit_ratio", "ratio", "higher"),
    ("sweep.cache_lookup_s", "s", "lower"),
    ("sweep.cache_store_s", "s", "lower"),
    ("sweep.cache_bytes", "bytes", "lower"),
    ("analysis.analyze_s", "s", "lower"),
    ("analysis.findings", "count", "higher"),
    ("fleet.records_sent", "count", "higher"),
    ("fleet.records_acked", "count", "higher"),
    ("fleet.backlog_max", "count", "lower"),
    ("fleet.parse_errors", "count", "lower"),
    ("fleet.duplicates", "count", "lower"),
    ("fleet.gap_records", "count", "lower"),
    ("fleet.fold_s", "s", "lower"),
    ("fleet.history_append_s", "s", "lower"),
    ("fleet.openmetrics_s", "s", "lower"),
    ("fleet.jobs_summary_s", "s", "lower"),
    ("fleet.history_bytes", "bytes", "lower"),
    ("fleet.replay_records", "count", "higher"),
    ("fleet.replay_records_per_s", "1/s", "higher"),
    ("bench.gen_late_p99_ms", "ms", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)

class Ledger:
    """Counts attempted operations and the ones that failed.

    An operation is anything the benchmark asks of the program and can
    judge: a job, a sweep spec, a fleet record or query, a correctness
    check.  ``failed / attempted`` is the run's error rate.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ops(self, n: int, failed: int = 0, what: str = "") -> None:
        self.attempted += n
        if failed:
            self.failed += failed
            self.failures.append(f"{what}: {failed} of {n} failed")

    def check(self, ok: bool, what: str) -> bool:
        """One correctness check; a false ``ok`` is one failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set (VmHWM) of another live process, MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def process_cpu_s(pid: int) -> Optional[float]:
    """User + system CPU seconds another live process has used."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    # fields[0] is the state (field 3 of stat(5)); utime/stime are 14/15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def python_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def setup_seconds(workload: str, seed: int, repeats: int = 3) -> List[float]:
    """Time the workload's set-up in ``repeats`` fresh interpreters.

    Each child imports the program, builds the workload's objects and
    warms them up, then reports how long that took from just before
    the first ``repro`` import.  A fresh interpreter per sample is the
    only way to time the import again.
    """
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, env=python_env(), capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed "
                f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}"
            )
        out.append(float(json.loads(proc.stdout.strip().splitlines()[-1])
                         ["setup_s"]))
    return out


def layer_zeros() -> Dict[str, float]:
    return {name: 0 for name, _unit, _better in PER_LAYER}


def report_counts(reports: Sequence[object]) -> Dict[str, float]:
    """The ``cuda.*`` / ``mpi.*`` / ``core.*`` counts of JobReports.

    Read from the monitoring tables themselves, so they repeat exactly
    for a given input: a change that moves them changed what the
    program does, not how fast.  ``@``-prefixed rows are IPM's own
    pseudo-regions (kernel time, host idle), not calls.
    """
    out = {"cuda.calls": 0, "cuda.kernel_launches": 0, "cuda.copy_bytes": 0,
           "mpi.calls": 0, "mpi.bytes": 0, "core.monitored_calls": 0,
           "core.signatures": 0}
    for report in reports:
        domains = report.domains
        out["core.signatures"] += len(report.merged_table())
        for task in report.tasks:
            out["cuda.kernel_launches"] += len(task.kernel_details)
            for sig, count, _total, _tmin, _tmax in task.table.iter_rows():
                if sig.name.startswith("@"):
                    continue
                base = sig.name.split("(")[0]
                nbytes = count * (sig.nbytes or 0)
                out["core.monitored_calls"] += count
                domain = domains.get(base)
                if domain == "CUDA":
                    out["cuda.calls"] += count
                    if base.startswith("cudaMemcpy"):
                        out["cuda.copy_bytes"] += nbytes
                elif domain == "MPI":
                    out["mpi.calls"] += count
                    out["mpi.bytes"] += nbytes
    return out


def scratch_dir(*parts: str) -> str:
    """A fresh, empty directory under the run's scratch space."""
    import shutil

    path = os.path.join(TMP, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
