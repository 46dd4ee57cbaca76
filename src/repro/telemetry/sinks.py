"""Pluggable telemetry sinks.

A sink receives every sample batch the sampler produces.  Three
implementations cover the deployment shapes host-side telemetry
pipelines use:

* :class:`MemorySink` — bounded in-process ring, for tests and the
  dashboard example;
* :class:`JsonlSink` — one JSON line per tick, the "ship it to a
  collector" format;
* :class:`OpenMetricsSink` — Prometheus/OpenMetrics text exposition of
  the *latest* value per series, the "scrape me" format.

Sinks are selected by name via :class:`TelemetryConfig.sinks`
(:func:`make_sinks`); custom sink objects can be passed straight to
:class:`repro.telemetry.sampler.TelemetryHub` as long as they quack
like :class:`TelemetrySink`.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.series import LabelSet, SamplePoint

JSONL_SCHEMA = "ipm-repro/telemetry-jsonl/v1"

#: ``# HELP`` text per known series family.  Exposition only emits a
#: HELP line for names listed here — ad-hoc series stay TYPE-only,
#: which the OpenMetrics spec allows.
METRIC_HELP: Dict[str, str] = {
    "ipm_events_per_sec": "Monitored events per second of one rank",
    "ipm_errors_per_sec": "Monitored-call errors per second of one rank",
    "ipm_errors_total": "Cumulative monitored-call errors of one rank",
    "ipm_mpi_fraction": "Fraction of wall time one rank spent in MPI",
    "ipm_gpu_busy_fraction": "Fraction of wall time one rank kept a kernel running",
    "ipm_host_idle_fraction": "Fraction of wall time one rank idled in implicit blocking",
    "ipm_copy_h2d_bytes_per_sec": "Host-to-device memcpy bytes per second of one rank",
    "ipm_copy_d2h_bytes_per_sec": "Device-to-host memcpy bytes per second of one rank",
    "ipm_launches_per_sec": "Kernel launches per second of one rank",
    "ipm_hash_occupancy": "Fill fraction of one rank's performance hash table",
    "ipm_hash_collisions_total": "Cumulative hash-table collisions of one rank",
    "gpu_busy_fraction": "Compute-engine busy fraction of one GPU",
    "gpu_kernels_per_sec": "Kernels retired per second on one GPU",
    "gpu_copy_h2d_bytes_per_sec": "Host-to-device copy-engine bytes per second of one GPU",
    "gpu_copy_d2h_bytes_per_sec": "Device-to-host copy-engine bytes per second of one GPU",
    "node_gpu_busy_fraction": "Mean compute-engine busy fraction across one node's GPUs",
    "node_events_per_sec": "Monitored events per second summed over one node's ranks",
    "node_mpi_fraction": "Mean MPI time fraction across one node's ranks",
    "node_host_idle_fraction": "Mean host-idle fraction across one node's ranks",
}


def escape_label_value(value: str) -> str:
    """Escape one label value per the OpenMetrics text exposition spec.

    Backslash, double quote and line feed are the three characters the
    spec requires escaping inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


#: Python's spellings of the non-finite floats -> OpenMetrics' spellings.
_NON_FINITE = {"nan": "NaN", "inf": "+Inf", "-inf": "-Inf"}


def format_value(value: float) -> str:
    """One sample value as OpenMetrics text.

    Finite values print with 9 significant digits; NaN and the
    infinities use the spec's ``NaN``, ``+Inf`` and ``-Inf`` (Python's
    ``nan``/``inf`` would make a Prometheus scrape reject the whole
    body).
    """
    text = f"{value:.9g}"
    return _NON_FINITE.get(text, text)


class TelemetrySink(Protocol):
    """What the sampler requires of a sink."""

    def open(self, meta: Dict) -> None:
        """Called once before the first batch, with run metadata."""

    def emit(self, t: float, points: Sequence[SamplePoint]) -> None:
        """Called once per sampler tick with that tick's points."""

    def close(self) -> None:
        """Called once after the final batch (flush files here)."""


class MemorySink:
    """Bounded ring of the most recent sample points."""

    name = "memory"

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._ring: Deque[SamplePoint] = deque(maxlen=capacity)
        self.meta: Dict = {}
        self.emitted = 0
        self.ticks = 0
        self.closed = False

    def open(self, meta: Dict) -> None:
        self.meta = dict(meta)

    def emit(self, t: float, points: Sequence[SamplePoint]) -> None:
        self._ring.extend(points)
        self.emitted += len(points)
        self.ticks += 1

    def close(self) -> None:
        self.closed = True

    @property
    def dropped(self) -> int:
        return max(0, self.emitted - self.capacity)

    def points(self) -> List[SamplePoint]:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class JsonlSink:
    """One JSON object per line: a meta header, then one line per tick.

    With ``path=None`` the lines accumulate in :attr:`lines`; with a
    path they are written out on :meth:`close` (the simulation is
    single-threaded, so there is no value in incremental flushing).
    """

    name = "jsonl"

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.lines: List[str] = []
        self.ticks = 0
        self.closed = False

    def open(self, meta: Dict) -> None:
        header = {"kind": "meta"}
        header.update(meta)
        # the framing schema wins over the hub's session schema tag
        header["schema"] = JSONL_SCHEMA
        self.lines.append(json.dumps(header, sort_keys=True))

    def emit(self, t: float, points: Sequence[SamplePoint]) -> None:
        record = {
            "kind": "sample",
            "t": round(t, 9),
            "points": [
                {
                    "name": p.name,
                    "labels": p.label_dict(),
                    "value": p.value,
                }
                for p in points
            ],
        }
        self.lines.append(json.dumps(record, sort_keys=True))
        self.ticks += 1

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.path is not None:
            with open(self.path, "w", encoding="utf-8") as fh:
                for line in self.lines:
                    fh.write(line)
                    fh.write("\n")

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


class OpenMetricsSink:
    """Latest-value-per-series exposition in OpenMetrics text format.

    :meth:`expose` renders what a Prometheus scrape of the simulated
    job would return at the current virtual time; with a ``path`` the
    final exposition is also written out on :meth:`close`.
    """

    name = "openmetrics"

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        #: (name, labels) -> (value, t) of the most recent sample.
        self._latest: Dict[Tuple[str, LabelSet], Tuple[float, float]] = {}
        self.meta: Dict = {}
        self.ticks = 0
        self.closed = False

    def open(self, meta: Dict) -> None:
        self.meta = dict(meta)

    def emit(self, t: float, points: Sequence[SamplePoint]) -> None:
        for p in points:
            self._latest[(p.name, p.labels)] = (p.value, p.t)
        self.ticks += 1

    def expose(self) -> str:
        """The exposition body (gauge families, ``# EOF`` terminated).

        Per the OpenMetrics text format: one ``# HELP`` (when the
        family is a known series, :data:`METRIC_HELP`) and ``# TYPE``
        line per family, label values escaped via
        :func:`escape_label_value`.
        """
        lines: List[str] = []
        current_family = None
        for (name, labels), (value, t) in sorted(self._latest.items()):
            if name != current_family:
                help_text = METRIC_HELP.get(name)
                if help_text is not None:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} gauge")
                current_family = name
            if labels:
                lbl = ",".join(
                    f'{k}="{escape_label_value(v)}"' for k, v in labels
                )
                lines.append(f"{name}{{{lbl}}} {format_value(value)} {t:.6f}")
            else:
                lines.append(f"{name} {format_value(value)} {t:.6f}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.path is not None:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(self.expose())

    def __len__(self) -> int:
        return len(self._latest)


def make_sinks(config: TelemetryConfig) -> List[TelemetrySink]:
    """Instantiate the sinks named in ``config.sinks`` (order kept)."""
    sinks: List[TelemetrySink] = []
    for name in config.sinks:
        if name == "memory":
            sinks.append(MemorySink(config.memory_capacity))
        elif name == "jsonl":
            sinks.append(JsonlSink(config.jsonl_path))
        elif name == "openmetrics":
            sinks.append(OpenMetricsSink(config.openmetrics_path))
        else:  # pragma: no cover - TelemetryConfig already validates
            raise ValueError(f"unknown telemetry sink: {name!r}")
    return sinks
