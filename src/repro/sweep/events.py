"""Structured per-spec lifecycle events from the sweep runner.

The journal (:mod:`repro.sweep.journal`) records transitions for
*resume*; these events record them for *observability*.  Each event is
one plain dict — the same shape the fleet wire protocol speaks
(``spec_start`` / ``spec_finish``, see :mod:`repro.fleet.protocol`) —
so a single record serves two audiences:

* the stdlib logger ``repro.sweep.lifecycle`` gets it as a JSON-line
  message with the dict attached as ``record.sweep_event`` (structured
  handlers read the attribute, text handlers read the line);
* a fleet aggregator gets it over the runner's
  :class:`~repro.fleet.sink.ResilientClient` (stamped with the
  stream's ``pub``/``seq``) when ``SweepRunner(...,
  fleet="host:port")`` is set.

Emission is guarded by ``isEnabledFor(INFO)``, so runs without a
configured handler pay one boolean check per spec.
"""

from __future__ import annotations

import json
import logging
import time as _time
from typing import Any, Dict, Optional

#: the logger lifecycle events are published on.
LIFECYCLE_LOGGER = "repro.sweep.lifecycle"

logger = logging.getLogger(LIFECYCLE_LOGGER)


def spec_start(
    spec_hash: str, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One spec entered execution (attempt 1 of possibly many)."""
    record: Dict[str, Any] = {
        "kind": "spec_start",
        "job": spec_hash,
        "source": "sweep",
        "hts": _time.time(),
    }
    if meta:
        record["meta"] = dict(meta)
    return record


def spec_finish(
    spec_hash: str,
    status: str,
    *,
    attempts: int = 1,
    from_cache: bool = False,
    wallclock: Optional[float] = None,
    error: Optional[str] = None,
) -> Dict[str, Any]:
    """One spec reached a terminal state (including a cache replay)."""
    record: Dict[str, Any] = {
        "kind": "spec_finish",
        "job": spec_hash,
        "source": "sweep",
        "status": status,
        "attempts": attempts,
        "from_cache": from_cache,
        "hts": _time.time(),
    }
    if wallclock is not None:
        record["wallclock"] = wallclock
    if error is not None:
        record["error"] = error
    return record


def log_event(record: Dict[str, Any]) -> None:
    """Publish one lifecycle record on the structured logger.

    The message is the record as one sorted-key JSON line; the raw dict
    rides along as the log record's ``sweep_event`` attribute so
    structured handlers never re-parse.
    """
    if not logger.isEnabledFor(logging.INFO):
        return
    logger.info(
        json.dumps(record, sort_keys=True, default=str),
        extra={"sweep_event": record},
    )
