"""Start ``python -m repro fleet ...`` with spans installed (traced run).

Usage::

    python3 perfbench/fleet_launcher.py SPANS_OUT fleet serve --announce ...

Wraps the fleet store's ingest, history, exposition and replay entry
points in spans, then calls the same CLI entry point ``python -m
repro`` runs, in this one process, so the traced aggregator has the
untraced one's process layout.  When the command returns (SIGTERM
drains it like Ctrl-C) the spans are written to ``SPANS_OUT``.
"""

from __future__ import annotations

import os
import sys


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, root)
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.__main__ import main as repro_main
    from repro.fleet.history import HistoryLog
    from repro.fleet.store import FleetStore

    from perfbench.tracing import SpanRecorder

    def record_seq(_store, record, *_a, **_k):
        seq = record.get("seq") if isinstance(record, dict) else None
        return f"record:{seq}" if isinstance(seq, int) else None

    rec = SpanRecorder()
    rec.wrap(FleetStore, "ingest_status", "fleet.ingest_status",
             group=record_seq)
    rec.wrap(HistoryLog, "append", "fleet.history_append")
    rec.wrap(FleetStore, "openmetrics", "fleet.openmetrics")
    rec.wrap(FleetStore, "jobs_summary", "fleet.jobs_summary")
    rec.wrap(FleetStore, "attach_history", "fleet.attach_history")
    try:
        return repro_main(cli_args)
    finally:
        rec.uninstall()
        rec.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
