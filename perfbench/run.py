"""Run one benchmark workload against the checkout it sits in.

Usage (from the repository root)::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The program is
imported from ``src/`` of this checkout only; without it the command
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODULES = {
    "hpl-paper": "perfbench.hpl_paper",
    "sweep-telemetry": "perfbench.sweep_telemetry",
    "fleet-ingest": "perfbench.fleet_ingest",
    "monitor-stream": "perfbench.monitor_stream",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the workload's set-up and exit (used by "
                         "the set-up probe)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (ledger, metrics, named quantities).

    ``metrics`` maps every end-to-end metric (every per-layer metric
    when ``trace``) to ``{"value", "unit"}``; ``named`` lists the
    workload's own quantities as (name, value, unit) for the report.
    """
    from perfbench import common

    module = importlib.import_module(MODULES[workload])
    os.makedirs(common.WORK, exist_ok=True)
    ledger = common.Ledger()
    if trace:
        values = module.trace(seed, seconds, ledger)
        named = []
        catalogue = common.PER_LAYER
    else:
        setup_fn = getattr(module, "setup_samples", None)
        setups = (
            setup_fn(seed) if setup_fn is not None
            else common.setup_seconds(workload, seed)
        )
        result = module.run(seed, seconds, ledger)
        values = dict(result["e2e"])
        values["setup_s"] = common.median(setups)
        values.setdefault("peak_rss_mb", common.peak_rss_mb())
        named = result["named"] + [
            (f"setup_sample_{i}_s", s, "s") for i, s in enumerate(setups)
        ]
        catalogue = common.END_TO_END
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better in catalogue
    }
    return ledger, metrics, named


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, _ROOT)
    from perfbench import common

    program = os.path.join(common.SRC, "repro")
    if not os.path.isfile(os.path.join(program, "__init__.py")):
        print(f"perfbench: no program to measure: {program} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    if args.setup_only:
        t0 = time.perf_counter()
        importlib.import_module(MODULES[args.workload]).setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    importlib.import_module(MODULES[args.workload])
    import repro

    if not os.path.abspath(repro.__file__).startswith(common.SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{common.SRC}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        ledger, metrics, named = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(common.TMP, ignore_errors=True)
    for name, value, unit in named:
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'error_rate':<28} {ledger.error_rate:>14.6g} failed/attempted "
          f"({ledger.failed} of {ledger.attempted})")
    for failure in ledger.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
