"""``python -m repro`` — the unified command-line entry point.

Subcommands::

    python -m repro sweep specs.json --workers 4 --cache .sweep-cache
    python -m repro trace2json --app hpl --out trace.json
    python -m repro report profile.xml --top 12
    python -m repro analyze report profile.xml
    python -m repro analyze diff baseline.json current.json
    python -m repro analyze gate BENCH_overhead.json --baseline base.json
    python -m repro fleet serve --http 127.0.0.1:9310 --data-dir fleet-data
    python -m repro fleet query 127.0.0.1:9310 /jobs
    python -m repro fleet compact fleet-data

``sweep`` executes a batch of :class:`~repro.sweep.spec.JobSpec`
descriptions (a JSON array, or an object with a ``"specs"`` array)
through the parallel :class:`~repro.sweep.runner.SweepRunner` —
``--fleet HOST:PORT`` streams per-spec lifecycle and telemetry to a
running aggregator; ``trace2json`` is the Chrome-trace exporter (also
still reachable as ``python -m repro.telemetry.trace2json``);
``report`` renders the IPM banner from a saved XML log (``--json``
for the machine-readable form); ``analyze`` is the diagnosis engine
(:mod:`repro.analysis`) — ``analyze report`` classifies bottlenecks
and flags stragglers in saved logs, ``analyze diff`` compares two
sweep summaries with confidence bounds, ``analyze gate`` is the CI
regression gate over sweep summaries or flat ``BENCH_*.json``
documents; ``fleet serve`` runs the
:class:`~repro.fleet.service.FleetAggregator` (``--data-dir`` makes
it durable: restarts replay the on-disk record log), ``fleet query``
fetches one endpoint from a running one, and ``fleet compact`` is the
offline retention pass over a durable history directory.

Exit codes (pinned, shared by every subcommand):

* 0 — success;
* 2 — unreadable or malformed input (bad JSON, bad spec, bad XML,
  unknown subcommand usage);
* 3 — structurally valid input holding no work/data (empty spec list,
  trace without samples);
* 4 — the sweep *completed* but one or more specs ended in a non-ok
  terminal status (crashed, timeout, deadlock, …): partial results
  were produced and reported, distinct from "could not run at all";
* 5 — ``analyze diff``/``analyze gate`` found a confident performance
  regression (the comparison itself succeeded — CI fails on this code
  and only this code).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

#: pinned exit codes of the CLI contract (tested).
EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_EMPTY = 3
EXIT_SPEC_FAILURES = 4
EXIT_REGRESSION = 5


def _emit_text(text: str, out: Optional[str]) -> None:
    """The one output writer every subcommand shares: ``--out FILE``
    or stdout, always newline-terminated."""
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(data: Any, out: Optional[str]) -> None:
    _emit_text(json.dumps(data, indent=2, sort_keys=True), out)


def _load_specs(path: str) -> List["object"]:
    from repro.sweep.spec import JobSpec

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "specs" in data:
        data = data["specs"]
    if not isinstance(data, list):
        raise ValueError(
            "expected a JSON array of job specs (or an object with a "
            f"'specs' array), got {type(data).__name__}"
        )
    return [JobSpec.from_jsonable(entry) for entry in data]


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep.cache import ResultCache
    from repro.sweep.runner import SweepRunner

    try:
        specs = _load_specs(args.specs)
    except (OSError, ValueError, TypeError) as exc:
        print(f"sweep: bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if not specs:
        print("sweep: no specs in input", file=sys.stderr)
        return EXIT_EMPTY
    if args.resume and not args.cache:
        print("sweep: --resume needs --cache (the journal lives next to "
              "the result cache)", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.fleet_spool and not args.fleet:
        print("sweep: --fleet-spool needs --fleet (it spools the fleet "
              "stream)", file=sys.stderr)
        return EXIT_BAD_INPUT
    liveness = None
    if args.max_events is not None or args.max_virtual_time is not None:
        from repro.simt.simulator import LivenessLimits

        liveness = LivenessLimits(
            max_events=args.max_events,
            max_virtual_time=args.max_virtual_time,
        )
    cache = ResultCache(args.cache) if args.cache else None
    with SweepRunner(
        workers=args.workers,
        cache=cache,
        mode=args.mode,
        timeout=args.timeout,
        retries=args.retries,
        quarantine_after=args.quarantine_after,
        liveness=liveness,
        resume=args.resume,
        fleet=args.fleet,
        fleet_spool=args.fleet_spool,
    ) as runner:
        report = runner.run(specs)
    summary = report.summary()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for row in summary["results"]:
        marker = "cached" if row["from_cache"] else "ran"
        if row["status"] != "ok":
            marker = row["status"]
        line = (
            f"{row['spec_hash'][:12]}  {row['app']:>8} x{row['ntasks']:<3d} "
            f"seed={row['seed']:<6d} wallclock={row['wallclock']:10.3f}s  "
            f"[{marker}]"
        )
        if row["error"]:
            line += f"  {row['error']}"
        print(line)
    tail = ""
    if report.errors_total:
        counts = ", ".join(
            f"{n} {s}" for s, n in sorted(report.status_counts().items())
            if s != "ok"
        )
        tail = f", {report.errors_total} failed ({counts})"
    print(
        f"{len(report)} jobs: {report.executed} simulated, "
        f"{report.cache_hits} cache hits ({report.mode}, "
        f"{report.workers} workers, {report.host_seconds:.2f}s host)"
        + tail
    )
    return EXIT_SPEC_FAILURES if report.errors_total else EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.banner import banner
    from repro.core.xmlog import read_xml

    try:
        job = read_xml(args.xml)
    except (OSError, ValueError, SyntaxError) as exc:
        print(f"report: bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.json:
        from repro.core.report import job_summary

        _emit_json(job_summary(job, top=args.top), args.out)
    else:
        _emit_text(banner(job, top=args.top), args.out)
    return EXIT_OK


def _load_json(path: str, what: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {what} {path!r}: {exc}")


def _cmd_analyze_report(args: argparse.Namespace) -> int:
    from repro.analysis import (
        SweepDiagnosis,
        analyze_job,
        format_sweep_diagnosis,
        to_document,
    )
    from repro.core.xmlog import read_xml

    diagnoses = []
    for path in args.xml:
        try:
            job = read_xml(path)
        except (OSError, ValueError, SyntaxError) as exc:
            print(f"analyze report: bad input: {path}: {exc}",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
        diagnoses.append(analyze_job(job, label=path))
    sdiag = SweepDiagnosis(diagnoses=tuple(diagnoses))
    if args.json:
        _emit_json(to_document(sdiag), args.out)
    else:
        _emit_text(format_sweep_diagnosis(sdiag), args.out)
    return EXIT_OK


def _is_sweep_summary(data: Any) -> bool:
    return isinstance(data, dict) and isinstance(data.get("results"), list)


def _cmd_analyze_diff(args: argparse.Namespace) -> int:
    from repro.analysis import diff_sweeps, format_diff, to_document

    baseline = _load_json(args.baseline, "baseline sweep summary")
    current = _load_json(args.current, "current sweep summary")
    for name, data in (("baseline", baseline), ("current", current)):
        if not _is_sweep_summary(data):
            raise ValueError(
                f"{name} is not a sweep summary (expected the JSON "
                "`python -m repro sweep --out` writes)"
            )
    diff = diff_sweeps(
        baseline, current,
        metric=args.metric,
        confidence=args.confidence,
        min_rel_delta=args.min_rel_delta,
    )
    if args.json:
        _emit_json(to_document(diff), args.out)
    else:
        _emit_text(format_diff(diff), args.out)
    if not diff.deltas:
        print("analyze diff: no matching configs to compare",
              file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_REGRESSION if diff.has_regression else EXIT_OK


def _cmd_analyze_gate(args: argparse.Namespace) -> int:
    import os

    from repro.analysis import (
        diff_sweeps,
        format_diff,
        gate_metrics,
        to_document,
    )

    if not os.path.exists(args.baseline):
        print(f"analyze gate: no baseline at {args.baseline} — "
              "nothing to gate against (first run passes)")
        return EXIT_OK
    baseline = _load_json(args.baseline, "baseline")
    current = _load_json(args.current, "current")
    if _is_sweep_summary(baseline) != _is_sweep_summary(current):
        raise ValueError(
            "baseline and current disagree in kind: one is a sweep "
            "summary, the other a flat benchmark document"
        )
    if _is_sweep_summary(baseline):
        diff = diff_sweeps(
            baseline, current,
            metric=args.metric[0] if args.metric else "wallclock",
            confidence=args.confidence,
            min_rel_delta=args.tolerance,
        )
    else:
        diff = gate_metrics(
            current, baseline,
            metrics=args.metric or None,
            tolerance=args.tolerance,
            confidence=args.confidence,
        )
    if args.json:
        _emit_json(to_document(diff), args.out)
    else:
        _emit_text(format_diff(diff), args.out)
    if not diff.deltas:
        print("analyze gate: nothing comparable between baseline and "
              "current", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_REGRESSION if diff.has_regression else EXIT_OK


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    import signal as _signal
    import time as _time

    from repro.fleet.service import FleetAggregator

    try:
        agg = FleetAggregator(
            ingest=args.ingest,
            http=args.http,
            tails=args.tail,
            data_dir=args.data_dir,
            retain=args.retain,
            fsync=args.fsync,
            compact_interval=args.compact_interval,
            forward=args.forward,
            forward_interval=args.forward_interval,
            resolution=args.resolution,
            host_resolution=args.host_resolution,
            buckets=args.buckets,
            stale_after=args.stale_after,
        )
    except (ValueError, OSError) as exc:
        print(f"fleet serve: bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    # a long-running service should drain on SIGTERM like it does on
    # Ctrl-C (supervisors and CI send TERM; shells started with `&`
    # leave SIGINT ignored, so INT alone is not a usable stop signal).
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    old_sigterm = None
    try:
        old_sigterm = _signal.signal(_signal.SIGTERM, _terminate)
    except ValueError:
        pass  # not the main thread (in-process callers)
    try:
        with agg:
            endpoints = {
                "ingest": agg.ingest_address,
                "http": agg.http_address,
                "url": agg.http_url,
            }
            if args.announce:
                # ephemeral ports (":0") resolve at bind time; scripts
                # read the real endpoints back from this file.
                with open(args.announce, "w", encoding="utf-8") as fh:
                    json.dump(endpoints, fh)
                    fh.write("\n")
            print(f"fleet: ingest on {endpoints['ingest']}, "
                  f"queries on {endpoints['url']}")
            if args.data_dir:
                print(f"fleet: durable history in {args.data_dir} "
                      f"({agg.replayed} records replayed)")
            if args.forward:
                print(f"fleet: forwarding upstream to {args.forward} "
                      f"every {args.forward_interval}s")
            deadline = (
                _time.monotonic() + args.duration
                if args.duration is not None else None
            )
            try:
                while deadline is None or _time.monotonic() < deadline:
                    _time.sleep(min(
                        0.2,
                        max(0.0, deadline - _time.monotonic())
                        if deadline is not None else 0.2,
                    ))
            except KeyboardInterrupt:
                pass
    finally:
        if old_sigterm is not None:
            _signal.signal(_signal.SIGTERM, old_sigterm)
    summary = agg.store.fleet_summary()
    print(f"fleet: stopped after {summary['uptime']:.1f}s — "
          f"{summary['ingest']['records']} records, "
          f"{summary['counts']['finished']} jobs finished")
    return EXIT_OK


def _cmd_fleet_compact(args: argparse.Namespace) -> int:
    import os

    from repro.fleet.history import HistoryLog

    if not os.path.isdir(args.data_dir):
        print(f"fleet compact: not a directory: {args.data_dir}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    log = HistoryLog(args.data_dir, fsync="never")
    try:
        stats = log.compact(retain=args.retain, resolution=args.resolution)
    finally:
        log.close()
    saved = stats["bytes_before"] - stats["bytes_after"]
    print(f"fleet compact: {stats['segments_compacted']} segments "
          f"rewritten, {stats['records_in']} -> {stats['records_out']} "
          f"records, {stats['bytes_before']} -> {stats['bytes_after']} "
          f"bytes ({saved} saved)")
    return EXIT_OK


def _cmd_fleet_drain(args: argparse.Namespace) -> int:
    import os

    from repro.fleet.sink import drain_spool_dir
    from repro.fleet.spool import pending_spools

    if not os.path.isdir(args.spool_dir):
        print(f"fleet drain: not a directory: {args.spool_dir}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if not pending_spools(args.spool_dir):
        print(f"fleet drain: nothing pending in {args.spool_dir}")
        return EXIT_OK
    outcome = drain_spool_dir(
        args.server, args.spool_dir, timeout=args.timeout
    )
    for entry in outcome["details"]:
        state = "drained" if not entry["pending"] else (
            f"{entry['pending']} still pending"
        )
        print(f"  {entry['pub']}: {entry['delivered']} delivered, {state}")
    print(f"fleet drain: {outcome['delivered']} records from "
          f"{outcome['spools']} spools, {outcome['pending']} left")
    return EXIT_OK if outcome["pending"] == 0 else EXIT_SPEC_FAILURES


def _cmd_fleet_query(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    base = args.server
    if not base.startswith("http://") and not base.startswith("https://"):
        base = f"http://{base}"
    path = args.path if args.path.startswith("/") else f"/{args.path}"
    url = base.rstrip("/") + path
    if args.resolution is not None:
        url += f"?resolution={args.resolution}"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            body = resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        print(f"fleet query: {url}: HTTP {exc.code}: "
              f"{exc.read().decode('utf-8', 'replace').strip()}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    except (urllib.error.URLError, OSError) as exc:
        print(f"fleet query: cannot reach {url}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(body, end="" if body.endswith("\n") else "\n")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # trace2json owns its own argparse and exit-code contract; forward
    # everything after the subcommand verbatim.
    if argv and argv[0] == "trace2json":
        from repro.telemetry.trace2json import main as trace_main

        return trace_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU-cluster monitoring reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sweep = sub.add_parser(
        "sweep", help="run a batch of job specs (parallel, cached)"
    )
    p_sweep.add_argument("specs", help="JSON file: array of JobSpec objects")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: cpu-sized)")
    p_sweep.add_argument("--mode", choices=("auto", "process", "serial"),
                         default="auto")
    p_sweep.add_argument("--cache", default=None, metavar="DIR",
                         help="content-addressed result cache directory")
    p_sweep.add_argument("--out", default=None, metavar="FILE",
                         help="write the sweep summary JSON here")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="wall-clock limit per attempt; a hung spec "
                              "is killed and marked 'timeout' (every "
                              "attempt runs on a killable worker)")
    p_sweep.add_argument("--retries", type=int, default=0,
                         help="extra attempts for crashed/timed-out specs")
    p_sweep.add_argument("--resume", action="store_true",
                         help="replay the journal + cache and re-run only "
                              "specs that never finished ok (needs --cache)")
    p_sweep.add_argument("--quarantine-after", type=int, default=3,
                         metavar="N",
                         help="with --resume: skip specs with N+ journaled "
                              "failures (default 3)")
    p_sweep.add_argument("--max-events", type=int, default=None,
                         metavar="N",
                         help="liveness watchdog: abort a spec after N "
                              "simulator events (status 'livelock')")
    p_sweep.add_argument("--max-virtual-time", type=float, default=None,
                         metavar="SECONDS",
                         help="liveness watchdog: abort a spec past this "
                              "virtual time (status 'livelock')")
    p_sweep.add_argument("--fleet", default=None, metavar="HOST:PORT",
                         help="stream per-spec lifecycle + telemetry to a "
                              "fleet aggregator's ingest endpoint "
                              "(see 'fleet serve')")
    p_sweep.add_argument("--fleet-spool", default=None, metavar="DIR",
                         help="with --fleet: spool records to this "
                              "directory while the aggregator is "
                              "unreachable and replay them on reconnect "
                              "(zero-loss publishing)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    sub.add_parser(
        "trace2json",
        help="export a Chrome trace (python -m repro.telemetry.trace2json)",
    )

    p_report = sub.add_parser(
        "report", help="render the IPM banner from a saved XML log"
    )
    p_report.add_argument("xml", help="IPM XML log (write_xml output)")
    p_report.add_argument("--top", type=int, default=20,
                          help="regions per banner section (default 20)")
    p_report.add_argument("--json", action="store_true",
                          help="emit the banner's content as JSON instead "
                               "of text")
    p_report.add_argument("--out", default=None, metavar="FILE",
                          help="write the output here instead of stdout")
    p_report.set_defaults(fn=_cmd_report)

    p_analyze = sub.add_parser(
        "analyze",
        help="automated diagnosis: bottleneck/straggler report, "
             "two-sweep regression diff, CI gate (exit 5 = regression)",
    )
    analyze_sub = p_analyze.add_subparsers(dest="analyze_cmd", required=True)
    p_a_report = analyze_sub.add_parser(
        "report",
        help="diagnose saved IPM XML logs (bottleneck class, "
             "stragglers, load imbalance)",
    )
    p_a_report.add_argument("xml", nargs="+",
                            help="IPM XML log(s) (write_xml output)")
    p_a_report.add_argument("--json", action="store_true",
                            help="emit the analysis document instead of text")
    p_a_report.add_argument("--out", default=None, metavar="FILE",
                            help="write the output here instead of stdout")
    p_a_report.set_defaults(fn=_cmd_analyze_report)
    p_a_diff = analyze_sub.add_parser(
        "diff",
        help="compare two sweep summaries config-by-config "
             "(exit 5 on a confident regression)",
    )
    p_a_diff.add_argument("baseline",
                          help="baseline sweep summary JSON "
                               "(`repro sweep --out` output)")
    p_a_diff.add_argument("current", help="current sweep summary JSON")
    p_a_diff.add_argument("--metric", default="wallclock",
                          help="summary-row metric to compare "
                               "(default wallclock)")
    p_a_diff.add_argument("--confidence", type=float, default=0.95,
                          help="confidence level of bounds/verdicts "
                               "(default 0.95)")
    p_a_diff.add_argument("--min-rel-delta", type=float, default=0.01,
                          help="relative slowdown below which a confident "
                               "delta is ignored (default 0.01)")
    p_a_diff.add_argument("--json", action="store_true",
                          help="emit the analysis document instead of text")
    p_a_diff.add_argument("--out", default=None, metavar="FILE",
                          help="write the output here instead of stdout")
    p_a_diff.set_defaults(fn=_cmd_analyze_diff)
    p_a_gate = analyze_sub.add_parser(
        "gate",
        help="CI gate: current vs committed baseline (sweep summaries "
             "or flat BENCH_*.json; a missing baseline passes)",
    )
    p_a_gate.add_argument("current",
                          help="current measurement JSON (sweep summary "
                               "or flat benchmark document)")
    p_a_gate.add_argument("--baseline", required=True, metavar="FILE",
                          help="committed baseline JSON of the same kind")
    p_a_gate.add_argument("--metric", action="append", default=[],
                          metavar="NAME",
                          help="metric(s) to gate (repeatable; default: "
                               "wallclock for sweeps, every *_per_sec/"
                               "*_speedup key for benchmark documents)")
    p_a_gate.add_argument("--tolerance", type=float, default=0.20,
                          help="allowed fractional move in the bad "
                               "direction (default 0.20)")
    p_a_gate.add_argument("--confidence", type=float, default=0.95,
                          help="confidence level of bounds/verdicts "
                               "(default 0.95)")
    p_a_gate.add_argument("--json", action="store_true",
                          help="emit the analysis document instead of text")
    p_a_gate.add_argument("--out", default=None, metavar="FILE",
                          help="write the output here instead of stdout")
    p_a_gate.set_defaults(fn=_cmd_analyze_gate)

    p_fleet = sub.add_parser(
        "fleet", help="run or query the fleet telemetry aggregator"
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_cmd", required=True)
    p_serve = fleet_sub.add_parser(
        "serve", help="run the aggregator (ingest socket + HTTP queries)"
    )
    p_serve.add_argument("--ingest", default="127.0.0.1:0",
                         metavar="HOST:PORT",
                         help="telemetry ingest bind address (default "
                              "127.0.0.1:0 = ephemeral)")
    p_serve.add_argument("--http", default="127.0.0.1:0",
                         metavar="HOST:PORT",
                         help="query API bind address (default ephemeral)")
    p_serve.add_argument("--tail", action="append", default=[],
                         metavar="FILE",
                         help="also tail this telemetry JSONL file "
                              "(repeatable)")
    p_serve.add_argument("--resolution", type=float, default=0.05,
                         help="job rollup bucket width, virtual seconds "
                              "(default 0.05)")
    p_serve.add_argument("--host-resolution", type=float, default=1.0,
                         help="node/fleet rollup bucket width, host "
                              "seconds (default 1.0)")
    p_serve.add_argument("--buckets", type=int, default=512,
                         help="rollup ring capacity per metric "
                              "(default 512)")
    p_serve.add_argument("--stale-after", type=float, default=15.0,
                         metavar="SECONDS",
                         help="flag running jobs/nodes stale after this "
                              "publish silence (default 15)")
    p_serve.add_argument("--data-dir", default=None, metavar="DIR",
                         help="durable history: tee accepted records into "
                              "a segmented log here and replay it on "
                              "startup, so restarts resume the previous "
                              "fleet state (default: memory-resident)")
    p_serve.add_argument("--retain", type=int, default=4, metavar="N",
                         help="with --data-dir: closed raw log segments "
                              "kept before compaction downsamples them "
                              "(default 4)")
    p_serve.add_argument("--fsync", choices=("never", "rotate", "always"),
                         default="rotate",
                         help="with --data-dir: when to fsync the active "
                              "segment (default rotate)")
    p_serve.add_argument("--compact-interval", type=float, default=60.0,
                         metavar="SECONDS",
                         help="with --data-dir: retention-compaction "
                              "period; <= 0 disables the background "
                              "policy (default 60)")
    p_serve.add_argument("--forward", default=None, metavar="HOST:PORT",
                         help="federate: forward accepted records "
                              "upstream to a head aggregator's ingest "
                              "endpoint (samples compacted to windows; "
                              "with --data-dir the upstream stream is "
                              "spooled across head outages)")
    p_serve.add_argument("--forward-interval", type=float, default=0.25,
                         metavar="SECONDS",
                         help="how often buffered windows flush upstream "
                              "(default 0.25)")
    p_serve.add_argument("--announce", default=None, metavar="FILE",
                         help="write the resolved endpoints here as JSON "
                              "(for scripts using ephemeral ports)")
    p_serve.add_argument("--duration", type=float, default=None,
                         metavar="SECONDS",
                         help="serve for this long then exit (default: "
                              "until interrupted)")
    p_serve.set_defaults(fn=_cmd_fleet_serve)
    p_compact = fleet_sub.add_parser(
        "compact",
        help="offline retention pass over a durable history directory",
    )
    p_compact.add_argument("data_dir", metavar="DIR",
                           help="a 'fleet serve --data-dir' directory")
    p_compact.add_argument("--retain", type=int, default=0, metavar="N",
                           help="closed raw segments to leave untouched "
                                "(default 0: compact everything closed)")
    p_compact.add_argument("--resolution", type=float, default=0.05,
                           help="job rollup bucket width the log was "
                                "served with, virtual seconds — the "
                                "same as 'fleet serve --resolution' "
                                "(default 0.05)")
    p_compact.set_defaults(fn=_cmd_fleet_compact)
    p_drain = fleet_sub.add_parser(
        "drain",
        help="deliver records left spooled by publishers that outlived "
             "an aggregator outage",
    )
    p_drain.add_argument("server", metavar="HOST:PORT",
                         help="the aggregator's ingest endpoint")
    p_drain.add_argument("spool_dir", metavar="DIR",
                         help="a publisher spool directory "
                              "(e.g. sweep --fleet-spool DIR)")
    p_drain.add_argument("--timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="total delivery budget (default 30)")
    p_drain.set_defaults(fn=_cmd_fleet_drain)
    p_query = fleet_sub.add_parser(
        "query", help="fetch one endpoint from a running aggregator"
    )
    p_query.add_argument("server", metavar="HOST:PORT",
                         help="the aggregator's HTTP address")
    p_query.add_argument("path", nargs="?", default="/fleet",
                         help="endpoint path (default /fleet; e.g. /jobs, "
                              "/metrics, /jobs/<id>/rollups)")
    p_query.add_argument("--resolution", type=float, default=None,
                         help="downsample returned series to this bucket "
                              "width")
    p_query.set_defaults(fn=_cmd_fleet_query)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already (== EXIT_BAD_INPUT);
        # normalize anything else it might raise.
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"{args.cmd}: bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
