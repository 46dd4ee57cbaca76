"""Workload ``fleet-ingest``: open-loop ingest into a durable aggregator.

The system under test is a separate ``python -m repro fleet serve
--data-dir`` process.  One ack-mode publisher connection (``hello``
with ``ack: true``, records stamped ``pub``/``seq``) is fed by an open
loop: one selector thread sends ``sample`` records on a fixed
schedule, whatever the aggregator does, and reads the acks; latency is
timed from each record's due time to its ack.  One reader thread
queries ``/metrics``, ``/jobs`` and ``/jobs/<id>/rollups`` every
``QUERY_PERIOD_S`` throughout; the gated query latency is that of the
``/metrics`` scrape, which renders under the store lock.

The run has three parts: a reference phase at ``REF_RATE`` (ingest
lag, query latency, and the aggregator's CPU seconds per sample);
SIGTERM and a restart on the same data dir, timed until ``/healthz``
serves (history replay); then, on the restarted aggregator, the knee
search of :func:`_run_ladder` (the highest rate whose p99 lag stays
within ``LAG_LIMIT_S`` with no growing backlog).

The knee is printed but not gated: the durable history fsyncs each
4 MiB segment it rotates (every ~1300 samples of ~3 KB) and compacts
closed ones on a thread, and on a shared disk those stalls decide
whether a step near the knee passes, so over ten seeds the knee split
between ~1.9k and ~3.6k samples/s.  The gated throughput is the
reference phase's samples per aggregator CPU-second, which stalls
do not move.

This is the only workload that exercises ``repro.fleet``, and it puts
reads beside writes: the ``/metrics`` render holds the store lock, so
lock contention shows in the ack latency.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from repro import IpmConfig, JobSpec, TelemetryConfig
from repro.cluster.jobs import run_job
from repro.fleet.protocol import sample_points

from perfbench.common import (
    ROOT,
    WORK,
    Ledger,
    layer_zeros,
    median,
    percentile,
    process_cpu_s,
    process_peak_rss_mb,
    python_env,
    scratch_dir,
)
from perfbench.tracing import load_spans, rollup

#: the job whose telemetry every sample carries: a seeded ``hpl`` run
#: at preset ``tiny`` on TAP_NTASKS ranks with telemetry on, sampled by
#: the program's own TelemetryHub every 10 ms of virtual time.  At 2
#: ranks (2 GPUs on 2 nodes) one tick is 38 points (13 per rank, 4 per
#: GPU, 3 per node) labelled ``rank``/``gpu``/``node``, about 3 KB on
#: the wire, as ``FleetSink.emit`` sends it; the run has ~386 ticks.
TAP_APP = "hpl"
TAP_NTASKS = 2
#: jobs the samples are spread over; each streams the tap job's ticks
#: in order from a seeded offset, its ``t`` advancing one interval per
#: sample.
JOBS = 16
#: the reference rate (samples/s) for ingest lag and query latency,
#: and the first rung of the ladder.
REF_RATE = 500.0
#: the ladder brackets the knee by doubling the rate from REF_RATE
#: (halving when REF_RATE itself misses), then climbs from the highest
#: passing rate in LADDER_RATIO steps, finer than the 25% bound.  Each
#: step is LADDER_STEP_S long.
LADDER_RATIO = 1.08
LADDER_STEP_S = 0.5
#: the bracket gives up (a failed check, not a knee) past these.
BRACKET_MAX = 1024.0
BRACKET_MIN = 1.0 / 64
#: the latency limit a ladder step's p99 must meet, and how many
#: misses in a row end the climb (near the knee a step passes or
#: misses by chance, so one miss does not end it).
LAG_LIMIT_S = 0.100
MISSES_TO_STOP = 3
#: a step is valid only while the generator keeps its schedule: its
#: p99 send lateness must stay within this share of LAG_LIMIT_S, or
#: a miss could be the sender's, not the aggregator's.
GEN_LATE_SHARE = 0.5
#: one query every QUERY_PERIOD_S, cycling ``/metrics``, ``/jobs``,
#: ``/metrics``, ``/jobs/<id>/rollups``: the scrape is half of the
#: queries, so the reference phase times over 100 of them.
QUERY_PERIOD_S = 0.04
#: the share of --seconds spent at the reference rate; the ladder
#: must find its knee within LADDER_SHARE of it.
REF_SHARE = 0.35
LADDER_SHARE = 0.6
PUB = "perfbench"


# -- inputs ------------------------------------------------------------------

class _Tap:
    """A telemetry sink that keeps every tick's points in wire shape."""

    name = "perfbench-tap"

    def __init__(self) -> None:
        self.ticks: List[str] = []

    def open(self, meta: Dict) -> None:
        pass

    def emit(self, t: float, points) -> None:
        self.ticks.append(json.dumps(sample_points(points), sort_keys=True))

    def close(self) -> None:
        pass


def make_inputs(seed: int) -> Dict[str, Any]:
    """The seeded record schedule: job ids, sample bodies, offsets.

    The bodies are the ticks of one telemetry-on job of seed ``seed``,
    encoded by ``repro.fleet.protocol.sample_points`` as the fleet sink
    sends them.
    """
    telemetry = TelemetryConfig(enabled=True, sinks=())
    spec = JobSpec(app=TAP_APP, ntasks=TAP_NTASKS, seed=seed,
                   ipm=IpmConfig(telemetry=telemetry),
                   app_params={"preset": "tiny"})
    tap = _Tap()
    run_job(spec, extra_sinks=[tap])
    rng = random.Random(seed)
    jobs = [f"job-{seed}-{j:02d}" for j in range(JOBS)]
    return {
        "jobs": jobs,
        "bodies": tap.ticks,
        "offsets": [rng.randrange(len(tap.ticks)) for _ in jobs],
        "interval": telemetry.interval,
    }


class _Lines:
    """Encodes the records of the schedule as wire lines.

    Sample ``i`` belongs to job ``i % JOBS`` and carries that job's
    next tick.
    """

    def __init__(self, inputs: Dict[str, Any]) -> None:
        self.jobs = inputs["jobs"]
        self.bodies = [body.encode("ascii") for body in inputs["bodies"]]
        self.offsets = inputs["offsets"]
        self.interval = inputs["interval"]
        self.job_samples = [0] * len(self.jobs)
        self.samples = 0

    def start_line(self, seq: int, j: int) -> bytes:
        return (
            b'{"job": "%s", "kind": "job_start", "pub": "%s", "seq": %d}\n'
            % (self.jobs[j].encode(), PUB.encode(), seq)
        )

    def line(self, seq: int) -> bytes:
        j = self.samples % len(self.jobs)
        self.samples += 1
        k = self.job_samples[j]
        self.job_samples[j] = k + 1
        body = self.bodies[(self.offsets[j] + k) % len(self.bodies)]
        return (
            b'{"hts": %.6f, "job": "%s", "kind": "sample", "points": %s, '
            b'"pub": "%s", "seq": %d, "t": %.2f}\n'
            % (time.time(), self.jobs[j].encode(), body, PUB.encode(), seq,
               self.interval * (k + 1))
        )


# -- the aggregator process --------------------------------------------------

class Aggregator:
    """A ``fleet serve`` child process on a data dir."""

    def __init__(self, data_dir: str, spans_out: Optional[str] = None):
        self.announce = data_dir + ".announce.json"
        try:
            os.unlink(self.announce)
        except FileNotFoundError:
            pass
        serve = ["fleet", "serve", "--announce", self.announce,
                 "--data-dir", data_dir, "--stale-after", "600"]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro"] + serve
        else:
            cmd = [sys.executable,
                   os.path.join(ROOT, "perfbench", "fleet_launcher.py"),
                   spans_out] + serve
        self.log_path = data_dir + ".stderr"
        self.started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=python_env(), stdout=subprocess.DEVNULL,
                stderr=log,
            )
        self.url = ""
        self.ingest: Tuple[str, int] = ("", 0)

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until ``/healthz`` answers 200; seconds since spawn."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                with open(self.log_path, encoding="utf-8",
                          errors="replace") as log:
                    tail = log.read()[-500:]
                raise RuntimeError(
                    f"fleet serve exited {self.proc.returncode}: {tail}"
                )
            if not self.url:
                try:
                    with open(self.announce, encoding="utf-8") as fh:
                        text = fh.read()
                except FileNotFoundError:
                    text = ""
                if text.endswith("\n"):
                    endpoints = json.loads(text)
                    self.url = endpoints["url"]
                    host, port = endpoints["ingest"].rsplit(":", 1)
                    self.ingest = (host, int(port))
            if self.url:
                try:
                    status, _ = get(self.url + "/healthz", timeout=5.0)
                    if status == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("fleet serve did not become ready")

    def stop(self) -> None:
        """SIGTERM (drains like Ctrl-C) and wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


#: local queries never go through a proxy named in the environment.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def get(url: str, timeout: float = 10.0) -> Tuple[int, bytes]:
    try:
        with _OPENER.open(url, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def get_json(url: str) -> Any:
    status, body = get(url)
    if status != 200:
        raise RuntimeError(f"GET {url}: HTTP {status}")
    return json.loads(body)


# -- load --------------------------------------------------------------------

class _Queries(threading.Thread):
    """The reader thread: one query every QUERY_PERIOD_S, on schedule.

    Used as a ``with`` block: it queries while the block runs, and the
    queries (each non-2xx one a failure) go to the ledger at its end.
    """

    def __init__(self, url: str, jobs: List[str], ledger: Ledger) -> None:
        super().__init__(name="perfbench-queries", daemon=True)
        self.url = url
        self.jobs = jobs
        self.ledger = ledger
        self.stop_event = threading.Event()
        #: (due time, seconds, ok, endpoint) per query.
        self.done: List[Tuple[float, float, bool, str]] = []

    def __enter__(self) -> "_Queries":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop_event.set()
        self.join(30.0)
        self.ledger.ops(len(self.done),
                        sum(1 for q in self.done if not q[2]), "queries")

    def run(self) -> None:
        paths = ["/metrics", "/jobs", "/metrics", None]
        endpoints = ["metrics", "jobs", "metrics", "rollups"]
        start = time.perf_counter()
        i = 0
        while not self.stop_event.is_set():
            due = start + i * QUERY_PERIOD_S
            delay = due - time.perf_counter()
            if delay > 0 and self.stop_event.wait(delay):
                break
            path = paths[i % 4] or (
                f"/jobs/{self.jobs[(i // 4) % len(self.jobs)]}/rollups"
            )
            t0 = time.perf_counter()
            try:
                status, body = get(self.url + path)
                ok = status == 200 and (
                    path != "/metrics" or body.endswith(b"# EOF\n")
                )
            except OSError:
                ok = False
            self.done.append((due, time.perf_counter() - t0, ok,
                              endpoints[i % 4]))
            i += 1


class _Publisher:
    """The open-loop sender and ack reader on one selector thread."""

    def __init__(self, address: Tuple[str, int], lines: _Lines) -> None:
        self.lines = lines
        self.due: List[float] = []
        self.acked: List[Optional[float]] = []
        self.late: List[float] = []
        self.n_acked = 0
        self.bad_acks = 0
        self.connect(address)

    def connect(self, address: Tuple[str, int]) -> None:
        """Open the connection and announce the stamped stream."""
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.sendall(json.dumps(
            {"kind": "hello", "pub": PUB, "ack": True}
        ).encode() + b"\n")
        self.sock.setblocking(False)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.sock, selectors.EVENT_READ)
        self._out = bytearray()
        self._in = b""

    @property
    def sent(self) -> int:
        return len(self.due)

    def _pump(self, timeout: float) -> None:
        events = selectors.EVENT_READ
        if self._out:
            events |= selectors.EVENT_WRITE
        self.sel.modify(self.sock, events)
        for _key, mask in self.sel.select(timeout):
            if mask & selectors.EVENT_WRITE and self._out:
                try:
                    n = self.sock.send(self._out)
                    del self._out[:n]
                except BlockingIOError:
                    pass
            if mask & selectors.EVENT_READ:
                data = self.sock.recv(1 << 16)
                if not data:
                    raise RuntimeError("aggregator closed the connection")
                self._acks(data, time.perf_counter())

    def _acks(self, data: bytes, now: float) -> None:
        *lines, self._in = (self._in + data).split(b"\n")
        for line in lines:
            seq = json.loads(line).get("seq")
            if (
                isinstance(seq, int) and 0 <= seq < len(self.acked)
                and self.acked[seq] is None
            ):
                self.acked[seq] = now
                self.n_acked += 1
            else:
                self.bad_acks += 1

    def announce(self) -> bool:
        """Send every job's ``job_start`` and wait for the acks."""
        now = time.perf_counter()
        for j in range(len(self.lines.jobs)):
            self.due.append(now)
            self.acked.append(None)
            self._out += self.lines.start_line(self.sent - 1, j)
        return self.drain(30.0)

    def send_phase(self, rate: float, seconds: float) -> int:
        """Send at ``rate`` for ``seconds``; returns the first seq."""
        first = self.sent
        start = time.perf_counter()
        count = int(rate * seconds)
        k = 0
        while k < count:
            now = time.perf_counter()
            while k < count and start + k / rate <= now:
                due = start + k / rate
                self.due.append(due)
                self.acked.append(None)
                self.late.append(now - due)
                self._out += self.lines.line(self.sent - 1)
                k += 1
            if self._out:
                try:
                    n = self.sock.send(self._out)
                    del self._out[:n]
                except BlockingIOError:
                    pass
            next_due = start + k / rate
            self._pump(max(0.0, next_due - time.perf_counter()))
        return first

    def reconnect(self, address: Tuple[str, int]) -> None:
        """Continue the same stamped stream on a restarted aggregator."""
        self.close()
        self.connect(address)

    def drain(self, timeout: float) -> bool:
        """Wait for every sent record's ack; False on timeout."""
        deadline = time.perf_counter() + timeout
        while self.n_acked < self.sent and time.perf_counter() < deadline:
            if self._out:
                try:
                    n = self.sock.send(self._out)
                    del self._out[:n]
                except BlockingIOError:
                    pass
            self._pump(0.05)
        return self.n_acked == self.sent

    def latencies(self, lo: int, hi: int, now: float) -> List[float]:
        """Due-to-ack seconds of seqs [lo, hi); unacked count as now."""
        return [
            (a if a is not None else now) - d
            for d, a in zip(self.due[lo:hi], self.acked[lo:hi])
        ]

    def close(self) -> None:
        self.sel.close()
        self.sock.close()


class _OutOfTime(Exception):
    pass


def _run_ladder(pub: _Publisher, ledger: Ledger,
                budget_s: float) -> Tuple[float, List[Dict]]:
    """The highest rate the aggregator sustains: the knee.

    A step passes when, ``LAG_LIMIT_S`` after it ends (every record of
    it was due by then), at most 1% of its records are unacknowledged
    or were acked later than the limit, and the backlog left at its
    end fits what the limit allows in flight.

    The search first brackets the knee: it doubles the rate from
    ``REF_RATE`` while steps pass (a doubling step that misses is
    tried once more), or halves it while they miss.  It then climbs
    from the highest passing rate in ``LADDER_RATIO`` steps below the
    lowest missing one until ``MISSES_TO_STOP`` steps in a row miss.
    Every step starts once the previous one's records are all acked.
    A search that leaves the bracket range or its time budget fails a
    check instead of reporting a knee.

    Returns the highest passing step's measured ack rate (its records
    over the time from their first ack to their last) and every step's
    row.
    """
    rows: List[Dict] = []
    deadline = time.perf_counter() + budget_s

    def step(rate: float) -> bool:
        # every step starts from an empty pipeline: a missed step's
        # backlog is not charged to the next one
        if not pub.drain(max(0.0, deadline - time.perf_counter())):
            raise _OutOfTime()
        late_lo = len(pub.late)
        lo = pub.send_phase(rate, LADDER_STEP_S)
        hi = pub.sent
        late_p99 = percentile(pub.late[late_lo:], 0.99)
        backlog = hi - pub.n_acked
        grace_end = time.perf_counter() + LAG_LIMIT_S
        # keep the schedule going at this rate through the grace period
        pub.send_phase(rate, max(0.0, grace_end - time.perf_counter()))
        lat = pub.latencies(lo, hi, time.perf_counter())
        p99 = percentile(lat, 0.99)
        ok = p99 <= LAG_LIMIT_S and backlog <= max(1.0, rate * LAG_LIMIT_S)
        acked = [a for a in pub.acked[lo:hi] if a is not None]
        span = max(acked) - min(acked) if acked else 0.0
        rows.append({"rate": rate, "p99_ms": 1000 * p99, "backlog": backlog,
                     "late_p99_ms": 1000 * late_p99, "ok": ok,
                     # the nominal rate when too few acks to time
                     "acked_per_s": (len(acked) - 1) / span if span else rate})
        return ok

    passed: Optional[float] = None
    missed: Optional[float] = None
    rate = REF_RATE
    best: Dict[str, Any] = {"acked_per_s": 0.0}
    try:
        while passed is None or missed is None:
            if not BRACKET_MIN <= rate / REF_RATE <= BRACKET_MAX:
                ledger.check(False, f"fleet: the knee lies outside "
                                    f"{BRACKET_MIN * REF_RATE:g}.."
                                    f"{BRACKET_MAX * REF_RATE:g} samples/s")
                return best["acked_per_s"], rows
            if step(rate) or step(rate):
                passed, best, rate = rate, rows[-1], rate * 2
            else:
                missed, rate = rate, rate / 2
        misses = 0
        rate = passed * LADDER_RATIO
        while rate < missed and misses < MISSES_TO_STOP:
            if step(rate):
                best, misses = rows[-1], 0
            else:
                misses += 1
            rate *= LADDER_RATIO
    except _OutOfTime:
        ledger.check(False, f"fleet: the ladder found no knee within "
                            f"{budget_s:g} s")
    late_ms = max(row["late_p99_ms"] for row in rows)
    ledger.check(late_ms <= 1000 * GEN_LATE_SHARE * LAG_LIMIT_S,
                 f"fleet: the generator fell {late_ms:.1f} ms (p99) behind "
                 f"its schedule in a ladder step")
    return best["acked_per_s"], rows


# -- the workload ------------------------------------------------------------

def setup_samples(seed: int, repeats: int = 3) -> List[float]:
    """Aggregator start-up on an empty data dir until /healthz serves."""
    out = []
    for _ in range(repeats):
        agg = Aggregator(os.path.join(scratch_dir(f"fleet-setup-{os.getpid()}"),
                                      "data"))
        try:
            out.append(agg.wait_ready())
        finally:
            agg.stop()
    return out


def setup(seed: int) -> Dict[str, Any]:
    return {"inputs": make_inputs(seed)}


def _rollups(url: str, jobs: List[str]) -> Dict[str, Any]:
    volatile = ("first_seen", "last_seen", "stale")
    out = {}
    for job in jobs:
        data = get_json(f"{url}/jobs/{job}/rollups")
        out[job] = {k: v for k, v in data.items() if k not in volatile}
    return out


def _check_store(url: str, ledger: Ledger) -> Dict[str, Any]:
    """The aggregator's own audit after a drained phase."""
    pubs = get_json(url + "/publishers")["totals"]
    ledger.check(pubs["gap_records"] == 0 and pubs["duplicates"] == 0,
                 f"fleet: audit found {pubs['gap_records']} gap and "
                 f"{pubs['duplicates']} duplicate records")
    status, body = get(url + "/metrics")
    ledger.check(status == 200 and body.endswith(b"# EOF\n"),
                 "fleet: /metrics is not terminated by # EOF")
    health_status, _ = get(url + "/healthz")
    ledger.check(health_status == 200, "fleet: /healthz not healthy")
    return pubs


def _spans_file(spans_dir: Optional[str], life: str) -> Optional[str]:
    return None if spans_dir is None else os.path.join(spans_dir,
                                                       life + ".json")


def _session(seed: int, seconds: float, ledger: Ledger,
             spans_dir: Optional[str] = None,
             ref_only: bool = False) -> Dict[str, Any]:
    """The reference phase, then (unless ``ref_only``) a restart on the
    same data dir and the ladder on the restarted aggregator.
    Restarting before the ladder keeps the replayed history the same
    size in every run.
    """
    inputs = make_inputs(seed)
    jobs = inputs["jobs"]
    data_dir = os.path.join(scratch_dir(f"fleet-{os.getpid()}"), "data")
    out: Dict[str, Any] = {}
    agg = Aggregator(data_dir, _spans_file(spans_dir, "first"))
    try:
        agg.wait_ready()
        pub = _Publisher(agg.ingest, _Lines(inputs))
        ledger.check(pub.announce(), "fleet: job_start records unacked")
        cpu0 = process_cpu_s(agg.proc.pid)
        with _Queries(agg.url, jobs, ledger) as queries:
            t_ref = time.perf_counter()
            late_lo = len(pub.late)
            lo = pub.send_phase(REF_RATE, REF_SHARE * seconds)
            ref_hi = pub.sent
            ref_end = time.perf_counter()
            late_ms = 1000 * percentile(pub.late[late_lo:], 0.99)
            ledger.check(late_ms <= 1000 * GEN_LATE_SHARE * LAG_LIMIT_S,
                         f"fleet: the generator fell {late_ms:.1f} ms (p99) "
                         f"behind its schedule at the reference rate")
            # aggregator CPU per reference record, queries included:
            # its inverse is the gated throughput, and its traced /
            # untraced ratio the tracing overhead.
            out["cpu_per_record"] = (
                (process_cpu_s(agg.proc.pid) - cpu0) / (ref_hi - lo)
            )
            ledger.check(pub.drain(30.0), "fleet: reference records unacked")
        out["ref_lat"] = pub.latencies(lo, ref_hi, time.perf_counter())
        ref_queries = [q for q in queries.done if t_ref <= q[0] < ref_end]
        out["ref_queries"] = {
            endpoint: [q[1] for q in ref_queries if q[3] == endpoint]
            for endpoint in ("metrics", "jobs", "rollups")
        }
        out["peak_rss_mb"] = process_peak_rss_mb(agg.proc.pid)
        _check_store(agg.url, ledger)
        before = _rollups(agg.url, jobs)
        pub.close()
    finally:
        agg.stop()
    if ref_only:
        return out
    again = Aggregator(data_dir, _spans_file(spans_dir, "restart"))
    try:
        out["restart_s"] = again.wait_ready()
        out["replayed"] = get_json(again.url + "/history")["replayed"]
        ledger.check(_rollups(again.url, jobs) == before,
                     "fleet: rollups after restart differ from before")
        ledger.check(out["replayed"] == pub.sent,
                     f"fleet: restart replayed {out['replayed']} of "
                     f"{pub.sent} records")
        pub.reconnect(again.ingest)
        with _Queries(again.url, jobs, ledger):
            out["sustained"], out["steps"] = _run_ladder(
                pub, ledger, LADDER_SHARE * seconds
            )
            ledger.check(pub.drain(30.0), "fleet: records unacked at the end")
        pubs = _check_store(again.url, ledger)
        out.update({
            "sent": pub.sent,
            "acked": pub.n_acked,
            "late": pub.late,
            "parse_errors": get_json(again.url + "/fleet")["ingest"][
                "parse_errors"],
            "duplicates": pubs["duplicates"],
            "gap_records": pubs["gap_records"],
            "history_bytes": get_json(again.url + "/history")["bytes"],
        })
        pub.close()
    finally:
        again.stop()
    ledger.ops(pub.sent, pub.sent - pub.n_acked, "records unacked")
    ledger.check(pub.bad_acks == 0,
                 f"fleet: {pub.bad_acks} acks for unknown or already-acked "
                 f"seqs")
    return out


def run(seed: int, seconds: float, ledger: Ledger) -> Dict[str, Any]:
    s = _session(seed, seconds, ledger)
    scrapes = s["ref_queries"]["metrics"]
    ledger.check(len(scrapes) >= 100,
                 f"fleet: only {len(scrapes)} /metrics scrapes at the "
                 f"reference rate")
    for row in s["steps"]:
        print(f"  ladder {row['rate']:8.0f}/s  p99 {row['p99_ms']:8.2f} ms"
              f"  backlog {row['backlog']:6d}"
              f"  late p99 {row['late_p99_ms']:6.2f} ms"
              f"  acked {row['acked_per_s']:8.0f}/s  "
              f"{'ok' if row['ok'] else 'over the limit'}")
    lat = s["ref_lat"]
    q = [t for times in s["ref_queries"].values() for t in times]
    return {
        "e2e": {
            "throughput_per_s": 1 / s["cpu_per_record"],
            "op_p50_ms": 1000 * median(lat),
            "query_p90_ms": 1000 * percentile(scrapes, 0.90),
            "peak_rss_mb": s["peak_rss_mb"],
        },
        "named": [
            ("ingest_lag_p50_ms", 1000 * median(lat), "ms"),
            ("ingest_lag_p99_ms", 1000 * percentile(lat, 0.99), "ms"),
            ("sustained_samples_per_s", s["sustained"], "samples/s"),
            ("ingest_samples_per_cpu_s", 1 / s["cpu_per_record"],
             "samples/s"),
            ("query_metrics_p50_ms", 1000 * median(scrapes), "ms"),
            ("query_all_p50_ms", 1000 * median(q), "ms"),
            ("query_all_p90_ms", 1000 * percentile(q, 0.90), "ms"),
        ] + [
            (f"query_{endpoint}_p90_ms", 1000 * percentile(times, 0.90),
             "ms")
            for endpoint, times in s["ref_queries"].items()
        ] + [
            ("restart_s", s["restart_s"], "s"),
            ("replay_records_per_s", s["replayed"] / s["restart_s"],
             "records/s"),
            ("replayed_records", s["replayed"], "count"),
            ("reference_rate", REF_RATE, "samples/s"),
            ("reference_records", len(lat), "count"),
            ("reference_queries", len(q), "count"),
            ("records_sent", s["sent"], "count"),
            ("gen_late_p99_ms", 1000 * percentile(s["late"], 0.99), "ms"),
        ],
    }


def trace(seed: int, seconds: float, ledger: Ledger) -> Dict[str, float]:
    """An untraced reference phase, then the whole workload traced."""
    untraced = _session(seed, seconds, ledger, ref_only=True)
    spans_dir = scratch_dir(f"fleet-spans-{os.getpid()}")
    s = _session(seed, seconds, ledger, spans_dir=spans_dir)
    first = load_spans(os.path.join(spans_dir, "first.json"))
    restart = load_spans(os.path.join(spans_dir, "restart.json"))
    # live ingest only: leave out the folds inside a history replay
    replay_groups = {g for _i, n, _s, _e, _p, g in first + restart
                     if n == "fleet.attach_history"}
    live_rollup = rollup([
        sp for sp in first + restart if sp[5] not in replay_groups
    ])
    replay_s = sum(sp[3] - sp[2] for sp in restart
                   if sp[1] == "fleet.attach_history")

    def span(name: str, key: str = "time") -> float:
        return live_rollup.get(name, {}).get(key, 0.0)

    dump = {"first": first, "restart": restart}
    with open(os.path.join(WORK, f"trace-fleet-ingest-{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dump, fh)
    layers = layer_zeros()
    backlogs = [row["backlog"] for row in s["steps"]] or [0]
    layers.update({
        "fleet.records_sent": s["sent"],
        "fleet.records_acked": s["acked"],
        "fleet.backlog_max": max(backlogs),
        "fleet.parse_errors": s["parse_errors"],
        "fleet.duplicates": s["duplicates"],
        "fleet.gap_records": s["gap_records"],
        "fleet.fold_s": span("fleet.ingest_status", "self"),
        "fleet.history_append_s": span("fleet.history_append"),
        "fleet.openmetrics_s": span("fleet.openmetrics"),
        "fleet.jobs_summary_s": span("fleet.jobs_summary"),
        "fleet.history_bytes": s["history_bytes"],
        "fleet.replay_records": s["replayed"],
        "fleet.replay_records_per_s": (
            s["replayed"] / replay_s if replay_s else 0.0
        ),
        "bench.gen_late_p99_ms": 1000 * percentile(s["late"], 0.99),
        "bench.trace_overhead": (
            s["cpu_per_record"] / untraced["cpu_per_record"]
        ),
    })
    return layers
