"""Supervised sweeps: containment, retries, quarantine, resume.

The acceptance scenario of this layer: a sweep holding one crashing
spec, one hanging spec and one deadlocking spec *completes*, yields
per-spec terminal statuses, and ``resume`` re-runs only what never
finished ok.
"""

import os

import pytest

from repro import (
    IpmConfig,
    JobSpec,
    LivenessLimits,
    ResultCache,
    SweepRunner,
)
from repro.errors import WorkerCrashed

#: cheap monitored jobs for byte-identity checks.
SPECS = [
    JobSpec(app="square", ntasks=1, command="./square", ipm=IpmConfig(),
            seed=s)
    for s in (1, 2, 3)
]


def canary(mode, seed=1, **params):
    return JobSpec(app="canary", ntasks=2, seed=seed,
                   app_params={"mode": mode, "work": 1e-3, **params})


def _pickles(report):
    return [r.report_pickle for r in report]


class TestAcceptance:
    def test_mixed_failure_sweep_completes_with_statuses(self, tmp_path):
        """One crash + one hang + one deadlock + one ok: the sweep ends."""
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(
            workers=4, cache=cache, timeout=5.0,
            liveness=LivenessLimits(max_events=20000), resume=True,
        )
        specs = [canary("ok"), canary("crash"), canary("hang"),
                 canary("deadlock"), canary("spin")]
        report = runner.run(specs)
        statuses = [r.status for r in report]
        assert statuses == ["ok", "crashed", "timeout", "deadlock",
                            "livelock"]
        assert report.mode == "process"  # a timeout needs a killable worker
        assert not report.ok
        assert report.errors_total == 4
        assert report.status_counts() == {
            "ok": 1, "crashed": 1, "timeout": 1, "deadlock": 1,
            "livelock": 1,
        }
        # failed specs carry a diagnosis and no report
        for r in report.failures():
            assert r.error
            assert r.report is None
            assert r.report_pickle == b""
        assert "canary: planned crash" in report[1].error
        assert "wall-clock timeout" in report[2].error
        assert "deadlock" in report[3].error
        assert "watchdog" in report[4].error

    def test_resume_reruns_only_the_non_ok_specs(self, tmp_path):
        """The resume contract (pinned): ok specs replay, failures re-run."""
        cache = ResultCache(str(tmp_path))
        specs = [canary("ok"), canary("crash"), canary("ok", seed=7),
                 canary("deadlock")]

        def make_runner():
            return SweepRunner(
                workers=2, cache=ResultCache(str(tmp_path)), timeout=5.0,
                resume=True, quarantine_after=None,
            )

        first = make_runner().run(specs)
        assert [r.status for r in first] == ["ok", "crashed", "ok",
                                             "deadlock"]
        second = make_runner().run(specs)
        # exactly the two failures were simulated again
        assert second.executed == 2
        assert [r.from_cache for r in second] == [True, False, True, False]
        assert [r.status for r in second] == [r.status for r in first]
        # the replayed results are byte-identical to the fresh ones
        assert _pickles(second)[0] == _pickles(first)[0]
        assert _pickles(second)[2] == _pickles(first)[2]


class TestQuarantine:
    def test_poison_spec_is_quarantined_after_n_failures(self, tmp_path):
        spec = canary("crash")

        def run_once():
            return SweepRunner(
                workers=1, cache=ResultCache(str(tmp_path)),
                resume=True, quarantine_after=2,
            ).run([spec])[0]

        assert run_once().status == "crashed"     # failure #1
        assert run_once().status == "crashed"     # failure #2
        third = run_once()                        # not run at all
        assert third.status == "quarantined"
        assert third.attempts == 0
        assert "quarantined after 2 recorded failures" in third.error

    def test_quarantine_none_never_quarantines(self, tmp_path):
        spec = canary("crash")
        for _ in range(4):
            result = SweepRunner(
                workers=1, cache=ResultCache(str(tmp_path)),
                resume=True, quarantine_after=None,
            ).run([spec])[0]
            assert result.status == "crashed"


class TestRetries:
    def test_deterministic_failures_retry_and_settle(self, tmp_path):
        """A crash is retryable; a deterministic crash consumes attempts."""
        runner = SweepRunner(workers=1, retries=2, resume=True,
                             cache=ResultCache(str(tmp_path)))
        result = runner.run([canary("crash")])[0]
        assert result.status == "crashed"
        assert result.attempts == 3  # 1 + 2 retries
        entry = runner.journal.replay()[result.spec_hash]
        assert entry.status == "crashed"

    def test_deadlock_is_not_retried(self):
        runner = SweepRunner(workers=1, retries=3)
        result = runner.run([canary("deadlock")])[0]
        assert result.status == "deadlock"
        assert result.attempts == 1

    def test_ok_spec_uses_one_attempt(self):
        runner = SweepRunner(workers=1, retries=3)
        result = runner.run([canary("ok")])[0]
        assert result.status == "ok"
        assert result.attempts == 1


class TestByteIdentityUnderSupervision:
    @pytest.mark.parametrize("knobs, mode", [
        ({"workers": 2}, "process"),
        ({"workers": 2, "retries": 1}, "process"),
        ({"workers": 1}, "serial"),
        ({"workers": 1, "retries": 1}, "serial"),
        ({"workers": 1, "timeout": 60.0}, "process"),
        ({"workers": 2, "timeout": 60.0, "mode": "serial"}, "serial"),
    ], ids=["default", "retries", "one-worker", "one-worker-retries",
            "one-worker-timeout", "serial-timeout"])
    def test_where_attempts_run(self, knobs, mode):
        """Inline unless a worker is needed (timeout) or useful (>1)."""
        serial = SweepRunner(mode="serial").run(SPECS)
        with SweepRunner(**knobs) as runner:
            report = runner.run(SPECS)
        assert report.mode == mode
        assert _pickles(report) == _pickles(serial)
        assert report.wallclocks() == serial.wallclocks()

    def test_robustness_off_matches_serial_byte_for_byte(self):
        """Supervision off => byte-identical to the historical runner."""
        serial = SweepRunner(mode="serial").run(SPECS)
        default = SweepRunner(workers=2, mode="auto").run(SPECS)
        assert default.mode in ("process", "serial")
        assert _pickles(default) == _pickles(serial)

    def test_supervised_ok_sweep_matches_serial_byte_for_byte(self):
        """Child-process containment must not perturb the results."""
        serial = SweepRunner(mode="serial").run(SPECS)
        supervised = SweepRunner(workers=2, timeout=60.0).run(SPECS)
        assert supervised.mode == "process"
        assert _pickles(supervised) == _pickles(serial)
        assert supervised.wallclocks() == serial.wallclocks()

    def test_supervised_serial_mode(self):
        serial = SweepRunner(mode="serial").run(SPECS)
        sup = SweepRunner(mode="serial", retries=1).run(SPECS)
        assert sup.mode == "serial"
        assert _pickles(sup) == _pickles(serial)


class TestWorkerDeathContainment:
    @staticmethod
    def _sabotage_first_attempt(monkeypatch, marker):
        """Kill the warm worker running the victim spec, once: the
        marker file records that the death already happened."""
        import repro.sweep.runner as runner_mod

        parent = os.getpid()
        real = runner_mod.execute_spec_json
        victim_seed = SPECS[1].seed

        def sabotaged(spec_json, want_xml, liveness=None, fleet=None):
            spec = JobSpec.from_json(spec_json)
            if (
                os.getpid() != parent
                and spec.seed == victim_seed
                and not os.path.exists(marker)
            ):
                open(marker, "w").close()
                os._exit(137)  # hard death: no exception, no cleanup
            return real(spec_json, want_xml, liveness, fleet)

        # forked warm workers inherit the patched module and look the
        # function up per item, so they run the sabotaged version.
        monkeypatch.setattr(runner_mod, "execute_spec_json", sabotaged)

    def test_mid_sweep_worker_death_falls_back_byte_identically(
        self, monkeypatch, tmp_path
    ):
        """A worker dying mid-sweep must not change the sweep's results:
        the dead worker is replaced and the retry reproduces the bytes."""
        self._sabotage_first_attempt(monkeypatch, str(tmp_path / "died"))
        serial = SweepRunner(mode="serial").run(SPECS)
        with SweepRunner(workers=2, mode="auto", retries=1) as runner:
            fallen = runner.run(SPECS)
        assert (tmp_path / "died").exists()
        assert fallen.mode == "process"
        assert [r.attempts for r in fallen] == [1, 2, 1]
        assert _pickles(fallen) == _pickles(serial)
        assert fallen.wallclocks() == serial.wallclocks()

    def test_worker_death_without_retries_is_a_crashed_status(
        self, monkeypatch, tmp_path
    ):
        self._sabotage_first_attempt(monkeypatch, str(tmp_path / "died"))
        serial = SweepRunner(mode="serial").run(SPECS)
        with SweepRunner(workers=2, mode="auto") as runner:
            fallen = runner.run(SPECS)
        assert [r.status for r in fallen] == ["ok", "crashed", "ok"]
        assert fallen[1].error == str(WorkerCrashed(fallen[1].spec_hash, 137))
        pickles = _pickles(fallen)
        assert pickles[0] == _pickles(serial)[0]
        assert pickles[2] == _pickles(serial)[2]

    def test_pool_construction_failure_falls_back(self, monkeypatch):
        """The warm pool itself failing to build degrades cleanly."""
        import repro.sweep.runner as runner_mod

        def no_pool(*a, **kw):
            raise OSError("fork refused")

        monkeypatch.setattr(runner_mod, "WarmWorkerPool", no_pool)
        serial = SweepRunner(mode="serial").run(SPECS)
        fallen = SweepRunner(workers=2, mode="auto").run(SPECS)
        assert fallen.mode == "serial"
        assert _pickles(fallen) == _pickles(serial)


class TestSupervisionValidation:
    def test_bad_knobs_are_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            SweepRunner(timeout=0.0)
        with pytest.raises(ValueError, match="retries"):
            SweepRunner(retries=-1)
        with pytest.raises(ValueError, match="quarantine_after"):
            SweepRunner(quarantine_after=0)

    def test_resume_without_cache_or_journal_is_rejected(self):
        with pytest.raises(ValueError, match="resume"):
            SweepRunner(resume=True)

    def test_resume_with_cache_gets_the_cache_journal(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(cache=cache, resume=True)
        assert runner.journal is not None
        assert runner.journal.path == os.path.join(cache.root,
                                                   "journal.jsonl")

    def test_inactive_liveness_does_not_trigger_supervision(self):
        runner = SweepRunner(liveness=LivenessLimits())
        assert runner.liveness is None


#: subprocess body for the SIGINT teardown test: a supervised sweep
#: over one ok spec and one wall-clock hang, with a side thread that
#: publishes the warm workers' pids as soon as the pool stands up.
_INTERRUPT_SCRIPT = """
import json, sys, threading, time
from repro import JobSpec, ResultCache, SweepRunner

tmp = sys.argv[1]
runner = SweepRunner(
    workers=2, cache=ResultCache(tmp + "/cache"), timeout=300.0,
    resume=True, quarantine_after=100,
)

def dump_pids():
    while True:
        pool = runner._pool
        if pool is not None and len(pool.workers) >= 2:
            pids = [w.proc.pid for w in pool.workers]
            with open(tmp + "/pids.json", "w") as fh:
                json.dump(pids, fh)
            return
        time.sleep(0.02)

threading.Thread(target=dump_pids, daemon=True).start()
specs = [
    JobSpec(app="canary", ntasks=2, seed=1,
            app_params={"mode": "ok", "work": 1e-3}),
    JobSpec(app="canary", ntasks=2, seed=2,
            app_params={"mode": "hang", "work": 1e-3}),
]
runner.run(specs)
print("UNREACHABLE: the sweep was supposed to be interrupted")
"""


class TestWarmPoolLifecycle:
    """Persistent workers: reuse across runs, teardown on interrupt."""

    def test_pool_persists_across_runs_and_close_stops_it(self):
        runner = SweepRunner(workers=2, timeout=10.0)
        runner.run([canary("ok", seed=1), canary("ok", seed=2)])
        pool = runner._pool
        assert pool is not None and len(pool.workers) == 2
        first_pids = sorted(w.proc.pid for w in pool.workers)
        workers = list(pool.workers)
        assert all(w.proc.is_alive() for w in workers)

        # a second sweep through the same runner reuses the warm
        # children instead of paying start-up again.
        runner.run([canary("ok", seed=3), canary("ok", seed=4)])
        assert runner._pool is pool
        assert sorted(w.proc.pid for w in pool.workers) == first_pids

        runner.close()
        for w in workers:
            w.proc.join(5.0)
            assert not w.proc.is_alive()

    def test_runner_is_a_context_manager(self):
        with SweepRunner(workers=2, timeout=10.0) as runner:
            runner.run([canary("ok", seed=1), canary("ok", seed=2)])
            workers = list(runner._pool.workers)
        for w in workers:
            w.proc.join(5.0)
            assert not w.proc.is_alive()

    def test_sigint_kills_warm_workers_and_journal_stays_resumable(
        self, tmp_path
    ):
        """The PR-5 kill-and-resume contract, extended to the warm pool.

        SIGINT mid-sweep must (a) terminate the sweep, (b) leave no
        warm worker running, and (c) leave the journal in a state a
        ``resume`` run picks up from: the finished spec replays from
        cache, only the interrupted one re-runs.
        """
        import json
        import signal
        import subprocess
        import sys
        import time

        script = tmp_path / "interrupted_sweep.py"
        script.write_text(_INTERRUPT_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        pids_path = tmp_path / "pids.json"
        journal_path = tmp_path / "cache" / "journal.jsonl"
        try:
            # wait until the pool is up AND the ok spec finished (its
            # journal entry closed) — then interrupt mid-hang.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if pids_path.exists() and journal_path.exists():
                    events = [
                        json.loads(line)["event"]
                        for line in journal_path.read_text().splitlines()
                        if line.strip()
                    ]
                    if "ok" in events:
                        break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert proc.poll() is None, (
                "sweep subprocess died before the interrupt: "
                f"{proc.communicate()[1].decode()}"
            )
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.communicate()
        assert proc.returncode != 0
        assert b"UNREACHABLE" not in out

        # (b) every warm worker is gone — no orphans grinding on.
        worker_pids = json.loads(pids_path.read_text())
        assert len(worker_pids) == 2
        deadline = time.monotonic() + 10.0
        alive = list(worker_pids)
        while alive and time.monotonic() < deadline:
            for pid in list(alive):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    alive.remove(pid)
            time.sleep(0.05)
        assert not alive, f"warm workers survived SIGINT: {alive}"

        # (c) the journal replays: ok spec from cache, hang re-runs
        # (and now times out quickly instead of hanging forever).
        specs = [
            canary("ok", seed=1),
            canary("hang", seed=2),
        ]
        with SweepRunner(
            workers=2, cache=ResultCache(str(tmp_path / "cache")),
            timeout=2.0, resume=True, quarantine_after=100,
        ) as resumed:
            report = resumed.run(specs)
        assert report.executed == 1
        assert [r.from_cache for r in report] == [True, False]
        assert [r.status for r in report] == ["ok", "timeout"]
