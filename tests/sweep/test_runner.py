"""SweepRunner execution modes: parallel == serial == cached, always."""

import pytest

from repro import (
    IpmConfig,
    JobSpec,
    ResultCache,
    SweepReport,
    SweepRunner,
)

#: three cheap monitored jobs differing only in seed.
SPECS = [
    JobSpec(app="square", ntasks=1, command="./square", ipm=IpmConfig(),
            seed=s)
    for s in (1, 2, 3)
]


def _pickles(report):
    return [r.report_pickle for r in report]


class TestByteIdentity:
    def test_parallel_equals_serial_byte_for_byte(self):
        serial = SweepRunner(mode="serial").run(SPECS)
        par = SweepRunner(workers=2, mode="auto").run(SPECS)
        assert all(p for p in _pickles(serial))
        assert _pickles(par) == _pickles(serial)
        assert par.wallclocks() == serial.wallclocks()
        assert [r.events_executed for r in par] == \
               [r.events_executed for r in serial]

    def test_cached_replay_equals_the_fresh_run(self, tmp_path):
        fresh = SweepRunner(mode="serial").run(SPECS)
        runner = SweepRunner(mode="serial",
                             cache=ResultCache(str(tmp_path)))
        cold = runner.run(SPECS)
        warm = runner.run(SPECS)
        assert _pickles(cold) == _pickles(fresh)
        assert _pickles(warm) == _pickles(fresh)
        assert warm.cache_hits == len(SPECS)
        assert warm.executed == 0


class TestRunSemantics:
    def test_results_in_submission_order(self):
        report = SweepRunner(mode="serial").run(SPECS)
        assert [r.spec for r in report] == SPECS

    def test_duplicate_specs_simulate_once_and_fan_out(self):
        report = SweepRunner(mode="serial").run([SPECS[0]] * 3)
        assert len(report) == 3
        assert report.executed == 1
        assert len({r.report_pickle for r in report}) == 1

    def test_serial_fallback_when_the_pool_dies(self, monkeypatch):
        from repro.sweep.warmpool import WarmWorkerPool, WorkerPoolBroken

        def dead(self):
            raise WorkerPoolBroken("worker pool is closed")

        monkeypatch.setattr(WarmWorkerPool, "checkout", dead)
        serial = SweepRunner(mode="serial").run(SPECS)
        with SweepRunner(workers=2, mode="auto") as runner:
            fallen = runner.run(SPECS)
        assert fallen.mode == "serial"
        assert _pickles(fallen) == _pickles(serial)

    def test_mode_process_propagates_pool_failures(self, monkeypatch):
        import repro.sweep.runner as runner_mod

        monkeypatch.setattr(
            runner_mod, "WarmWorkerPool",
            lambda *a, **kw: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            SweepRunner(workers=2, mode="process").run(SPECS)

    def test_single_spec_runs_serially(self):
        report = SweepRunner(workers=4, mode="auto").run(SPECS[:1])
        assert report.mode == "serial"
        assert len(report) == 1

    def test_unmonitored_specs_have_no_report(self):
        spec = JobSpec(app="square", ntasks=1)
        report = SweepRunner(mode="serial").run([spec])
        assert report[0].report is None
        assert report[0].report_pickle == b""
        assert report.reports() == []
        assert report[0].wallclock > 0


def canary(mode, seed):
    return JobSpec(app="canary", ntasks=2, seed=seed,
                   app_params={"mode": mode, "work": 1e-3})


class TestFailuresAreStatuses:
    @pytest.mark.parametrize("knobs", [
        {"mode": "serial"}, {"workers": 2, "mode": "auto"},
    ], ids=["serial", "auto-2-workers"])
    def test_default_knob_sweep_reports_statuses(self, knobs):
        """A failing spec never raises out of run(), supervised or not."""
        specs = [canary("ok", 1), canary("crash", 2),
                 canary("deadlock", 3)]
        with SweepRunner(**knobs) as runner:
            report = runner.run(specs)
        assert [r.status for r in report] == ["ok", "crashed", "deadlock"]
        assert report[0].wallclock > 0
        assert "canary: planned crash" in report[1].error
        assert report.mode == ("serial" if knobs["mode"] == "serial"
                               else "process")


class TestValidation:
    def test_non_jobspec_items_are_rejected(self):
        with pytest.raises(TypeError, match="specs\\[0\\]"):
            SweepRunner(mode="serial").run([{"app": "square", "ntasks": 1}])

    def test_callable_specs_are_rejected(self):
        spec = JobSpec(app=lambda env: None, ntasks=1)
        with pytest.raises(TypeError, match="raw callable"):
            SweepRunner(mode="serial").run([spec])

    def test_bad_mode_and_workers(self):
        with pytest.raises(ValueError, match="mode"):
            SweepRunner(mode="turbo")
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(workers=0)


class TestSweepReportAggregation:
    def test_container_protocol_and_summary(self):
        report = SweepRunner(mode="serial").run(SPECS)
        assert isinstance(report, SweepReport)
        assert len(report) == 3
        assert report[1].spec == SPECS[1]
        summary = report.summary()
        assert summary["jobs"] == 3
        assert summary["executed"] == 3
        assert [r["seed"] for r in summary["results"]] == [1, 2, 3]
        assert all(r["monitored"] for r in summary["results"])

    def test_scaling_points_feed_the_analysis_tools(self):
        from repro.analysis import format_scaling, scaling_series

        specs = [
            JobSpec(app="square", ntasks=n, ipm=IpmConfig(), seed=1)
            for n in (2, 1)
        ]
        report = SweepRunner(mode="serial").run(specs)
        points = scaling_series(report)
        assert [p.nprocs for p in points] == [1, 2]  # sorted by ranks
        assert all(p.breakdown for p in points)
        text = format_scaling(points)
        assert "wall" in text
