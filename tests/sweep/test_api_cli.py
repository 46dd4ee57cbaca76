"""The stable facade, the one `run_job(spec)` signature, and `python -m repro`."""

import json
import pickle
from dataclasses import replace

import pytest

import repro
from repro import IpmConfig, JobSpec, run_job
from repro.__main__ import (
    EXIT_BAD_INPUT,
    EXIT_EMPTY,
    EXIT_OK,
    EXIT_SPEC_FAILURES,
    main,
)


class TestFacade:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_the_issue_mandated_exports(self):
        for name in ("JobSpec", "run_job", "SweepRunner", "IpmConfig",
                     "TelemetryConfig", "FaultPlan", "JobReport"):
            assert name in repro.__all__

    def test_facade_classes_are_the_canonical_ones(self):
        from repro.cluster.jobs import run_job as deep_run_job
        from repro.sweep.spec import JobSpec as deep_spec

        assert repro.run_job is deep_run_job
        assert repro.JobSpec is deep_spec

    def test_version_is_bumped_for_the_analysis_api(self):
        assert repro.__version__ == "0.5.0"

    def test_analysis_exports_are_on_the_facade(self):
        import repro.analysis as analysis

        for name in ("Finding", "Diagnosis", "SweepDiagnosis", "SpecDelta",
                     "SweepDiff", "analyze_job", "analyze_sweep",
                     "diff_sweeps"):
            assert name in repro.__all__
            assert getattr(repro, name) is getattr(analysis, name)

    def test_analysis_surface_is_pinned(self):
        import repro.analysis as analysis

        assert set(analysis.__all__) >= {
            "ANALYSIS_SCHEMA", "Finding", "Diagnosis", "SweepDiagnosis",
            "SpecDelta", "SweepDiff", "analyze_job", "analyze_sweep",
            "detect_stragglers", "classify", "diff_sweeps", "gate_metrics",
            "to_document", "from_document", "compare_ensembles",
            "scaling_series", "scaling_speedups",
        }
        for name in analysis.__all__:
            assert getattr(analysis, name) is not None


class TestDeprecatedShim:
    """The pre-JobSpec signature is gone: stale callers fail loudly."""

    def test_legacy_kwargs_warn_and_match_the_spec_path(self):
        """A raw ``app(env)`` callable is the in-process form of a
        registry name: the same job, the same report bytes."""
        spec = JobSpec(app="square", ntasks=1, command="./square",
                       ipm=IpmConfig(), seed=9)
        by_name = run_job(spec)
        raw = run_job(replace(spec, app=spec.build_app()))
        assert pickle.dumps(raw.report, protocol=4) == \
               pickle.dumps(by_name.report, protocol=4)
        assert raw.wallclock == by_name.wallclock

    def test_spec_call_does_not_warn(self, recwarn):
        run_job(JobSpec(app="square", ntasks=1))
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]

    def test_spec_plus_legacy_kwargs_is_an_error(self):
        spec = JobSpec(app="square", ntasks=1)
        with pytest.raises(TypeError, match="seed"):
            run_job(spec, seed=3)
        with pytest.raises(TypeError, match="positional"):
            run_job(spec, 2)
        # the old run_job(app, ntasks) form fails Python's arity check
        with pytest.raises(TypeError, match="positional"):
            run_job(spec.build_app(), 2)

    def test_legacy_call_without_ntasks_is_an_error(self):
        with pytest.raises(TypeError, match="JobSpec"):
            run_job(lambda env: None)
        with pytest.raises(TypeError, match="JobSpec"):
            run_job("square")


def _write_specs(tmp_path, specs):
    path = tmp_path / "specs.json"
    path.write_text(json.dumps([s.to_jsonable() for s in specs]))
    return str(path)


class TestCliSweep:
    SPECS = [JobSpec(app="square", ntasks=1, ipm=IpmConfig(), seed=s)
             for s in (1, 2)]

    def test_ok_run_prints_rows_and_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = main(["sweep", _write_specs(tmp_path, self.SPECS),
                     "--mode", "serial", "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "2 jobs: 2 simulated" in printed
        summary = json.loads(out.read_text())
        assert summary["jobs"] == 2
        assert [r["seed"] for r in summary["results"]] == [1, 2]

    def test_cache_hits_on_second_pass(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, self.SPECS)
        cache = str(tmp_path / "cache")
        assert main(["sweep", specs, "--mode", "serial",
                     "--cache", cache]) == EXIT_OK
        assert main(["sweep", specs, "--mode", "serial",
                     "--cache", cache]) == EXIT_OK
        assert "2 cache hits" in capsys.readouterr().out

    def test_missing_file_is_bad_input(self, tmp_path):
        assert main(["sweep", str(tmp_path / "nope.json")]) == EXIT_BAD_INPUT

    def test_malformed_json_is_bad_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", str(bad)]) == EXIT_BAD_INPUT

    def test_bad_spec_is_bad_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"app": "square"}]))  # no ntasks
        assert main(["sweep", str(bad)]) == EXIT_BAD_INPUT

    def test_empty_list_is_empty(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        assert main(["sweep", str(empty)]) == EXIT_EMPTY

    def test_specs_object_form_is_accepted(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(
            {"specs": [JobSpec(app="square", ntasks=1).to_jsonable()]}
        ))
        assert main(["sweep", str(path), "--mode", "serial"]) == EXIT_OK


class TestCliSupervisedSweep:
    def _canary(self, mode, seed=1):
        return JobSpec(app="canary", ntasks=2, seed=seed,
                       app_params={"mode": mode, "work": 1e-3})

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_BAD_INPUT, EXIT_EMPTY,
                    EXIT_SPEC_FAILURES}) == 4
        assert EXIT_SPEC_FAILURES == 4

    def test_failed_specs_exit_4_and_print_statuses(self, tmp_path, capsys):
        specs = _write_specs(
            tmp_path, [self._canary("ok"), self._canary("crash")])
        code = main(["sweep", specs, "--workers", "2",
                     "--timeout", "10", "--out",
                     str(tmp_path / "summary.json")])
        assert code == EXIT_SPEC_FAILURES
        printed = capsys.readouterr().out
        assert "[crashed]" in printed
        assert "1 failed (1 crashed)" in printed
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["errors_total"] == 1
        assert summary["statuses"] == {"ok": 1, "crashed": 1}
        assert [r["status"] for r in summary["results"]] == \
            ["ok", "crashed"]

    def test_default_flags_report_failures_as_statuses(self, tmp_path,
                                                       capsys):
        """No supervision flag: a crashing spec is a status, not a
        traceback, and the other specs' results survive."""
        specs = _write_specs(tmp_path, [
            self._canary("ok", seed=1), self._canary("crash", seed=2),
            self._canary("deadlock", seed=3),
        ])
        out = tmp_path / "summary.json"
        assert main(["sweep", specs, "--out", str(out)]) == \
            EXIT_SPEC_FAILURES
        printed = capsys.readouterr().out
        assert printed.count("[crashed]") == 1
        summary = json.loads(out.read_text())
        assert [r["status"] for r in summary["results"]] == \
            ["ok", "crashed", "deadlock"]

    def test_watchdog_flags_catch_livelock(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, [self._canary("spin")])
        code = main(["sweep", specs, "--workers", "2", "--timeout", "30",
                     "--max-events", "5000"])
        assert code == EXIT_SPEC_FAILURES
        assert "[livelock]" in capsys.readouterr().out

    def test_resume_without_cache_is_bad_input(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, [self._canary("ok")])
        assert main(["sweep", specs, "--resume"]) == EXIT_BAD_INPUT
        assert "--cache" in capsys.readouterr().err

    def test_resume_replays_ok_and_reruns_failures(self, tmp_path, capsys):
        """The kill-and-resume flow, via the CLI contract."""
        specs = _write_specs(
            tmp_path, [self._canary("ok"), self._canary("crash")])
        cache = str(tmp_path / "cache")
        base = ["sweep", specs, "--workers", "2", "--timeout", "10",
                "--cache", cache, "--resume", "--quarantine-after", "10"]
        assert main(base) == EXIT_SPEC_FAILURES
        capsys.readouterr()
        assert main(base) == EXIT_SPEC_FAILURES
        printed = capsys.readouterr().out
        # the ok spec replayed from cache; only the crasher re-ran
        assert "1 simulated" in printed
        assert "1 cache hits" in printed

    def test_quarantine_after_takes_effect(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, [self._canary("crash")])
        cache = str(tmp_path / "cache")
        base = ["sweep", specs, "--workers", "1", "--timeout", "10",
                "--cache", cache, "--resume", "--quarantine-after", "1"]
        assert main(base) == EXIT_SPEC_FAILURES
        capsys.readouterr()
        assert main(base) == EXIT_SPEC_FAILURES
        assert "[quarantined]" in capsys.readouterr().out


class TestCliReportAndAliases:
    def test_report_renders_a_saved_xml(self, tmp_path, capsys):
        from repro.core import write_xml

        res = run_job(JobSpec(app="square", ntasks=1, ipm=IpmConfig()))
        xml = tmp_path / "profile.xml"
        write_xml(res.report, str(xml))
        assert main(["report", str(xml)]) == EXIT_OK
        assert "IPM" in capsys.readouterr().out

    def test_report_on_garbage_is_bad_input(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<not-ipm/>")
        assert main(["report", str(bad)]) == EXIT_BAD_INPUT

    def test_unknown_subcommand_is_bad_input(self, capsys):
        assert main(["frobnicate"]) == EXIT_BAD_INPUT

    def test_trace2json_is_forwarded(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(["trace2json", "--app", "square", "--ntasks", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]

    def test_trace2json_module_alias_still_works(self, tmp_path):
        from repro.telemetry.trace2json import main as trace_main

        out = tmp_path / "trace.json"
        assert trace_main(["--app", "square", "--ntasks", "1",
                           "--out", str(out)]) == EXIT_OK
