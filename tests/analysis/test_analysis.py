"""Tests for the analysis helpers."""

import pytest

from repro.analysis import (
    Comparison,
    EnsembleStats,
    ScalingPoint,
    ascii_histogram,
    compare_ensembles,
    format_comparisons,
    format_scaling,
    format_table,
    scaling_speedups,
)


class TestTables:
    def test_alignment_and_floats(self):
        out = format_table(["name", "v"], [["a", 1.5], ["bbbb", 2.25]],
                           floatfmt=".2f")
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in out and "2.25" in out
        assert len({len(l) for l in lines[:2]}) >= 1

    def test_title(self):
        out = format_table(["x"], [[1]], title="Table I")
        assert out.startswith("Table I\n")

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out


class TestEnsemble:
    def test_stats(self):
        s = EnsembleStats.of([1.0, 2.0, 3.0])
        assert s.n == 3 and s.mean == 2.0
        assert s.vmin == 1.0 and s.vmax == 3.0
        assert s.std == pytest.approx(1.0)

    def test_single_value_std_zero(self):
        assert EnsembleStats.of([5.0]).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EnsembleStats.of([])

    def test_dilatation(self):
        cmp = compare_ensembles([101.0, 103.0], [100.0, 102.0])
        assert cmp.dilatation == pytest.approx(1.0 / 101.0)
        assert cmp.with_ipm.mean == 102.0 and cmp.without_ipm.mean == 101.0

    def test_histogram_renders(self):
        out = ascii_histogram([1, 1, 2, 2, 2, 3], bins=3, label="runs")
        assert out.startswith("runs")
        assert out.count("|") == 3
        assert "#" in out

    def test_histogram_shared_range(self):
        a = ascii_histogram([1.0, 2.0], bins=2, lo=0.0, hi=4.0)
        assert "0.000" in a and "4.000" in a


class TestScaling:
    def test_format(self):
        pts = [
            ScalingPoint(64, 500.0, {"MPI": 20.0}),
            ScalingPoint(32, 1000.0, {"MPI": 10.0}),
        ]
        out = format_scaling(pts, ["MPI"])
        lines = out.splitlines()
        assert lines[2].split()[0] == "32"  # sorted by procs
        assert "MPI[s/rank]" in lines[0]

    def test_speedup(self):
        pts = [ScalingPoint(32, 1000.0), ScalingPoint(128, 250.0)]
        s = scaling_speedups(pts)
        assert s[32] == 1.0 and s[128] == 4.0


class TestCompare:
    def test_rel_error_and_ok(self):
        c = Comparison("Fig8", "dilatation", paper=0.21, measured=0.25,
                       unit="%", rel_tol=0.5)
        assert c.rel_error == pytest.approx(0.1905, abs=1e-3)
        assert c.ok is True
        c2 = Comparison("x", "y", paper=1.0, measured=3.0, rel_tol=0.5)
        assert c2.ok is False

    def test_no_tol_is_informational(self):
        assert Comparison("x", "y", 1.0, 1.0).ok is None

    def test_zero_paper_value(self):
        assert Comparison("x", "y", 0.0, 0.0).rel_error == 0.0
        assert Comparison("x", "y", 0.0, 1.0).rel_error == float("inf")

    def test_format(self):
        out = format_comparisons(
            [Comparison("Table I", "scan diff", 1.22, 1.05, "%", 0.5)],
            title="cmp",
        )
        assert out.startswith("cmp")
        assert "OK" in out
