"""Streaming rollups: windows, bucket rings, downsampling, name caps."""

import pytest

from repro.fleet.rollup import (
    MetricRollup,
    RollupRing,
    RollupSet,
    SampleWindowFolder,
    StatWindow,
)


class TestStatWindow:
    def test_empty_window_is_all_zero(self):
        w = StatWindow()
        assert w.as_dict() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "avg": 0.0, "last": 0.0,
        }

    def test_observe_tracks_min_max_avg_last(self):
        w = StatWindow()
        for i, v in enumerate([3.0, 1.0, 2.0]):
            w.observe(v, t=float(i))
        d = w.as_dict()
        assert d["count"] == 3
        assert d["min"] == 1.0
        assert d["max"] == 3.0
        assert d["avg"] == pytest.approx(2.0)
        assert d["last"] == 2.0

    def test_negative_values_do_not_clamp_to_zero(self):
        w = StatWindow()
        w.observe(-5.0)
        assert w.min == -5.0 and w.max == -5.0

    def test_merge_combines_and_keeps_latest_last(self):
        a, b = StatWindow(), StatWindow()
        a.observe(1.0, t=1.0)
        b.observe(9.0, t=5.0)
        b.observe(3.0, t=6.0)
        a.merge(b)
        assert a.count == 3
        assert a.min == 1.0 and a.max == 9.0
        assert a.last == 3.0  # b's last_t is newer

    def test_merge_with_empty_is_identity(self):
        a = StatWindow()
        a.observe(2.0, t=1.0)
        before = a.as_dict()
        a.merge(StatWindow())
        assert a.as_dict() == before


class TestRollupRing:
    def test_points_land_in_resolution_buckets(self):
        ring = RollupRing(resolution=1.0, capacity=8)
        ring.observe(0.2, 1.0)
        ring.observe(0.9, 3.0)
        ring.observe(1.1, 5.0)
        buckets = ring.buckets()
        assert [t for t, _ in buckets] == [0.0, 1.0]
        assert buckets[0][1].count == 2
        assert buckets[0][1].max == 3.0

    def test_capacity_evicts_oldest_bucket(self):
        ring = RollupRing(resolution=1.0, capacity=3)
        for t in range(5):
            ring.observe(float(t), 1.0)
        assert [t for t, _ in ring.buckets()] == [2.0, 3.0, 4.0]

    def test_late_point_past_oldest_bucket_is_counted_dropped(self):
        ring = RollupRing(resolution=1.0, capacity=2)
        for t in (0.0, 1.0, 2.0):
            ring.observe(t, 1.0)
        assert not ring.observe(0.5, 1.0)  # bucket 0 already evicted
        assert ring.dropped_late == 1

    def test_out_of_order_within_retention_updates_in_place(self):
        ring = RollupRing(resolution=1.0, capacity=8)
        ring.observe(0.1, 1.0)
        ring.observe(2.0, 1.0)
        assert ring.observe(0.5, 7.0)  # bucket 0 still retained
        assert ring.buckets()[0][1].max == 7.0

    def test_series_downsamples_on_read_only(self):
        ring = RollupRing(resolution=1.0, capacity=16)
        for t in range(4):
            ring.observe(float(t), float(t))
        coarse = ring.series(resolution=2.0)
        assert [b["t"] for b in coarse] == [0.0, 2.0]
        assert coarse[0]["count"] == 2 and coarse[0]["max"] == 1.0
        assert len(ring) == 4  # retention untouched

    def test_series_finer_than_native_returns_native(self):
        ring = RollupRing(resolution=1.0, capacity=8)
        ring.observe(0.0, 1.0)
        assert ring.series(0.25) == ring.series()

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            RollupRing(resolution=0)
        with pytest.raises(ValueError):
            RollupRing(capacity=0)
        with pytest.raises(ValueError):
            RollupRing().series(-1.0)


class TestRollupSet:
    def test_snapshot_has_stats_and_series_per_metric(self):
        rs = RollupSet(resolution=1.0)
        rs.observe("a", 0.5, 2.0)
        rs.observe("a", 1.5, 4.0)
        snap = rs.snapshot()
        assert snap["a"]["stats"]["count"] == 2
        assert len(snap["a"]["series"]) == 2

    def test_metric_name_cap_is_counted_never_silent(self):
        rs = RollupSet(max_metrics=2)
        assert rs.observe("a", 0.0, 1.0)
        assert rs.observe("b", 0.0, 1.0)
        assert not rs.observe("c", 0.0, 1.0)
        assert rs.dropped_names == 1
        assert rs.names() == ["a", "b"]
        # existing names keep folding after the cap trips
        assert rs.observe("a", 1.0, 2.0)

    def test_metric_rollup_snapshot_passes_resolution_through(self):
        m = MetricRollup(resolution=1.0, capacity=8)
        for t in range(4):
            m.observe(float(t), 1.0)
        assert len(m.snapshot(2.0)["series"]) == 2


class TestStatWindowMergeAdopt:
    def test_merge_into_empty_adopts_last_even_at_negative_time(self):
        # regression: the old guard `other.last_t >= self.last_t` made
        # an empty window (last_t == 0.0) ignore merges whose newest
        # sample predated the epoch.
        a, b = StatWindow(), StatWindow()
        b.observe(5.0, t=-1.0)
        a.merge(b)
        assert a.last == 5.0 and a.last_t == -1.0
        assert a.count == 1 and a.min == 5.0 and a.max == 5.0

    def test_merge_empty_other_is_a_no_op(self):
        a = StatWindow()
        a.observe(2.0, t=1.0)
        a.merge(StatWindow())
        assert a.as_dict()["count"] == 1 and a.last == 2.0

    def test_state_roundtrip(self):
        w = StatWindow()
        w.observe(3.0, t=1.0)
        w.observe(-1.0, t=2.0)
        again = StatWindow.from_state(w.as_state())
        assert again is not None
        assert again.as_state() == w.as_state()

    def test_from_state_rejects_malformed(self):
        assert StatWindow.from_state({"count": -1}) is None
        assert StatWindow.from_state({"count": "x"}) is None
        assert StatWindow.from_state("nope") is None
        # json.loads turns Infinity into a float int() cannot convert
        state = StatWindow().as_state()
        state["count"] = float("inf")
        assert StatWindow.from_state(state) is None


class TestRollupRingEvictionOrder:
    def test_eviction_is_oldest_by_time_not_insertion_order(self):
        # regression: eviction used dict insertion order.  An
        # out-of-order bucket created *between* retained ones sat at
        # the insertion tail, so at capacity the ring evicted a newer
        # bucket instead — and the late-drop check (min of retained)
        # then let the evicted newer bucket be silently re-created,
        # losing its samples.
        ring = RollupRing(resolution=1.0, capacity=3)
        for t in (0.0, 5.0, 3.0):  # insertion order 0, 5, 3
            ring.observe(t, 1.0)
        ring.observe(7.0, 1.0)  # evicts 0 (oldest either way)
        ring.observe(8.0, 1.0)  # insertion-order eviction took 5 here
        kept = [t for t, _ in ring.buckets()]
        assert kept == [5.0, 7.0, 8.0]  # bucket 3 went, not bucket 5

    def test_late_drop_tracks_evicted_minimum(self):
        ring = RollupRing(resolution=1.0, capacity=3)
        for t in (0.0, 5.0, 3.0, 7.0, 8.0):
            ring.observe(t, 1.0)
        assert not ring.observe(3.5, 1.0)  # below the surviving window
        assert ring.dropped_late == 1
        assert ring.observe(5.5, 1.0)  # oldest retained bucket still live
        assert ring.buckets()[0][1].count == 2  # folded in, not re-created

    def test_spill_receives_evicted_bucket(self):
        spilled = []
        ring = RollupRing(
            resolution=1.0, capacity=2,
            spill=lambda t0, w: spilled.append((t0, w.count)),
        )
        ring.observe(0.0, 1.0)
        ring.observe(0.5, 2.0)
        ring.observe(1.0, 1.0)
        ring.observe(2.0, 1.0)
        assert spilled == [(0.0, 2)]

    def test_absorb_merges_whole_window_into_bucket(self):
        ring = RollupRing(resolution=1.0, capacity=4)
        w = StatWindow()
        w.observe(1.0, t=0.1)
        w.observe(3.0, t=0.2)
        assert ring.absorb(0.4, w)
        t0, bucket = ring.buckets()[0]
        assert t0 == 0.0 and bucket.count == 2 and bucket.max == 3.0

    def test_absorb_empty_window_is_accepted_without_a_bucket(self):
        ring = RollupRing(resolution=1.0, capacity=4)
        assert ring.absorb(0.0, StatWindow())
        assert len(ring) == 0


class TestRetentionTiers:
    def test_evicted_buckets_downsample_into_coarser_tier(self):
        m = MetricRollup(resolution=1.0, capacity=4, tiers=((10, 8),))
        for t in range(8):
            m.observe(float(t), float(t))
        # buckets 0..3 were evicted from the fine ring into the 10x tier
        fine = {b["t"] for b in m.ring.series()}
        assert fine == {4.0, 5.0, 6.0, 7.0}
        coarse = m.tiers[1].series()
        assert len(coarse) == 1
        assert coarse[0]["t"] == 0.0 and coarse[0]["count"] == 4

    def test_series_stitches_tiers_without_double_counting(self):
        m = MetricRollup(resolution=1.0, capacity=4, tiers=((10, 8),))
        for t in range(8):
            m.observe(float(t), 1.0)
        series = m.series(resolution=10.0)
        assert sum(b["count"] for b in series) == 8

    def test_default_series_covers_both_tiers_at_native_resolution(self):
        m = MetricRollup(resolution=1.0, capacity=4, tiers=((10, 8),))
        for t in range(8):
            m.observe(float(t), 1.0)
        series = m.series()
        assert sum(b["count"] for b in series) == 8
        assert series[0]["t"] == 0.0 and series[-1]["t"] == 7.0

    def test_snapshot_reports_tier_depths(self):
        m = MetricRollup(resolution=1.0, capacity=4, tiers=((10, 8), (100, 8)))
        for t in range(8):
            m.observe(float(t), 1.0)
        tiers = m.snapshot()["tiers"]
        assert [t["resolution"] for t in tiers] == [1.0, 10.0, 100.0]
        assert tiers[1]["buckets"] == 1

    def test_single_tier_snapshot_has_no_tiers_key(self):
        m = MetricRollup(resolution=1.0, capacity=4)
        m.observe(0.0, 1.0)
        assert "tiers" not in m.snapshot()

    def test_bad_tier_factor_raises(self):
        with pytest.raises(ValueError):
            MetricRollup(resolution=1.0, capacity=8, tiers=((1, 8),))

    def test_rollup_set_absorb_folds_into_named_metric(self):
        rs = RollupSet(resolution=1.0)
        w = StatWindow()
        w.observe(2.0, t=0.5)
        assert rs.absorb("gpu_busy", 0.5, w)
        assert rs.snapshot()["gpu_busy"]["stats"]["count"] == 1


def _sample(t, value, job="j", **labels):
    return {"kind": "sample", "job": job, "t": t,
            "points": [{"name": "m", "labels": labels, "value": value}]}


class TestSampleWindowFolder:
    def test_windows_land_on_their_bucket_midpoint(self):
        folder = SampleWindowFolder(0.05)
        # 0.85 // 0.05 == 16.0: a boundary time sits in the bucket below
        for t, value in ((0.85, 1.0), (0.84, 3.0), (0.9, 5.0)):
            assert folder.fold(_sample(t, value))
        out = folder.drain()
        assert [r["t"] // 0.05 for r in out] == [16.0, 17.0]
        assert [r["samples"] for r in out] == [2, 1]
        assert out[0]["points"][0]["agg"]["sum"] == 4.0
        assert not folder.drain() and len(folder) == 0

    def test_factor_groups_the_native_bucket_index(self):
        folder = SampleWindowFolder(0.05, factor=10)
        # 0.5 // 0.05 == 9.0: native bucket 9 belongs to window 0
        for t in (0.5, 0.525, 0.99):
            folder.fold(_sample(t, 1.0))
        assert [(r["t"], r["samples"]) for r in folder.drain()] == [
            (0.25, 1), (0.75, 2)
        ]

    def test_aggregates_merge_and_labels_stay_distinct(self):
        folder = SampleWindowFolder(1.0)
        folder.fold(_sample(0.1, 2.0, gpu="0"))
        folder.fold(_sample(0.2, 4.0, gpu="1"))
        (first,) = folder.drain()
        assert [p["labels"] for p in first["points"]] == [
            {"gpu": "0"}, {"gpu": "1"}
        ]
        folder.fold(first)
        folder.fold(_sample(0.3, 6.0, gpu="0"))
        (merged,) = folder.drain()
        assert merged["samples"] == 3
        assert merged["points"][0]["agg"]["count"] == 2
        assert merged["points"][0]["agg"]["last"] == 6.0

    @pytest.mark.parametrize("value", [10 ** 400, "NaNope"],
                             ids=["huge-int", "non-numeric"])
    def test_unfloatable_point_value_is_skipped_not_raised(self, value):
        folder = SampleWindowFolder(0.05)
        record = _sample(0.0, value)
        record["points"].append({"name": "ok", "labels": {}, "value": 2.0})
        assert folder.fold(record)
        (out,) = folder.drain()
        assert out["samples"] == 1
        assert [p["name"] for p in out["points"]] == ["ok"]

    @pytest.mark.parametrize("record", [
        {"kind": "job_start", "job": "j"},
        {"kind": "sample", "job": "", "t": 0.0, "points": []},
        {"kind": "sample", "job": "j", "t": 0.0, "points": "nope"},
        {"kind": "sample", "job": "j", "t": float("nan"), "points": []},
        {"kind": "sample_agg", "job": "j", "t": 0.0,
         "samples": float("inf"), "points": []},
    ], ids=["lifecycle", "no-job", "no-points", "nan-t", "inf-samples"])
    def test_refuses_what_the_store_refuses(self, record):
        folder = SampleWindowFolder(0.05)
        assert not folder.fold(record)
        assert not folder.drain()

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            SampleWindowFolder(0.0)
        with pytest.raises(ValueError):
            SampleWindowFolder(0.05, factor=0)
