"""Tests for the time-series store: windowed delta/rate/percentile
queries with counter-reset detection, pruning, the background sampler,
and the shared SLO-engine substrate.

The rate/percentile cases are hand-computed on synthetic snapshots —
including across a registry reset — per the acceptance criteria.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import (
    OBS,
    MetricsRegistry,
    TimeSeriesStore,
    configure_timeseries,
    get_timeseries,
)
from repro.obs.slo import SLOEngine, configure_slo_engine
from repro.obs.timeseries import configure_timeseries as _configure


@pytest.fixture(autouse=True)
def clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()
    # Restore the process-wide store (and the SLO engine that shares
    # it) so singleton-touching tests leave no history behind.
    configure_timeseries()
    configure_slo_engine()


def make_store(registry, capacity=None):
    return TimeSeriesStore(registry=registry, clock=lambda: 0.0,
                           capacity=capacity)


class TestCounterQueries:
    def build(self):
        """Snapshots: t=0 c=0, t=10 c=5, t=20 c=12."""
        registry = MetricsRegistry()
        store = make_store(registry)
        counter = registry.counter("requests")
        store.append(0.0, registry.to_dict())
        counter.inc(5)
        store.append(10.0, registry.to_dict())
        counter.inc(7)
        store.append(20.0, registry.to_dict())
        return registry, store

    def test_delta_is_sum_of_pair_increments(self):
        _, store = self.build()
        # (0 -> 5) + (5 -> 12) = 12
        assert store.delta("requests") == 12

    def test_rate_divides_by_covered_seconds(self):
        _, store = self.build()
        assert store.rate("requests") == pytest.approx(12 / 20.0)

    def test_window_excludes_older_increments(self):
        _, store = self.build()
        # window 9s right-edged at 20: baseline is the newest snapshot
        # at or before t=11, i.e. t=10 -> only the 5->12 increment.
        assert store.delta("requests", window_s=9, right_ts=20.0) == 7
        assert store.rate("requests", window_s=9, right_ts=20.0) == \
            pytest.approx(7 / 10.0)

    def test_delta_across_counter_reset(self):
        registry, store = self.build()
        # The registry resets (process restart / explicit reset); the
        # counter restarts from 0 and accumulates 3 by t=30.  The
        # 12 -> 3 pair must contribute 3 (the after value), not -9:
        # 5 + 7 + 3 = 15.
        registry.reset()
        registry.counter("requests").inc(3)
        store.append(30.0, registry.to_dict())
        assert store.delta("requests") == 15
        assert store.rate("requests") == pytest.approx(15 / 30.0)

    def test_labelled_series_are_queried_independently(self):
        registry = MetricsRegistry()
        store = make_store(registry)
        store.append(0.0, registry.to_dict())
        registry.counter("q", engine="a").inc(4)
        registry.counter("q", engine="b").inc(6)
        store.append(10.0, registry.to_dict())
        assert store.delta("q", labels={"engine": "a"}) == 4
        assert store.delta("q", labels={"engine": "b"}) == 6

    def test_fewer_than_two_snapshots_is_zero(self):
        registry = MetricsRegistry()
        store = make_store(registry)
        assert store.delta("requests") == 0.0
        assert store.rate("requests") == 0.0
        registry.counter("requests").inc(5)
        store.append(0.0, registry.to_dict())
        assert store.delta("requests") == 0.0

    def test_missing_family_is_zero(self):
        registry = MetricsRegistry()
        store = make_store(registry)
        registry.counter("present").inc()
        store.append(0.0, registry.to_dict())
        registry.counter("present").inc()
        store.append(10.0, registry.to_dict())
        assert store.delta("absent") == 0.0


class TestGaugeQueries:
    def test_gauge_delta_is_last_minus_first(self):
        registry = MetricsRegistry()
        store = make_store(registry)
        gauge = registry.gauge("level")
        gauge.set(5)
        store.append(0.0, registry.to_dict())
        gauge.set(9)
        store.append(10.0, registry.to_dict())
        gauge.set(2)
        store.append(20.0, registry.to_dict())
        # Levels, not increments: 2 - 5 = -3 (negative allowed).
        assert store.delta("level") == -3


class TestHistogramQueries:
    def build(self):
        """t=0 empty, t=10 observe 5, t=20 observe 50 and 60."""
        registry = MetricsRegistry()
        store = make_store(registry)
        hist = registry.histogram("lat", (1, 10, 100))
        store.append(0.0, registry.to_dict())
        hist.observe(5)
        store.append(10.0, registry.to_dict())
        hist.observe(50)
        hist.observe(60)
        store.append(20.0, registry.to_dict())
        return registry, store

    def test_delta_counts_window_observations(self):
        _, store = self.build()
        assert store.delta("lat") == 3
        assert store.delta("lat", window_s=9, right_ts=20.0) == 2

    def test_percentile_over_time_full_window(self):
        _, store = self.build()
        # Observations {5, 50, 60}; p50 rank 1.5 lands in the le=100
        # bucket (cumulative 1, 3): upper bound 100.  p1 rank 0.03
        # lands in le=10: upper bound 10.
        assert store.percentile_over_time("lat", 50) == 100.0
        assert store.percentile_over_time("lat", 1) == 10.0

    def test_percentile_over_time_windowed(self):
        _, store = self.build()
        # Window covering only the t=10 -> t=20 pair sees {50, 60}:
        # every percentile resolves to the le=100 bucket.
        assert store.percentile_over_time(
            "lat", 1, window_s=9, right_ts=20.0) == 100.0
        assert store.percentile_over_time(
            "lat", 99, window_s=9, right_ts=20.0) == 100.0

    def test_percentile_across_histogram_reset(self):
        registry, store = self.build()
        # Reset mid-run; two fresh sub-1 observations land by t=30.
        # The reset pair contributes the after payload verbatim, so the
        # window sees {5, 50, 60} + {0.5, 0.5}: count 5, p1 in le=1.
        registry.reset()
        fresh = registry.histogram("lat", (1, 10, 100))
        fresh.observe(0.5)
        fresh.observe(0.5)
        store.append(30.0, registry.to_dict())
        assert store.delta("lat") == 5
        assert store.percentile_over_time("lat", 1) == 1.0

    def test_window_histogram_merges_increments(self):
        _, store = self.build()
        merged = store.window_histogram("lat")
        assert merged is not None
        assert merged.count == 3
        assert merged.counts == [0, 1, 2, 0]

    def test_percentile_of_non_histogram_is_zero(self):
        registry = MetricsRegistry()
        store = make_store(registry)
        registry.counter("c").inc()
        store.append(0.0, registry.to_dict())
        registry.counter("c").inc()
        store.append(10.0, registry.to_dict())
        assert store.percentile_over_time("c", 50) == 0.0


class TestWindowSelection:
    def test_short_history_uses_oldest_as_baseline(self):
        registry = MetricsRegistry()
        store = make_store(registry)
        counter = registry.counter("c")
        counter.inc(1)
        store.append(100.0, registry.to_dict())
        counter.inc(2)
        store.append(110.0, registry.to_dict())
        # A one-hour window over 10s of history reports what it sees.
        assert store.delta("c", window_s=3600) == 2
        assert store.rate("c", window_s=3600) == pytest.approx(2 / 10.0)

    def test_right_ts_excludes_newer_snapshots(self):
        registry = MetricsRegistry()
        store = make_store(registry)
        counter = registry.counter("c")
        store.append(0.0, registry.to_dict())
        counter.inc(5)
        store.append(10.0, registry.to_dict())
        counter.inc(100)
        store.append(20.0, registry.to_dict())
        assert store.delta("c", right_ts=10.0) == 5


class TestRetentionAndCapacity:
    def test_retention_keeps_baseline_at_left_edge(self):
        registry = MetricsRegistry()
        store = make_store(registry)
        store.retention_s = 10.0
        for ts in (0.0, 5.0, 10.0, 20.0, 25.0):
            store.append(ts, registry.to_dict())
        # Cutoff 15: snapshots 0 and 5 drop, 10 survives as baseline.
        assert [ts for ts, _ in store._snapshots] == [10.0, 20.0, 25.0]

    def test_capacity_thins_but_keeps_oldest_and_newest(self):
        registry = MetricsRegistry()
        store = make_store(registry, capacity=3)
        for ts in range(6):
            store.append(float(ts), registry.to_dict())
        kept = [ts for ts, _ in store._snapshots]
        assert len(kept) == 3
        assert kept[0] == 0.0
        assert kept[-1] == 5.0

    def test_capacity_floor_is_two(self):
        store = make_store(MetricsRegistry(), capacity=1)
        assert store.capacity == 2


class TestSampling:
    def test_sample_snapshots_registry(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        store = make_store(registry)
        ts, payload = store.sample(now=42.0)
        assert ts == 42.0
        assert payload["c"]["value"] == 7
        assert store.latest() == (42.0, payload)
        assert store.total_sampled == 1

    def test_private_registry_gets_no_process_gauges(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        store = make_store(registry)
        _, payload = store.sample(now=0.0)
        assert "process.uptime_s" not in payload

    def test_obs_registry_sample_refreshes_process_gauges(self):
        OBS.enable()
        store = TimeSeriesStore()  # defaults to OBS.metrics
        _, payload = store.sample()
        assert payload["process.uptime_s"]["value"] > 0
        assert "process.rss_bytes" in payload

    def test_background_sampler_collects_and_stops(self):
        registry = MetricsRegistry()
        store = TimeSeriesStore(registry=registry, interval_s=0.01)
        store.start()
        deadline = time.monotonic() + 5
        while store.total_sampled < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        store.stop()
        assert store.total_sampled >= 2
        sampled = store.total_sampled
        time.sleep(0.05)
        assert store.total_sampled == sampled  # really stopped

    def test_to_dict_summary(self):
        registry = MetricsRegistry()
        store = make_store(registry)
        store.append(1.0, registry.to_dict())
        store.append(2.0, registry.to_dict())
        doc = store.to_dict()
        assert doc["n_snapshots"] == 2
        assert doc["oldest_ts"] == 1.0
        assert doc["newest_ts"] == 2.0


class TestProcessWideStore:
    def test_get_returns_singleton(self):
        assert get_timeseries() is get_timeseries()

    def test_configure_replaces_singleton(self):
        registry = MetricsRegistry()
        store = configure_timeseries(registry=registry, capacity=8)
        assert get_timeseries() is store
        assert store.capacity == 8
        assert store.registry() is registry

    def test_configure_aliases_match(self):
        assert _configure is configure_timeseries


class TestSLOSharedSubstrate:
    def test_engine_feeds_from_given_store(self):
        registry = MetricsRegistry()
        clock = lambda: 1000.0  # noqa: E731
        store = TimeSeriesStore(registry=registry, clock=clock)
        engine = SLOEngine(registry=registry, clock=clock, store=store)
        assert engine.store is store
        # The engine pins the store's retention to its slow window.
        assert store.retention_s == engine.rules.policy.slow_s
        engine.tick(now=1000.0)
        # The tick's snapshot landed in the shared store, where
        # windowed queries can see it.
        assert len(store) == 1

    def test_process_wide_engine_shares_process_wide_store(self):
        engine = configure_slo_engine()
        assert engine.store is get_timeseries()
