"""Tests for the observability layer (repro.obs) and its integrations."""

from __future__ import annotations

import json
import random
import time

import pytest

from repro import KMismatchIndex
from repro.core.types import SearchStats
from repro.obs import (
    COUNT_BUCKETS,
    Histogram,
    LABELS_DROPPED_METRIC,
    MetricError,
    MetricsRegistry,
    OBS,
    Observability,
    TRACE_VERSION,
    Tracer,
    family_payload,
    freeze_labels,
    iter_series,
    load_trace,
    render_trace,
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with a disabled, empty singleton."""
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root", target="toy") as root:
            with tracer.span("child-1"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-2", step=2):
                pass
        assert [s.name for s in root.iter_spans()] == [
            "root", "child-1", "grandchild", "child-2",
        ]
        assert tracer.finished == [root]
        assert root.attrs == {"target": "toy"}
        assert root.children[1].attrs == {"step": 2}
        # Parent durations cover their children.
        assert root.duration_ns >= root.children[0].duration_ns

    def test_sequential_roots(self):
        tracer = Tracer(enabled=True)
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.finished] == ["first", "second"]

    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        a = tracer.span("x")
        b = tracer.span("y", attr=1)
        assert a is b  # the shared no-op singleton
        with a as span:
            span.set(more=2)
        assert tracer.finished == []

    def test_exception_annotates_and_propagates(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        assert tracer.finished[0].attrs["error"] == "ValueError"

    def test_to_dict_round_trip(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", k=2):
            with tracer.span("inner"):
                pass
        payload = tracer.to_dicts()
        as_json = json.loads(json.dumps(payload))
        assert as_json[0]["name"] == "outer"
        assert as_json[0]["attrs"] == {"k": 2}
        assert as_json[0]["children"][0]["name"] == "inner"
        assert as_json[0]["duration_ns"] >= as_json[0]["children"][0]["duration_ns"]

    def test_timer_measures_even_when_disabled(self):
        tracer = Tracer(enabled=False)
        with tracer.timed("cli.op") as timer:
            time.sleep(0.01)
        assert timer.seconds >= 0.005
        assert tracer.finished == []

    def test_timer_records_span_when_enabled(self):
        tracer = Tracer(enabled=True)
        with tracer.timed("cli.op") as timer:
            pass
        assert timer.seconds >= 0
        assert [s.name for s in tracer.finished] == ["cli.op"]


class TestHistogram:
    def test_bucketing_boundaries(self):
        h = Histogram("h", (1, 10, 100))
        for value in (0.5, 1, 1.001, 10, 99.9, 100, 101):
            h.observe(value)
        # <=1, <=10, <=100, overflow — upper bounds are inclusive.
        assert h.counts == [2, 2, 2, 1]
        assert h.count == 7
        assert h.min == 0.5
        assert h.max == 101
        assert h.mean == pytest.approx(sum((0.5, 1, 1.001, 10, 99.9, 100, 101)) / 7)

    def test_percentiles(self):
        h = Histogram("h", (1, 10, 100))
        for _ in range(98):
            h.observe(0.5)
        h.observe(50)
        h.observe(5000)
        assert h.percentile(50) == 1
        assert h.percentile(99) == 100
        assert h.percentile(100) == 5000  # overflow bucket reports the max
        assert Histogram("empty", (1,)).percentile(99) == 0.0

    def test_merge(self):
        a, b = Histogram("h", (1, 10)), Histogram("h", (1, 10))
        a.observe(0.5)
        b.observe(5)
        b.observe(50)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.min == 0.5 and a.max == 50
        with pytest.raises(MetricError):
            a.merge(Histogram("other", (2, 20)))

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(MetricError):
            Histogram("h", (10, 1))
        with pytest.raises(MetricError):
            Histogram("h", ())


class TestRegistry:
    def test_instruments_accumulate(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(7)
        registry.histogram("h", (1, 10)).observe(3)
        payload = registry.to_dict()
        assert payload["c"]["value"] == 5
        assert payload["g"]["value"] == 7
        assert payload["h"]["count"] == 1
        assert registry.names() == ["c", "g", "h"]

    def test_kind_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")
        registry.histogram("h", (1, 2))
        with pytest.raises(MetricError):
            registry.histogram("h", (3, 4))

    def test_jsonl_export(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.histogram("b", (1,)).observe(0.5)
        path = tmp_path / "metrics.jsonl"
        n = registry.write_jsonl(str(path), extra={"run": "r1"})
        assert n == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["a", "b"]
        assert all(line["run"] == "r1" for line in lines)
        # JSONL appends across runs.
        registry.write_jsonl(str(path))
        assert len(path.read_text().splitlines()) == 4


class TestLabelledMetrics:
    """Dimensional families: label children, the cap, schema v2."""

    def test_freeze_labels_sorts_and_stringifies(self):
        assert freeze_labels({"k": 2, "engine": "stree"}) == (
            ("engine", "stree"), ("k", "2"),
        )
        assert freeze_labels({}) == ()

    def test_children_are_independent_series(self):
        registry = MetricsRegistry()
        a = registry.counter("q", engine="a", k=1)
        b = registry.counter("q", engine="b", k=1)
        a.inc(3)
        b.inc(2)
        registry.counter("q").inc(7)
        assert registry.counter("q", engine="a", k=1) is a
        assert (a.value, b.value) == (3, 2)
        # The unlabelled child is its own series, not a roll-up.
        assert registry.get("q").value == 7

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        registry.counter("q", engine="a", k=1).inc()
        registry.counter("q", k=1, engine="a").inc()
        assert registry.counter("q", engine="a", k=1).value == 2

    def test_kind_conflict_across_label_sets_raises(self):
        registry = MetricsRegistry()
        registry.counter("q", engine="a")
        with pytest.raises(MetricError):
            registry.gauge("q", engine="b")
        registry.histogram("h", (1, 2), k=0)
        with pytest.raises(MetricError):
            registry.histogram("h", (3, 4), k=1)

    def test_cardinality_cap_routes_overflow(self):
        registry = MetricsRegistry(max_label_sets=2)
        registry.counter("q", k=0).inc()
        registry.counter("q", k=1).inc()
        sink_a = registry.counter("q", k=2)
        sink_b = registry.counter("q", k=3)
        assert sink_a is sink_b  # one detached sink per family
        sink_a.inc(5)
        assert registry.get(LABELS_DROPPED_METRIC).value == 2
        # Known label sets keep resolving to their real children.
        registry.counter("q", k=0).inc()
        assert registry.counter("q", k=0).value == 2
        # The sink never exports: only the admitted sets serialize.
        labels = [dict(key) for key, _ in iter_series(registry.to_dict()["q"])]
        assert labels == [{"k": "0"}, {"k": "1"}]

    def test_labelled_lookups_resolve_to_one_child(self):
        registry = MetricsRegistry()
        child = registry.histogram("h", COUNT_BUCKETS, engine="stree", k=2)
        assert registry.histogram("h", COUNT_BUCKETS, engine="stree", k=2) is child
        assert registry.histogram("h", COUNT_BUCKETS, k=2, engine="stree") is child
        assert registry.histogram("h", COUNT_BUCKETS, k="2", engine="stree") is child
        # An equal bucket list in another object is the same family...
        assert registry.histogram("h", list(COUNT_BUCKETS), engine="stree", k=2) is child
        # ...and different buckets still conflict, whatever was passed before.
        with pytest.raises(MetricError):
            registry.histogram("h", (1, 2), engine="stree", k=2)
        assert [dict(key) for key, _ in iter_series(registry.to_dict()["h"])] == [
            {"engine": "stree", "k": "2"}
        ]
        registry.reset()
        assert registry.histogram("h", COUNT_BUCKETS, engine="stree", k=2) is not child

    def test_cardinality_cap_counts_every_dropped_call(self):
        registry = MetricsRegistry(max_label_sets=1)
        registry.counter("q", k=0)
        for _ in range(3):
            registry.counter("q", k=1).inc()
        assert registry.get(LABELS_DROPPED_METRIC).value == 3
        assert registry.counter("q", k=0) is registry.family("q").children[(("k", "0"),)]

    def test_unlabelled_family_serializes_as_v1(self):
        registry = MetricsRegistry()
        registry.counter("q").inc(4)
        payload = registry.to_dict()["q"]
        assert "series" not in payload
        assert payload["value"] == 4
        assert iter_series(payload) == [((), payload)]

    def test_schema_v2_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("q").inc(4)
        registry.counter("q", engine="a", k=1).inc(2)
        payload = registry.to_dict()["q"]
        assert payload["value"] == 4  # v1 anchor intact next to the series
        series = dict(iter_series(payload))
        assert series[()]["value"] == 4
        assert series[(("engine", "a"), ("k", "1"))]["value"] == 2
        rebuilt = family_payload("counter", "q", series)
        assert dict(iter_series(rebuilt)) == series

    def test_search_tags_query_metrics_with_engine_and_k(self):
        OBS.enable()
        index = KMismatchIndex("acagacaacagacagtacagaca")
        index.search_with_stats("tcaca", 2, method="A()")
        index.search_with_stats("tcaca", 1, method="BWT")
        OBS.disable()
        payload = OBS.metrics.to_dict()
        counts = {
            dict(labels).get("engine"): child["value"]
            for labels, child in iter_series(payload["query.count"])
            if labels
        }
        # Aliases resolve to canonical engine names — "A()" never
        # appears as a label value, so one engine is one series.
        assert counts == {"algorithm_a": 1, "stree": 1}
        ks = {
            dict(labels)["k"]
            for labels, _ in iter_series(payload["query.search_ms"])
            if labels
        }
        assert ks == {"1", "2"}
        # The unlabelled anchors still total across engines.
        assert payload["query.count"]["value"] == 2

class TestEngineIntegration:
    def test_search_produces_spans_for_every_layer(self):
        OBS.enable()
        index = KMismatchIndex("acagacaacagacagtacagaca")
        index.search("tcaca", k=2)
        OBS.disable()
        names = {span.name for span in OBS.tracer.iter_finished()}
        # One span per layer: facade, FM-index build, rank backend, searcher.
        assert {"kmismatch.build", "fmindex.build", "rankall.build",
                "kmismatch.search", "algorithm_a.search"} <= names
        metrics = OBS.metrics
        assert metrics.counter(
            "search.rank_queries", engine="algorithm_a", k=2
        ).value > 0
        assert metrics.counter("query.count").value == 1
        assert metrics.histogram("query.latency_ms").count == 1
        # Engines write no metrics, so nothing is observed per leaf: the
        # leaf-depth family is retired with the S-tree's leaf callback.
        assert "search.leaf_depth" not in metrics.to_dict()

    def test_stree_path_reports(self):
        OBS.enable()
        index = KMismatchIndex("acagacaacagacagtacagaca")
        index.search("tcaca", k=1, method="stree")
        OBS.disable()
        names = {span.name for span in OBS.tracer.iter_finished()}
        assert "stree.search" in names and "rankall.build" in names
        assert OBS.metrics.counter(
            "search.rank_queries", engine="stree", k=1
        ).value > 0
        assert OBS.metrics.histogram(
            "search.leaves", COUNT_BUCKETS, engine="stree", k=1
        ).count == 1
        assert "search.leaf_depth" not in OBS.metrics.to_dict()

    def test_disabled_leaves_no_trace(self):
        index = KMismatchIndex("acagaca")
        index.search("tcaca", k=2)
        assert list(OBS.tracer.iter_finished()) == []
        assert len(OBS.metrics) == 0

    def test_trace_file_round_trip(self, tmp_path):
        OBS.enable()
        index = KMismatchIndex("acagacaacagaca")
        index.search("aca", k=1)
        OBS.disable()
        path = tmp_path / "trace.json"
        document = OBS.write_trace(str(path), command="test")
        loaded = load_trace(str(path))
        assert loaded == json.loads(json.dumps(document))
        text = render_trace(loaded)
        assert "kmismatch.search" in text and "query.latency_ms" in text


class TestDisabledOverhead:
    def test_instrumented_but_disabled_search_is_near_free(self):
        """Tracing off must stay within ~1.25x of the no-op baseline.

        The baseline is the same instrumented search measured before the
        tracer has ever been enabled (the production disabled path); the
        guarded run re-measures after an enable/disable cycle, so any
        state leakage (tracer left hot, metrics still updating) shows up
        as a ratio breach.  Min-of-N timing keeps scheduler noise out.
        """
        genome = ("acagacatta" * 40)[:400]
        index = KMismatchIndex(genome)

        def best_of(n: int = 7) -> float:
            best = float("inf")
            for _ in range(n):
                start = time.perf_counter()
                index.search("acagacatta", k=2)
                best = min(best, time.perf_counter() - start)
            return best

        best_of(2)  # warm-up
        baseline = best_of()
        OBS.enable()
        index.search("acagacatta", k=2)
        OBS.disable()
        # Re-measure with retries: CI timers are noisy and this guards a
        # ratio, not an absolute.
        for attempt in range(4):
            disabled_again = best_of()
            if disabled_again <= 1.25 * baseline:
                break
            baseline = min(baseline, best_of())
        assert disabled_again <= 1.25 * baseline

    def test_disabled_search_makes_no_registry_lookups_spans_or_records(self, monkeypatch):
        """The count-based twin of the timing guard above: after an
        enable/disable cycle, a search looks up no metric family, opens no
        span and writes no record.  Counts do not flake on a loaded host."""
        from repro.obs.tracing import Span

        genome = ("acagacatta" * 40)[:400]
        index = KMismatchIndex(genome)
        lookups, spans, records = [], [], []
        family, span_init = MetricsRegistry._family, Span.__init__
        record_event = Observability.record_event

        def counting_family(self, *args, **kwargs):
            lookups.append(args[0])
            return family(self, *args, **kwargs)

        def counting_span_init(self, name, *args, **kwargs):
            spans.append(name)
            span_init(self, name, *args, **kwargs)

        def counting_record_event(self, event, **fields):
            records.append(event)
            return record_event(self, event, **fields)

        monkeypatch.setattr(MetricsRegistry, "_family", counting_family)
        monkeypatch.setattr(Span, "__init__", counting_span_init)
        monkeypatch.setattr(Observability, "record_event", counting_record_event)
        OBS.enable()
        index.search("acagacatta", k=2)
        OBS.disable()
        # The counters see an enabled search ...
        assert lookups and spans and records
        del lookups[:], spans[:], records[:]
        # ... and nothing of a disabled one.
        for _ in range(3):
            assert index.search("acagacatta", k=2)
        assert (lookups, spans, records) == ([], [], [])

    def test_disabled_span_call_is_cheap(self):
        tracer = Tracer(enabled=False)
        n = 20_000
        start = time.perf_counter()
        for _ in range(n):
            with tracer.span("x"):
                pass
        per_call = (time.perf_counter() - start) / n
        assert per_call < 5e-6  # microseconds, not milliseconds


class TestEnabledBudget:
    def test_registry_work_does_not_grow_with_rank_probes(self, monkeypatch):
        """Enabled observability costs a fixed number of registry lookups
        per query: probe counts come from ``SearchStats`` once at the end
        of the search, never from the rank-probe loop.  Counted, not
        timed: both patterns hit once, the long one at ``k = 4`` makes
        hundreds of times the rank queries of the exact short one."""
        rnd = random.Random(11)
        genome = "".join(rnd.choice("acgt") for _ in range(4000))
        index = KMismatchIndex(genome)
        calls = []
        family = MetricsRegistry._family

        def counting_family(self, *args, **kwargs):
            calls.append(args[0])
            return family(self, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "_family", counting_family)
        OBS.enable()

        def registry_calls(pattern, k):
            before = len(calls)
            occurrences, stats = index.search_with_stats(pattern, k)
            return len(calls) - before, stats.rank_queries, len(occurrences)

        short_calls, short_probes, short_hits = registry_calls(genome[100:112], 0)
        long_calls, long_probes, long_hits = registry_calls(genome[1000:1080], 4)
        assert short_hits == long_hits == 1
        assert long_probes > 100 * short_probes
        assert long_calls <= short_calls

    def test_routed_registry_work_does_not_grow_with_shards(self, monkeypatch):
        """A routed query looks up the families a flat query does, once,
        plus the router's two ``query.shard_*`` families per shard: its
        shard legs fold nothing."""
        from repro.shard import ShardedIndex

        rnd = random.Random(12)
        genome = "".join(rnd.choice("acgt") for _ in range(4000))
        calls = []
        family = MetricsRegistry._family

        def counting_family(self, *args, **kwargs):
            calls.append(args[0])
            return family(self, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "_family", counting_family)

        def lookups(index):
            OBS.enable()
            index.search_with_stats(genome[1000:1020], 2)
            before = len(calls)
            index.search_with_stats(genome[2000:2020], 2)
            return calls[before:]

        flat = lookups(KMismatchIndex(genome))
        assert "search.queries" in flat and "algorithm_a.memo.entries" in flat
        for n_shards in (1, 2, 4):
            routed = lookups(ShardedIndex.build(genome, n_shards, max_pattern=24, max_k=2))
            own = [name for name in routed if not name.startswith("query.shard_")]
            assert len(routed) - len(own) == 2 * n_shards
            assert sorted(own) == sorted(flat)


class TestSearchStatsMerge:
    def test_every_counter_field_is_merged(self):
        from dataclasses import fields

        counter_names = [f.name for f in fields(SearchStats) if f.name != "extra"]
        a = SearchStats(**{name: i + 1 for i, name in enumerate(counter_names)})
        b = SearchStats(**{name: 10 * (i + 1) for i, name in enumerate(counter_names)})
        a.merge(b)
        for i, name in enumerate(counter_names):
            assert getattr(a, name) == 11 * (i + 1), name

    def test_extra_merges_key_wise(self):
        a = SearchStats(extra={"probes": 2, "note": "first", "only_a": 1})
        b = SearchStats(extra={"probes": 3, "note": "second", "only_b": 4.5})
        a.merge(b)
        assert a.extra == {"probes": 5, "note": "second", "only_a": 1, "only_b": 4.5}

    def test_to_dict_covers_all_fields(self):
        stats = SearchStats(leaves=3, extra={"x": 1})
        payload = stats.to_dict()
        assert payload["leaves"] == 3
        assert payload["extra"] == {"x": 1}
        from dataclasses import fields

        assert set(payload) == {f.name for f in fields(SearchStats)}

    def test_extra_with_fully_disjoint_keys(self):
        a = SearchStats(extra={"alpha": 1})
        b = SearchStats(extra={"beta": 2, "gamma": 0.5})
        a.merge(b)
        assert a.extra == {"alpha": 1, "beta": 2, "gamma": 0.5}
        # The donor is untouched.
        assert b.extra == {"beta": 2, "gamma": 0.5}

    def test_merge_into_empty_extra(self):
        a = SearchStats()
        b = SearchStats(extra={"probes": 7})
        a.merge(b)
        assert a.extra == {"probes": 7}
        assert a.extra is not b.extra  # merged copy, not aliased

    def test_shared_reuse_hits_accumulate_across_merges(self):
        total = SearchStats()
        for hits in (0, 3, 5):
            total.merge(SearchStats(shared_reuse_hits=hits, reuse_hits=hits + 1))
        assert total.shared_reuse_hits == 8
        assert total.reuse_hits == 11

    def test_merge_returns_self_for_chaining(self):
        a = SearchStats(leaves=1)
        result = a.merge(SearchStats(leaves=2)).merge(SearchStats(leaves=4))
        assert result is a
        assert a.leaves == 7


class TestHistogramBoundaries:
    """Percentile math exactly at bucket boundaries (satellite 3)."""

    def test_percentile_at_exact_cumulative_rank(self):
        h = Histogram("h", (1, 2))
        for _ in range(4):
            h.observe(0.5)  # bucket <=1
        for _ in range(4):
            h.observe(1.5)  # bucket <=2
        # rank == running total of the first bucket: still the first bucket.
        assert h.percentile(50) == 1
        # One observation past the boundary crosses into the next bucket.
        assert h.percentile(50.001) == 2
        assert h.percentile(100) == 2

    def test_percentile_overflow_bucket_reports_max(self):
        h = Histogram("h", (1, 2))
        h.observe(0.5)
        h.observe(999)
        assert h.percentile(50) == 1
        assert h.percentile(100) == 999

    def test_percentile_single_observation(self):
        h = Histogram("h", (1, 10))
        h.observe(5)
        for p in (0.001, 50, 100):
            assert h.percentile(p) == 10

    def test_percentile_domain_validation(self):
        h = Histogram("h", (1,))
        h.observe(0.5)
        with pytest.raises(MetricError):
            h.percentile(0)
        with pytest.raises(MetricError):
            h.percentile(100.5)

    def test_observation_on_bucket_bound_is_inclusive(self):
        h = Histogram("h", (1, 2))
        h.observe(1)  # upper bounds are inclusive: lands in <=1
        h.observe(2)
        assert h.counts == [1, 1, 0]
        assert h.percentile(50) == 1

    def test_percentile_empty_histogram_is_zero_for_any_p(self):
        h = Histogram("h", (1, 10, 100))
        for p in (0.001, 50, 99, 100):
            assert h.percentile(p) == 0.0
        # Domain validation still applies even with no observations.
        with pytest.raises(MetricError):
            h.percentile(0)

    def test_percentile_all_observations_in_overflow(self):
        h = Histogram("h", (1,))
        for value in (5, 6, 7):
            h.observe(value)
        # Every rank falls in the unbounded bucket: report the observed max.
        for p in (1, 50, 100):
            assert h.percentile(p) == 7.0


class TestTraceValidation:
    """load_trace / Observability.load reject foreign documents (satellite 2)."""

    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "trace.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_invalid_json_raises_metric_error(self, tmp_path):
        path = self._write(tmp_path, "{not json")
        with pytest.raises(MetricError, match="not valid JSON"):
            load_trace(path)

    def test_non_object_top_level_rejected(self, tmp_path):
        path = self._write(tmp_path, [1, 2, 3])
        with pytest.raises(MetricError, match="top level is list"):
            load_trace(path)

    def test_foreign_format_names_found_value(self, tmp_path):
        path = self._write(tmp_path, {"format": "repro-bench", "version": 1})
        with pytest.raises(MetricError, match="format='repro-bench'"):
            load_trace(path)

    def test_missing_format_rejected(self, tmp_path):
        path = self._write(tmp_path, {"version": 1})
        with pytest.raises(MetricError, match="format=None"):
            load_trace(path)

    def test_future_version_names_found_and_supported(self, tmp_path):
        future = TRACE_VERSION + 5
        path = self._write(
            tmp_path, {"format": "repro-trace", "version": future}
        )
        with pytest.raises(
            MetricError,
            match=f"version {future}.*versions <= {TRACE_VERSION}",
        ):
            load_trace(path)

    def test_non_integer_version_rejected(self, tmp_path):
        path = self._write(tmp_path, {"format": "repro-trace", "version": "1"})
        with pytest.raises(MetricError, match="version '1'"):
            load_trace(path)

    def test_observability_load_is_the_validated_loader(self, tmp_path):
        assert Observability.load is load_trace
        OBS.enable()
        with OBS.span("root"):
            pass
        document = OBS.write_trace(str(tmp_path / "ok.json"))
        OBS.disable()
        loaded = OBS.load(str(tmp_path / "ok.json"))
        assert loaded["version"] == document["version"] == TRACE_VERSION
        assert render_trace(loaded)


class TestFlightSpanPruning:
    """REPRO_FLIGHT_SPAN_DEPTH / _ATTRS bound recorded span trees."""

    def _tree(self):
        from repro.obs import prune_span_tree  # noqa: F401 - availability

        return {
            "name": "root", "start_ns": 0, "duration_ns": 30,
            "attrs": {"a": 1, "b": 2, "c": 3},
            "children": [
                {"name": "mid", "start_ns": 5, "duration_ns": 20, "attrs": {},
                 "children": [
                     {"name": "leaf1", "start_ns": 6, "duration_ns": 1,
                      "attrs": {}, "children": []},
                     {"name": "leaf2", "start_ns": 8, "duration_ns": 1,
                      "attrs": {}, "children": []},
                 ]},
            ],
        }

    def test_depth_cap_marks_dropped_descendants(self):
        from repro.obs import prune_span_tree

        pruned = prune_span_tree(self._tree(), max_depth=2)
        assert pruned["name"] == "root"
        mid = pruned["children"][0]
        assert mid["children"] == []
        assert mid["children_dropped"] == 2
        assert "children_dropped" not in pruned

    def test_attr_cap_marks_dropped_attrs(self):
        from repro.obs import prune_span_tree

        pruned = prune_span_tree(self._tree(), max_attrs=1)
        assert pruned["attrs"] == {"a": 1}
        assert pruned["attrs_dropped"] == 2
        # Depth untouched: the full tree survives.
        assert pruned["children"][0]["children"][1]["name"] == "leaf2"

    def test_unlimited_leaves_tree_untouched(self):
        from repro.obs import prune_span_tree

        tree = self._tree()
        assert prune_span_tree(tree) == tree
        assert tree["children"][0]["children"], "input must not be mutated"

    def test_make_record_reads_env_knobs(self, monkeypatch):
        from repro.obs import make_record

        monkeypatch.setenv("REPRO_FLIGHT_SPAN_DEPTH", "1")
        monkeypatch.setenv("REPRO_FLIGHT_SPAN_ATTRS", "1")
        record = make_record("query", spans=self._tree())
        assert record["spans"]["children"] == []
        assert record["spans"]["children_dropped"] == 3
        assert record["spans"]["attrs_dropped"] == 2

    def test_make_record_unlimited_by_default(self, monkeypatch):
        from repro.obs import make_record

        monkeypatch.delenv("REPRO_FLIGHT_SPAN_DEPTH", raising=False)
        monkeypatch.delenv("REPRO_FLIGHT_SPAN_ATTRS", raising=False)
        record = make_record("query", spans=self._tree())
        assert record["spans"] == self._tree()


class TestCrossProcessClockAlignment:
    """Worker span trees rebase onto the parent's monotonic timeline."""

    def test_span_dict_carries_start_ns(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            pass
        payload = tracer.to_dicts()[0]
        assert payload["start_ns"] > 0
        assert payload["duration_ns"] >= 0

    def test_from_dict_applies_offset_recursively(self):
        from repro.obs import Span

        payload = {
            "name": "root", "start_ns": 1000, "duration_ns": 500, "attrs": {},
            "children": [{"name": "child", "start_ns": 1100, "duration_ns": 100,
                          "attrs": {}, "children": []}],
        }
        span = Span.from_dict(payload, offset_ns=25)
        assert span.start_ns == 1025
        assert span.end_ns == 1525
        assert span.children[0].start_ns == 1125

    def test_obs_delta_ships_clock_anchor(self):
        from repro.obs import ObsDelta

        OBS.enable()
        snapshot = ObsDelta.capture(OBS)
        with OBS.span("work"):
            pass
        payload = snapshot.finish(OBS)
        anchor = time.time_ns() - time.perf_counter_ns()
        # Same process: the shipped anchor matches the local one to well
        # under a millisecond.
        assert abs(payload["clock_ns"] - anchor) < 1_000_000

    def test_merge_rebases_adopted_spans(self):
        from repro.obs import merge_obs_delta

        OBS.enable()
        # Simulate a worker whose monotonic clock runs 5 ms behind the
        # parent's: its anchor (wall at monotonic zero) is 5 ms larger.
        local_anchor = time.time_ns() - time.perf_counter_ns()
        skew_ns = 5_000_000
        payload = {
            "metrics": {},
            "spans": [{"name": "worker.chunk", "start_ns": 1_000,
                       "duration_ns": 2_000, "attrs": {}, "children": []}],
            "clock_ns": local_anchor + skew_ns,
        }
        merge_obs_delta(OBS, payload)
        adopted = OBS.tracer.finished[-1]
        assert adopted.name == "worker.chunk"
        # Rebased start = worker start + (worker anchor - local anchor),
        # up to the nanoseconds the two anchor computations drift apart.
        assert abs(adopted.start_ns - (1_000 + skew_ns)) < 1_000_000
        assert adopted.duration_ns == 2_000

    def test_merge_without_anchor_keeps_raw_times(self):
        from repro.obs import merge_obs_delta

        OBS.enable()
        payload = {"metrics": {}, "spans": [
            {"name": "legacy", "start_ns": 42, "duration_ns": 7, "attrs": {},
             "children": []}]}
        merge_obs_delta(OBS, payload)
        assert OBS.tracer.finished[-1].start_ns == 42

    @pytest.mark.usefixtures("force_pool")
    def test_process_batch_spans_are_ordered_with_parent_spans(self):
        """End to end: adopted worker spans carry comparable start_ns."""
        index = KMismatchIndex("acagacagattacagacagatta" * 20)
        reads = [index.text[i : i + 12] for i in range(0, 60, 6)]
        from repro.engine.executor import BatchExecutor

        OBS.enable()
        before_ns = time.perf_counter_ns()
        BatchExecutor(workers=2, mode="process", chunk_size=3).run_map(index, reads, 1)
        after_ns = time.perf_counter_ns()
        adopted = [s for s in OBS.tracer.finished if s.name == "kmismatch.map_read"]
        assert adopted, "worker chunks should ship per-read spans"
        for span in adopted:
            assert before_ns < span.start_ns < after_ns


class TestRetiredFamilies:
    """The name-mangled per-engine series that the labelled
    ``{engine,k}`` families replaced stay retired."""

    RETIRED_PREFIXES = (
        "search.stree.",
        "search.algorithm_a.",
        "search.wildcard.",
        "search.kerrors.",
    )

    def test_retired_mangled_series_are_gone(self):
        OBS.enable()
        try:
            index = KMismatchIndex("acagacaacagacagtacagaca" * 300)
            index.search_with_stats("tcaca", 2, method="A()")
            index.search_with_stats("tcaca", 1, method="BWT")
            index.search_wildcard("tcnca", 1)
            index.search_edit("tcaca", 1)
        finally:
            OBS.disable()
        payload = OBS.metrics.to_dict()
        for name in payload:
            for prefix in self.RETIRED_PREFIXES:
                assert not name.startswith(prefix), (
                    f"retired name-mangled series {name!r} reappeared"
                )
            assert not (
                name.startswith("suite.") and name.endswith(".latency_ms")
            ), f"retired suite series {name!r} reappeared"
        # ...and their labelled twins are present instead (the S-tree's
        # per-leaf depth histogram is retired: engines write no metrics).
        assert "search.leaves" in payload and "search.leaf_depth" not in payload
        assert "search.reuse_hits" in payload
        engines = {
            dict(labels).get("engine")
            for labels, _ in iter_series(payload["search.queries"])
        }
        assert {"wildcard", "kerrors"} <= engines

    def test_suite_mangled_series_are_gone(self):
        from repro.bench.suite import MethodSuite

        OBS.enable()
        try:
            suite = MethodSuite("acagacaacagacagtacagaca" * 40,
                                methods=("A()", "BWT"))
            suite.run_all(["tcaca", "acaga"], k=1)
        finally:
            OBS.disable()
        names = set(OBS.metrics.to_dict())
        mangled = {
            n for n in names
            if n.startswith("suite.") and n != "suite.latency_ms"
        }
        assert not mangled, f"retired suite.<method>.* series: {mangled}"
        assert "suite.latency_ms" in names


@pytest.mark.usefixtures("force_pool")
class TestPoolAndBuildFamilies:
    """The process pool's families (`engine.shm.nbytes`,
    `engine.worker.*`) and `shard.build_ms{shard}` reach the registry;
    the retired result-arena families stay out of it."""

    def test_families_exported(self):
        from repro.engine import BatchExecutor
        from repro.shard import ShardedIndex

        rnd = random.Random(5)
        unit = "".join(rnd.choice("acgt") for _ in range(30))
        text = unit * 60
        OBS.enable()
        try:
            ShardedIndex.build(text, 2, max_pattern=16, max_k=1, build_workers=2)
            index = KMismatchIndex(text)
            reads = [unit[i : i + 16] for i in range(6)]
            BatchExecutor(workers=2, mode="process").run_search(index, reads, 1)
        finally:
            OBS.disable()
        payload = OBS.metrics.to_dict()
        shards = {
            dict(labels).get("shard")
            for labels, _ in iter_series(payload["shard.build_ms"])
        }
        assert "0" in shards
        assert "engine.shm.nbytes" in payload
        assert "engine.worker.hydrations" in payload
        assert not [name for name in payload if name.startswith("engine.arena")]
