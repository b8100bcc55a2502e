"""Tests for the SLO engine, error accounting, alerting and deep health."""

from __future__ import annotations

import json

import pytest

from repro import KMismatchIndex
from repro.errors import (
    AlphabetError,
    IndexCorruptionError,
    PatternError,
    SerializationError,
)
from repro.obs import (
    OBS,
    AlertPolicy,
    HealthMonitor,
    MetricError,
    MetricsRegistry,
    Objective,
    QUERY_ERRORS_METRIC,
    READINESS,
    SLOEngine,
    SLORules,
    classify_error,
    default_rules,
    evaluate_objective,
    evaluate_payload,
    index_canary,
    lint_rules,
    load_rules,
    record_query_error,
)
from repro.obs.slo import DEFAULT_RULES_TOML, parse_rules_text


@pytest.fixture(autouse=True)
def clean_obs():
    OBS.disable()
    OBS.reset()
    READINESS.reset()
    yield
    OBS.disable()
    OBS.reset()
    READINESS.reset()


class TestErrorAccounting:
    def test_classify_error_kinds(self):
        assert classify_error(PatternError("x")) == "pattern"
        assert classify_error(AlphabetError("x")) == "pattern"
        assert classify_error(IndexCorruptionError("x")) == "corruption"
        assert classify_error(SerializationError("x")) == "corruption"
        assert classify_error(ValueError("x")) == "internal"
        assert classify_error(RuntimeError("x")) == "internal"

    def test_record_query_error_counts_flat_and_labelled(self):
        OBS.enable()
        record_query_error("stree", 2, PatternError("bad"))
        family = OBS.metrics.family(QUERY_ERRORS_METRIC)
        assert family.default.value == 1
        labelled = {tuple(c.labels): c.value for c in family.labelled()}
        assert labelled == {
            (("engine", "stree"), ("k", "2"), ("kind", "pattern")): 1,
        }

    def test_record_query_error_is_idempotent_per_exception(self):
        OBS.enable()
        exc = PatternError("bad")
        record_query_error("stree", 2, exc)
        record_query_error("stree", 2, exc)       # same object: not recounted
        record_query_error("algorithm_a", 1, exc)  # even under other labels
        assert OBS.metrics.family(QUERY_ERRORS_METRIC).default.value == 1

    def test_disabled_obs_counts_nothing(self):
        record_query_error("stree", 2, PatternError("bad"))
        assert OBS.metrics.family(QUERY_ERRORS_METRIC) is None

    def test_matcher_counts_raised_queries(self):
        OBS.enable()
        index = KMismatchIndex("acagacattagacagacat")
        with pytest.raises(AlphabetError):
            index.search("zzz", 1)
        family = OBS.metrics.family(QUERY_ERRORS_METRIC)
        assert family.default.value == 1
        labelled = {tuple(c.labels): c.value for c in family.labelled()}
        assert labelled == {
            (("engine", "algorithm_a"), ("k", "1"), ("kind", "pattern")): 1,
        }
        # A clean query adds nothing.
        index.search("acagac", 1)
        assert family.default.value == 1

    def test_sharded_facade_counts_raised_queries(self):
        from repro.shard import ShardedIndex

        OBS.enable()
        sharded = ShardedIndex.build("acagacattagacagacat" * 30, 3)
        with pytest.raises(AlphabetError):
            sharded.search("zzz", 1)
        family = OBS.metrics.family(QUERY_ERRORS_METRIC)
        assert family.default.value == 1

    def test_router_counts_seam_budget_rejections(self):
        from repro.shard import ShardedIndex

        OBS.enable()
        sharded = ShardedIndex.build("acgt" * 600, 3, max_pattern=16, max_k=2)
        with pytest.raises(PatternError):
            sharded.search("a" * 200, 0)
        family = OBS.metrics.family(QUERY_ERRORS_METRIC)
        assert family.default.value == 1
        kinds = {dict(c.labels)["kind"] for c in family.labelled()}
        assert kinds == {"pattern"}


class TestRules:
    def test_default_rules_parse_and_lint_clean(self):
        rules = default_rules()
        assert [o.name for o in rules.objectives] == [
            "query-availability", "query-latency-p95-250ms",
        ]
        assert lint_rules(parse_rules_text(DEFAULT_RULES_TOML)) == []

    def test_load_rules_toml_and_json(self, tmp_path):
        toml_path = tmp_path / "rules.toml"
        toml_path.write_text(DEFAULT_RULES_TOML)
        json_path = tmp_path / "rules.json"
        json_path.write_text(json.dumps({
            "version": 1,
            "objectives": [
                {"name": "avail", "type": "availability", "target": 99.5,
                 "engine": "stree", "k": 2},
            ],
        }))
        assert len(load_rules(str(toml_path)).objectives) == 2
        rules = load_rules(str(json_path))
        assert rules.objectives[0].selector() == {"engine": "stree", "k": "2"}

    def test_load_rules_default_when_no_path(self):
        assert load_rules(None).objectives == default_rules().objectives

    def test_invalid_rules_raise_with_every_problem(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "version": 1,
            "objectives": [
                {"name": "x", "type": "latency", "target": 95},  # no threshold
                {"name": "x", "type": "availability", "target": 150},  # dup + range
            ],
        }))
        with pytest.raises(MetricError) as err:
            load_rules(str(path))
        message = str(err.value)
        assert "threshold_ms" in message
        assert "duplicate" in message
        assert "(0, 100]" in message

    def test_lint_flags_schema_problems(self):
        problems = lint_rules({
            "version": 2,
            "typo": True,
            "windows": {"fast_s": 3600, "slow_s": 300, "nope": 1},
            "objectives": [
                {"name": "a", "type": "availability", "target": 99,
                 "threshold_ms": 5},
                {"type": "nope", "target": 0},
            ],
        })
        text = "\n".join(problems)
        assert "version 2 is newer" in text
        assert "unknown top-level key 'typo'" in text
        assert "windows: unknown key 'nope'" in text
        assert "fast_s (3600) must be shorter" in text
        assert "threshold_ms only applies to latency" in text
        assert "name must be a non-empty string" in text
        assert "type must be one of" in text

    def test_lint_rejects_non_dict_and_empty_objectives(self):
        assert lint_rules([1, 2]) == [
            "rules document must be a table/object, got list"
        ]
        assert any("non-empty array" in p for p in lint_rules({"version": 1}))

    def test_parse_rules_text_bad_toml_raises_metric_error(self):
        with pytest.raises(MetricError):
            parse_rules_text("version = [broken")
        with pytest.raises(MetricError):
            parse_rules_text("{not json", fmt="json")


class TestEvaluation:
    def _payload(self, good=0, errors=(), latencies=(), engine="stree", k=2):
        """A registry payload with `good` clean queries, per-kind errors
        and latency observations, shaped like live instrumentation."""
        registry = MetricsRegistry()
        for _ in range(good):
            registry.counter("query.count").inc()
            registry.counter("query.count", engine=engine, k=k).inc()
        for kind, n in errors:
            registry.counter(QUERY_ERRORS_METRIC).inc(n)
            registry.counter(QUERY_ERRORS_METRIC, engine=engine, k=k, kind=kind).inc(n)
        for ms in latencies:
            registry.histogram("query.latency_ms").observe(ms)
            registry.histogram("query.search_ms", engine=engine, k=k).observe(ms)
        return registry.to_dict()

    def test_availability_ok_within_budget(self):
        objective = Objective("avail", "availability", target=90.0)
        status = evaluate_objective(
            objective, self._payload(good=95, errors=[("pattern", 5)])
        )
        assert status["ok"] is True
        assert status["total"] == 100 and status["bad"] == 5
        assert status["burn_rate"] == pytest.approx(0.5)
        assert status["kinds"] == {"pattern": 5}

    def test_availability_violated_past_budget(self):
        objective = Objective("avail", "availability", target=99.0)
        status = evaluate_objective(
            objective, self._payload(good=90, errors=[("pattern", 8), ("internal", 2)])
        )
        assert status["ok"] is False
        assert status["bad"] == 10
        assert status["burn_rate"] == pytest.approx(10.0)
        assert status["kinds"] == {"pattern": 8, "internal": 2}

    def test_availability_scoped_selector(self):
        payload = self._payload(good=10, errors=[("pattern", 2)], engine="stree", k=2)
        scoped = Objective("s", "availability", target=90.0, engine="stree", k=2)
        other = Objective("o", "availability", target=90.0, engine="algorithm_a", k=2)
        assert evaluate_objective(scoped, payload)["bad"] == 2
        status = evaluate_objective(other, payload)
        assert status["total"] == 0 and status["no_data"] is True and status["ok"]

    def test_latency_objective_bucket_semantics(self):
        # Default buckets include 250: 90 of 100 observations land <= 250ms.
        objective = Objective("lat", "latency", target=95.0, threshold_ms=250.0)
        payload = self._payload(latencies=[1.0] * 90 + [400.0] * 10)
        status = evaluate_objective(objective, payload)
        assert status["total"] == 100 and status["bad"] == 10
        assert status["ok"] is False  # 90% <= 250ms, target was 95%
        ok = evaluate_objective(
            Objective("lat", "latency", target=90.0, threshold_ms=250.0), payload
        )
        assert ok["ok"] is True

    def test_latency_scoped_reads_search_ms(self):
        payload = self._payload(latencies=[1.0] * 9 + [9999.0], engine="stree", k=2)
        scoped = Objective("lat", "latency", target=90.0, threshold_ms=250.0,
                           engine="stree", k=2)
        status = evaluate_objective(scoped, payload)
        assert status["total"] == 10 and status["bad"] == 1 and status["ok"]

    def test_zero_traffic_is_vacuously_ok(self):
        for objective in default_rules().objectives:
            status = evaluate_objective(objective, {})
            assert status["ok"] is True and status["no_data"] is True

    def test_evaluate_payload_runs_all_objectives(self):
        results = evaluate_payload(self._payload(good=5), default_rules())
        assert [r["objective"] for r in results] == [
            "query-availability", "query-latency-p95-250ms",
        ]

    def test_burn_rate_stays_strict_json(self):
        objective = Objective("perfect", "availability", target=100.0)
        status = evaluate_objective(
            objective, self._payload(good=1, errors=[("pattern", 1)])
        )
        # target=100 -> zero budget -> capped, not Infinity.
        json.dumps(status)  # must not raise (strict JSON)
        assert status["burn_rate"] <= 1e6


class TestSLOEngineWindows:
    def _engine(self, rules=None):
        registry = MetricsRegistry()
        clock = {"now": 0.0}
        rules = rules or SLORules(
            objectives=(Objective("avail", "availability", target=90.0),),
            policy=AlertPolicy(fast_s=10.0, slow_s=60.0, fast_burn=2.0, slow_burn=1.0),
        )
        engine = SLOEngine(rules=rules, registry=registry,
                           clock=lambda: clock["now"])
        return engine, registry, clock

    def test_windows_are_deltas_not_lifetime(self):
        engine, registry, clock = self._engine()
        registry.counter("query.count").inc(100)
        registry.counter(QUERY_ERRORS_METRIC).inc(100)  # terrible history
        engine.tick()
        clock["now"] = 5.0
        registry.counter("query.count").inc(100)  # clean recent traffic
        report = engine.tick()
        fast = report["objectives"][0]["windows"]["fast"]
        assert fast["total"] == 100 and fast["bad"] == 0
        assert report["objectives"][0]["firing"] is False

    def test_burn_in_both_windows_fires_and_resolves(self):
        engine, registry, clock = self._engine()
        engine.tick()
        # Sustained 50% error rate: burn = 5x budget in every window.
        for step in range(1, 8):
            clock["now"] = step * 10.0
            registry.counter("query.count").inc(10)
            registry.counter(QUERY_ERRORS_METRIC).inc(10)
            report = engine.tick()
        objective = report["objectives"][0]
        assert objective["firing"] is True
        assert objective["alert_state"] == "firing"
        assert engine.alerts.firing()[0]["objective"] == "avail"
        # Recovery: clean traffic long enough to flush both windows.
        for step in range(8, 22):
            clock["now"] = step * 10.0
            registry.counter("query.count").inc(50)
            report = engine.tick()
        objective = report["objectives"][0]
        assert objective["firing"] is False
        assert objective["alert_state"] == "resolved"
        alert = engine.alerts.to_dict()["alerts"][0]
        assert alert["transitions"] == 2

    def test_fast_blip_without_slow_burn_does_not_fire(self):
        engine, registry, clock = self._engine()
        engine.tick()
        # Long clean history fills the slow window...
        for step in range(1, 6):
            clock["now"] = step * 10.0
            registry.counter("query.count").inc(100)
            engine.tick()
        # ...then one bad fast window: fast burns, slow does not.
        clock["now"] = 60.0
        registry.counter("query.count").inc(2)
        registry.counter(QUERY_ERRORS_METRIC).inc(2)
        report = engine.tick()
        windows = report["objectives"][0]["windows"]
        assert windows["fast"]["burn_rate"] >= 2.0
        assert windows["slow"]["burn_rate"] < 1.0
        assert report["objectives"][0]["firing"] is False

    def test_first_tick_has_no_data(self):
        engine, registry, clock = self._engine()
        registry.counter("query.count").inc(5)
        report = engine.tick()
        assert report["objectives"][0]["windows"]["fast"]["no_data"] is True

    def test_snapshot_pruning_is_bounded(self):
        engine, registry, clock = self._engine()
        engine.store.capacity = 8
        for step in range(100):
            clock["now"] = float(step)
            registry.counter("query.count").inc()
            engine.tick()
        assert len(engine.store) <= 8
        # The oldest retained snapshot still anchors the slow window.
        report = engine.tick()
        slow = report["objectives"][0]["windows"]["slow"]
        assert slow["covered_s"] > 0

    def test_report_is_json_serializable(self):
        engine, registry, clock = self._engine()
        registry.counter("query.count").inc()
        engine.tick()
        clock["now"] = 100.0
        json.dumps(engine.tick())


class TestHealth:
    def test_empty_monitor_is_ready(self):
        assert HealthMonitor().check() == {"ready": True, "components": {}}

    def test_component_flips_readiness(self):
        monitor = HealthMonitor()
        monitor.set_component("workers", False, "pool stalled")
        report = monitor.check()
        assert report["ready"] is False
        assert report["components"]["workers"]["detail"] == "pool stalled"
        monitor.set_component("workers", True)
        assert monitor.check()["ready"] is True

    def test_probe_runs_on_every_check(self):
        monitor = HealthMonitor()
        state = {"ok": True}
        monitor.register_probe("db", lambda: (state["ok"], "probed"))
        assert monitor.check()["ready"] is True
        state["ok"] = False
        report = monitor.check()
        assert report["ready"] is False
        assert report["components"]["db"]["source"] == "probe"

    def test_raising_probe_is_not_ready(self):
        monitor = HealthMonitor()

        def boom():
            raise RuntimeError("no database")

        monitor.register_probe("db", boom)
        report = monitor.check()
        assert report["ready"] is False
        assert "no database" in report["components"]["db"]["detail"]

    def test_index_canary_passes_on_healthy_index(self):
        index = KMismatchIndex("acagacattagacagacat")
        ok, detail = index_canary(index)()
        assert ok is True and "canary query ok" in detail

    def test_index_canary_fails_on_missing_pattern(self):
        index = KMismatchIndex("acagacattagacagacat")
        ok, detail = index_canary(index, pattern="ttttttt")()
        assert ok is False and "not found" in detail

    def test_index_canary_fails_on_raising_index(self):
        class Broken:
            text = "acgt"
            text_length = 4

            def contains(self, pattern, k):
                raise IndexCorruptionError("checksum mismatch")

        ok, detail = index_canary(Broken())()
        assert ok is False and "checksum mismatch" in detail


class TestSLOCli:
    def _trace(self, tmp_path, good=10, errors=0):
        OBS.enable()
        index = KMismatchIndex("acagacattagacagacat" * 5)
        for _ in range(good):
            index.search("acagac", 1)
        for _ in range(errors):
            with pytest.raises(AlphabetError):
                index.search("zzz", 1)
        path = tmp_path / "trace.json"
        OBS.write_trace(str(path))
        OBS.disable()
        return str(path)

    def test_check_passes_on_healthy_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._trace(tmp_path, good=10, errors=0)
        assert main(["slo", "check", trace]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_exits_4_on_violation(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._trace(tmp_path, good=10, errors=5)
        assert main(["slo", "check", trace]) == 4
        assert "VIOLATED" in capsys.readouterr().out

    def test_report_writes_json_artifact(self, tmp_path):
        from repro.cli import main

        trace = self._trace(tmp_path, good=4)
        out = tmp_path / "report.json"
        assert main(["slo", "report", trace, "--json", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["format"] == "repro-slo-report"
        assert [o["objective"] for o in document["objectives"]] == [
            "query-availability", "query-latency-p95-250ms",
        ]

    def test_report_with_custom_rules(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._trace(tmp_path, good=6)
        rules = tmp_path / "rules.toml"
        rules.write_text(
            'version = 1\n[[objectives]]\nname = "scoped"\n'
            'type = "availability"\ntarget = 99.0\n'
            'engine = "algorithm_a"\nk = 1\n'
        )
        assert main(["slo", "report", trace, "--rules", str(rules)]) == 0
        out = capsys.readouterr().out
        assert "scoped" in out and "engine=algorithm_a" in out

    def test_lint_subcommand_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.toml"
        good.write_text(DEFAULT_RULES_TOML)
        assert main(["slo", "lint", str(good)]) == 0
        bad = tmp_path / "bad.toml"
        bad.write_text('version = 1\n[[objectives]]\nname = "x"\n'
                       'type = "latency"\ntarget = 95.0\n')
        assert main(["slo", "lint", str(bad)]) == 1
        assert "threshold_ms" in capsys.readouterr().out
        broken = tmp_path / "broken.toml"
        broken.write_text("version = [")
        assert main(["slo", "lint", str(broken)]) == 2

    def test_check_bad_rules_exit_2(self, tmp_path):
        from repro.cli import main

        trace = self._trace(tmp_path, good=1)
        missing = str(tmp_path / "missing.toml")
        assert main(["slo", "check", trace, "--rules", missing]) == 2

    def test_check_needs_a_source(self):
        from repro.cli import main

        assert main(["slo", "check"]) == 2
