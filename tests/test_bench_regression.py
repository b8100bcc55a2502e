"""Tests for the perf-regression gate (repro.bench.regression).

The hermetic cases build documents by hand so the 25% default thresholds
are exercised without depending on CI-runner timing; one end-to-end case
runs the real (tiny) workload through the CLI.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    RegressionError,
    compare_runs,
    format_report,
    load_bench_json,
    run_ci_workload,
    write_bench_json,
)
from repro.bench.regression import (
    BENCH_FORMAT,
    BENCH_VERSION,
    LATENCY_FLOOR_MS,
    validate_bench_document,
)
from repro.cli import main


def make_document(
    avg_ms=4.0, rank_queries=2000, nodes=500, leaves=120, lf_steps=800, phi_steps=900,
    locate_steps=300,
):
    return {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "workload": {
            "target_bp": 40_000,
            "n_reads": 12,
            "read_length": 60,
            "k": 2,
            "seed": 7,
        },
        "methods": {
            "A()": {
                "method": "A()",
                "avg_ms": avg_ms,
                "stats": {
                    "rank_queries": rank_queries,
                    "lf_steps": lf_steps,
                    "phi_steps": phi_steps,
                    "locate_steps": locate_steps,
                    "nodes_expanded": nodes,
                    "leaves": leaves,
                },
            },
        },
    }


class TestCompareRuns:
    def test_identical_runs_pass(self):
        document = make_document()
        assert compare_runs(document, copy.deepcopy(document)) == []

    def test_injected_2x_slowdown_fails_default_threshold(self):
        baseline = make_document(avg_ms=4.0)
        current = make_document(avg_ms=8.0)
        findings = compare_runs(current, baseline)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.metric == "avg_ms"
        assert finding.ratio == pytest.approx(2.0)
        assert "2.00x" in finding.describe()

    def test_within_threshold_slowdown_passes(self):
        baseline = make_document(avg_ms=4.0)
        current = make_document(avg_ms=4.9)  # +22.5% < 25%
        assert compare_runs(current, baseline) == []

    def test_improvement_never_fails(self):
        baseline = make_document(avg_ms=4.0, rank_queries=2000)
        current = make_document(avg_ms=1.0, rank_queries=900)
        assert compare_runs(current, baseline) == []

    def test_sub_floor_latency_growth_is_noise(self):
        # 2x ratio but absolute growth below the floor: timer noise.
        baseline = make_document(avg_ms=0.02)
        current = make_document(avg_ms=0.02 + LATENCY_FLOOR_MS / 2)
        assert compare_runs(current, baseline) == []

    def test_probe_count_regression_fails(self):
        baseline = make_document(rank_queries=2000)
        current = make_document(rank_queries=2600)  # +30%
        findings = compare_runs(current, baseline)
        assert [f.metric for f in findings] == ["stats.rank_queries"]
        assert findings[0].threshold == 0.25

    def test_lf_steps_regression_fails(self):
        # Rows walked by LF are index lookups too: inflating them alone,
        # with rank_queries unchanged, must trip the gate.
        baseline = make_document(lf_steps=800)
        current = make_document(lf_steps=1040)  # +30%
        findings = compare_runs(current, baseline)
        assert [f.metric for f in findings] == ["stats.lf_steps"]
        assert compare_runs(make_document(lf_steps=960), baseline) == []  # +20%

    def test_phi_steps_regression_fails(self):
        # The φ build's LF steps are index lookups the search makes
        # before its first node.
        baseline = make_document(phi_steps=900)
        current = make_document(phi_steps=1170)  # +30%
        findings = compare_runs(current, baseline)
        assert [f.metric for f in findings] == ["stats.phi_steps"]
        assert compare_runs(make_document(phi_steps=1080), baseline) == []  # +20%

    def test_locate_steps_regression_fails(self):
        # Locating reported rows walks LF too: a change that went back to
        # walking more steps per row must trip the gate.
        baseline = make_document(locate_steps=300)
        current = make_document(locate_steps=390)  # +30%
        findings = compare_runs(current, baseline)
        assert [f.metric for f in findings] == ["stats.locate_steps"]
        assert compare_runs(make_document(locate_steps=360), baseline) == []  # +20%

    def test_multiple_counters_reported_separately(self):
        baseline = make_document(rank_queries=2000, nodes=500, leaves=120)
        current = make_document(rank_queries=4000, nodes=1000, leaves=120)
        metrics = {f.metric for f in compare_runs(current, baseline)}
        assert metrics == {"stats.rank_queries", "stats.nodes_expanded"}

    def test_workload_mismatch_raises(self):
        baseline = make_document()
        current = make_document()
        current["workload"]["target_bp"] = 80_000
        with pytest.raises(RegressionError, match="workload mismatch"):
            compare_runs(current, baseline)

    def test_missing_baseline_method_raises(self):
        baseline = make_document()
        current = make_document()
        current["methods"] = {}
        with pytest.raises(RegressionError, match="missing baseline method"):
            compare_runs(current, baseline)

    def test_extra_current_method_is_ignored(self):
        baseline = make_document()
        current = make_document()
        current["methods"]["BWT"] = {"method": "BWT", "avg_ms": 99.0, "stats": {}}
        assert compare_runs(current, baseline) == []


class TestDocumentValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(RegressionError, match="format='repro-trace'"):
            validate_bench_document({"format": "repro-trace", "version": 1})

    def test_future_version_rejected(self):
        document = make_document()
        document["version"] = BENCH_VERSION + 1
        with pytest.raises(RegressionError, match=f"version {BENCH_VERSION + 1}"):
            validate_bench_document(document)

    def test_missing_methods_rejected(self):
        document = make_document()
        del document["methods"]
        with pytest.raises(RegressionError, match="methods"):
            validate_bench_document(document)

    def test_load_bench_json_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        write_bench_json(make_document(), str(path))
        loaded = load_bench_json(str(path))
        assert loaded["methods"]["A()"]["avg_ms"] == 4.0

    def test_load_bench_json_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(RegressionError, match="not valid JSON"):
            load_bench_json(str(path))


class TestFormatReport:
    def test_pass_report(self):
        report = format_report([], make_document(), make_document())
        assert "regression gate passed" in report
        assert "baseline avg" in report

    def test_fail_report_lists_findings(self):
        baseline = make_document(avg_ms=4.0)
        current = make_document(avg_ms=8.0)
        findings = compare_runs(current, baseline)
        report = format_report(findings, current, baseline)
        assert "REGRESSION GATE FAILED" in report
        assert "avg_ms regressed" in report


class TestCiWorkload:
    SMALL = ["--scale", "4000", "--reads", "3", "--read-length", "40"]

    def test_run_ci_workload_is_deterministic(self):
        first = run_ci_workload(methods=("BWT",), scale=4000, n_reads=3,
                                read_length=40)
        second = run_ci_workload(methods=("BWT",), scale=4000, n_reads=3,
                                 read_length=40)
        assert first["workload"] == second["workload"]
        assert (
            first["methods"]["BWT"]["stats"]
            == second["methods"]["BWT"]["stats"]
        )
        assert first["methods"]["BWT"]["stats"]["rank_queries"] > 0

    def test_cli_gate_passes_against_own_output(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        code = main(["bench", "--methods", "BWT", *self.SMALL,
                     "--json-out", str(baseline)])
        assert code == 0
        code = main(["bench", "--methods", "BWT", *self.SMALL,
                     "--baseline", str(baseline), "--check-regression",
                     "--latency-threshold", "900"])
        assert code == 0
        assert "regression gate passed" in capsys.readouterr().out

    def test_cli_gate_fails_on_doctored_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["bench", "--methods", "BWT", *self.SMALL,
                     "--json-out", str(baseline)]) == 0
        document = json.loads(baseline.read_text())
        # Halving the baseline probe count makes the (deterministic)
        # current run look like a 2x work regression.
        stats = document["methods"]["BWT"]["stats"]
        stats["rank_queries"] //= 2
        baseline.write_text(json.dumps(document))
        code = main(["bench", "--methods", "BWT", *self.SMALL,
                     "--baseline", str(baseline), "--check-regression",
                     "--latency-threshold", "900"])
        assert code == 3
        assert "REGRESSION GATE FAILED" in capsys.readouterr().out

    def test_cli_check_regression_requires_baseline(self, capsys):
        code = main(["bench", "--methods", "BWT", *self.SMALL,
                     "--check-regression"])
        assert code == 2
        assert "--baseline" in capsys.readouterr().err

    def test_committed_baseline_is_valid(self):
        import pathlib

        path = (pathlib.Path(__file__).resolve().parent.parent
                / "benchmarks" / "results" / "baseline_ci.json")
        document = load_bench_json(str(path))
        assert set(document["methods"]) == {"A()", "BWT"}
        assert document["workload"]["seed"] == 7


class TestRatioGate:
    """The A()-over-BWT relative latency gate: runner speed divides out,
    so it holds a tight bound where the absolute gate must stay loose."""

    @staticmethod
    def two_method_document(a_ms, bwt_ms):
        document = make_document(avg_ms=a_ms)
        document["methods"]["BWT"] = {
            "method": "BWT",
            "avg_ms": bwt_ms,
            "stats": {"rank_queries": 2500, "nodes_expanded": 600,
                      "leaves": 150},
        }
        return document

    def test_uniform_machine_slowdown_passes(self):
        baseline = self.two_method_document(4.0, 8.0)
        current = self.two_method_document(8.0, 16.0)  # 2x slower runner
        findings = compare_runs(current, baseline, latency_threshold=10.0,
                                ratio_threshold=0.10)
        assert findings == []

    def test_relative_regression_fails(self):
        baseline = self.two_method_document(4.0, 8.0)  # ratio 0.50
        current = self.two_method_document(7.0, 8.0)   # ratio 0.875
        findings = compare_runs(current, baseline, latency_threshold=10.0,
                                ratio_threshold=0.25)
        assert [f.metric for f in findings] == ["avg_ms_ratio"]
        assert findings[0].method == "A()/BWT"
        assert findings[0].baseline == pytest.approx(0.5)
        assert findings[0].current == pytest.approx(0.875)

    def test_ratio_improvement_passes(self):
        baseline = self.two_method_document(7.0, 8.0)
        current = self.two_method_document(4.0, 8.0)
        assert compare_runs(current, baseline, latency_threshold=10.0,
                            ratio_threshold=0.01) == []

    def test_skipped_when_a_method_is_absent(self):
        # make_document only carries A(): no denominator, no ratio check.
        assert compare_runs(make_document(), make_document(),
                            ratio_threshold=0.01) == []

    def test_off_by_default(self):
        baseline = self.two_method_document(4.0, 8.0)
        current = self.two_method_document(7.0, 8.0)
        findings = compare_runs(current, baseline, latency_threshold=10.0)
        assert findings == []


class TestRepeats:
    SMALL = ["--scale", "4000", "--reads", "3", "--read-length", "40"]

    def test_median_run_keeps_probe_counters_and_workload_key(self):
        single = run_ci_workload(methods=("BWT",), scale=4000, n_reads=3,
                                 read_length=40)
        tripled = run_ci_workload(methods=("BWT",), scale=4000, n_reads=3,
                                  read_length=40, repeats=3)
        # Probe counts are deterministic, so repeats must not move them.
        assert (tripled["methods"]["BWT"]["stats"]
                == single["methods"]["BWT"]["stats"])
        assert tripled["workload"]["repeats"] == 3
        assert tripled["methods"]["BWT"]["avg_ms"] > 0
        # repeats is not part of the baseline compatibility key: a
        # repeats=1 baseline still compares against a median-of-3 run.
        findings = compare_runs(tripled, single, latency_threshold=100.0,
                                probe_threshold=0.0)
        assert [f for f in findings if f.metric.startswith("stats.")] == []

    def test_non_positive_repeats_rejected(self):
        with pytest.raises(RegressionError):
            run_ci_workload(repeats=0)

    def test_cli_repeats_and_ratio_flags(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["bench", *self.SMALL, "--repeats", "2",
                     "--json-out", str(baseline)]) == 0
        code = main(["bench", *self.SMALL, "--repeats", "2",
                     "--baseline", str(baseline), "--check-regression",
                     "--latency-threshold", "900",
                     "--ratio-threshold", "400"])
        assert code == 0
        assert "regression gate passed" in capsys.readouterr().out

    def test_cli_ratio_gate_fails_on_doctored_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["bench", *self.SMALL,
                     "--json-out", str(baseline)]) == 0
        document = json.loads(baseline.read_text())
        # A 100x faster baseline BWT makes the current A()/BWT ratio look
        # like a huge relative regression while every absolute latency
        # *improved* or stayed put — only the ratio gate can catch it.
        document["methods"]["BWT"]["avg_ms"] *= 100
        baseline.write_text(json.dumps(document))
        code = main(["bench", *self.SMALL,
                     "--baseline", str(baseline), "--check-regression",
                     "--latency-threshold", "900",
                     "--ratio-threshold", "50"])
        assert code == 3
        assert "avg_ms_ratio" in capsys.readouterr().out

    def test_cli_rejects_bad_repeats(self, capsys):
        assert main(["bench", *self.SMALL, "--repeats", "0"]) == 2
        assert "repeats" in capsys.readouterr().err
