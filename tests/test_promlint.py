"""Tests for the strict OpenMetrics exposition linter (repro.obs.promlint)."""

from __future__ import annotations

import pytest

from repro.obs import OBS
from repro.obs.export import render_openmetrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.promlint import fetch_exposition, lint_openmetrics, main


@pytest.fixture(autouse=True)
def clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


def make_exposition() -> str:
    """A real exposition covering every instrument kind, labels included."""
    registry = MetricsRegistry()
    registry.counter("query.count").inc(4)
    registry.counter("query.count", engine="stree", k=2).inc(3)
    registry.gauge("fmindex.nbytes").set(1234.5)
    h = registry.histogram("query.search_ms", (1, 10), engine="stree", k=2)
    h.observe(0.5)
    h.observe(5, trace_id="abcdef0123456789")
    return render_openmetrics(registry.to_dict())


class TestCleanExpositions:
    def test_real_rendering_is_clean(self):
        assert lint_openmetrics(make_exposition()) == []

    def test_live_search_rendering_is_clean(self):
        from repro import KMismatchIndex

        OBS.enable()
        index = KMismatchIndex("acagacaacagacagtacagaca" * 20)
        index.search_with_stats("tcaca", 2, method="A()")
        index.search_with_stats("tcaca", 1, method="BWT")
        OBS.disable()
        text = render_openmetrics(OBS.metrics.to_dict())
        assert lint_openmetrics(text) == []
        # and the exposition really is dimensional
        assert 'repro_query_search_ms_bucket{engine="algorithm_a"' in text


class TestProfilerFamilies:
    """The profiling tentpole's metric families lint clean and the
    name-mangled per-engine series they replace are really retired."""

    RETIRED_PREFIXES = (
        "search.stree.",
        "search.algorithm_a.",
        "search.wildcard.",
        "search.kerrors.",
    )

    def _live_exposition(self) -> str:
        from repro import KMismatchIndex
        from repro.obs import PROFILER, set_memory_profiling

        OBS.enable()
        set_memory_profiling(True)
        PROFILER.start(hz=400)
        try:
            index = KMismatchIndex("acagacaacagacagtacagaca" * 300)
            index.search_with_stats("tcaca", 2, method="A()")
            index.search_with_stats("tcaca", 1, method="BWT")
            index.engine("wildcard").search("tcnca", 1)
            index.engine("kerrors").search("tcaca", 1)
        finally:
            PROFILER.stop()
            set_memory_profiling(False)
            OBS.disable()
        return render_openmetrics(OBS.metrics.to_dict())

    def test_profile_families_lint_clean(self):
        text = self._live_exposition()
        assert lint_openmetrics(text) == []
        assert "repro_profile_samples_total" in text
        assert "repro_index_build_peak_bytes" in text

    def test_retired_mangled_series_are_gone(self):
        text = self._live_exposition()
        names = set(OBS.metrics.to_dict())
        for name in names:
            for prefix in self.RETIRED_PREFIXES:
                assert not name.startswith(prefix), (
                    f"retired name-mangled series {name!r} reappeared"
                )
            assert not (
                name.startswith("suite.") and name.endswith(".latency_ms")
            ), f"retired suite series {name!r} reappeared"
        # ...and their labelled twins are present instead.
        assert "search.leaf_depth" in names
        assert "search.reuse_hits" in names
        assert 'repro_search_queries_total{engine="wildcard"' in text
        assert 'engine="kerrors"' in text

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
class TestArenaAndBuildFamilies:
    """The zero-copy tentpole's new families — `engine.arena.*`,
    `shard.build_ms`, `engine.worker.poll_timeouts` — must reach a
    strict-clean exposition and pass `repro-cli metrics-lint`."""

    def _exposition(self) -> str:
        import random

        from repro.engine import BatchExecutor
        from repro.shard import ShardedIndex

        rnd = random.Random(5)
        unit = "".join(rnd.choice("acgt") for _ in range(30))
        text = unit * 60
        OBS.enable()
        try:
            ShardedIndex.build(text, 2, max_pattern=16, max_k=1, build_workers=2)
            index_text = text
            from repro import KMismatchIndex

            index = KMismatchIndex(index_text)
            reads = [unit[i : i + 16] for i in range(6)]
            BatchExecutor(workers=2, mode="process").run_search(index, reads, 1)
        finally:
            OBS.disable()
        return render_openmetrics(OBS.metrics.to_dict())

    def test_families_exported_and_lint_clean(self, tmp_path):
        text = self._exposition()
        assert "repro_shard_build_ms_bucket" in text
        assert 'repro_shard_build_ms_bucket{shard="0"' in text
        assert "repro_engine_arena_nbytes" in text
        assert "repro_engine_arena_records_total" in text
        assert lint_openmetrics(text) == []
        # and through the CLI entry point, as CI runs it
        path = tmp_path / "exposition.txt"
        path.write_text(text)
        assert main([str(path)]) == 0


class TestStructuralProblems:
    def test_missing_eof(self):
        problems = lint_openmetrics("# TYPE a counter\na_total 1\n")
        assert any("# EOF" in p for p in problems)

    def test_missing_trailing_newline(self):
        problems = lint_openmetrics("# TYPE a counter\na_total 1\n# EOF")
        assert any("newline" in p for p in problems)

    def test_sample_without_type_declaration(self):
        problems = lint_openmetrics("mystery_total 1\n# EOF\n")
        assert any("no preceding # TYPE" in p for p in problems)

    def test_duplicate_type_declaration(self):
        text = "# TYPE a counter\n# TYPE a counter\na_total 1\n# EOF\n"
        assert any("duplicate # TYPE" in p for p in lint_openmetrics(text))

    def test_duplicate_series(self):
        text = '# TYPE a counter\na_total{x="1"} 1\na_total{x="1"} 2\n# EOF\n'
        assert any("duplicate series" in p for p in lint_openmetrics(text))

    def test_blank_line_rejected(self):
        text = "# TYPE a counter\n\na_total 1\n# EOF\n"
        assert any("blank line" in p for p in lint_openmetrics(text))


class TestValueGrammar:
    def test_python_inf_repr_rejected(self):
        text = "# TYPE g gauge\ng inf\n# EOF\n"
        assert any("illegal sample value 'inf'" in p for p in lint_openmetrics(text))

    def test_canonical_non_finite_spellings_accepted(self):
        text = ("# TYPE g gauge\ng +Inf\n"
                "# TYPE h gauge\nh -Inf\n"
                "# TYPE i gauge\ni NaN\n# EOF\n")
        assert lint_openmetrics(text) == []

    def test_negative_counter_rejected(self):
        text = "# TYPE a counter\na_total -3\n# EOF\n"
        assert any("negative value" in p for p in lint_openmetrics(text))

    def test_malformed_label_block(self):
        text = '# TYPE a counter\na_total{x=unquoted} 1\n# EOF\n'
        assert any("malformed label block" in p for p in lint_openmetrics(text))

    def test_repeated_label_name(self):
        text = '# TYPE a counter\na_total{x="1",x="2"} 1\n# EOF\n'
        assert any("repeated label name" in p for p in lint_openmetrics(text))


class TestHistogramChecks:
    @staticmethod
    def histogram(buckets: str, count: str) -> str:
        return ("# TYPE h histogram\n" + buckets +
                "h_sum 6\n" + f"h_count {count}\n" + "# EOF\n")

    def test_clean_histogram(self):
        text = self.histogram(
            'h_bucket{le="1.0"} 1\nh_bucket{le="+Inf"} 2\n', "2")
        assert lint_openmetrics(text) == []

    def test_non_monotone_buckets(self):
        text = self.histogram(
            'h_bucket{le="1.0"} 3\nh_bucket{le="+Inf"} 2\n', "2")
        assert any("cumulative" in p for p in lint_openmetrics(text))

    def test_missing_inf_bucket(self):
        text = self.histogram('h_bucket{le="1.0"} 1\n', "1")
        assert any('le="+Inf"' in p for p in lint_openmetrics(text))

    def test_inf_bucket_disagrees_with_count(self):
        text = self.histogram(
            'h_bucket{le="1.0"} 1\nh_bucket{le="+Inf"} 2\n', "5")
        assert any("!= _count" in p for p in lint_openmetrics(text))

    def test_bucket_missing_le_label(self):
        text = self.histogram('h_bucket{x="1"} 1\nh_bucket{le="+Inf"} 1\n', "1")
        assert any("missing 'le'" in p for p in lint_openmetrics(text))


class TestExemplars:
    def test_exemplar_on_bucket_accepted(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1.0"} 1 # {trace_id="abcd"} 0.5\n'
                'h_bucket{le="+Inf"} 1\n'
                "h_sum 0.5\nh_count 1\n# EOF\n")
        assert lint_openmetrics(text) == []

    def test_exemplar_on_counter_rejected(self):
        text = ('# TYPE a counter\n'
                'a_total 1 # {trace_id="abcd"} 1\n# EOF\n')
        assert any("exemplar on non-bucket" in p for p in lint_openmetrics(text))


class TestCliEntry:
    def test_file_source_and_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.txt"
        clean.write_text(make_exposition())
        assert main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        dirty = tmp_path / "dirty.txt"
        dirty.write_text("# TYPE g gauge\ng inf\n# EOF\n")
        assert main([str(dirty)]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert main([]) == 2

    def test_fetch_exposition_from_file(self, tmp_path):
        path = tmp_path / "expo.txt"
        path.write_text("# EOF\n")
        assert fetch_exposition(str(path)) == "# EOF\n"
