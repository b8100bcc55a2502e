"""Tests for the service-level signal the query path feeds: error
accounting (``query.errors`` and its ``"error"`` record)."""

from __future__ import annotations

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
    QUERY_ERRORS_METRIC,
    classify_error,
    record_query_error,
)


@pytest.fixture(autouse=True)
def clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


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

