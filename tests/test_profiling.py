"""Tests for the span-attributed sampling profiler (repro.obs.profiling)."""

from __future__ import annotations

import json
import time

import pytest

from repro import KMismatchIndex
from repro.obs import (
    MEMORY_PROFILES,
    OBS,
    PROFILER,
    Profile,
    Profiler,
    SpanAttributer,
    memory_profiling_enabled,
    profile_memory,
    render_top,
    set_memory_profiling,
    write_profile,
)
from repro.obs.export import ObsDelta, merge_obs_delta


@pytest.fixture(autouse=True)
def clean_profiler():
    """Every test starts and ends with a stopped profiler and a clean
    obs singleton; memory profiling off."""
    PROFILER.stop()
    PROFILER.profile = None
    OBS.disable()
    OBS.reset()
    set_memory_profiling(False)
    MEMORY_PROFILES.clear()
    yield
    PROFILER.stop()
    PROFILER.profile = None
    OBS.disable()
    OBS.reset()
    set_memory_profiling(False)
    MEMORY_PROFILES.clear()


def _busy(seconds: float) -> None:
    """Burn CPU in a named Python frame the sampler can land on."""
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


def _collect(seconds: float = 0.3, hz: float = 400.0, **kwargs) -> Profile:
    PROFILER.start(hz=hz, **kwargs)
    _busy(seconds)
    return PROFILER.stop()


class TestProfileStructure:
    def test_add_and_fold(self):
        profile = Profile(hz=100.0)
        profile.add(("a", "b"))
        profile.add(("a", "b"))
        profile.add(("a", "c"))
        assert profile.n_samples == 3
        assert profile.counts[("a", "b")] == 2
        folded = profile.to_folded()
        assert "a;b 2" in folded.splitlines()
        assert "a;c 1" in folded.splitlines()
        assert folded.endswith("\n")

    def test_empty_profile_exports(self):
        profile = Profile()
        assert profile.to_folded() == ""
        doc = profile.to_speedscope()
        assert doc["shared"]["frames"] == []
        assert doc["profiles"][0]["samples"] == []
        assert render_top(profile) == "(no samples collected)"

    def test_speedscope_shape(self):
        profile = Profile(hz=100.0)
        profile.add(("root", "leaf"), n=4)
        doc = profile.to_speedscope("x")
        assert doc["$schema"].startswith("https://www.speedscope.app/")
        names = [f["name"] for f in doc["shared"]["frames"]]
        assert names == ["root", "leaf"]
        prof = doc["profiles"][0]
        assert prof["type"] == "sampled"
        assert prof["unit"] == "seconds"
        assert prof["samples"] == [[0, 1]]
        # 4 samples at 100 Hz = 40 ms of attributed wall time.
        assert prof["weights"] == [pytest.approx(0.04)]
        assert prof["endValue"] == pytest.approx(0.04)

    def test_merge_with_worker_prefix(self):
        parent = Profile()
        parent.add(("span:x", "main"))
        child = Profile()
        child.add(("span:y", "work"), n=3)
        child.truncated = True
        parent.merge(child, prefix="worker:0")
        assert parent.counts[("worker:0", "span:y", "work")] == 3
        assert parent.n_samples == 4
        assert parent.truncated  # truncation is sticky across merges

    def test_dict_round_trip(self):
        profile = Profile(hz=50.0, meta={"worker": 1})
        profile.add(("a", "b"), n=2)
        profile.wall_seconds = 1.5
        profile.truncated = True
        clone = Profile.from_dict(json.loads(json.dumps(profile.to_dict())))
        assert clone.counts == profile.counts
        assert clone.n_samples == 2
        assert clone.hz == 50.0
        assert clone.truncated
        assert clone.meta == {"worker": 1}


class TestProfilerLifecycle:
    def test_disabled_by_default(self):
        assert not PROFILER.is_running()
        assert PROFILER.stop() is None  # stop before any start: no-op

    def test_collects_samples(self):
        profile = _collect(0.3)
        assert profile.n_samples > 0
        # Every stack is span-attributed (span:... or span:(none) root).
        assert all(frames[0].startswith("span:") for frames in profile.counts)
        assert profile.wall_seconds > 0

    def test_start_is_idempotent(self):
        first = PROFILER.start(hz=200)
        second = PROFILER.start(hz=999)  # ignored: already running
        assert first is second
        assert PROFILER.hz == 200
        _busy(0.1)
        profile = PROFILER.stop()
        assert profile is first

    def test_stop_is_idempotent(self):
        _collect(0.1)
        again = PROFILER.stop()
        assert again is PROFILER.profile
        assert not PROFILER.is_running()

    def test_stop_leaves_no_sampler_thread(self):
        import threading

        _collect(0.1)
        time.sleep(0.05)
        assert all(t.name != "repro-profiler" for t in threading.enumerate())

    def test_restart_collects_a_fresh_profile(self):
        first = _collect(0.1)
        second = _collect(0.1)
        assert second is not first

    def test_sample_cap_truncates(self):
        PROFILER.start(hz=500, max_samples=10)
        deadline = time.perf_counter() + 5.0
        while not (PROFILER.profile.truncated or time.perf_counter() > deadline):
            _busy(0.05)
        profile = PROFILER.stop()
        assert profile.truncated
        # The cap may be overshot by at most one sampling sweep (one
        # sample per live thread), never unboundedly.
        assert profile.n_samples <= 10 + 8

    def test_duration_cap_truncates(self):
        PROFILER.start(hz=500, max_seconds=0.1)
        deadline = time.perf_counter() + 5.0
        while not (PROFILER.profile.truncated or time.perf_counter() > deadline):
            _busy(0.05)
        profile = PROFILER.stop()
        assert profile.truncated

    def test_env_knobs_apply_at_start(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_HZ", "123")
        monkeypatch.setenv("REPRO_PROFILE_MAX_SAMPLES", "77")
        monkeypatch.setenv("REPRO_PROFILE_MAX_SECONDS", "9")
        PROFILER.start()
        try:
            assert PROFILER.hz == 123
            assert PROFILER.max_samples == 77
            assert PROFILER.max_seconds == 9
        finally:
            PROFILER.stop()

    def test_samples_counter_published(self):
        OBS.enable()
        profile = _collect(0.3)
        OBS.disable()
        assert OBS.metrics.counter("profile.samples").value >= profile.n_samples


class TestSpanAttribution:
    def test_no_span_frame(self):
        import threading

        attributer = SpanAttributer(OBS.tracer)
        assert attributer.frame_for(threading.get_ident()) == "span:(none)"

    def test_open_span_path(self):
        import threading

        OBS.enable()
        with OBS.span("outer"):
            with OBS.span("inner"):
                frame = SpanAttributer(OBS.tracer).frame_for(threading.get_ident())
        OBS.disable()
        assert frame == "span:outer/inner"

    def test_search_profile_carries_span_frames(self):
        """The acceptance check: profiling a real search yields folded
        stacks whose roots name the pipeline phases."""
        OBS.enable()
        PROFILER.start(hz=400)
        text = ("acagacatta" * 3000)[:30000]
        index = KMismatchIndex(text)
        index.search(text[50:90], k=2)
        profile = PROFILER.stop()
        OBS.disable()
        folded = profile.to_folded()
        assert "span:" in folded
        # The index build dominates this workload; its span path must
        # show up as a root frame.
        assert "span:kmismatch.build" in folded


class TestCrossProcessMerge:
    def test_delta_payload_and_adopt(self):
        PROFILER.start(hz=400)
        before = PROFILER.counts_snapshot()
        _busy(0.3)
        payload = PROFILER.delta_payload(before)
        assert payload is not None and payload["n_samples"] > 0
        parent = Profiler()
        parent.start(hz=400)
        parent.stop()
        baseline = parent.profile.n_samples
        payload["meta"] = {"worker": 3}
        parent.adopt(payload)
        PROFILER.stop()
        assert parent.profile.n_samples == baseline + payload["n_samples"]
        assert any(frames[0] == "worker:3" for frames in parent.profile.counts)

    def test_adopt_without_local_profile_is_dropped(self):
        sampler = Profiler()
        sampler.adopt({"folded": {"a;b": 1}, "n_samples": 1, "meta": {"worker": 0}})
        assert sampler.profile is None

    def test_obs_delta_ships_profile(self):
        """The worker-side ObsDelta payload carries sampled stacks and
        merge_obs_delta folds them into the parent profile."""
        PROFILER.start(hz=400)
        delta = ObsDelta.capture(OBS)
        _busy(0.3)
        payload = delta.finish(OBS)
        profile = payload.get("profile")
        assert profile is not None and profile["n_samples"] > 0
        # Simulate the parent: re-adopt into the profile under a worker
        # prefix.  Stop the sampler first, so no local sample lands
        # between the two counts.
        PROFILER.stop()
        payload["profile"]["meta"] = {"worker": 0}
        before = PROFILER.profile.n_samples
        merge_obs_delta(OBS, payload)
        after = PROFILER.profile.n_samples
        assert after == before + profile["n_samples"]
        assert any(
            frames[0] == "worker:0" for frames in PROFILER.profile.counts
        )

    def test_obs_delta_without_profiler_has_no_profile_key(self):
        delta = ObsDelta.capture(OBS)
        payload = delta.finish(OBS)
        assert "profile" not in payload


class TestSlowQueryPinning:
    def test_slow_query_record_carries_profile(self):
        OBS.enable()
        OBS.recorder.slow_ms = 0.0  # every query is "slow"
        PROFILER.start(hz=400)
        index = KMismatchIndex(("acagacatta" * 200)[:2000])
        index.search_with_stats("acagacatta", 2)
        PROFILER.stop()
        records = [r for r in OBS.recorder.recent() if r.get("event") == "query"]
        OBS.disable()
        assert records, "expected a flight-recorder query record"
        assert "profile" in records[-1]
        assert isinstance(records[-1]["profile"], dict)

    def test_fast_query_record_has_no_profile(self):
        OBS.enable()
        OBS.recorder.slow_ms = 1e9  # nothing is slow
        PROFILER.start(hz=400)
        index = KMismatchIndex("acagacaacagaca")
        index.search_with_stats("aca", 1)
        PROFILER.stop()
        records = [r for r in OBS.recorder.recent() if r.get("event") == "query"]
        OBS.disable()
        assert records and "profile" not in records[-1]

    def test_profiler_off_record_has_no_profile(self):
        OBS.enable()
        OBS.recorder.slow_ms = 0.0
        index = KMismatchIndex("acagacaacagaca")
        index.search_with_stats("aca", 1)
        records = [r for r in OBS.recorder.recent() if r.get("event") == "query"]
        OBS.disable()
        assert records and "profile" not in records[-1]


class TestMemoryProfiles:
    def test_noop_unless_enabled(self):
        with profile_memory("index.build") as region:
            bytes([0] * 4096)
        assert region.result is None
        assert len(MEMORY_PROFILES) == 0

    def test_region_publishes_gauge_and_top(self):
        OBS.enable()
        set_memory_profiling(True)
        assert memory_profiling_enabled()
        with profile_memory("index.build", top_n=5) as region:
            blob = bytearray(512 * 1024)
        del blob
        OBS.disable()
        assert region.result is not None
        assert region.result.peak_bytes >= 512 * 1024
        assert region.result.top  # at least one allocation site
        assert len(region.result.top) <= 5
        assert MEMORY_PROFILES[-1] is region.result
        assert OBS.metrics.gauge("index.build.peak_bytes").value >= 512 * 1024
        rendered = region.result.render()
        assert "index.build: peak" in rendered and "blocks" in rendered

    def test_build_region_is_instrumented(self):
        OBS.enable()
        set_memory_profiling(True)
        KMismatchIndex("acagacaacagacagtacagaca" * 20)
        OBS.disable()
        names = [mp.name for mp in MEMORY_PROFILES]
        assert "index.build" in names
        assert OBS.metrics.gauge("index.build.peak_bytes").value > 0


class TestWriteProfile:
    def test_folded_file(self, tmp_path):
        profile = Profile(hz=100.0)
        profile.add(("span:x", "a", "b"), n=2)
        path = tmp_path / "out.folded"
        write_profile(profile, str(path), "folded")
        assert path.read_text() == "span:x;a;b 2\n"

    def test_speedscope_file(self, tmp_path):
        profile = Profile(hz=100.0)
        profile.add(("span:x", "a"), n=1)
        path = tmp_path / "out.json"
        write_profile(profile, str(path), "speedscope")
        doc = json.loads(path.read_text())
        assert doc["$schema"].startswith("https://www.speedscope.app/")


class TestDisabledProfilerOverhead:
    def test_instrumented_but_stopped_search_is_near_free(self):
        """A stopped profiler must not tax the search path (< ~2x of an
        untouched run; generous because the workload is microseconds).

        Mirrors TestDisabledOverhead in test_obs.py: measure, run a
        start/stop cycle, re-measure, and guard the ratio with retries
        against CI timer noise.
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
        PROFILER.start(hz=200)
        index.search("acagacatta", k=2)
        PROFILER.stop()
        for attempt in range(4):
            stopped_again = best_of()
            if stopped_again <= 1.25 * baseline:
                break
            baseline = min(baseline, best_of())
        assert stopped_again <= 1.25 * baseline

    def test_stopped_profiler_takes_no_samples(self, monkeypatch):
        """The count-based twin of the timing guard above: once stopped,
        the profiler reads no thread stacks and adds no samples while the
        search runs.  Counts do not flake on a loaded host."""
        import sys
        import threading

        genome = ("acagacatta" * 40)[:400]
        index = KMismatchIndex(genome)
        reads = []
        current_frames = sys._current_frames

        def counting_current_frames():
            reads.append(1)
            return current_frames()

        monkeypatch.setattr(sys, "_current_frames", counting_current_frames)
        profile = PROFILER.start(hz=400)
        deadline = time.monotonic() + 10
        while not (reads and profile.n_samples) and time.monotonic() < deadline:
            index.search("acagacatta", k=2)
        PROFILER.stop()
        # The counters see a running profiler ...
        assert reads and profile.n_samples
        del reads[:]
        samples, marker = profile.n_samples, PROFILER.marker()
        # ... and nothing once it is stopped.
        for _ in range(20):
            assert index.search("acagacatta", k=2)
        assert not PROFILER.is_running()
        assert "repro-profiler" not in [thread.name for thread in threading.enumerate()]
        assert reads == []
        assert (profile.n_samples, PROFILER.marker()) == (samples, marker)
