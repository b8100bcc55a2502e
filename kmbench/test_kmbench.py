"""Tests of the benchmark itself: tracer arithmetic and restoration,
oracle agreement, the correctness gate and fixed-work determinism.

Run from the repository root::

    python3 -m pytest kmbench -q
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import onepass  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
from inputs import WORKLOADS, make_inputs, mutation_schedule  # noqa: E402
from oracle import HammingScan, check_against_naive, revcomp  # noqa: E402
from tracer import Tracer, program_targets  # noqa: E402


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = Path(tempfile.mkdtemp(prefix=".kmbench-", dir=onepass.ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def clock(monkeypatch):
    """Drive the tracer from a hand-set clock: ``clock.now = t``."""

    class Clock:
        now = 0

    monkeypatch.setattr(tracer_module, "perf_counter_ns", lambda: Clock.now)
    return Clock


def at(tracer, clock, t, action, arg):
    clock.now = t
    return tracer.begin(arg) if action == "begin" else tracer.end(arg)


class TestSelfTime:
    def test_children_are_subtracted_once(self, clock):
        t = Tracer()
        a = at(t, clock, 0, "begin", "a")
        b = at(t, clock, 10, "begin", "b")
        at(t, clock, 40, "end", b)
        c = at(t, clock, 50, "begin", "c")
        b2 = at(t, clock, 60, "begin", "b")
        at(t, clock, 70, "end", b2)
        at(t, clock, 90, "end", c)
        at(t, clock, 100, "end", a)
        folded = t.fold()
        assert (folded["a"].calls, folded["a"].inclusive_ns, folded["a"].self_ns) == (1, 100, 30)
        assert (folded["b"].calls, folded["b"].inclusive_ns, folded["b"].self_ns) == (2, 40, 40)
        assert (folded["c"].calls, folded["c"].inclusive_ns, folded["c"].self_ns) == (1, 40, 30)
        assert sum(f.self_ns for f in folded.values()) == 100

    def test_nested_same_name_counts_inclusive_once(self, clock):
        t = Tracer()
        outer = at(t, clock, 0, "begin", "facade")
        inner = at(t, clock, 10, "begin", "facade")
        engine = at(t, clock, 20, "begin", "engine")
        at(t, clock, 45, "end", engine)
        at(t, clock, 50, "end", inner)
        at(t, clock, 100, "end", outer)
        folded = t.fold()
        assert folded["facade"].calls == 2
        assert folded["facade"].inclusive_ns == 100
        assert folded["facade"].self_ns == 75
        assert folded["engine"].self_ns == 25

    def test_fold_by_phase_splits_on_root(self, clock):
        t = Tracer()
        for phase, (begin, end) in (("setup", (0, 10)), ("query", (10, 40))):
            root = at(t, clock, begin, "begin", phase)
            child = at(t, clock, begin + 1, "begin", "work")
            at(t, clock, end - 1, "end", child)
            at(t, clock, end, "end", root)
        phases = t.fold_by_phase()
        assert phases["setup"]["work"].self_ns == 8
        assert phases["query"]["work"].self_ns == 28
        assert phases["query"]["query"].self_ns == 2


class TestPatching:
    def test_install_then_restore_puts_originals_back(self):
        targets = program_targets()
        originals = [owner.__dict__[attr] for _, owner, attr in targets]
        t = Tracer()
        t.install(targets)
        assert all(owner.__dict__[attr] is not original
                   for (_, owner, attr), original in zip(targets, originals))
        t.restore()
        assert all(owner.__dict__[attr] is original
                   for (_, owner, attr), original in zip(targets, originals))

    def test_classmethods_keep_their_kind(self):
        from repro.shard.sharded import ShardedIndex

        t = Tracer()
        t.install([("shard.build", ShardedIndex, "build")])
        try:
            assert isinstance(ShardedIndex.__dict__["build"], classmethod)
            built = ShardedIndex.build("acgt" * 50, 2, max_pattern=8, max_k=1)
            assert built.n_shards == 2
        finally:
            t.restore()
        assert t.fold()["shard.build"].calls == 1

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_no_wrapper_survives_a_traced_pass(self, workload):
        onepass.run_pass(workload, seed=3, scale=0.04, traced=True, replay=True)
        for _, owner, attr in program_targets():
            value = owner.__dict__[attr]
            value = getattr(value, "__func__", value)
            assert not getattr(value, "__wrapped_by_kmbench__", False), (owner, attr)


class TestOracle:
    def test_scan_matches_naive(self):
        rng = random.Random(5)
        for _ in range(40):
            text = "".join(rng.choice("acgt") for _ in range(rng.randint(1, 80)))
            pattern = "".join(rng.choice("acgt") for _ in range(rng.randint(1, 12)))
            k = rng.randint(0, 4)
            assert check_against_naive(HammingScan(text), pattern, k)
        # Long targets with planted copies reach the direct-comparison finish.
        unit = "".join(rng.choice("acgt") for _ in range(40))
        for _ in range(10):
            text = "".join(rng.choice("acgt") for _ in range(3000)) + unit * rng.randint(1, 90)
            pattern = unit[5:35]
            k = rng.randint(0, 4)
            assert check_against_naive(HammingScan(text), pattern, k)

    def test_map_read_covers_both_strands(self):
        scan = HammingScan("aaaaccgg")
        assert scan.map_read("ccgg", 0) == [(4, (), "+"), (4, (), "-")]
        assert revcomp("aacg") == "cgtt"


class TestGate:
    def test_wrong_output_is_reported_by_index(self, workdir):
        current = onepass.Pass("paper-k4", 2, 0.05, workdir)
        current.setup()
        current.timed_phase()
        assert current.gate()["wrong"] == []
        outputs = current.served.outputs
        outputs[1] = outputs[1] + [(0, (), "+")]
        gate = current.gate()
        assert gate["wrong"] == [1] and gate["naive_ok"]

    def test_rejected_reads_must_raise(self, workdir):
        current = onepass.Pass("serve-sharded-obs", 2, 0.02, workdir)
        assert current.inputs.rejected
        current.setup()
        current.timed_phase()
        assert current.gate()["wrong"] == []
        rejected = current.inputs.rejected[0]
        assert current.served.outputs[rejected] == "AlphabetError"


class TestFixedWork:
    def test_mutation_mix_is_the_same_for_every_seed(self):
        mixes = {tuple(sorted(mutation_schedule(140, 100, 0.021, random.Random(s))))
                 for s in range(5)}
        assert len(mixes) == 1

    def test_inputs_repeat_per_seed(self):
        for workload in WORKLOADS:
            a, b = make_inputs(workload, 9, 0.05), make_inputs(workload, 9, 0.05)
            assert (a.target, a.reads, a.rejected) == (b.target, b.reads, b.rejected)
            assert make_inputs(workload, 10, 0.05).reads != a.reads

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_counts_and_digest_repeat_between_passes(self, workload):
        first, second = (
            onepass.run_pass(workload, seed=4, scale=0.05, replay=True) for _ in range(2)
        )
        assert first["digest"] == second["digest"]
        for key in ("rows_located", "arena_records", "shard_searches"):
            assert first["counts"].get(key) == second["counts"].get(key), key
        # Pool workers keep their memo across whichever chunks they pull,
        # so on batch-process the search-tree counts repeat on the serial replay.
        tree = "replay_counts" if WORKLOADS[workload].batch_size > 1 else "counts"
        for key in ("rank_queries", "nodes_expanded", "reuse_hits"):
            assert first[tree][key] == second[tree][key], key
        assert first["leaked_shm"] == 0 and first["leaked_threads"] == 0


def fake_pass(digests, counts, probe_ms=run.REFERENCE_PROBE_MS, query_s=2.0):
    return {
        "gate": {"wrong": [], "naive_ok": True}, "digests": digests, "counts": counts,
        "leaked_shm": 0, "leaked_threads": 0, "setup_s": 1.0, "query_s": query_s,
        "reads": len(digests), "latencies_ms": [10.0] * len(digests), "rss_mb": 50.0,
        "index_bytes": 600, "target_bp": 100,
        "setup_probes_ms": [probe_ms] * 6, "query_probes_ms": [probe_ms] * 4,
    }


class TestVerdict:
    def test_moved_digest_and_count_fail_the_run(self):
        spec = WORKLOADS["paper-k4"]
        first = fake_pass(["a", "b"], {"rank_queries": 5})
        second = fake_pass(["a", "x"], {"rank_queries": 6})
        verdict = run.Verdict(spec, [first, second])
        assert verdict.wrong == {(1, 1)}
        assert not verdict.correct and "counts moved" in verdict.problems[0]

    def test_scheduled_counts_may_move_on_the_pool(self):
        spec = WORKLOADS["batch-process"]
        first = fake_pass(["a"], {"rank_queries": 5, "arena_records": 3})
        second = fake_pass(["a"], {"rank_queries": 6, "arena_records": 3})
        assert run.Verdict(spec, [first, second]).correct

    def test_times_scale_to_the_reference_host_speed(self):
        slow = fake_pass(["a"] * 4, {}, probe_ms=2 * run.REFERENCE_PROBE_MS, query_s=4.0)
        verdict = run.Verdict(WORKLOADS["paper-k4"], [slow])
        metrics = run.end_to_end([slow], verdict)
        assert metrics["setup_s"] == pytest.approx(0.5)
        assert metrics["reads_per_s"] == pytest.approx(2.0)
        assert metrics["request_ms_p50"] == pytest.approx(5.0)
        assert metrics["answered_share"] == 1.0
        assert metrics["index_bytes_per_bp"] == 6.0
