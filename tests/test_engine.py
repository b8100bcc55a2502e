"""Tests for the engine layer: registry, caching, cross-query memo, batches."""

import random

import pytest

from repro.baselines.naive import naive_search
from repro.core.matcher import METHODS, KMismatchIndex
from repro.core.types import SearchStats
from repro.engine import (
    CAP_EDIT,
    CAP_MISMATCH,
    CAP_WILDCARD,
    REGISTRY,
    BatchExecutor,
    EngineRegistry,
    EngineSpec,
)
from repro.engine import executor
from repro.errors import AlphabetError, PatternError

from conftest import random_dna


class TestRegistry:
    def test_resolve_canonical(self):
        assert REGISTRY.resolve("algorithm_a").name == "algorithm_a"

    def test_resolve_alias(self):
        assert REGISTRY.resolve("A()").name == "algorithm_a"
        assert REGISTRY.resolve("BWT").name == "stree"
        assert REGISTRY.resolve("Amir's").name == "amir"

    def test_unknown_name_raises(self):
        with pytest.raises(PatternError):
            REGISTRY.resolve("quantum")

    def test_unknown_name_is_value_error(self):
        # Callers historically caught ValueError for bad method names.
        with pytest.raises(ValueError):
            REGISTRY.resolve("quantum")

    def test_contains(self):
        assert "algorithm_a" in REGISTRY
        assert "A()" in REGISTRY
        assert "quantum" not in REGISTRY

    def test_methods_tuple_matches_registry(self):
        assert METHODS == REGISTRY.names(capability=CAP_MISMATCH, kind="index")
        assert METHODS == (
            "algorithm_a",
            "algorithm_a_nophi",
            "algorithm_a_noreuse",
            "stree",
            "stree_nophi",
        )

    def test_capability_filters(self):
        assert REGISTRY.names(capability=CAP_EDIT) == ("kerrors",)
        assert REGISTRY.names(capability=CAP_WILDCARD) == ("wildcard",)
        mismatch = REGISTRY.names(capability=CAP_MISMATCH)
        assert "naive" in mismatch and "cole" in mismatch
        assert "kerrors" not in mismatch

    def test_duplicate_name_rejected(self):
        registry = EngineRegistry()
        spec = EngineSpec(name="x", factory=lambda index: None)
        registry.register(spec)
        with pytest.raises(PatternError):
            registry.register(EngineSpec(name="x", factory=lambda index: None))

    def test_duplicate_alias_rejected(self):
        registry = EngineRegistry()
        registry.register(EngineSpec(name="x", factory=lambda index: None, aliases=("y",)))
        with pytest.raises(PatternError):
            registry.register(EngineSpec(name="z", factory=lambda index: None, aliases=("y",)))

    def test_bad_kind_rejected(self):
        with pytest.raises(PatternError):
            EngineRegistry().register(
                EngineSpec(name="x", factory=lambda index: None, kind="gpu")
            )

    def test_iteration_preserves_registration_order(self):
        names = [spec.name for spec in REGISTRY]
        assert names[:2] == ["algorithm_a", "algorithm_a_nophi"]
        assert len(REGISTRY) == len(names)

    def test_ablation_flags(self):
        assert REGISTRY.resolve("algorithm_a").uses_phi
        assert REGISTRY.resolve("algorithm_a").uses_reuse
        assert not REGISTRY.resolve("algorithm_a_nophi").uses_phi
        assert not REGISTRY.resolve("algorithm_a_noreuse").uses_reuse
        assert REGISTRY.resolve("stree").uses_phi
        assert not REGISTRY.resolve("stree_nophi").uses_phi


class TestEngineCaching:
    def test_engine_is_cached_per_method(self):
        index = KMismatchIndex("acagaca" * 10)
        assert index.engine("algorithm_a") is index.engine("algorithm_a")
        assert index.engine("algorithm_a") is index.engine("A()")

    def test_distinct_methods_distinct_engines(self):
        index = KMismatchIndex("acagaca" * 10)
        assert index.engine("algorithm_a") is not index.engine("stree")

    def test_knobs_key_the_cache(self):
        index = KMismatchIndex("acagaca" * 10)
        plain = index.engine("algorithm_a")
        recording = index.engine("algorithm_a", record_mtree=True)
        assert plain is not recording
        assert recording is index.engine("algorithm_a", record_mtree=True)

    def test_fresh_bypasses_cache(self):
        index = KMismatchIndex("acagaca" * 10)
        assert index.engine("algorithm_a", fresh=True) is not index.engine("algorithm_a")

    def test_non_mismatch_engine_rejected_by_search(self):
        index = KMismatchIndex("acagaca")
        with pytest.raises(PatternError):
            index.search("aca", 0, method="kerrors")


class TestLastMtree:
    def test_none_before_first_search(self):
        assert KMismatchIndex("acagaca").last_mtree is None

    def test_none_after_loads(self):
        index = KMismatchIndex("acagaca")
        index.search_with_stats("tcaca", 2, record_mtree=True)
        assert index.last_mtree is not None
        restored = KMismatchIndex.loads(index.dumps())
        assert restored.last_mtree is None


class TestAlphabetValidationFastPath:
    def test_count_k0_validates(self):
        with pytest.raises(AlphabetError):
            KMismatchIndex("acgt").count("axg")

    def test_contains_k0_validates(self):
        with pytest.raises(AlphabetError):
            KMismatchIndex("acgt").contains("axg")

    def test_locate_exact_validates(self):
        with pytest.raises(AlphabetError):
            KMismatchIndex("acgt").locate_exact("axg")


class TestCrossQueryMemo:
    def test_shared_reuse_hits_accumulate(self, repeat_text):
        index = KMismatchIndex(repeat_text)
        reads = [repeat_text[i : i + 20] for i in range(0, 200, 10)]
        _, first = index.search_with_stats(reads[0], 2)
        assert first.shared_reuse_hits == 0
        shared = 0
        for read in reads[1:]:
            _, stats = index.search_with_stats(read, 2)
            shared += stats.shared_reuse_hits
        assert shared > 0

    def test_shared_hits_are_subset_of_reuse_hits(self, repeat_text):
        index = KMismatchIndex(repeat_text)
        for i in range(0, 100, 10):
            _, stats = index.search_with_stats(repeat_text[i : i + 20], 2)
            assert stats.shared_reuse_hits <= stats.reuse_hits

    def test_cross_query_results_exact(self, repeat_text, rng):
        index = KMismatchIndex(repeat_text)
        for _ in range(25):
            pos = rng.randrange(0, len(repeat_text) - 25)
            read = list(repeat_text[pos : pos + 20])
            for _ in range(rng.randrange(0, 3)):
                read[rng.randrange(20)] = rng.choice("acgt")
            read = "".join(read)
            got = [(o.start, o.mismatches) for o in index.search(read, 2)]
            want = [(o.start, o.mismatches) for o in naive_search(repeat_text, read, 2)]
            assert got == want, read

    def test_memo_eviction_bounds_size(self, repeat_text, monkeypatch):
        from repro.core import algorithm_a
        from repro.core.algorithm_a import AlgorithmASearcher

        monkeypatch.setattr(algorithm_a, "MEMO_LIMIT", 64)
        index = KMismatchIndex(repeat_text)
        searcher = AlgorithmASearcher(index.fm_index)
        for i in range(0, 300, 10):
            occs, _ = searcher.search(repeat_text[i : i + 20], 2)
        # Soft bound: the limit plus whatever the current query recorded.
        before = searcher.memo_entries
        _, last = searcher.search(repeat_text[0:20], 2)
        assert last.memo_size > 64
        assert searcher.memo_entries <= 64 + (last.memo_size - before)

    def test_clear_memo(self, repeat_text):
        from repro.core.algorithm_a import AlgorithmASearcher

        searcher = AlgorithmASearcher(KMismatchIndex(repeat_text).fm_index)
        searcher.search(repeat_text[:20], 2)
        assert searcher.memo_entries > 0
        searcher.clear_memo()
        assert searcher.memo_entries == 0

    def test_clear_memo_restores_per_query_behaviour(self, repeat_text):
        from repro.core.algorithm_a import AlgorithmASearcher

        fm = KMismatchIndex(repeat_text).fm_index
        searcher = AlgorithmASearcher(fm)
        cold = AlgorithmASearcher(fm)
        for i in range(0, 60, 20):
            searcher.clear_memo()
            occs, stats = searcher.search(repeat_text[i : i + 20], 2)
            assert stats.shared_reuse_hits == 0
            # A cleared memo searches exactly like a fresh searcher.
            assert (occs, stats) == cold.search(repeat_text[i : i + 20], 2)
            cold = AlgorithmASearcher(fm)


class TestBatchExecutor:
    @pytest.fixture(scope="class")
    def workload(self):
        rnd = random.Random(31337)
        text = random_dna(rnd, 4000)
        reads = []
        for _ in range(60):
            pos = rnd.randrange(0, len(text) - 30)
            read = list(text[pos : pos + 24])
            for _ in range(rnd.randrange(0, 3)):
                read[rnd.randrange(24)] = rnd.choice("acgt")
            reads.append("".join(read))
        return text, reads

    def test_bad_mode_rejected(self):
        for mode in ("fiber", "thread"):
            with pytest.raises(PatternError, match="thread mode was removed"):
                BatchExecutor(workers=2, mode=mode)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(PatternError):
            BatchExecutor(workers=2, chunk_size=0)

    def test_serial_batch_matches_per_query(self, workload):
        text, reads = workload
        index = KMismatchIndex(text)
        batch, stats = index.search_batch_with_stats(reads, 2)
        assert isinstance(stats, SearchStats)
        for read in reads:
            assert batch[read] == index.search(read, 2)

    @pytest.mark.usefixtures("force_pool")
    def test_process_batch_identical_to_serial(self, workload):
        text, reads = workload
        index = KMismatchIndex(text)
        serial = index.search_batch(reads[:20], 2)
        processed = index.search_batch(reads[:20], 2, workers=2)
        assert processed == serial

    @pytest.mark.usefixtures("force_pool")
    def test_map_reads_parallel_identical(self, workload):
        text, reads = workload
        index = KMismatchIndex(text)
        serial = [index.map_read(read, 2) for read in reads[:20]]
        assert index.map_reads(reads[:20], 2) == serial
        assert index.map_reads(reads[:20], 2, workers=3) == serial

    @pytest.mark.usefixtures("force_pool")
    def test_results_in_input_order(self, workload):
        text, reads = workload
        index = KMismatchIndex(text)
        batch = BatchExecutor(workers=3, chunk_size=7).run_search(index, reads, 2)
        assert len(batch.results) == len(reads)
        assert batch.n_chunks == -(-len(reads) // 7)
        for read, occs in zip(reads, batch.results):
            assert occs == index.search(read, 2)

    @pytest.mark.usefixtures("force_pool")
    def test_chunk_stats_merge(self, workload):
        text, reads = workload
        # Fresh indexes (so fresh engines) per run so reuse effects do
        # not skew the totals.
        serial = BatchExecutor(workers=0).run_search(
            KMismatchIndex(text), reads, 2, method="stree"
        )
        parallel = BatchExecutor(workers=4, chunk_size=5).run_search(
            KMismatchIndex(text), reads, 2, method="stree"
        )
        assert parallel.stats.nodes_expanded == serial.stats.nodes_expanded
        assert parallel.stats.leaves == serial.stats.leaves

    def test_single_item_runs_serial(self, workload):
        text, reads = workload
        index = KMismatchIndex(text)
        batch = BatchExecutor(workers=8).run_search(index, reads[:1], 2)
        assert batch.mode == "serial"
        assert batch.workers == 1


class TestPoolBreakEven:
    """``workers`` is an upper bound: a batch runs on
    ``min(workers, usable CPUs, items // MIN_ITEMS_PER_WORKER)`` pool
    workers when that is at least 2, and serially otherwise."""

    @pytest.fixture(scope="class")
    def workload(self):
        rnd = random.Random(4242)
        text = random_dna(rnd, 3000)
        reads = []
        for _ in range(2 * executor.MIN_ITEMS_PER_WORKER):
            pos = rnd.randrange(0, len(text) - 24)
            read = list(text[pos : pos + 24])
            read[rnd.randrange(24)] = rnd.choice("acgt")
            reads.append("".join(read))
        return text, reads

    @pytest.fixture
    def started(self, monkeypatch):
        """Logs every shared-memory segment, thread and process the code
        under test creates."""
        import multiprocessing.process
        import threading
        from multiprocessing import shared_memory

        log = []
        real_shm = shared_memory.SharedMemory
        real_thread_start = threading.Thread.start
        real_process_start = multiprocessing.process.BaseProcess.start

        def shm(*args, **kwargs):
            log.append("shm")
            return real_shm(*args, **kwargs)

        def thread_start(self):
            log.append("thread")
            return real_thread_start(self)

        def process_start(self):
            log.append("process")
            return real_process_start(self)

        monkeypatch.setattr(shared_memory, "SharedMemory", shm)
        monkeypatch.setattr(threading.Thread, "start", thread_start)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", process_start)
        return log

    def test_below_break_even_runs_serial(self, workload, started):
        import threading

        text, reads = workload
        below = reads[: 2 * executor.MIN_ITEMS_PER_WORKER - 1]
        serial = BatchExecutor(workers=0).run_map(KMismatchIndex(text), below, 2)
        threads_before = threading.active_count()
        batch = BatchExecutor(workers=2).run_map(KMismatchIndex(text), below, 2)
        assert (batch.mode, batch.workers, batch.n_chunks) == ("serial", 1, 1)
        assert batch.results == serial.results
        assert batch.stats == serial.stats
        assert started == []
        assert threading.active_count() == threads_before

    def test_above_break_even_runs_the_pool(self, workload, started, monkeypatch):
        monkeypatch.setattr(executor, "usable_cpus", lambda: 2)
        text, reads = workload
        serial = BatchExecutor(workers=0).run_map(KMismatchIndex(text), reads, 2)
        batch = BatchExecutor(workers=2).run_map(KMismatchIndex(text), reads, 2)
        assert (batch.mode, batch.workers) == ("process", 2)
        assert batch.results == serial.results
        assert started.count("process") == 2 and "shm" in started

    def test_pool_capped_by_cpus_and_items_per_worker(self, monkeypatch):
        per = executor.MIN_ITEMS_PER_WORKER
        monkeypatch.setattr(executor, "usable_cpus", lambda: 3)
        assert executor.pool_size(8, 100 * per) == 3
        assert executor.pool_size(2, 100 * per) == 2
        assert executor.pool_size(8, 3 * per - 1) == 2
        assert executor.pool_size(8, 2 * per - 1) == 1
        assert executor.pool_size(1, 100 * per) == 1
        assert executor.pool_size(0, 100 * per) == 1
        monkeypatch.setattr(executor, "usable_cpus", lambda: 1)
        assert executor.pool_size(8, 100 * per) == 1

    def test_same_inputs_take_the_same_path(self, workload):
        text, reads = workload
        index = KMismatchIndex(text)
        below = reads[: executor.MIN_ITEMS_PER_WORKER]
        paths = {
            (batch.mode, batch.workers, batch.n_chunks)
            for batch in (BatchExecutor(workers=2).run_search(index, below, 1)
                          for _ in range(3))
        }
        assert paths == {("serial", 1, 1)}
        sizes = {executor.pool_size(4, len(reads)) for _ in range(3)}
        assert len(sizes) == 1


@pytest.mark.usefixtures("force_pool")
class TestProcessPoolObsParity:
    """Process-pool batches must report the same OBS counters as a
    sequential run (satellite 1) — worker-side metrics and spans used to
    be silently dropped.

    Uses ``method="stree"`` because it is stateless per query; Algorithm
    A's persistent cross-query memo makes rank totals depend on how the
    batch is chunked, which would be a real behaviour difference, not a
    telemetry bug.
    """

    PARITY_COUNTERS = (
        ("search.rank_queries", {"engine": "stree", "k": 2}),
        ("query.count", {}),
        ("engine.batch.items", {}),
    )

    @pytest.fixture(scope="class")
    def workload(self):
        rnd = random.Random(777)
        text = random_dna(rnd, 3000)
        reads = []
        for _ in range(20):
            pos = rnd.randrange(0, len(text) - 30)
            reads.append(text[pos : pos + 20])
        return text, reads

    def _counters_after(self, index, reads, **batch_kwargs):
        from repro.obs import OBS

        OBS.reset()
        OBS.enable()
        try:
            results = index.search_batch(reads, 2, method="stree", **batch_kwargs)
        finally:
            OBS.disable()
        counters = {
            name: OBS.metrics.counter(name, **labels).value
            for name, labels in self.PARITY_COUNTERS
        }
        def walk(span):
            yield span
            for child in span.children:
                yield from walk(child)

        n_spans = sum(
            1
            for root in OBS.tracer.finished
            for span in walk(root)
            if span.name == "kmismatch.search"
        )
        OBS.reset()
        return results, counters, n_spans

    def test_process_mode_reports_sequential_counters(self, workload):
        text, reads = workload
        index = KMismatchIndex(text)
        serial_results, serial, serial_spans = self._counters_after(index, reads)
        process_results, process, process_spans = self._counters_after(
            index, reads, workers=2, chunk_size=5
        )
        assert process_results == serial_results
        assert serial["search.rank_queries"] > 0
        assert process == serial
        assert process_spans == serial_spans > 0

    def test_process_mode_preserves_labelled_series(self, workload):
        """Labelled children must cross the process boundary losslessly:
        the per-(engine, k) query series a worker accumulates merge into
        the parent with the same label sets and totals a sequential run
        produces (tentpole: dimensional telemetry over pools)."""
        from repro.obs import OBS, iter_series

        text, reads = workload
        index = KMismatchIndex(text)

        def labelled_series(**batch_kwargs):
            OBS.reset()
            OBS.enable()
            try:
                index.search_batch(reads, 2, method="stree", **batch_kwargs)
            finally:
                OBS.disable()
            payload = OBS.metrics.to_dict()
            OBS.reset()
            return {
                name: {
                    labels: child["value"]
                    for labels, child in iter_series(payload[name])
                    if labels
                }
                for name in ("query.count", "search.rank_queries")
            }, payload

        serial, _ = labelled_series()
        process, payload = labelled_series(workers=2, chunk_size=5)
        assert serial["query.count"] == {
            (("engine", "stree"), ("k", "2")): len(reads)
        }
        assert process == serial
        # Worker-side telemetry is labelled by pool slot alone (bounded
        # cardinality: slot index, not pid).
        chunks = {
            dict(labels)["worker"]: child["value"]
            for labels, child in iter_series(payload["engine.worker.chunks"])
            if labels
        }
        assert set(chunks) == {"0", "1"}
        assert sum(chunks.values()) == 4  # 20 reads / chunk_size 5
        assert {
            tuple(sorted(dict(labels)))
            for labels, child in iter_series(payload["engine.worker.chunks"])
            if labels
        } == {("worker",)}

    def test_chunk_count_reflects_split(self, workload):
        from repro.obs import OBS

        text, reads = workload
        index = KMismatchIndex(text)
        OBS.reset()
        OBS.enable()
        try:
            index.search_batch(reads, 2, method="stree", workers=2,
                               chunk_size=5)
        finally:
            OBS.disable()
        snapshot = OBS.metrics.to_dict()
        assert snapshot["engine.batch.chunks"]["value"] == 4
        OBS.reset()

    def _error_series(self, index, reads, **batch_kwargs):
        """Run a batch that is expected to raise; return the labelled
        query.errors series that reached the parent registry."""
        from repro.obs import OBS, QUERY_ERRORS_METRIC, iter_series

        OBS.reset()
        OBS.enable()
        try:
            with pytest.raises(Exception) as info:
                index.search_batch(reads, 2, method="stree", **batch_kwargs)
        finally:
            OBS.disable()
        payload = OBS.metrics.to_dict()
        OBS.reset()
        family = payload.get(QUERY_ERRORS_METRIC, {})
        series = {
            labels: child["value"]
            for labels, child in iter_series(family)
            if labels
        }
        return info.value, series

    def test_query_errors_survive_pool_round_trip(self, workload):
        """A worker-side failure must count query.errors{engine,k,kind}
        in the worker and ship the labelled series home through the
        error-message ObsDelta payload — parity with a serial run."""
        text, reads = workload
        index = KMismatchIndex(text)
        bad_reads = list(reads) + ["z" * 20]  # outside the DNA alphabet
        expected = {
            (("engine", "stree"), ("k", "2"), ("kind", "pattern")): 1,
        }

        serial_exc, serial = self._error_series(index, bad_reads)
        assert serial == expected

        process_exc, process = self._error_series(
            index, bad_reads, workers=2, chunk_size=5
        )
        assert isinstance(process_exc, RuntimeError)
        assert "AlphabetError" in str(process_exc)
        assert process == serial == expected


@pytest.mark.usefixtures("force_pool")
class TestResultRecords:
    """Pool workers send each chunk's results home as packed records
    (`repro.engine.records`); callers must see exactly the serial
    results, whatever the hit volume or field values."""

    @pytest.fixture(scope="class")
    def workload(self):
        # A tandem repeat at small k: every read hits every unit, so
        # chunks carry real record volume.  Half the reads carry one
        # substitution, so hits have mismatch offsets; the reverse
        # complements give map batches hits on both strands.
        from repro.dna import reverse_complement

        rnd = random.Random(4242)
        unit = random_dna(rnd, 30)
        text = unit * 120
        reads = [unit[i : i + 20] for i in range(4)]
        reads += [read[:9] + ("a" if read[9] != "a" else "c") + read[10:]
                  for read in reads]
        reads += [reverse_complement(read) for read in reads]
        return text, reads * 2

    def test_search_pool_identical_to_serial(self, workload):
        text, reads = workload
        index = KMismatchIndex(text)
        serial = BatchExecutor(workers=0).run_search(index, reads, 1)
        pooled = BatchExecutor(workers=4, mode="process").run_search(index, reads, 1)
        assert pooled.mode == "process"
        assert pooled.extra["arena_records"] == sum(len(r) for r in serial.results) > 0
        assert any(occ.mismatches for occs in serial.results for occ in occs)
        assert pooled.results == serial.results

    def test_map_kind_round_trips_strand_and_mismatches(self, workload):
        text, reads = workload
        index = KMismatchIndex(text)
        serial = BatchExecutor(workers=0).run_map(index, reads, 1)
        pooled = BatchExecutor(workers=3, mode="process").run_map(index, reads, 1)
        hits = [hit for read_hits in serial.results for hit in read_hits]
        assert {hit.strand for hit in hits} == {"+", "-"}
        assert any(hit.occurrence.mismatches for hit in hits)
        assert pooled.mode == "process"
        assert pooled.results == serial.results

    def test_zero_hit_batch(self, workload):
        text, _ = workload
        index = KMismatchIndex(text)
        misses = ["t" * 20, "g" * 20, "c" * 20, "a" * 20]
        batch = BatchExecutor(workers=2, mode="process").run_search(index, misses, 0)
        assert batch.mode == "process"
        assert batch.extra["arena_records"] == 0
        assert batch.results == [[], [], [], []]

    def test_pool_batch_leaves_no_segments_threads_or_fds(self, workload, monkeypatch):
        import os
        import threading
        from multiprocessing import shared_memory

        text, reads = workload
        index = KMismatchIndex(text)
        # A first batch starts what lives for the whole process (the
        # shared-memory resource tracker and its pipe).
        BatchExecutor(workers=2, mode="process").run_search(index, reads, 1)
        created = []
        real_shm = shared_memory.SharedMemory

        def shm(*args, **kwargs):
            if kwargs.get("create"):
                created.append(kwargs.get("size"))
            return real_shm(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", shm)
        segments = sorted(os.listdir("/dev/shm"))
        threads = threading.active_count()
        fds = len(os.listdir("/proc/self/fd"))
        BatchExecutor(workers=2, mode="process").run_search(index, reads, 1)
        # One segment per batch: the index blob.  Results ride the queue.
        assert len(created) == 1
        assert sorted(os.listdir("/dev/shm")) == segments
        assert threading.active_count() == threads
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_pack_decode_round_trip_extremes(self):
        from repro.core.matcher import ReadHit
        from repro.core.types import Occurrence
        from repro.engine.records import decode_chunk, pack_chunk

        occs = [
            [Occurrence(2**32, (0, 2**16 + 5)), Occurrence(2**64 - 1, ())],
            [],
            [Occurrence(0, tuple(range(0, 2**17, 2**12)))],
        ]
        assert decode_chunk(pack_chunk(7, "search", occs), 3, 7, "search") == occs
        hits = [[ReadHit(occs[0][0], "-"), ReadHit(occs[2][0], "+")], []]
        assert decode_chunk(pack_chunk(0, "map", hits), 2, 0, "map") == hits
        assert pack_chunk(3, "search", []) == b""
        assert decode_chunk(b"", 0, 3, "search") == []
        assert decode_chunk(pack_chunk(3, "search", [[], []]), 2, 3, "search") == [[], []]

    def test_decode_rejects_truncated_records(self):
        from repro.core.types import Occurrence
        from repro.engine.records import RECORD_HEADER, decode_chunk, pack_chunk
        from repro.errors import SerializationError

        bare = pack_chunk(0, "search", [[Occurrence(5, ())]])
        with pytest.raises(SerializationError, match="truncated record header"):
            decode_chunk(bare[:-1], 1, 0, "search")
        with_offsets = pack_chunk(0, "search", [[Occurrence(5, (1, 3))]])
        with pytest.raises(SerializationError, match="truncated mismatch offsets"):
            decode_chunk(with_offsets[: RECORD_HEADER.size + 5], 1, 0, "search")

    def test_decode_rejects_misattributed_records(self):
        from repro.core.types import Occurrence
        from repro.engine.records import decode_chunk, pack_chunk
        from repro.errors import SerializationError

        data = pack_chunk(4, "search", [[], [Occurrence(5, (1,))]])
        assert decode_chunk(data, 2, 4, "search")[1] == [Occurrence(5, (1,))]
        with pytest.raises(SerializationError, match="claims chunk 4"):
            decode_chunk(data, 2, 5, "search")
        with pytest.raises(SerializationError, match="item 1"):
            decode_chunk(data, 1, 4, "search")

    def test_pack_rejects_values_outside_the_record(self):
        from repro.core.types import Occurrence
        from repro.engine.records import pack_chunk
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            pack_chunk(0, "search", [[Occurrence(-1, ())]])


class TestCollectorPoll:
    """The collect loop's queue poll must track the stall deadline
    (never out-poll the watchdog) and count its idle timeouts."""

    def test_poll_faster_than_watchdog_deadline(self, monkeypatch):
        import queue as std_queue
        import threading
        import time

        from repro.engine.executor import _WorkerWatchdog
        from repro.obs import OBS

        class _AliveProc:
            exitcode = None

            def is_alive(self):
                return True

        executor = BatchExecutor(workers=2, mode="process", stall_timeout=0.4)
        result_q = std_queue.Queue()  # raises the same queue.Empty
        watchdog = _WorkerWatchdog(executor.stall_timeout, labels={})

        def feed():
            # Longer than a 0.4s-deadline-safe poll, shorter than the
            # historical fixed 1.0s poll: with the old behaviour the
            # watchdog would fire before the collector drained anything.
            time.sleep(0.25)
            result_q.put(("hydrated", 0, 1.0))
            result_q.put(("hydrated", 1, 1.0))
            result_q.put(("ok", 0, ("queue", [[]]), SearchStats(), None))

        OBS.reset()
        OBS.enable()
        watchdog.start()
        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            outcomes, hydrations = executor._collect(
                result_q, [_AliveProc(), _AliveProc()], 1, 2, "stree", 1, watchdog
            )
        finally:
            watchdog.stop()
            watchdog.join(timeout=5.0)
            feeder.join()
            OBS.disable()
        snapshot = OBS.metrics.to_dict()
        OBS.reset()
        assert watchdog.stalled is False
        assert set(hydrations) == {0, 1}
        assert outcomes[0][0] == ("queue", [[]])
        # The ~0.25s idle wait was bridged by >= 1 sub-deadline polls.
        assert snapshot["engine.worker.poll_timeouts"]["value"] >= 1


class TestWorkerWatchdog:
    """The stuck-worker watchdog must fire on a silent pool and stand
    down when messages keep flowing."""

    def test_fires_on_stall_and_records_it(self, tmp_path):
        import time

        from repro.engine.executor import _WorkerWatchdog
        from repro.engine.executor import WORKER_STALLED_METRIC
        from repro.obs import OBS, load_wide_events

        path = str(tmp_path / "events.jsonl")
        OBS.reset()
        OBS.enable()
        OBS.open_wide_log(path)
        watchdog = _WorkerWatchdog(0.1, labels={"engine": "stree", "k": 2})
        watchdog.start()
        try:
            deadline = time.monotonic() + 5.0
            while not watchdog.stalled and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            watchdog.stop()
            watchdog.join(timeout=5.0)
            OBS.disable()
            OBS.close_wide_log()
        assert watchdog.stalled is True
        family = OBS.metrics.family(WORKER_STALLED_METRIC)
        assert family.default.value == 1
        labels = [dict(c.labels) for c in family.labelled()]
        assert labels == [{"engine": "stree", "k": "2"}]
        (record,) = load_wide_events(path)
        assert record["event"] == "worker_stalled"
        assert record["deadline_s"] == 0.1
        assert record["engine"] == "stree" and record["k"] == 2
        OBS.reset()

    def test_progress_heartbeats_keep_it_quiet(self):
        import time

        from repro.engine.executor import _WorkerWatchdog
        from repro.obs import OBS

        OBS.reset()
        watchdog = _WorkerWatchdog(0.3, labels={})
        watchdog.start()
        try:
            for _ in range(5):
                time.sleep(0.1)
                watchdog.progress()
        finally:
            watchdog.stop()
            watchdog.join(timeout=5.0)
        assert watchdog.stalled is False

    def test_batch_executor_rejects_bad_stall_timeout(self):
        from repro.engine.executor import BatchExecutor

        with pytest.raises(ValueError):
            BatchExecutor(stall_timeout=0)
        with pytest.raises(ValueError):
            BatchExecutor(stall_timeout=-1.5)


class TestEngineNaiveAgreement:
    """Every registered mismatch engine must agree with the naive scan."""

    TRIALS = 50

    @pytest.mark.parametrize("method", REGISTRY.names(capability=CAP_MISMATCH))
    def test_agrees_with_naive(self, method):
        rnd = random.Random(hash(method) & 0xFFFFFFFF)
        for trial in range(self.TRIALS):
            n = rnd.randrange(40, 200)
            m = rnd.randrange(4, min(20, n))
            k = rnd.randrange(0, 4)
            text = random_dna(rnd, n)
            if rnd.random() < 0.5 and n > m:
                pos = rnd.randrange(0, n - m)
                read = list(text[pos : pos + m])
                for _ in range(rnd.randrange(0, k + 1)):
                    read[rnd.randrange(m)] = rnd.choice("acgt")
                pattern = "".join(read)
            else:
                pattern = random_dna(rnd, m)
            index = KMismatchIndex(text)
            got = {(o.start, o.mismatches) for o in index.search(pattern, k, method=method)}
            want = {(o.start, o.mismatches) for o in naive_search(text, pattern, k)}
            assert got == want, (method, trial, text, pattern, k)
