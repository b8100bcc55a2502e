"""Experiment E1 — batch throughput: sequential vs cached engine vs parallel.

The many-read workload is the engine layer's reason to exist: one target,
a stream of simulated reads.  Three executions of the same batch are
compared

* **sequential** — a fresh searcher per read (the pre-engine-layer
  behaviour: no state survives between queries);
* **cached** — the facade's serial batch path, where one cached engine
  carries Algorithm A's pair memo across the whole batch;
* **parallel** — the batch executor on the shared-memory process pool
  (each worker hydrates the index and starts with a cold memo).

All three must return identical occurrences; the cached run must report
cross-query memo hits.  Reads/sec for each mode land in
``benchmarks/results/batch_throughput.json``.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.bench.reporting import format_table
from repro.core.matcher import KMismatchIndex
from repro.engine import BatchExecutor

from conftest import write_json_result, write_result

N_READS = 240
READ_LENGTH = 60
K = 2
WORKERS = 4


def repeat_genome(units: int = 1500, unit_length: int = 40, divergence: float = 0.02) -> str:
    rng = random.Random(11)
    unit = "".join(rng.choice("acgt") for _ in range(unit_length))
    parts = []
    for _ in range(units):
        parts.append(
            "".join(ch if rng.random() >= divergence else rng.choice("acgt") for ch in unit)
        )
    return "".join(parts)


def simulated_reads(text: str, n: int, length: int) -> list:
    rng = random.Random(17)
    reads = []
    for _ in range(n):
        pos = rng.randrange(0, len(text) - length)
        read = list(text[pos : pos + length])
        for _ in range(rng.randrange(0, K + 1)):
            read[rng.randrange(length)] = rng.choice("acgt")
        reads.append("".join(read))
    return reads


@pytest.mark.benchmark(group="batch-throughput")
def test_batch_throughput(benchmark, results_dir):
    text = repeat_genome()
    index = KMismatchIndex(text)
    reads = simulated_reads(text, N_READS, READ_LENGTH)
    measured = {}

    def run_all():
        # Sequential baseline: a fresh searcher per read, no carried state.
        start = time.perf_counter()
        sequential = [index.engine("algorithm_a", fresh=True).search(r, K)[0] for r in reads]
        measured["sequential"] = time.perf_counter() - start

        # Cached engine, serial: the cross-query memo serves the batch.
        start = time.perf_counter()
        cached, stats = index.search_batch_with_stats(reads, K)
        measured["cached"] = time.perf_counter() - start
        measured["shared_reuse_hits"] = stats.shared_reuse_hits

        # Process pool: each worker hydrates the index from shared memory.
        start = time.perf_counter()
        parallel = index.search_batch(reads, K, workers=WORKERS)
        measured["parallel"] = time.perf_counter() - start

        # All modes must agree byte-for-byte with the sequential baseline.
        for read, occs in zip(reads, sequential):
            assert cached[read] == occs
        assert parallel == cached

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    assert measured["shared_reuse_hits"] > 0, "cached batch produced no cross-query memo hits"

    throughput = {
        mode: N_READS / measured[mode] for mode in ("sequential", "cached", "parallel")
    }
    rows = [
        [mode, f"{measured[mode]:.3f}s", f"{throughput[mode]:,.0f}"]
        for mode in ("sequential", "cached", "parallel")
    ]
    table = format_table(
        ["mode", "time", "reads/sec"],
        rows,
        title=(
            f"E1: {N_READS} reads x {READ_LENGTH} bp, k={K} on {len(text):,} bp "
            f"(workers={WORKERS}, shared memo hits={measured['shared_reuse_hits']:,})"
        ),
    )
    write_result(results_dir, "batch_throughput", table)
    # Keep E1c's high-hit section (same JSON artifact) if it ran first.
    json_path = results_dir / "batch_throughput.json"
    previous = json.loads(json_path.read_text()) if json_path.exists() else {}
    payload = {
        "n_reads": N_READS,
        "read_length": READ_LENGTH,
        "k": K,
        "genome_bp": len(text),
        "workers": WORKERS,
        "seconds": {m: measured[m] for m in ("sequential", "cached", "parallel")},
        "reads_per_sec": throughput,
        "shared_reuse_hits": measured["shared_reuse_hits"],
    }
    if "high_hit" in previous:
        payload["high_hit"] = previous["high_hit"]
    write_json_result(results_dir, "batch_throughput", payload)


@pytest.mark.benchmark(group="batch-throughput")
def test_shard_throughput(benchmark, results_dir):
    """E1b — routed batches: 1 shard vs 4 shards, same genome, same reads.

    Both runs go through the process pool.  The sharded run pays the
    fan-out (every shard sees every read, one pool per shard) and the
    seam-overlap duplication; what it buys is the lifted 4 Gbp cap.
    Both executions must return identical global hit sets — the
    seam-correctness property at benchmark scale.
    """
    from repro.shard import ShardedIndex

    text = repeat_genome()
    reads = simulated_reads(text, N_READS, READ_LENGTH)
    flat = KMismatchIndex(text)
    sharded = ShardedIndex.build(text, 4, max_pattern=READ_LENGTH + 4, max_k=K + 2)
    measured = {}

    def run_all():
        start = time.perf_counter()
        unsharded = flat.search_batch(reads, K, workers=WORKERS)
        measured["one_shard"] = time.perf_counter() - start

        start = time.perf_counter()
        routed = sharded.search_batch(reads, K, workers=WORKERS)
        measured["four_shards"] = time.perf_counter() - start

        # Byte-identical global hit sets, seam windows included.
        assert routed == unsharded

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    throughput = {mode: N_READS / measured[mode] for mode in measured}
    rows = [
        [mode, f"{measured[mode]:.3f}s", f"{throughput[mode]:,.0f}"]
        for mode in ("one_shard", "four_shards")
    ]
    table = format_table(
        ["mode", "time", "reads/sec"],
        rows,
        title=(
            f"E1b: {N_READS} reads x {READ_LENGTH} bp, k={K} on {len(text):,} bp "
            f"(workers={WORKERS}, overlap={sharded.manifest.overlap} bp/seam)"
        ),
    )
    write_result(results_dir, "shard_throughput", table)
    write_json_result(
        results_dir,
        "shard_throughput",
        {
            "n_reads": N_READS,
            "read_length": READ_LENGTH,
            "k": K,
            "genome_bp": len(text),
            "workers": WORKERS,
            "n_shards": sharded.n_shards,
            "overlap": sharded.manifest.overlap,
            "seconds": dict(measured),
            "reads_per_sec": throughput,
        },
    )


# E1c knobs: a near-exact tandem repeat at small k is the high-hit
# regime (Nicolae & Rajasekaran) — every read matches ~every repeat
# unit, so the result volume, not the search, dominates the return path.
HIGH_HIT_UNIT = 30
HIGH_HIT_UNITS = 1200
HIGH_HIT_READS = 36
HIGH_HIT_K = 1


@pytest.mark.benchmark(group="batch-throughput")
def test_high_hit_return_path(benchmark, results_dir):
    """E1c — high-hit process batches: shared-memory arena vs pickle queue.

    Each process-mode run returns the same ~10^5 occurrences; the only
    difference is the return path — fixed-width records scanned out of
    the shared-memory result arena versus pickling every occurrence
    list through the result queue.  Results must be byte-identical to
    the serial run either way; the ``return_path`` each run actually
    took is recorded per row.
    """
    rng = random.Random(23)
    unit = "".join(rng.choice("acgt") for _ in range(HIGH_HIT_UNIT))
    text = unit * HIGH_HIT_UNITS
    index = KMismatchIndex(text)
    reads = [unit[i : i + HIGH_HIT_UNIT - 6] for i in range(6)] * (HIGH_HIT_READS // 6)
    measured = {}
    paths = {}

    def run_all():
        start = time.perf_counter()
        serial = BatchExecutor(workers=0).run_map(index, reads, HIGH_HIT_K)
        measured["serial"] = time.perf_counter() - start
        paths["serial"] = "inline"

        start = time.perf_counter()
        arena = BatchExecutor(workers=WORKERS, mode="process").run_map(
            index, reads, HIGH_HIT_K
        )
        measured["process_arena"] = time.perf_counter() - start
        paths["process_arena"] = arena.extra["return_path"]
        measured["arena_records"] = arena.extra["arena_records"]

        start = time.perf_counter()
        queue = BatchExecutor(workers=WORKERS, mode="process", arena_bytes=0).run_map(
            index, reads, HIGH_HIT_K
        )
        measured["process_queue"] = time.perf_counter() - start
        paths["process_queue"] = queue.extra["return_path"]

        assert paths["process_arena"] == "arena"
        assert paths["process_queue"] == "queue"
        # Byte-identical results regardless of return path.
        assert arena.results == serial.results
        assert queue.results == serial.results
        measured["total_hits"] = sum(len(r) for r in serial.results)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    modes = ("serial", "process_arena", "process_queue")
    throughput = {mode: len(reads) / measured[mode] for mode in modes}
    rows = [
        [mode, paths[mode], f"{measured[mode]:.3f}s", f"{throughput[mode]:,.0f}"]
        for mode in modes
    ]
    table = format_table(
        ["mode", "return_path", "time", "reads/sec"],
        rows,
        title=(
            f"E1c: {len(reads)} reads, k={HIGH_HIT_K} on a {len(text):,} bp tandem "
            f"repeat — {measured['total_hits']:,} hits (workers={WORKERS}, "
            f"arena records={measured['arena_records']:,})"
        ),
    )
    write_result(results_dir, "batch_throughput_high_hit", table)
    # The high-hit section rides in batch_throughput.json next to E1's
    # numbers; merge rather than overwrite so the two tests compose in
    # any order (E1's write_json_result replaces the whole file).
    json_path = results_dir / "batch_throughput.json"
    payload = json.loads(json_path.read_text()) if json_path.exists() else {}
    payload["high_hit"] = {
        "n_reads": len(reads),
        "read_length": HIGH_HIT_UNIT - 6,
        "k": HIGH_HIT_K,
        "genome_bp": len(text),
        "workers": WORKERS,
        "total_hits": measured["total_hits"],
        "arena_records": measured["arena_records"],
        "return_path": {m: paths[m] for m in modes},
        "seconds": {m: measured[m] for m in modes},
        "reads_per_sec": throughput,
        "arena_speedup_vs_queue": measured["process_queue"] / measured["process_arena"],
    }
    write_json_result(results_dir, "batch_throughput", payload)
