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
cross-query memo hits.  Reads/sec for each mode land in the ``e1``
section of ``benchmarks/results/batch_throughput.json``; E1c's
high-hit batch writes its ``high_hit`` section.  Each section carries
the stamp of the run that wrote it.

``workers`` is an upper bound (:func:`repro.engine.executor.pool_size`):
a batch runs on the pool only when every worker gets at least
``MIN_ITEMS_PER_WORKER`` items.  ``test_pool_break_even`` is the sweep
that constant is taken from (``batch_break_even.{txt,json}``).
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro.bench.reporting import format_table
from repro.bench.workloads import fig11_workload
from repro.core.matcher import KMismatchIndex
from repro.engine import BatchExecutor, executor

from conftest import write_json_result, write_json_section, write_result

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

        # Process pool (workers is an upper bound, so this is the path
        # the executor picks): each worker hydrates the index from shared
        # memory.
        measured["pool_workers"] = executor.pool_size(WORKERS, N_READS)
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
            f"(workers={WORKERS}, pool of {measured['pool_workers']}, "
            f"shared memo hits={measured['shared_reuse_hits']:,})"
        ),
    )
    write_result(results_dir, "batch_throughput", table)
    write_json_section(results_dir, "batch_throughput", "e1", {
        "n_reads": N_READS,
        "read_length": READ_LENGTH,
        "k": K,
        "genome_bp": len(text),
        "workers": WORKERS,
        "pool_workers": measured["pool_workers"],
        "seconds": {m: measured[m] for m in ("sequential", "cached", "parallel")},
        "reads_per_sec": throughput,
        "shared_reuse_hits": measured["shared_reuse_hits"],
    })


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
# unit, so the result volume, not the search, dominates the pool's
# return traffic.
HIGH_HIT_UNIT = 30
HIGH_HIT_UNITS = 1200
HIGH_HIT_READS = 36
HIGH_HIT_K = 1
HIGH_HIT_PAIRS = 5


@pytest.mark.benchmark(group="batch-throughput")
def test_high_hit_pool(benchmark, results_dir, monkeypatch):
    """E1c — a high-hit map batch: serial vs the process pool.

    The pool's workers send each chunk's ~10^4 occurrences home as
    packed records, which the parent decodes as each chunk arrives.
    Serial and pool runs alternate for ``HIGH_HIT_PAIRS`` pairs, each
    from a cold memo as each pool worker starts; the pool must return
    exactly the serial results every time.  The batch
    is below the pool's break-even size, so the pool runs lower
    ``MIN_ITEMS_PER_WORKER`` to 1; the CPU count still caps the pool.
    """
    rng = random.Random(23)
    unit = "".join(rng.choice("acgt") for _ in range(HIGH_HIT_UNIT))
    text = unit * HIGH_HIT_UNITS
    index = KMismatchIndex(text)
    reads = [unit[i : i + HIGH_HIT_UNIT - 6] for i in range(6)] * (HIGH_HIT_READS // 6)
    seconds = {"serial": [], "pool": []}
    measured = {}

    def run_all():
        batches = {}
        for pair in range(HIGH_HIT_PAIRS):
            for mode in ("serial", "pool")[:: -1 if pair % 2 else 1]:
                index.engine("algorithm_a").clear_memo()
                with monkeypatch.context() as patch:
                    patch.setattr(executor, "MIN_ITEMS_PER_WORKER", 1)
                    start = time.perf_counter()
                    batches[mode] = BatchExecutor(
                        workers=0 if mode == "serial" else WORKERS
                    ).run_map(index, reads, HIGH_HIT_K)
                    seconds[mode].append(time.perf_counter() - start)
            assert batches["pool"].mode == "process"
            assert batches["pool"].results == batches["serial"].results
        measured["pool_workers"] = batches["pool"].workers
        measured["records"] = batches["pool"].extra["arena_records"]
        measured["total_hits"] = sum(len(r) for r in batches["serial"].results)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    modes = ("serial", "pool")
    median_s = {mode: statistics.median(seconds[mode]) for mode in modes}
    throughput = {mode: len(reads) / median_s[mode] for mode in modes}
    pool_over_serial = statistics.median(
        p / s for p, s in zip(seconds["pool"], seconds["serial"])
    )
    rows = [
        [mode, f"{median_s[mode]:.3f}s", f"{throughput[mode]:,.0f}"]
        for mode in modes
    ]
    table = format_table(
        ["mode", "time", "reads/sec"],
        rows,
        title=(
            f"E1c: {len(reads)} reads, k={HIGH_HIT_K} on a {len(text):,} bp tandem "
            f"repeat — {measured['total_hits']:,} hits (workers={WORKERS}, "
            f"pool of {measured['pool_workers']}, records={measured['records']:,}; "
            f"median of {HIGH_HIT_PAIRS} alternating pairs)"
        ),
    )
    table += f"\npool/serial: {pool_over_serial:.2f} (median per-pair ratio)"
    write_result(results_dir, "batch_throughput_high_hit", table)
    write_json_section(results_dir, "batch_throughput", "high_hit", {
        "n_reads": len(reads),
        "read_length": HIGH_HIT_UNIT - 6,
        "k": HIGH_HIT_K,
        "genome_bp": len(text),
        "workers": WORKERS,
        "pool_workers": measured["pool_workers"],
        "total_hits": measured["total_hits"],
        "records": measured["records"],
        "pairs": HIGH_HIT_PAIRS,
        "seconds": seconds,
        "reads_per_sec": throughput,
        "pool_over_serial": pool_over_serial,
    })


# Break-even sweep: batch sizes, and alternating serial / pool pairs
# timed per size (the host's speed swings, so each pair is a ratio).
BREAK_EVEN_SIZES = (4, 8, 16, 32, 64, 128, 256)
BREAK_EVEN_PAIRS = 5


def break_even_read_sets():
    """(name, target, reads, k): the Fig. 11(a) Rat stand-in with 100 bp
    reads at k=4, and the high-hit tandem repeat (500 copies of a 240 bp
    unit) with 60 bp reads at k=2."""
    n = max(BREAK_EVEN_SIZES)
    rat = fig11_workload(read_length=100, n_reads=n)
    tandem = repeat_genome(units=500, unit_length=240, divergence=0.002)
    return [
        ("rat-100bp-k4", rat.genome, rat.reads, 4),
        ("tandem-60bp-k2", tandem, simulated_reads(tandem, n, 60), 2),
    ]


def timed_map(index, reads, k, workers):
    """(seconds, BatchResult) of one map batch from a cold memo, as each
    pool worker starts."""
    index.engine("algorithm_a").clear_memo()
    start = time.perf_counter()
    batch = BatchExecutor(workers=workers).run_map(index, reads, k)
    return time.perf_counter() - start, batch


def break_even_size(rows):
    """Smallest swept batch size from which the pool is faster at every
    larger size (``None`` if it never is)."""
    size = None
    for row in reversed(rows):
        if row["pool_over_serial"] >= 1:
            break
        size = row["items"]
    return size


@pytest.mark.benchmark(group="batch-throughput")
def test_pool_break_even(benchmark, results_dir, monkeypatch):
    """Where the process pool starts to beat the serial path.

    For each read set and batch size, serial and the pool (forced, at
    ``workers`` = usable CPUs) are timed in alternating pairs; the pool
    must return exactly the serial results.  The batch is then run once
    more as the executor chooses, which must follow
    :func:`~repro.engine.executor.pool_size`.  ``MIN_ITEMS_PER_WORKER``
    is the Rat set's break-even size divided by the worker count.
    """
    workers = max(2, executor.usable_cpus())
    sweep = {}

    def run_all():
        for name, text, reads, k in break_even_read_sets():
            index = KMismatchIndex(text)
            rows = []
            for size in BREAK_EVEN_SIZES:
                batch_reads = reads[:size]
                serial_s, pool_s = [], []
                for pair in range(BREAK_EVEN_PAIRS):
                    for path in ("serial", "pool")[:: -1 if pair % 2 else 1]:
                        if path == "serial":
                            seconds, serial = timed_map(index, batch_reads, k, 0)
                            serial_s.append(seconds)
                        else:
                            with monkeypatch.context() as patch:
                                patch.setattr(executor, "MIN_ITEMS_PER_WORKER", 1)
                                seconds, pooled = timed_map(index, batch_reads, k, workers)
                            pool_s.append(seconds)
                            assert pooled.mode == "process"
                    assert pooled.results == serial.results
                chosen = BatchExecutor(workers=workers).run_map(index, batch_reads, k)
                expected = executor.pool_size(workers, size)
                assert chosen.workers == expected
                assert chosen.mode == ("process" if expected > 1 else "serial")
                assert chosen.results == serial.results
                rows.append({
                    "items": size,
                    "serial_ms": [s * 1e3 for s in serial_s],
                    "pool_ms": [s * 1e3 for s in pool_s],
                    "pool_over_serial": statistics.median(
                        p / s for p, s in zip(pool_s, serial_s)
                    ),
                    "hits": sum(len(hits) for hits in serial.results),
                    "rule": chosen.mode,
                })
            sweep[name] = {"k": k, "read_length": len(reads[0]),
                           "genome_bp": len(text), "rows": rows,
                           "break_even_items": break_even_size(rows)}

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table_rows = [
        [name, row["items"], f"{row['hits']:,}",
         f"{statistics.median(row['serial_ms']):.1f}",
         f"{statistics.median(row['pool_ms']):.1f}",
         f"{row['pool_over_serial']:.2f}", row["rule"]]
        for name, result in sweep.items()
        for row in result["rows"]
    ]
    rat_break_even = sweep["rat-100bp-k4"]["break_even_items"]
    derived = None if rat_break_even is None else rat_break_even // workers
    table = format_table(
        ["read set", "items", "hits", "serial ms", "pool ms", "pool/serial", "rule runs"],
        table_rows,
        title=(
            f"Pool break-even: serial vs {workers}-worker pool, map batches from a "
            f"cold memo (median of {BREAK_EVEN_PAIRS} alternating pairs)"
        ),
    )
    table += "".join(
        f"\n{name}: pool faster from "
        + (f"{result['break_even_items']} items" if result["break_even_items"]
           else f"no swept size (up to {max(BREAK_EVEN_SIZES)})")
        for name, result in sweep.items()
    )
    table += (
        f"\nMIN_ITEMS_PER_WORKER: {executor.MIN_ITEMS_PER_WORKER} committed; "
        f"this sweep gives {derived} (Rat break-even / {workers} workers)."
    )
    write_result(results_dir, "batch_break_even", table)
    write_json_result(results_dir, "batch_break_even", {
        "workers": workers,
        "pairs": BREAK_EVEN_PAIRS,
        "min_items_per_worker": executor.MIN_ITEMS_PER_WORKER,
        "derived_min_items_per_worker": derived,
        "read_sets": sweep,
    })
