"""Experiment E2 — cold index load: JSON parse vs zero-copy binary map.

The tentpole claim of the binary index format (``repro.io.binfmt``) is
that deserialization cost stops scaling with the index: the JSON path
re-encodes the BWT and rebuilds every checkpoint (O(index)), the binary
path wraps aligned buffers (O(header)).  This experiment times, on one
saved index of a ``REPRO_BENCH_COLDLOAD_BP`` genome (default 1 Mbp):

* ``json``      — ``KMismatchIndex.loads`` of the compatibility format;
* ``bin-mmap``  — ``KMismatchIndex.load(path)`` (memory-mapped, the
  cold-start path a CLI ``map --index-file`` run takes);
* ``bin-bytes`` — ``KMismatchIndex.from_binary`` over bytes already in
  memory (the shared-memory worker hydration path).

Every loaded index must answer a probe query identically to the builder.
The acceptance bar is ``json / bin-mmap >= 10x``; on a 1 Mbp genome the
observed ratio is several thousand.

A process-pool batch over the same index then records per-worker
hydration times (the ``engine.worker.hydrate_ms`` histogram shipped by
the shared-memory executor) — near-constant and milliseconds-scale
regardless of worker count, because each worker re-hydrates in
O(header) from the one shared segment.

Results land in ``benchmarks/results/cold_load.{txt,json}``.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.bench.reporting import format_table
from repro.core.matcher import KMismatchIndex
from repro.engine import BatchExecutor
from repro.obs import OBS

from conftest import write_json_result, write_result

GENOME_BP = int(os.environ.get("REPRO_BENCH_COLDLOAD_BP", "1000000"))
N_READS = 48
READ_LENGTH = 50
K = 1
WORKERS = 4
LOAD_REPEATS = 3


def _genome(length: int) -> str:
    rng = random.Random(23)
    return "".join(rng.choice("acgt") for _ in range(length))


def _best_of(repeats: int, fn):
    """Best-of-N wall time plus the last return value (cold-ish cache)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


@pytest.mark.benchmark(group="cold-load")
def test_cold_load_speedup(benchmark, results_dir, tmp_path):
    text = _genome(GENOME_BP)
    index = KMismatchIndex(text)
    probe = text[1000 : 1000 + READ_LENGTH]

    json_path = tmp_path / "index.json"
    bin_path = tmp_path / "index.fmbin"
    json_path.write_text(index.dumps())
    index.save(bin_path)
    blob = bin_path.read_bytes()

    json_payload = json_path.read_text()
    expected = index.search(probe, K)
    measured = {}

    def load_json():
        return KMismatchIndex.loads(json_payload)

    def load_bin_mmap():
        return KMismatchIndex.load(bin_path)

    def load_bin_bytes():
        return KMismatchIndex.from_binary(blob)

    for name, loader in (
        ("json", load_json), ("bin-mmap", load_bin_mmap), ("bin-bytes", load_bin_bytes)
    ):
        seconds, loaded = _best_of(LOAD_REPEATS, loader)
        assert loaded.search(probe, K) == expected, f"{name} load changed answers"
        measured[name] = seconds

    benchmark.pedantic(load_bin_mmap, rounds=3, iterations=1)

    speedup_mmap = measured["json"] / measured["bin-mmap"]
    speedup_bytes = measured["json"] / measured["bin-bytes"]
    assert speedup_mmap >= 10, (
        f"binary load must be >= 10x faster than JSON at {GENOME_BP} bp, "
        f"got {speedup_mmap:.1f}x"
    )

    # -- per-worker hydration under the shared-memory process pool -----------
    reads = [
        text[pos : pos + READ_LENGTH]
        for pos in random.Random(29).sample(range(len(text) - READ_LENGTH), N_READS)
    ]
    OBS.reset().enable()
    try:
        # WORKERS is an upper bound: the pool also stops at the usable
        # CPUs (executor.pool_size), so the batch reports what it used.
        batch = BatchExecutor(workers=WORKERS).run_map(index, reads, K)
        hist = OBS.metrics.histogram("engine.worker.hydrate_ms")
        hydrations = OBS.metrics.counter("engine.worker.hydrations").value
        hydrate = {
            "workers": batch.workers,
            "hydrations": hydrations,
            "min_ms": hist.min,
            "max_ms": hist.max,
            "count": hist.count,
            "shm_nbytes": OBS.metrics.gauge("engine.shm.nbytes").value,
        }
    finally:
        OBS.disable()
        OBS.reset()
    assert len(batch.results) == N_READS
    assert batch.mode == "process" and batch.workers >= 2
    assert hydrate["count"] == hydrations == batch.workers

    rows = [
        ["json", f"{measured['json'] * 1e3:10.2f}", f"{1.0:8.1f}x"],
        ["bin-mmap", f"{measured['bin-mmap'] * 1e3:10.2f}", f"{speedup_mmap:8.1f}x"],
        ["bin-bytes", f"{measured['bin-bytes'] * 1e3:10.2f}", f"{speedup_bytes:8.1f}x"],
    ]
    table = format_table(
        ["loader", "load ms", "speedup"],
        rows,
        title=(
            f"cold index load, {GENOME_BP} bp genome "
            f"(json {len(json_payload)} B, bin {len(blob)} B); "
            f"worker hydration {hydrate['min_ms']:.2f}-{hydrate['max_ms']:.2f} ms "
            f"across {batch.workers} workers"
        ),
    )
    write_result(results_dir, "cold_load", table)
    write_json_result(
        results_dir,
        "cold_load",
        {
            "genome_bp": GENOME_BP,
            "json_bytes": len(json_payload),
            "bin_bytes": len(blob),
            "load_seconds": measured,
            "speedup": {"bin-mmap": speedup_mmap, "bin-bytes": speedup_bytes},
            "worker_hydration": hydrate,
        },
    )
