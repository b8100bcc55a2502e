"""Engine layer: what Algorithm A's memo hook costs over the S-tree loop.

Both engines run the same explicit-stack search (``core/stree.py``
``tree_search``); Algorithm A adds a memo hook on wide ranges.  With the
hook off (``enable_reuse=False``) A() must do exactly the S-tree's work,
count for count, and cost within 5% of it.  The table also shows A()
with the hook on, from a cold memo (a fresh searcher per run) and warm
(a second pass over the same reads on the same searcher).  The cold
pass is run once more with the cyclic garbage collector off.  Everything
the S-tree allocates dies young, so its pass sets off no collection; each
memo miss keeps a children list, its ``(code, (lo, hi))`` pairs and a
record tuple alive, and those survivors set off the collections that
the gc-off row removes.  The pairs are plain tuples of ints, which the
collector untracks once it has seen them.  One more cold pass, untimed,
counts the collections it sets off and the objects the memo leaves
tracked.

Workload: Fig. 11(a) set-up at k=4 (Rat stand-in, 100 bp reads).  Ten
runs; times are the median per-read cost over the ten runs.  The two
no-memo engines are timed read by read, alternating which goes first,
so a swing in the host's speed lands on both rather than on whichever
engine's pass it falls in.
"""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from repro.bench.reporting import format_table
from repro.bench.workloads import fig11_workload
from repro.core.algorithm_a import AlgorithmASearcher
from repro.core.matcher import KMismatchIndex
from repro.core.stree import STreeSearcher

from conftest import write_result

K = 4
RUNS = 10
#: A() with the hook off may cost at most this much more than the S-tree.
MAX_OVERHEAD = 0.05


def timed(searcher, reads):
    """(ms per read, summed SearchStats counts, occurrences) of one pass."""
    gc.collect()
    totals = None
    found = []
    start = time.perf_counter()
    for read in reads:
        occs, stats = searcher.search(read, K)
        found.append(occs)
        totals = stats if totals is None else totals.merge(stats)
    elapsed = time.perf_counter() - start
    return elapsed * 1e3 / len(reads), totals.to_dict(), found


def interleaved(engines, reads, run):
    """``{label: (ms per read, summed counts, occurrences)}`` for two
    engines timed read by read, the first to go alternating per read."""
    gc.collect()
    elapsed = {label: 0.0 for label, _ in engines}
    totals = dict.fromkeys(elapsed)
    found = {label: [] for label in elapsed}
    for i, read in enumerate(reads):
        for label, searcher in engines[::-1] if (run + i) % 2 else engines:
            start = time.perf_counter()
            occs, stats = searcher.search(read, K)
            elapsed[label] += time.perf_counter() - start
            found[label].append(occs)
            totals[label] = stats if totals[label] is None else totals[label].merge(stats)
    return {
        label: (elapsed[label] * 1e3 / len(reads), totals[label].to_dict(), found[label])
        for label in elapsed
    }


def collector_load(fm, reads):
    """(collections, objects left tracked) of one cold-memo A() pass."""
    gc.collect()
    tracked_before = len(gc.get_objects())
    collections = 0

    def count(phase, info):
        nonlocal collections
        collections += phase == "start"

    searcher = AlgorithmASearcher(fm)
    gc.callbacks.append(count)
    try:
        for read in reads:
            searcher.search(read, K)
    finally:
        gc.callbacks.remove(count)
    # A pair is untracked once its inner pair is: two passes settle both.
    gc.collect()
    gc.collect()
    return collections, len(gc.get_objects()) - tracked_before


@pytest.mark.benchmark(group="kernel-overhead")
def test_kernel_overhead(benchmark, results_dir):
    workload = fig11_workload(read_length=100)
    fm = KMismatchIndex(workload.genome).fm_index
    reads = workload.reads
    times = {"S-tree": [], "A(), hook off": [], "A(), cold memo": [], "A(), warm memo": [],
             "A(), cold memo, gc off": []}
    counts = {}
    _, _, answer = timed(STreeSearcher(fm), reads)  # also warms the index

    def sweep():
        for run in range(RUNS):
            engines = [("S-tree", STreeSearcher(fm)),
                       ("A(), hook off", AlgorithmASearcher(fm, enable_reuse=False))]
            for label, (ms, counts[label], found) in interleaved(engines, reads, run).items():
                times[label].append(ms)
                assert found == answer
            searcher = AlgorithmASearcher(fm)
            for label in ("A(), cold memo", "A(), warm memo"):
                ms, counts[label], found = timed(searcher, reads)
                times[label].append(ms)
                assert found == answer
            label = "A(), cold memo, gc off"
            gc.disable()
            try:
                ms, counts[label], found = timed(AlgorithmASearcher(fm), reads)
            finally:
                gc.enable()
            times[label].append(ms)
            assert found == answer

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    stree_ms = statistics.median(times["S-tree"])
    rows = []
    for label, samples in times.items():
        c = counts[label]
        median = statistics.median(samples)
        rows.append([
            label,
            f"{median:.2f}",
            f"{median / stree_ms:.3f}",
            f"{c['rank_queries']:,}",
            f"{c['lf_steps']:,}",
            f"{c['phi_steps']:,}",
            f"{c['nodes_expanded']:,}",
            f"{c['leaves']:,}",
            f"{c['reuse_hits']:,}",
            f"{c['chars_replayed']:,}",
        ])
    table = format_table(
        ["engine", "ms/read", "vs S-tree", "rank queries", "LF steps", "φ steps", "nodes", "leaves",
         "reuse hits", "chars replayed"],
        rows,
        title=f"Engine layer: memo hook over the S-tree loop ({workload.name}, "
        f"{len(workload.genome):,} bp, {len(reads)} reads x 100 bp, k={K}, "
        f"median of {RUNS} runs)",
    )
    collections, tracked = collector_load(fm, reads)
    table += (
        f"\nCold memo, one more pass: {collections} garbage collections; "
        f"{tracked:,} more objects tracked by the collector afterwards."
    )
    write_result(results_dir, "kernel_overhead", table)
    # Hook off, A() is the S-tree: same work, and within the overhead bound.
    assert counts["A(), hook off"] == counts["S-tree"]
    assert statistics.median(times["A(), hook off"]) <= stree_ms * (1 + MAX_OVERHEAD)
