"""Engine layer: what Algorithm A's memo costs over the S-tree loop.

Both engines run the same explicit-stack search (``core/stree.py``
``tree_search``); Algorithm A adds its memo on wide ranges.  With the
memo off (``enable_reuse=False``) A() must do exactly the S-tree's work,
count for count, and cost within 5% of it.  The table also shows A()
with the memo on, from a cold memo (a fresh searcher) and warm (a second
pass over the same reads on the same searcher).  The cold pass is run
once more with the cyclic garbage collector off.  Everything the S-tree
allocates dies young.  Each memo miss keeps a record alive: one flat
tuple of ints, ``(code, lo, hi, code, lo, hi, ..., gen)``, under an int
key.  Those survivors set off the collections that the gc-off row
removes.  A collection untracks a tuple whose items are all untracked,
so one collection leaves no record tracked, and records do not reach
the older generations.  A cold pass may set off at most
:data:`MAX_COLLECTIONS` collections and leave at most
:data:`MAX_TRACKED` objects tracked.

Workload: Fig. 11(a) set-up at k=4 (Rat stand-in, 100 bp reads).  Each
A() variant is timed against the S-tree in :data:`PAIRS` pairs of whole
passes over the reads, the order swapped from one pair to the next, so
a swing in the host's speed lands on both passes of a pair.  The memo-off
pair goes read by read, the first engine alternating per read: neither
engine keeps anything across reads, so the two passes can share each
stretch of host speed.  The memo rows cannot: a collection set off
inside an S-tree read would walk the A() records and charge the S-tree.
A row's ratio is the median of its per-pair ratios, with their quartiles
as the spread.  Times are printed raw (median ms per read) and scaled to a
reference host speed by kmbench's host probe (``kmbench/probe.py``, run
before and after each pair), as kmbench scales its own.  Beside the
times stand counts that do not depend on the host: ``children()`` calls,
LF steps, nodes, reuse hits and memo records from the passes, and the
garbage collections and objects left tracked from one more, untimed pass
of each row.
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

from conftest import kmbench_module, write_result

K = 4
PAIRS = 10
#: A() with the memo off may cost at most this much more than the S-tree.
MAX_OVERHEAD = 0.05
#: Objects a cold A() pass may leave tracked by the collector: its chains
#: and the few lists they hold, not one record per memo entry.
MAX_TRACKED = 5_000
#: Collections a cold A() pass may set off: 117 while each record was
#: three nested levels of tuples, 25 or so as one flat tuple.
MAX_COLLECTIONS = 40
#: The engine-layer gate (Fig. 11(a)'s A() below the S-tree): the median
#: per-pair ratio of a cold and of a warm memo.  Printed, not asserted:
#: one run's pairs on a shared host do not settle it.
GATE = {"A(), cold memo": 1.05, "A(), warm memo": 0.87}

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


def timed_gc_off(searcher, reads):
    """:func:`timed` with the cyclic garbage collector off."""
    gc.disable()
    try:
        return timed(searcher, reads)
    finally:
        gc.enable()


def interleaved(engines, reads, index):
    """``{label: (ms per read, summed counts, occurrences)}`` for two
    engines timed read by read over one pass each, the first to go
    alternating per read."""
    gc.collect()
    elapsed = {label: 0.0 for label, _ in engines}
    totals = dict.fromkeys(elapsed)
    found = {label: [] for label in elapsed}
    for i, read in enumerate(reads):
        for label, searcher in engines[::-1] if (index + i) % 2 else engines:
            start = time.perf_counter()
            occs, stats = searcher.search(read, K)
            elapsed[label] += time.perf_counter() - start
            found[label].append(occs)
            totals[label] = stats if totals[label] is None else totals[label].merge(stats)
    return {
        label: (elapsed[label] * 1e3 / len(reads), totals[label].to_dict(), found[label])
        for label in elapsed
    }


def settle():
    """One collection: it untracks every memo record, a flat tuple of ints."""
    gc.collect()


def collector_load(searcher, reads, collector=True):
    """(collections, objects left tracked) of one more, untimed pass of
    ``searcher``; ``collector=False`` runs it with the collector off."""
    settle()
    tracked_before = len(gc.get_objects())
    collections = 0

    def count(phase, info):
        nonlocal collections
        collections += phase == "start"

    gc.callbacks.append(count)
    if not collector:
        gc.disable()
    try:
        for read in reads:
            searcher.search(read, K)
    finally:
        gc.enable()
        gc.callbacks.remove(count)
    settle()
    return collections, len(gc.get_objects()) - tracked_before


@pytest.mark.benchmark(group="kernel-overhead")
def test_kernel_overhead(benchmark, results_dir):
    probe = kmbench_module("probe").ProbeIndex()
    reference_probe_ms = kmbench_module("run").REFERENCE_PROBE_MS
    workload = fig11_workload(read_length=100)
    fm = KMismatchIndex(workload.genome).fm_index
    reads = workload.reads
    labels = ("S-tree", "A(), memo off", "A(), cold memo", "A(), warm memo",
              "A(), cold memo, gc off")
    raw = {label: [] for label in labels}
    scaled = {label: [] for label in labels}
    ratios = {label: [] for label in labels[1:]}
    counts = {}
    memo_records = {}
    probe_ms = []
    _, _, answer = timed(STreeSearcher(fm), reads)  # also warms the index

    def pair(index, label, searcher, run=timed):
        """Time one S-tree pass and one ``label`` pass, the order set by
        ``index``; record both, scaled by the probes around the pair.
        With ``run=None`` the two passes go read by read."""
        probes = [probe.time_ms()]
        if run is None:
            results = interleaved([("S-tree", STreeSearcher(fm)), (label, searcher)], reads, index)
        else:
            results = {}
            passes = [("S-tree", STreeSearcher(fm), timed), (label, searcher, run)]
            for name, engine, runner in passes[::-1] if index % 2 else passes:
                results[name] = runner(engine, reads)
        gc.collect()  # not in the probe: the collection a gc-off pass put off
        probes.append(probe.time_ms())
        probe_ms.extend(probes)
        factor = reference_probe_ms / statistics.mean(probes)
        for name, (ms, counts[name], found) in results.items():
            assert found == answer
            raw[name].append(ms)
            scaled[name].append(ms * factor)
        ratios[label].append(results[label][0] / results["S-tree"][0])

    def sweep():
        for index in range(PAIRS):
            pair(index, "A(), memo off", AlgorithmASearcher(fm, enable_reuse=False), None)
            searcher = AlgorithmASearcher(fm)
            pair(index + 1, "A(), cold memo", searcher)
            memo_records["A(), cold memo"] = searcher.memo_entries
            pair(index, "A(), warm memo", searcher)
            memo_records["A(), warm memo"] = searcher.memo_entries
            searcher = AlgorithmASearcher(fm)
            pair(index + 1, "A(), cold memo, gc off", searcher, timed_gc_off)
            memo_records["A(), cold memo, gc off"] = searcher.memo_entries

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    warm = AlgorithmASearcher(fm)
    timed(warm, reads)
    load = {
        "S-tree": collector_load(STreeSearcher(fm), reads),
        "A(), memo off": collector_load(AlgorithmASearcher(fm, enable_reuse=False), reads),
        "A(), cold memo": collector_load(AlgorithmASearcher(fm), reads),
        "A(), warm memo": collector_load(warm, reads),
        "A(), cold memo, gc off": collector_load(AlgorithmASearcher(fm), reads, False),
    }
    rows = []
    for label in labels:
        c = counts[label]
        collections, tracked = load[label]
        if label in ratios:
            q1, _, q3 = statistics.quantiles(ratios[label], n=4)
            ratio, spread = f"{statistics.median(ratios[label]):.3f}", f"{q1:.3f}-{q3:.3f}"
        else:
            ratio, spread = "1", "-"
        rows.append([
            label,
            f"{statistics.median(raw[label]):.2f}",
            f"{statistics.median(scaled[label]):.2f}",
            ratio,
            spread,
            f"{c['rank_queries']:,}",
            f"{c['lf_steps']:,}",
            f"{c['nodes_expanded']:,}",
            f"{c['reuse_hits']:,}",
            f"{memo_records.get(label, 0):,}",
            f"{collections}",
            f"{tracked:,}",
        ])
    table = format_table(
        ["engine", "ms/read", "scaled", "vs S-tree", "pair q1-q3", "children()", "LF steps",
         "nodes", "reuse hits", "memo records", "collections", "left tracked"],
        rows,
        title=f"Engine layer: the memo over the S-tree loop ({workload.name}, "
        f"{len(workload.genome):,} bp, {len(reads)} reads x 100 bp, k={K}, "
        f"{PAIRS} alternating pairs of passes)",
    )
    table += (
        "\nms/read: median raw time. scaled: the same, as if kmbench's host probe took "
        f"{reference_probe_ms:g} ms (here its median was {statistics.median(probe_ms):.2f} ms). "
        "vs S-tree: median of the per-pair ratios. collections and left tracked: "
        "one more untimed pass of the row (the warm row on a memo one pass old)."
    )
    for label, bound in GATE.items():
        q1, median, q3 = statistics.quantiles(ratios[label], n=4)
        table += (
            f"\ngate, {label}: at most {bound:.2f}x the S-tree; this run {median:.3f} "
            f"(pair q1-q3 {q1:.3f}-{q3:.3f}), {'within' if median <= bound else 'above'} it"
        )
    write_result(results_dir, "kernel_overhead", table)
    # Memo off, A() is the S-tree: same work, the same load on the
    # collector, and within the overhead bound.
    assert counts["A(), memo off"] == counts["S-tree"]
    assert load["A(), memo off"] == load["S-tree"]
    assert statistics.median(ratios["A(), memo off"]) <= 1 + MAX_OVERHEAD
    # The memo's records are invisible to the collector and set off few
    # collections.
    assert load["A(), cold memo"][1] <= MAX_TRACKED
    assert load["A(), cold memo"][0] <= MAX_COLLECTIONS
