"""Experiment A2 — ablation: rankall checkpoint spacing (paper Fig. 2).

The paper stores one rankall checkpoint per 4 BWT elements and notes one
"can also create rankalls only for part of the elements to reduce the
space overhead, but at cost of some more searches".  This ablation sweeps
the sampling factor and reports each index's size and the cost of the
two rank kernels, after checking that every index answers the same
k-mismatch queries with the same hits.

The kernels are timed on the work one Fig. 11(a) pass hands them: a
cold-memo A() pass at k=4 over the Fig. 11(a) reads is run once with
``FMIndex.children`` and the LF walk's row reads wrapped, recording every
range ``children()`` expands and every row the LF walk steps from.  Each
index then replays them through the public API, ``fm.children(range)``
per range and ``fm.lf_step(row)`` per row, reported in ns per call and
scaled by kmbench's host probe (``kmbench/probe.py``), so runs made at
different times, or at different commits, compare.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_table
from repro.bwt.fmindex import FMIndex
from repro.core.algorithm_a import AlgorithmASearcher
from repro.bench.workloads import fig11_workload

from conftest import kmbench_module, write_result

SAMPLE_RATES = (1, 4, 16, 64)
K = 3
#: The Fig. 11(a) set-up whose kernel calls are recorded and replayed.
KERNEL_K = 4
KERNEL_ROUNDS = 9
CHUNK = 500


def record_kernel_calls(fm, reads):
    """``(ranges, rows)``: every range one cold A() pass at
    :data:`KERNEL_K` expands through ``fm.children`` and every row its LF
    walk reads, in call order."""
    ranges, rows = [], []
    children, lf_parts = fm.children, fm.lf_parts

    def recording_children(rng):
        ranges.append(rng)
        return children(rng)

    def recording_lf_parts():
        char_code_at, *rest = lf_parts()

        def recording_char_code_at(row):
            rows.append(row)
            return char_code_at(row)

        return (recording_char_code_at, *rest)

    fm.children, fm.lf_parts = recording_children, recording_lf_parts
    try:
        searcher = AlgorithmASearcher(fm)
        for read in reads:
            searcher.search(read, KERNEL_K)
    finally:
        del fm.children, fm.lf_parts
    return ranges, rows


def kernel_ns(indexes, ranges, rows, probe, reference_probe_ms):
    """``[(ns per children() call, ns per LF step)]`` for each index in
    ``indexes``, scaled to a reference host speed.  Each round replays
    the calls in chunks of :data:`CHUNK`, every index in turn on each
    chunk, so a swing in the host's speed lands on all of them, and runs
    kmbench's host probe after each chunk: a chunk's times count as if
    the probe had taken ``reference_probe_ms``.  Each figure is the best
    of :data:`KERNEL_ROUNDS` rounds."""
    best = [[float("inf"), float("inf")] for _ in indexes]
    clock = time.perf_counter
    for _ in range(KERNEL_ROUNDS):
        spent = [[0.0, 0.0] for _ in indexes]
        for lo in range(0, max(len(ranges), len(rows)), CHUNK):
            some_ranges, some_rows = ranges[lo:lo + CHUNK], rows[lo:lo + CHUNK]
            chunk = []
            for fm in indexes:
                children, lf_step = fm.children, fm.lf_step
                start = clock()
                for rng in some_ranges:
                    children(rng)
                middle = clock()
                for row in some_rows:
                    lf_step(row)
                chunk.append((middle - start, clock() - middle))
            factor = reference_probe_ms / probe.time_ms()
            for total, (children_s, lf_s) in zip(spent, chunk):
                total[0] += children_s * factor
                total[1] += lf_s * factor
        for low, total in zip(best, spent):
            low[0] = min(low[0], total[0])
            low[1] = min(low[1], total[1])
    return [(c * 1e9 / len(ranges), f * 1e9 / len(rows)) for c, f in best]


@pytest.mark.benchmark(group="ablation-rankall")
def test_ablation_rankall_sampling(benchmark, results_dir):
    workload = fig11_workload(read_length=100, n_reads=4)
    kernel_reads = fig11_workload(read_length=100).reads
    rows = []
    indexes = []

    def run_variant(label, fm, reference):
        total = 0
        for read in workload.reads:
            occs, _ = AlgorithmASearcher(fm).search(read, K)
            total += len(occs)
        if reference is not None:
            assert total == reference
        indexes.append(fm)
        rows.append(
            [
                label,
                f"{fm.nbytes():,}",
                f"{fm.nbytes() / workload.genome_size:.2f}",
            ]
        )
        return total

    def sweep():
        reference = None
        for rate in SAMPLE_RATES:
            fm = FMIndex(workload.genome[::-1], occ_sample_rate=rate)
            reference = run_variant(f"rankall/{rate}", fm, reference)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    ranges, lf_rows = record_kernel_calls(indexes[SAMPLE_RATES.index(4)], kernel_reads)
    probe = kmbench_module("probe").ProbeIndex()
    reference_probe_ms = kmbench_module("run").REFERENCE_PROBE_MS
    kernels = kernel_ns(indexes, ranges, lf_rows, probe, reference_probe_ms)
    for row, (children_ns, lf_ns) in zip(rows, kernels):
        row += [f"{children_ns:,.0f}", f"{lf_ns:,.0f}"]
    table = format_table(
        ["occ structure", "index bytes", "B/bp", "children() ns", "LF step ns"],
        rows,
        title=f"Ablation A2: occ structure / checkpoint spacing "
        f"({workload.genome_size:,} bp)",
    )
    table += (
        f"\nEvery index gives the same k={K} hits on {len(workload.reads)} "
        f"reads (asserted)."
        f"\nKernel columns: {len(ranges):,} children() ranges and "
        f"{len(lf_rows):,} LF-walk rows recorded from one cold A() pass at "
        f"k={KERNEL_K} over {len(kernel_reads)} reads x 100 bp, replayed on each "
        f"index; best of {KERNEL_ROUNDS} rounds, ns per call, scaled as if kmbench's "
        f"host probe took {reference_probe_ms:g} ms."
    )
    write_result(results_dir, "ablation_rankall", table)
    # Space must decrease monotonically with the sampling factor.
    sizes = [int(row[1].replace(",", "")) for row in rows]
    assert sizes == sorted(sizes, reverse=True)
