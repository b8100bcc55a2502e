"""Experiment A2 — ablation: rankall checkpoint spacing (paper Fig. 2).

The paper stores one rankall checkpoint per 4 BWT elements and notes one
"can also create rankalls only for part of the elements to reduce the
space overhead, but at cost of some more searches".  This ablation sweeps
the sampling factor and reports the space/time trade-off on exact and
k-mismatch queries.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_seconds, format_table
from repro.bwt.fmindex import FMIndex
from repro.core.algorithm_a import AlgorithmASearcher
from repro.bench.workloads import fig11_workload

from conftest import write_result

SAMPLE_RATES = (1, 4, 16, 64)
K = 3


@pytest.mark.benchmark(group="ablation-rankall")
def test_ablation_rankall_sampling(benchmark, results_dir):
    workload = fig11_workload(read_length=100, n_reads=4)
    rows = []

    def run_variant(label, fm, reference):
        start = time.perf_counter()
        total = 0
        for read in workload.reads:
            occs, _ = AlgorithmASearcher(fm).search(read, K)
            total += len(occs)
        elapsed = time.perf_counter() - start
        if reference is not None:
            assert total == reference
        rows.append(
            [
                label,
                f"{fm.nbytes():,}",
                f"{fm.nbytes() / workload.genome_size:.2f}",
                format_seconds(elapsed / len(workload.reads)),
            ]
        )
        return total

    def sweep():
        reference = None
        for rate in SAMPLE_RATES:
            fm = FMIndex(workload.genome[::-1], occ_sample_rate=rate)
            reference = run_variant(f"rankall/{rate}", fm, reference)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["occ structure", "index bytes", "bytes/char", "avg time/read"],
        rows,
        title=f"Ablation A2: occ structure / checkpoint spacing (k={K}, "
        f"{workload.genome_size:,} bp)",
    )
    write_result(results_dir, "ablation_rankall", table)
    # Space must decrease monotonically with the sampling factor.
    sizes = [int(row[1].replace(",", "")) for row in rows]
    assert sizes == sorted(sizes, reverse=True)
