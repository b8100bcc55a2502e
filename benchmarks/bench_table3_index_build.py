"""Experiment T3* — index construction cost (reconstructed extension).

The paper reports (Sec. II and the setup of Sec. V) that the BWT index of
chromosome 1 of human — 270 Mbp — occupies 390 Mb–1 Gb against 26 Gb for
a suffix tree, and excludes construction time from the matching timings.
This bench makes those two numbers concrete for our stand-ins: per
catalog genome, BWT-array construction time, BWT payload bytes/char, and
the suffix-tree node count the Cole baseline needs instead.  The build's
own spans split its time into stages: suffix array (SA-IS), BWT (eq. 3),
rank tables and suffix-array sample.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.cole import ColeMatcher
from repro.bench.reporting import format_seconds, format_table
from repro.bench.workloads import catalog_workload
from repro.core.matcher import KMismatchIndex
from repro.obs import OBS
from repro.simulate.catalog import GENOME_CATALOG

from conftest import write_result

#: Suffix trees are memory-hungry; keep the tree axis to this cap.
_TREE_CAP = 60_000

#: The ``FMIndex`` build spans reported as stage columns, in build order.
_STAGES = ("fmindex.suffix_array", "fmindex.bwt", "fmindex.rank_tables", "fmindex.sample_sa")


def traced_build(genome: str):
    """``(index, seconds, stage_ms)``: one build with tracing on, its
    wall time and each stage span's duration in ms."""
    OBS.reset()
    OBS.enable()
    try:
        start = time.perf_counter()
        index = KMismatchIndex(genome)
        seconds = time.perf_counter() - start
    finally:
        OBS.disable()
    stage_ms = {span.name: span.duration_ns / 1e6 for span in OBS.tracer.iter_finished()}
    OBS.reset()
    return index, seconds, [stage_ms[name] for name in _STAGES]


@pytest.mark.benchmark(group="table3")
def test_table3_index_construction(benchmark, results_dir):
    rows = []

    def sweep():
        for spec in GENOME_CATALOG:
            workload = catalog_workload(spec.name, read_length=50, n_reads=1)
            genome = workload.genome
            index, bwt_seconds, stage_ms = traced_build(genome)
            bwt_bytes = index.nbytes()

            tree_genome = genome[:_TREE_CAP]
            start = time.perf_counter()
            tree = ColeMatcher(tree_genome)
            tree_seconds = time.perf_counter() - start
            rows.append(
                [
                    spec.name,
                    f"{len(genome):,}",
                    format_seconds(bwt_seconds),
                    *(f"{ms:.1f}" for ms in stage_ms),
                    f"{bwt_bytes / len(genome):.3f}",
                    f"{len(tree_genome):,}",
                    format_seconds(tree_seconds),
                    f"{tree.tree.node_count():,}",
                ]
            )

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        [
            "Genome",
            "bp",
            "BWT build",
            "SA ms",
            "BWT ms",
            "rank ms",
            "sample ms",
            "BWT bytes/char",
            "tree bp",
            "tree build",
            "tree nodes",
        ],
        rows,
        title="Table 3*: index construction cost (BWT array vs suffix tree)",
    )
    write_result(results_dir, "table3_index_build", table)
    # Paper claim to preserve: the BWT payload is a small constant per
    # character (paper: 0.5-2 bytes/char for compressed variants; our
    # byte BWT, two-level rank directory and SA sample every 8th position
    # come to ~2.7), orders of magnitude below a suffix tree's
    # per-character footprint.
    for row in rows:
        assert float(row[7]) < 8.0
