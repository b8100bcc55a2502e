"""Experiment A3 — ablation: subtree reuse (the paper's contribution).

Isolates the pair hash table + derivation machinery of Algorithm A by
running it with reuse disabled, and sweeps the ``min_memo_width``
engineering knob (1 = the paper's literal record-every-pair behaviour).

The workload is the regime the mechanism targets: a satellite-repeat
target (shifted self-similarity), where the same BWT range recurs at many
pattern offsets.  Expected shape: reuse cuts rank queries and wall time,
and the effect grows with k.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.reporting import format_seconds, format_table
from repro.core.algorithm_a import AlgorithmASearcher
from repro.core.matcher import KMismatchIndex

from conftest import write_result

K_VALUES = (2, 3, 4)
WIDTHS = (1, 4, 16)


def satellite_target(units: int = 2500, unit_length: int = 24, divergence: float = 0.01) -> str:
    rng = random.Random(4)
    unit = "".join(rng.choice("acgt") for _ in range(unit_length))
    parts = []
    for _ in range(units):
        copy = [
            ch if rng.random() >= divergence else rng.choice("acgt") for ch in unit
        ]
        parts.append("".join(copy))
    return "".join(parts)


@pytest.mark.benchmark(group="ablation-reuse")
def test_ablation_reuse(benchmark, results_dir):
    text = satellite_target()
    index = KMismatchIndex(text)
    read = list(text[30_011:30_111])
    read[20] = "a" if read[20] != "a" else "c"
    read[70] = "g" if read[70] != "g" else "t"
    pattern = "".join(read)
    rows = []

    def sweep():
        import time

        for k in K_VALUES:
            reference = None
            for label, searcher in [
                ("no reuse", AlgorithmASearcher(index.fm_index, enable_reuse=False)),
            ] + [
                (f"memo w>={w}", AlgorithmASearcher(index.fm_index, min_memo_width=w))
                for w in WIDTHS
            ]:
                start = time.perf_counter()
                occs, stats = searcher.search(pattern, k)
                elapsed = time.perf_counter() - start
                if reference is None:
                    reference = occs
                assert occs == reference
                rows.append(
                    [
                        k,
                        label,
                        format_seconds(elapsed),
                        f"{stats.rank_queries:,}",
                        f"{stats.reuse_hits:,}",
                        f"{stats.chars_replayed:,}",
                        f"{stats.derivation_jumps:,}",
                    ]
                )

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["k", "variant", "time", "rank queries", "reuse hits", "chars replayed", "merge steps"],
        rows,
        title=f"Ablation A3: subtree reuse on satellite repeats ({len(text):,} bp)",
    ) + "\nEach variant is a fresh searcher: the memo starts cold for every row."
    write_result(results_dir, "ablation_reuse", table)
    # Reuse must strictly reduce rank queries vs the no-reuse run at max k.
    last_block = rows[-(len(WIDTHS) + 1):]
    no_reuse_rq = int(last_block[0][3].replace(",", ""))
    full_memo_rq = int(last_block[1][3].replace(",", ""))
    assert full_memo_rq < no_reuse_rq
