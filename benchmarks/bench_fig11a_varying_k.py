"""Experiment F11a — paper Fig. 11(a): average matching time vs k.

Paper setup: Rat genome, 100 bp reads, four methods (A(), BWT of [34],
Amir's, Cole's), k on the x axis.  Paper shape: A() fastest throughout;
Amir's flat in k (its cost is dominated by the linear marking scan);
the tree searches (BWT, and A() with it) grow steeply with k.

Scale note (see EXPERIMENTS.md): at 1/1000 genome scale the φ heuristic
of [34] is far more selective than at genome scale, which compresses the
gap between A() and BWT; the ablation benchmarks isolate that effect.
"""

from __future__ import annotations

import pytest

from repro.bench.plotting import ascii_chart
from repro.bench.reporting import format_seconds, format_series
from repro.bench.suite import MethodSuite, PAPER_METHODS
from repro.bench.workloads import fig11_workload

from conftest import write_result

K_VALUES = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def workload():
    return fig11_workload(read_length=100)


@pytest.fixture(scope="module")
def suite(workload):
    return MethodSuite(workload.genome)


@pytest.mark.benchmark(group="fig11a")
def test_fig11a_sweep(benchmark, suite, workload, results_dir):
    series = {method: [] for method in PAPER_METHODS}
    seconds = {method: [] for method in PAPER_METHODS}
    counts = {}

    def sweep():
        for k in K_VALUES:
            for result in suite.run_all(workload.reads, k):
                series[result.method].append(format_seconds(result.avg_seconds))
                seconds[result.method].append(result.avg_seconds * 1000)
                counts.setdefault(k, set()).add(result.n_occurrences)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_series(
        "k",
        list(K_VALUES),
        series,
        title=f"Fig. 11(a): avg matching time vs k ({workload.name}, "
        f"{workload.genome_size:,} bp)",
    )
    chart = ascii_chart(
        list(K_VALUES), seconds, height=12, width=50,
        y_label="avg ms/read", log_y=True,
    )
    memo = (
        "A() memo: one engine serves the whole sweep, so it is cold at the first k "
        "and carries every earlier k's entries into the next."
    )
    write_result(results_dir, "fig11a_varying_k", table + "\n\n" + chart + "\n" + memo)
    # All four methods must agree on the answer set at every k.
    assert all(len(found) == 1 for found in counts.values()), counts


@pytest.mark.parametrize("k", K_VALUES)
@pytest.mark.benchmark(group="fig11a")
def test_fig11a_algorithm_a(benchmark, suite, workload, k):
    result = benchmark.pedantic(
        lambda: suite.run("A()", workload.reads, k), rounds=1, iterations=1
    )
    assert result.n_reads == len(workload.reads)


@pytest.mark.parametrize("k", (1, 5))
@pytest.mark.benchmark(group="fig11a")
def test_fig11a_bwt_baseline(benchmark, suite, workload, k):
    benchmark.pedantic(lambda: suite.run("BWT", workload.reads, k), rounds=1, iterations=1)


@pytest.mark.benchmark(group="fig11a")
def test_fig11a_amir(benchmark, suite, workload):
    benchmark.pedantic(lambda: suite.run("Amir's", workload.reads, 3), rounds=1, iterations=1)


@pytest.mark.benchmark(group="fig11a")
def test_fig11a_cole(benchmark, suite, workload):
    benchmark.pedantic(lambda: suite.run("Cole's", workload.reads, 3), rounds=1, iterations=1)
