"""Shared infrastructure for the benchmark suite.

Every benchmark writes its paper-style table to ``benchmarks/results/``
(the terminal only shows pytest-benchmark's timing table) and registers
at least one timed case so ``pytest benchmarks/ --benchmark-only`` reports
it.

Scale knobs (environment):

* ``REPRO_BENCH_SCALE`` — genome cap in bp (default 120000; see
  repro.bench.workloads).
* ``REPRO_BENCH_READS`` — reads per batch (default 10).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def provenance() -> str:
    """One line naming the host's CPU count, the Python version and the
    commit (``+dirty`` when ``src/`` or ``benchmarks/`` differ from it)."""
    root = Path(__file__).resolve().parent.parent

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)

    try:
        head = git("rev-parse", "--short", "HEAD")
        commit = head.stdout.strip() if head.returncode == 0 else "unknown"
        if head.returncode == 0 and git("diff", "--quiet", "HEAD", "--", "src", "benchmarks/*.py").returncode:
            commit += "+dirty"
    except OSError:
        commit = "unknown"
    return f"# host: {os.cpu_count()} CPUs, Python {platform.python_version()}, commit {commit}"


def write_result(results_dir: Path, name: str, content: str) -> None:
    """Persist one experiment's table, stamped with :func:`provenance`,
    and echo it for -s runs."""
    path = results_dir / f"{name}.txt"
    content = f"{content}\n{provenance()}"
    path.write_text(content + "\n")
    print(f"\n{content}\n[written to {path}]")


def write_json_result(results_dir: Path, name: str, payload: dict) -> None:
    """Persist an experiment's machine-readable companion artifact."""
    path = results_dir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[stats written to {path}]")
