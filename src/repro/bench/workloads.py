"""Benchmark workloads: the paper's experimental set-ups, scaled.

A :class:`Workload` bundles a target genome with a batch of simulated
reads, mirroring Sec. V: "we take 50 reads with length varying from 100
bps to 300 bps" against the Table 1 genomes.

Scaling: benchmark genome sizes are additionally capped by
:data:`BENCH_SCALE` (environment variable ``REPRO_BENCH_SCALE``, default
120 000 bp) so the full suite finishes in minutes; set the variable higher
to run closer to the catalog's 1/1000-of-paper sizes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List

from ..simulate.catalog import GENOME_CATALOG, GenomeSpec, build_catalog_genome
from ..simulate.reads import ReadConfig, simulate_reads

#: Cap (bp) applied to benchmark genomes; override via REPRO_BENCH_SCALE.
BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "120000"))

#: Reads per benchmark batch (the paper uses 50; scaled down by default —
#: override via REPRO_BENCH_READS).
BENCH_READS = int(os.environ.get("REPRO_BENCH_READS", "10"))


@dataclass
class Workload:
    """A benchmark scenario: one genome plus a batch of query reads."""

    name: str
    genome: str
    reads: List[str] = field(repr=False)

    @property
    def genome_size(self) -> int:
        """Target length in bases."""
        return len(self.genome)

    @property
    def read_length(self) -> int:
        """Length of the (uniform-length) reads."""
        return len(self.reads[0]) if self.reads else 0


def _spec_by_name(name: str) -> GenomeSpec:
    for spec in GENOME_CATALOG:
        if spec.name == name or name.lower() in spec.name.lower():
            return spec
    raise KeyError(f"no catalog genome matches {name!r}")


def catalog_workload(
    genome_name: str = "Rat (Rnor_6.0)",
    read_length: int = 100,
    n_reads: int = 0,
    seed: int = 7,
    max_genome: int = 0,
) -> Workload:
    """Build a workload over a Table 1 catalog genome.

    ``n_reads`` defaults to :data:`BENCH_READS`; ``max_genome`` defaults
    to :data:`BENCH_SCALE`.
    """
    spec = _spec_by_name(genome_name)
    cap = max_genome if max_genome > 0 else BENCH_SCALE
    genome = build_catalog_genome(spec, max_length=cap)
    count = n_reads if n_reads > 0 else BENCH_READS
    config = ReadConfig(n_reads=count, length=read_length, seed=seed)
    reads = [r.forward_sequence() for r in simulate_reads(genome, config)]
    return Workload(name=f"{spec.name} / {read_length}bp x{count}", genome=genome, reads=reads)


def fig11_workload(read_length: int = 100, n_reads: int = 0, seed: int = 7) -> Workload:
    """The Fig. 11 scenario: reads against the Rat genome stand-in."""
    return catalog_workload("Rat (Rnor_6.0)", read_length=read_length, n_reads=n_reads, seed=seed)
