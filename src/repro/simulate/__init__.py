"""Data substrate: synthetic genomes and simulated reads.

The paper evaluates on five reference genomes (Table 1) with reads
simulated by wgsim (SAMtools) [37].  Neither the genomes nor wgsim are
available here, so this subpackage provides faithful synthetic stand-ins:

* :mod:`repro.simulate.genome` — genomes with controllable GC bias,
  interspersed repeat families and tandem duplications, so the BWT search
  tree branches the way real DNA makes it branch;
* :mod:`repro.simulate.reads` — a read sampler implementing wgsim's
  default single-end model (uniform start, strand flip, polymorphism and
  sequencing-error rates);
* :mod:`repro.simulate.catalog` — the Table 1 genome roster at 1/1000
  scale, preserving the relative sizes that drive the paper's cross-
  genome comparisons.
"""

from .genome import GenomeConfig, generate_genome, reverse_complement
from .reads import ReadConfig, SimulatedRead, simulate_reads
from .catalog import GENOME_CATALOG, GenomeSpec, build_catalog_genome

__all__ = [
    "GenomeConfig",
    "generate_genome",
    "reverse_complement",
    "ReadConfig",
    "SimulatedRead",
    "simulate_reads",
    "GENOME_CATALOG",
    "GenomeSpec",
    "build_catalog_genome",
]
