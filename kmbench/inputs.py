"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of ``(workload, seed, scale)``: the
same arguments always give the same target and the same requests, so
two passes of one seed do identical work and only host speed can move
their timings.

Reads are drawn with *stratified* sampling.  Per-read search cost at
k mismatches is set mostly by how many substitutions the read carries
(a clean read leaves the whole budget for branching and costs ~20x a
read with k substitutions), and second by where in the target it lies.
Plain wgsim-style sampling lets both vary from seed to seed, which
moved a 60-read pass by ±20%.  Here every read set has the exact
binomial mutation mix of the error rate (largest-remainder quotas) and
one read start per equal slice of the target, while the seed still
chooses every position, strand and substituted base.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.dna import reverse_complement
from repro.simulate.catalog import GENOME_CATALOG, build_catalog_genome

BASES = "acgt"

#: Per-base substitution rate of simulated reads (wgsim's default
#: sequencing error 0.02 plus polymorphism 0.001).
READ_ERROR_RATE = 0.021

#: The character injected into rejected reads (outside the DNA alphabet).
OUT_OF_ALPHABET = "n"


@dataclass(frozen=True)
class WorkloadSpec:
    """The fixed shape of one workload; ``scale`` shrinks it for tests."""

    name: str
    read_length: int
    k: int
    #: Requests per pass (reads, or batches on ``batch-process``).
    requests: int
    #: Reads per request: 1 for single-read requests, else the batch size.
    batch_size: int = 1
    #: Map both strands (``map_read``) rather than search one strand.
    both_strands: bool = True
    #: One read in this many carries an out-of-alphabet base (0 = none).
    reject_every: int = 0
    shards: int = 0
    observability: bool = False


WORKLOADS = {
    spec.name: spec
    for spec in (
        # Fig. 11(a) set-up at k = 4: core + bwt rank probes dominate.
        WorkloadSpec("paper-k4", read_length=100, k=4, requests=280),
        # Cheap queries through 4 mmap'd shards with observability on:
        # fixed per-query costs (router fan-out, obs facade) dominate.
        WorkloadSpec(
            "serve-sharded-obs", read_length=60, k=2, requests=400,
            both_strands=False, reject_every=100, shards=4, observability=True,
        ),
        # Hundreds of hits per read through the process pool.
        WorkloadSpec(
            "batch-process", read_length=60, k=2, requests=104, batch_size=4,
        ),
    )
}


@dataclass
class Inputs:
    """One pass's generated target and request list."""

    spec: WorkloadSpec
    seed: int
    target: str
    #: Flat read list, request order.
    reads: List[str] = field(repr=False)
    #: Indices into ``reads`` of the out-of-alphabet reads.
    rejected: Tuple[int, ...] = ()

    @property
    def requests(self) -> List[List[str]]:
        """Reads grouped into requests (one read each unless batched)."""
        size = self.spec.batch_size
        return [self.reads[i:i + size] for i in range(0, len(self.reads), size)]


def mutation_schedule(n: int, length: int, rate: float, rng: random.Random) -> List[int]:
    """``n`` per-read substitution counts in exact binomial proportions.

    Quotas are ``n * Binomial(length, rate)`` rounded by largest
    remainder, so every seed gets the same mix; the seed only shuffles
    which read gets which count.
    """
    pmf = [math.comb(length, c) * rate ** c * (1 - rate) ** (length - c) for c in range(length + 1)]
    raw = [n * p for p in pmf]
    quotas = [int(x) for x in raw]
    short = n - sum(quotas)
    for c in sorted(range(len(raw)), key=lambda c: (quotas[c] - raw[c], c))[:short]:
        quotas[c] += 1
    schedule = [c for c, q in enumerate(quotas) for _ in range(q)]
    rng.shuffle(schedule)
    return schedule


def sample_reads(
    target: str, n: int, length: int, rng: random.Random, both_strands: bool
) -> List[str]:
    """``n`` reads: one start per equal slice of the target, stratified
    substitution counts, and (optionally) a random strand each."""
    schedule = mutation_schedule(n, length, READ_ERROR_RATE, rng)
    span = (len(target) - length + 1) / n
    slots = list(range(n))
    rng.shuffle(slots)
    reads = []
    for slot, substitutions in zip(slots, schedule):
        start = int(slot * span) + rng.randrange(max(1, int(span)))
        start = min(start, len(target) - length)
        window = list(target[start:start + length])
        for i in rng.sample(range(length), substitutions):
            window[i] = rng.choice([b for b in BASES if b != window[i]])
        read = "".join(window)
        if both_strands and rng.random() < 0.5:
            read = reverse_complement(read)
        reads.append(read)
    return reads


def tandem_repeat(
    rng: random.Random, unit_length: int, copies: int, divergence: float, gc: float = 0.42
) -> str:
    """A near-exact tandem repeat: ``copies`` diverged copies of one unit."""
    unit = [rng.choice("gc") if rng.random() < gc else rng.choice("at") for _ in range(unit_length)]
    out = []
    for _ in range(copies):
        copy = list(unit)
        for i, ch in enumerate(copy):
            if rng.random() < divergence:
                copy[i] = rng.choice([b for b in BASES if b != ch])
        out.append("".join(copy))
    return "".join(out)


def make_target(name: str, rng: random.Random, scale: float) -> str:
    """The workload's target string."""
    if name == "batch-process":
        # Seeded, so the repeat unit differs per seed; 500 copies of a
        # 240 bp unit keep hits per read in the hundreds at any seed.
        return tandem_repeat(rng, 240, max(8, int(500 * scale)), divergence=0.002)
    # The Rat (Rnor_6.0) stand-in of repro.simulate.catalog: a fixed
    # genome (its catalog seed), so only the reads vary with the seed.
    rat = GENOME_CATALOG[0]
    cap = 500_000 if name == "serve-sharded-obs" else 120_000
    return build_catalog_genome(rat, max_length=max(2_000, int(cap * scale)))


def make_inputs(name: str, seed: int, scale: float = 1.0) -> Inputs:
    """Generate one workload's inputs from ``seed``.

    ``scale`` < 1 shrinks the target and the request count (tests use
    it); the benchmark itself always runs at scale 1.
    """
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    target = make_target(name, rng, scale)
    n_requests = max(2, int(spec.requests * scale))
    reads = sample_reads(
        target, n_requests * spec.batch_size, spec.read_length, rng, spec.both_strands
    )
    rejected = []
    if spec.reject_every:
        for block in range(0, len(reads), spec.reject_every):
            i = block + rng.randrange(min(spec.reject_every, len(reads) - block))
            pos = rng.randrange(spec.read_length)
            reads[i] = reads[i][:pos] + OUT_OF_ALPHABET + reads[i][pos + 1:]
            rejected.append(i)
    return Inputs(spec, seed, target, reads, tuple(rejected))
