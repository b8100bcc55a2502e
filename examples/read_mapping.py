"""Read mapping: the paper's motivating workload end to end.

Simulates a genome and a batch of wgsim-style reads (polymorphisms +
sequencing errors, both strands), indexes the genome once, then maps
every read back allowing k mismatches — reporting sensitivity and the
average matching time, the metric of the paper's Fig. 11.

    python examples/read_mapping.py
"""

import time

from repro import KMismatchIndex
from repro.simulate import (
    GenomeConfig,
    ReadConfig,
    generate_genome,
    reverse_complement,
    simulate_reads,
)

GENOME_BP = 60_000
N_READS = 40
READ_LENGTH = 80
K = 4


def main() -> None:
    print(f"simulating a {GENOME_BP:,} bp genome ...")
    genome = generate_genome(GenomeConfig(length=GENOME_BP, repeat_fraction=0.35, seed=11))
    reads = simulate_reads(genome, ReadConfig(n_reads=N_READS, length=READ_LENGTH, seed=12))

    print("building the BWT index ...")
    start = time.perf_counter()
    index = KMismatchIndex(genome)
    print(f"  built in {time.perf_counter() - start:.2f}s "
          f"({index.nbytes() / GENOME_BP:.1f} index bytes/char)")

    mapped = 0
    multimapped = 0
    total_time = 0.0
    for read in reads:
        # Real aligners try both strands; a reverse-strand read maps via
        # its reverse complement.
        query = read.sequence
        start = time.perf_counter()
        hits = index.search(query, K)
        if not hits:
            hits = index.search(reverse_complement(query), K)
        total_time += time.perf_counter() - start

        if any(h.start == read.position for h in hits):
            mapped += 1
        if len(hits) > 1:
            multimapped += 1

    print(f"\nmapped {mapped}/{N_READS} reads to their true origin "
          f"(k={K}, {multimapped} had multiple hits)")
    print(f"average matching time per read: {1000 * total_time / N_READS:.2f} ms")

    # A single read in detail.
    read = reads[0]
    hits = index.search(read.forward_sequence(), K)
    print(f"\nexample read: true position {read.position}, "
          f"{read.n_mutations} mutation(s), strand "
          f"{'-' if read.reverse_strand else '+'}")
    for hit in hits[:5]:
        print(f"  hit at {hit.start} with {hit.n_mismatches} mismatch(es) "
              f"at offsets {list(hit.mismatches)}")


if __name__ == "__main__":
    main()
