"""repro — BWT arrays and mismatching trees for k-mismatch string matching.

A from-scratch reproduction of Chen & Wu, *BWT Arrays and Mismatching
Trees: A New Way for String Matching with k Mismatches* (ICDE 2017).

Quickstart
----------
>>> from repro import KMismatchIndex
>>> index = KMismatchIndex("ccacacagaagcc")
>>> occs = index.search("aaaaacaaac", k=4)   # the paper's Sec. I example
>>> [(o.start, o.n_mismatches) for o in occs]
[(2, 4)]

Package map
-----------
``repro.core``       — Algorithm A, the S-tree baseline, M-trees, facade
``repro.bwt``        — BWT transform, rankall structure, FM-index
``repro.suffix``     — suffix arrays (SA-IS), LCP/RMQ/LCE, suffix tree
``repro.mismatch``   — R tables, merge(), kangaroo oracles
``repro.strings``    — KMP, Aho–Corasick, Z-function, Hamming primitives
``repro.baselines``  — naive, Landau–Vishkin, Amir, Cole comparators
``repro.simulate``   — synthetic genomes and wgsim-style reads
``repro.bench``      — workload/reporting harness for the experiments
``repro.engine``     — engine registry + batch executor (``docs/ENGINES.md``)
``repro.shard``      — sharded indexes + query router (``docs/SHARDING.md``)
``repro.obs``        — tracing/metrics layer (``repro.obs.OBS``)
"""

from .alphabet import DNA, PROTEIN, Alphabet, infer_alphabet
from .errors import (
    AlphabetError,
    IndexBuildError,
    IndexCorruptionError,
    IndexFormatError,
    PatternError,
    ReproError,
    SerializationError,
)
from .bwt.fmindex import FMIndex, Range
from .bwt.transform import bwt_transform, inverse_bwt
from .core.algorithm_a import AlgorithmASearcher
from .core.kerrors import EditOccurrence, KErrorsSearcher
from .core.matcher import KMismatchIndex, ReadHit
from .core.mtree import MTree
from .core.stree import STreeSearcher
from .core.types import Occurrence, SearchStats
from .core.wildcard import WildcardSearcher
from .dna import reverse_complement
from .engine import REGISTRY, BatchExecutor, EngineRegistry, EngineSpec
from .obs import OBS
from .shard import QueryRouter, ShardManifest, ShardedIndex

__version__ = "1.0.0"

__all__ = [
    "Alphabet",
    "DNA",
    "PROTEIN",
    "infer_alphabet",
    "ReproError",
    "AlphabetError",
    "PatternError",
    "IndexBuildError",
    "IndexCorruptionError",
    "IndexFormatError",
    "SerializationError",
    "FMIndex",
    "Range",
    "bwt_transform",
    "inverse_bwt",
    "KMismatchIndex",
    "ReadHit",
    "AlgorithmASearcher",
    "STreeSearcher",
    "KErrorsSearcher",
    "EditOccurrence",
    "WildcardSearcher",
    "MTree",
    "Occurrence",
    "SearchStats",
    "reverse_complement",
    "REGISTRY",
    "EngineRegistry",
    "EngineSpec",
    "BatchExecutor",
    "OBS",
    "ShardedIndex",
    "ShardManifest",
    "QueryRouter",
    "__version__",
]
