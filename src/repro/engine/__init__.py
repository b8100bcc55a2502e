"""Pluggable engine layer: registry-driven dispatch and batch execution.

This package is the single seam between "a method name" and "the object
that answers queries":

* :mod:`repro.engine.registry` — the :class:`SearchEngine` protocol,
  declarative :class:`EngineSpec` descriptions, and the process-wide
  :data:`REGISTRY` every dispatch site (facade, CLI, bench suite)
  resolves names through.
* :mod:`repro.engine.executor` — :class:`BatchExecutor`, the chunked
  serial / process-pool fan-out behind ``search_batch``, ``map_reads``
  and ``repro-cli map --workers``.

See ``docs/ENGINES.md`` for the capability model, how to register a new
engine, and the batch-execution knobs.
"""

from .executor import BatchExecutor, BatchResult
from .registry import (
    CAP_EDIT,
    CAP_MISMATCH,
    CAP_WILDCARD,
    REGISTRY,
    EngineRegistry,
    EngineSpec,
    FunctionEngine,
    PerPatternEngine,
    PerTargetEngine,
    SearchEngine,
    VariantEngine,
)

__all__ = [
    "REGISTRY",
    "EngineRegistry",
    "EngineSpec",
    "SearchEngine",
    "FunctionEngine",
    "PerPatternEngine",
    "PerTargetEngine",
    "VariantEngine",
    "CAP_MISMATCH",
    "CAP_EDIT",
    "CAP_WILDCARD",
    "BatchExecutor",
    "BatchResult",
]
