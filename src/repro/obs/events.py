"""The per-query telemetry record: its one schema, one sink, one reader.

Every query, routed query, batch and error produces exactly one record,
built by :func:`make_record` — one flat JSON object carrying *every*
dimension an operator might later group by (engine, ``k``, pattern
length, occurrence count, shard fan-out, latency, the
:class:`~repro.core.types.SearchStats` counts, trace id).
:meth:`repro.obs.Observability.record_event` builds it only while a
:class:`WideEventLog` sink is open (``--wide-events``) and appends it
there; ``repro-cli events {tail,summarize}`` reads it back.  Records a
process-pool worker writes ride home in its chunk's
:class:`~repro.obs.export.ObsDelta` and reach the same sink.

Three production concerns are handled by the sink rather than by call
sites:

* **Head-based sampling** — ``REPRO_EVENT_SAMPLE`` (0..1, default 1.0)
  keeps that fraction of records, decided *deterministically* from the
  record's ``trace_id`` hash, so a verdict is reproducible across runs
  and processes.  A routed query writes one record (its shard legs
  write none), so it is kept or dropped whole.  Records without a
  trace id fall back to a per-log counter so the kept fraction still
  converges.
* **Size-based rotation** — ``REPRO_EVENT_MAX_BYTES`` (default 64 MiB)
  rolls ``path`` to ``path.1`` (older generations shifting to ``.2``,
  ``.3``, ... up to ``REPRO_EVENT_BACKUPS``) before a write would cross
  the bound, so a long-running process cannot fill a disk.
* **Loss accounting** — sampled-out and rotated-away lines are counted
  on the log object (and printed when the sink closes), never silently
  gone.

Error accounting lives here too, since it writes the ``"error"``
record: :func:`record_query_error` classifies a raised exception into
a bounded ``kind`` (``pattern`` / ``corruption`` / ``worker`` /
``internal``), bumps the ``query.errors{engine,k,kind}`` counter family
and records the failure once, however many layers see it.

The schema is documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
import uuid
from typing import Any, Dict, IO, List, Optional

from ..errors import (
    AlphabetError,
    IndexCorruptionError,
    PatternError,
    SerializationError,
)
from .tracing import render_span_tree

#: Format tag written into every record.
WIDE_EVENT_FORMAT = "repro-wide-event"

#: Record schema version.  Version 2 made one record schema (``stats``,
#: ``spans``, ``slow`` and the shard stamp joined the version-1 fields);
#: version 3 drops the in-memory ring's ``seq`` number.
WIDE_EVENT_VERSION = 3

#: A record whose ``duration_ms`` reaches this is marked ``slow``
#: (``repro-cli events tail --slow`` selects those).
SLOW_QUERY_MS = 250.0

#: Default kept fraction (head-based sampling) — env REPRO_EVENT_SAMPLE.
DEFAULT_EVENT_SAMPLE = float(os.environ.get("REPRO_EVENT_SAMPLE", "1.0"))

#: Default rotation bound in bytes — env REPRO_EVENT_MAX_BYTES.
DEFAULT_EVENT_MAX_BYTES = int(
    os.environ.get("REPRO_EVENT_MAX_BYTES", str(64 * 1024 * 1024))
)

#: Default rotated-generation count — env REPRO_EVENT_BACKUPS.
DEFAULT_EVENT_BACKUPS = int(os.environ.get("REPRO_EVENT_BACKUPS", "3"))

#: Counter family bumped once per raised query (labels: engine, k, kind).
QUERY_ERRORS_METRIC = "query.errors"


def new_trace_id() -> str:
    """A fresh 16-hex-char correlation id.

    One id per recorded query or batch, written into its record (and
    into the sink's sampling hash).  Random rather than sequential: ids
    stay unique across the processes of a pool batch without
    coordination.
    """
    return uuid.uuid4().hex[:16]


def sample_keep(trace_id: Optional[str], sample: float,
                fallback_seq: int = 0) -> bool:
    """Whether a record with ``trace_id`` survives head sampling.

    Deterministic in the trace id (a stable hash scaled to [0, 1)), so
    the verdict for one record is the same in every process and run.
    ``fallback_seq`` drives a modular decision for records without a
    trace id.
    """
    if sample >= 1.0:
        return True
    if sample <= 0.0:
        return False
    if not trace_id:
        period = max(1, round(1.0 / sample))
        return fallback_seq % period == 0
    digest = hashlib.sha256(trace_id.encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2**64
    return fraction < sample


def make_record(
    event: str,
    *,
    engine: str = "",
    k: int = 0,
    m: int = 0,
    duration_ms: float = 0.0,
    occurrences: int = 0,
    shards: int = 0,
    trace_id: Optional[str] = None,
    stats: Optional[dict] = None,
    spans: Optional[dict] = None,
    shard: Optional[int] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """One telemetry record (JSON-compatible, every field top-level).

    ``event`` is ``"query"`` (one served search: a facade's or the
    router's merged fan-out), ``"batch"`` (one executor run) or
    ``"error"``; ``shards`` is the router fan-out (0 = not routed);
    ``shard`` marks an error raised inside one shard leg (omitted
    elsewhere);
    ``stats`` is the query's :meth:`SearchStats.to_dict`; ``spans`` its
    span tree (:meth:`~repro.obs.tracing.Span.to_dict`) when tracing
    was on.  ``trace_id`` (see :func:`new_trace_id`) is the record's
    correlation id.  Unset optionals are omitted.  ``slow`` marks a
    ``duration_ms`` of at least :data:`SLOW_QUERY_MS`.
    """
    record: Dict[str, Any] = {
        "format": WIDE_EVENT_FORMAT,
        "version": WIDE_EVENT_VERSION,
        "event": event,
        "ts": round(time.time(), 6),
        "engine": engine,
        "k": k,
        "m": m,
        "duration_ms": round(float(duration_ms), 6),
        "occurrences": occurrences,
        "shards": shards,
        "slow": duration_ms >= SLOW_QUERY_MS,
    }
    if trace_id:
        record["trace_id"] = trace_id
    if stats is not None:
        record["stats"] = stats
    if spans is not None:
        record["spans"] = spans
    if shard is not None:
        record["shard"] = shard
    record.update(extra)
    return record


class WideEventLog:
    """Sampling, rotating JSONL sink for records.  Thread-safe.

    Rotation happens *before* the write that would cross ``max_bytes``:
    ``path`` moves to ``path.1`` (existing generations shifting up, the
    oldest beyond ``backups`` deleted) and a fresh ``path`` is opened —
    the live file is always the newest data, like logrotate.
    """

    def __init__(self, path: str, sample: Optional[float] = None,
                 max_bytes: Optional[int] = None,
                 backups: Optional[int] = None):
        self.path = path
        self.sample = float(DEFAULT_EVENT_SAMPLE if sample is None else sample)
        self.max_bytes = int(
            DEFAULT_EVENT_MAX_BYTES if max_bytes is None else max_bytes
        )
        self.backups = max(0, int(
            DEFAULT_EVENT_BACKUPS if backups is None else backups
        ))
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = open(path, "a")
        self._size = self._handle.tell()
        self.lines_written = 0
        self.lines_sampled_out = 0
        self.rotations = 0
        self._seq = 0

    def emit(self, record: Dict[str, Any]) -> bool:
        """Append one event (returns False when sampled out or closed)."""
        with self._lock:
            if self._handle is None:
                return False
            self._seq += 1
            if not sample_keep(record.get("trace_id"), self.sample, self._seq):
                self.lines_sampled_out += 1
                return False
            line = json.dumps(record) + "\n"
            if self.max_bytes > 0 and self._size + len(line) > self.max_bytes \
                    and self._size > 0:
                self._rotate()
            self._handle.write(line)
            self._handle.flush()
            self._size += len(line)
            self.lines_written += 1
            return True

    def _rotate(self) -> None:
        """Shift generations and reopen ``path`` (lock held by caller)."""
        self._handle.close()
        if self.backups > 0:
            oldest = f"{self.path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for i in range(self.backups - 1, 0, -1):
                src = f"{self.path}.{i}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{i + 1}")
            os.replace(self.path, f"{self.path}.1")
        else:
            os.remove(self.path)
        self._handle = open(self.path, "a")
        self._size = 0
        self.rotations += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def to_dict(self) -> dict:
        """Sink state (for shutdown summaries and debug surfaces)."""
        with self._lock:
            return {
                "path": self.path,
                "sample": self.sample,
                "max_bytes": self.max_bytes,
                "backups": self.backups,
                "lines_written": self.lines_written,
                "lines_sampled_out": self.lines_sampled_out,
                "rotations": self.rotations,
            }


def load_wide_events(path: str,
                     include_backups: bool = True) -> List[Dict[str, Any]]:
    """Parse a ``--wide-events`` record log (rotated generations
    included oldest first), blank lines skipped."""
    paths: List[str] = []
    if include_backups:
        generation = 1
        backups = []
        while os.path.exists(f"{path}.{generation}"):
            backups.append(f"{path}.{generation}")
            generation += 1
        paths.extend(reversed(backups))
    paths.append(path)
    records: List[Dict[str, Any]] = []
    for name in paths:
        with open(name) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    return records


def tail_events(path: str, n: int = 20,
                slow_only: bool = False) -> List[Dict[str, Any]]:
    """The newest ``n`` records of the live file (no backups; ``n = 0``
    means all), only the ones marked ``slow`` with ``slow_only``."""
    records = load_wide_events(path, include_backups=False)
    if slow_only:
        records = [record for record in records if record.get("slow")]
    return records[-max(0, n):]


def _exact_percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of raw values (exact, unlike histogram
    bucket resolution — records carry the raw durations)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def summarize_events(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a record list into the ``events summarize`` report.

    Groups query records by ``(engine, k)`` with exact (nearest-rank)
    latency percentiles from the raw durations, counts batch records,
    and reports the overall event span and rate.  A routed
    query is one record, so ``n_queries`` counts served queries on a
    sharded index as on a flat one.
    """
    queries = [r for r in records if r.get("event") == "query"]
    batches = [r for r in records if r.get("event") == "batch"]
    errors = [r for r in records if r.get("event") == "error"]
    timestamps = [r.get("ts", 0.0) for r in records if r.get("ts")]
    span_s = (max(timestamps) - min(timestamps)) if len(timestamps) > 1 else 0.0

    by_engine: Dict[str, Dict[str, Any]] = {}
    for record in queries:
        key = f"{record.get('engine') or '?'}|k={record.get('k', 0)}"
        group = by_engine.setdefault(key, {
            "engine": record.get("engine") or "?",
            "k": record.get("k", 0),
            "queries": 0,
            "occurrences": 0,
            "durations": [],
            "max_shards": 0,
        })
        group["queries"] += 1
        group["occurrences"] += int(record.get("occurrences", 0))
        group["durations"].append(float(record.get("duration_ms", 0.0)))
        group["max_shards"] = max(group["max_shards"],
                                  int(record.get("shards", 0)))
    groups = []
    for key in sorted(by_engine):
        group = by_engine[key]
        durations = group.pop("durations")
        group["p50_ms"] = round(_exact_percentile(durations, 50), 3)
        group["p95_ms"] = round(_exact_percentile(durations, 95), 3)
        group["p99_ms"] = round(_exact_percentile(durations, 99), 3)
        groups.append(group)

    return {
        "format": "repro-wide-event-summary",
        "version": 1,
        "n_events": len(records),
        "n_queries": len(queries),
        "n_batches": len(batches),
        "n_errors": len(errors),
        "span_s": round(span_s, 3),
        "events_per_s": round(len(records) / span_s, 3) if span_s > 0 else 0.0,
        "by_engine": groups,
    }


def render_event_summary(summary: Dict[str, Any]) -> str:
    """Aligned plain-text rendering of :func:`summarize_events`."""
    lines = [
        f"{summary['n_events']} event(s): {summary['n_queries']} query, "
        f"{summary['n_batches']} batch, {summary['n_errors']} error "
        f"over {summary['span_s']:g} s"
        + (f" ({summary['events_per_s']:g}/s)" if summary["span_s"] else ""),
    ]
    if summary["by_engine"]:
        header = (f"{'engine':<18} {'k':>2} {'queries':>8} {'occ':>8} "
                  f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9} {'shards':>6}")
        lines += ["", header, "-" * len(header)]
        for group in summary["by_engine"]:
            lines.append(
                f"{group['engine']:<18} {group['k']:>2} {group['queries']:>8} "
                f"{group['occurrences']:>8} {group['p50_ms']:>9.3f} "
                f"{group['p95_ms']:>9.3f} {group['p99_ms']:>9.3f} "
                f"{group['max_shards']:>6}"
            )
    return "\n".join(lines)


def render_event_lines(records: List[Dict[str, Any]],
                       show_spans: bool = False) -> str:
    """One aligned line per record for ``events tail`` (plus the
    record's span tree with ``show_spans``)."""
    if not records:
        return "(no events)"
    lines = []
    for record in records:
        trace = record.get("trace_id", "-")
        extra = ""
        if record.get("shards"):
            extra += f" shards={record['shards']}"
        if "shard" in record:
            extra += f" shard={record['shard']}"
        if record.get("slow"):
            extra += " SLOW"
        lines.append(
            f"{record.get('ts', 0):.3f} {record.get('event', '?'):<6} "
            f"{record.get('engine', '?'):<18} k={record.get('k', 0):<2} "
            f"m={record.get('m', 0):<4} {record.get('duration_ms', 0):>9.3f}ms "
            f"occ={record.get('occurrences', 0):<6} trace={trace}{extra}"
        )
        if show_spans and record.get("spans"):
            tree = render_span_tree([record["spans"]])
            lines.extend("      " + line for line in tree.splitlines())
    return "\n".join(lines)


# -- error accounting ------------------------------------------------------------


def classify_error(exc: BaseException) -> str:
    """The bounded ``kind`` label value for a raised query exception.

    ``pattern``    — bad input (:class:`PatternError`, :class:`AlphabetError`);
    ``corruption`` — the index itself failed a check
    (:class:`IndexCorruptionError`, :class:`SerializationError`);
    ``internal``   — anything else.  Worker deaths are counted by the
    executor directly under ``kind="worker"`` (no exception object
    crosses the process boundary).
    """
    if isinstance(exc, (PatternError, AlphabetError)):
        return "pattern"
    if isinstance(exc, (IndexCorruptionError, SerializationError)):
        return "corruption"
    return "internal"


def count_query_error(engine: str, k: Any, kind: str) -> None:
    """Bump ``query.errors`` (flat total + the ``{engine,k,kind}`` child)."""
    from . import OBS

    if not OBS.enabled:
        return
    OBS.metrics.counter(QUERY_ERRORS_METRIC).inc()
    OBS.metrics.counter(QUERY_ERRORS_METRIC, engine=engine, k=k, kind=kind).inc()


def record_query_error(engine: str, k: Any, exc: BaseException,
                       **fields: Any) -> str:
    """Count one raised query exactly once, however many layers see it.

    The facade, the shard router and the batch executor each wrap their
    query paths with this call; the exception object is tagged on first
    count so an error bubbling through all three layers still produces
    one ``query.errors`` increment and one ``"error"`` record.
    ``fields`` (``m``, ``trace_id``, ``shard``) go into that record.
    Returns the classified kind.
    """
    kind = classify_error(exc)
    if getattr(exc, "_repro_error_counted", False):
        return kind
    try:
        exc._repro_error_counted = True
    except Exception:  # pragma: no cover - exotic exception with __slots__
        pass
    count_query_error(engine, k, kind)
    from . import OBS

    if OBS.enabled:
        OBS.record_event(
            "error", engine=engine, k=k, kind=kind,
            error=type(exc).__name__,
            message=f"{type(exc).__name__}: {exc}"[:300],
            **fields,
        )
    return kind


__all__ = [
    "WIDE_EVENT_FORMAT",
    "WIDE_EVENT_VERSION",
    "SLOW_QUERY_MS",
    "DEFAULT_EVENT_SAMPLE",
    "DEFAULT_EVENT_MAX_BYTES",
    "DEFAULT_EVENT_BACKUPS",
    "new_trace_id",
    "sample_keep",
    "make_record",
    "WideEventLog",
    "load_wide_events",
    "tail_events",
    "summarize_events",
    "render_event_summary",
    "render_event_lines",
    "QUERY_ERRORS_METRIC",
    "classify_error",
    "count_query_error",
    "record_query_error",
]
