"""Observability: tracing, metrics, and trace-file export.

This package is the engine's measurement substrate.  Every layer —
FM-index construction, the rank structure, the tree searchers, the facade,
the benchmark suite, the CLI — reports through the one process-wide
:data:`OBS` singleton, so a single switch turns the whole pipeline's
instrumentation on and a single export captures it.

Quickstart
----------
>>> from repro.obs import OBS
>>> _ = OBS.reset().enable()
>>> from repro import KMismatchIndex
>>> index = KMismatchIndex("acagaca")
>>> _ = index.search("tcaca", k=2)
>>> _ = OBS.disable()
>>> any(s.name == "kmismatch.search" for s in OBS.tracer.iter_finished())
True
>>> OBS.metrics.counter("search.rank_queries", engine="algorithm_a", k=2).value > 0
True

Instrumented code follows three rules:

* **Per-region work** (a build phase, one query) opens a span:
  ``with OBS.span("fmindex.build", length=n): ...`` — `span()` returns a
  shared no-op when disabled.
* **Per-query counts** come from the
  :class:`~repro.core.types.SearchStats` the search already keeps,
  folded into the registry once per served query by the layer serving
  it (``search.rank_queries{engine,k}`` and friends) — no registry work
  in engines or rank-probe loops.  Guard with the
  ``enabled`` flag: ``if OBS.enabled: ...`` — one attribute read on
  the disabled path.
* **Per-query telemetry** is one record: :meth:`Observability.record_event`
  builds it only while a ``--wide-events`` sink is open and writes it
  there (schema in :mod:`repro.obs.events`).

The trace-file format written by :meth:`Observability.export` /
``repro-cli --stats-json`` is documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .metrics import (
    COUNT_BUCKETS,
    Counter,
    DEFAULT_MAX_LABEL_SETS,
    Gauge,
    Histogram,
    LABELS_DROPPED_METRIC,
    LATENCY_BUCKETS_MS,
    MetricError,
    MetricFamily,
    MetricsRegistry,
    family_payload,
    freeze_labels,
    iter_series,
    render_metrics,
)
from .tracing import NULL_SPAN, Span, Timer, Tracer, render_span_tree
from .export import ObsDelta, merge_metrics, merge_obs_delta, metrics_delta
from .events import (
    QUERY_ERRORS_METRIC,
    WIDE_EVENT_FORMAT,
    WIDE_EVENT_VERSION,
    WideEventLog,
    classify_error,
    count_query_error,
    load_wide_events,
    make_record,
    new_trace_id,
    record_query_error,
    render_event_lines,
    render_event_summary,
    sample_keep,
    summarize_events,
    tail_events,
)

#: Identifier written into every exported trace document.
TRACE_FORMAT = "repro-trace"
#: Version 2 adds labelled metric families (schema v2 payloads with
#: ``series`` lists); v1 documents still load.  Keys a payload carries
#: beyond the ones this build writes are ignored, so older v2 files
#: keep rendering.
TRACE_VERSION = 2


class Observability:
    """The paired tracer + metrics registry behind :data:`OBS`.

    ``enabled`` gates *everything*: spans collapse to a no-op singleton
    and hot-path counter updates are skipped entirely.  The flag is a
    plain attribute so the disabled check is one load — the overhead
    budget the test suite enforces.
    """

    __slots__ = ("tracer", "metrics", "enabled", "wide_log")

    def __init__(self):
        self.tracer = Tracer(enabled=False)
        self.metrics = MetricsRegistry()
        self.enabled = False
        #: Optional sampling/rotating record sink (:meth:`open_wide_log`).
        self.wide_log = None

    # -- switches -------------------------------------------------------------

    def enable(self) -> "Observability":
        """Turn on span collection and metric updates."""
        self.enabled = True
        self.tracer.enabled = True
        return self

    def disable(self) -> "Observability":
        """Turn instrumentation off (collected data is kept)."""
        self.enabled = False
        self.tracer.enabled = False
        return self

    def reset(self) -> "Observability":
        """Drop all collected spans and metrics (enabled state and any
        open sink unchanged)."""
        self.tracer.reset()
        self.metrics.reset()
        return self

    # -- convenience forwarding ----------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A tracer span (the shared no-op singleton when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(name, attrs, self.tracer)

    def timed(self, name: str, **attrs: Any) -> Timer:
        """An always-on stopwatch that is also a span when enabled."""
        return Timer(self.span(name, **attrs))

    def count(self, name: str, n: int = 1, **labels: Any) -> None:
        """Increment a counter iff enabled (labels select the child series)."""
        if self.enabled:
            self.metrics.counter(name, **labels).inc(n)

    # -- record sink ----------------------------------------------------------

    def open_wide_log(self, path: str, sample=None, max_bytes=None,
                      backups=None) -> WideEventLog:
        """Start appending every record to ``path`` (JSON lines, head
        sampling + size rotation — see :mod:`repro.obs.events`).

        Replaces (and closes) any previously open sink.  The sink
        outlives ``enabled`` toggles; it is closed only by
        :meth:`close_wide_log`.
        """
        self.close_wide_log()
        self.wide_log = WideEventLog(path, sample=sample,
                                     max_bytes=max_bytes, backups=backups)
        return self.wide_log

    def close_wide_log(self) -> None:
        """Close and detach the sink (no-op when none open)."""
        if self.wide_log is not None:
            self.wide_log.close()
            self.wide_log = None

    def record_event(self, event: str, **fields) -> Optional[dict]:
        """Build and write one record when a sink is open; returns it
        (``None`` with no sink, when nothing is built).

        The one telemetry record per query, routed query, batch or
        error (fields: :func:`~repro.obs.events.make_record`), written
        to the sampled, rotating sink.  Call sites guard with ``if
        OBS.enabled`` — this method does not — and the query paths also
        check ``wide_log`` before computing costly fields.
        """
        if self.wide_log is None:
            return None
        record = make_record(event, **fields)
        self.wide_log.emit(record)
        return record

    # -- export ---------------------------------------------------------------

    def export(self, **meta: Any) -> dict:
        """One JSON-compatible document: spans + metrics + metadata."""
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "meta": meta,
            "spans": self.tracer.to_dicts(),
            "metrics": self.metrics.to_dict(),
        }

    def write_trace(self, path: str, **meta: Any) -> dict:
        """Write :meth:`export` to ``path`` as JSON; returns the document."""
        document = self.export(**meta)
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        return document

    def render_summary(self) -> str:
        """Plain-text span tree plus metric summary of everything collected."""
        parts = []
        spans = self.tracer.to_dicts()
        if spans:
            parts.append("spans\n-----\n" + render_span_tree(spans))
        if len(self.metrics):
            parts.append("metrics\n-------\n" + self.metrics.render_summary())
        return "\n\n".join(parts) if parts else "(no trace data collected)"


def load_trace(path: str) -> dict:
    """Read and validate a trace document written by :meth:`Observability.write_trace`.

    Validation happens up front — a malformed file, a foreign format, or
    a trace written by a *newer* format version raises
    :class:`MetricError` naming what was found, instead of surfacing as
    an opaque ``KeyError`` deep inside replay/rendering.
    """
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise MetricError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise MetricError(
            f"{path} is not a {TRACE_FORMAT} document "
            f"(top level is {type(document).__name__}, expected object)"
        )
    found_format = document.get("format")
    if found_format != TRACE_FORMAT:
        raise MetricError(
            f"{path} is not a {TRACE_FORMAT} document (format={found_format!r})"
        )
    found_version = document.get("version")
    if not isinstance(found_version, int) or found_version > TRACE_VERSION:
        raise MetricError(
            f"{path} has unsupported {TRACE_FORMAT} version {found_version!r} "
            f"(this build reads versions <= {TRACE_VERSION})"
        )
    return document


#: Validated trace loading, exposed on the class so callers holding an
#: Observability instance need no extra import.
Observability.load = staticmethod(load_trace)


def render_trace(document: dict) -> str:
    """Plain-text rendering of a loaded trace document."""
    parts = []
    meta = document.get("meta") or {}
    if meta:
        parts.append(" ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    spans = document.get("spans") or []
    if spans:
        parts.append("spans\n-----\n" + render_span_tree(spans))
    metrics = document.get("metrics") or {}
    if metrics:
        parts.append("metrics\n-------\n" + render_metrics(metrics))
    return "\n\n".join(parts) if parts else "(empty trace)"


#: The process-wide observability singleton used by all instrumented code.
OBS = Observability()

__all__ = [
    "OBS",
    "Observability",
    "Tracer",
    "Span",
    "Timer",
    "NULL_SPAN",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "LATENCY_BUCKETS_MS",
    "COUNT_BUCKETS",
    "DEFAULT_MAX_LABEL_SETS",
    "LABELS_DROPPED_METRIC",
    "freeze_labels",
    "iter_series",
    "family_payload",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "load_trace",
    "render_trace",
    "render_span_tree",
    "render_metrics",
    # cross-process aggregation (repro.obs.export)
    "metrics_delta",
    "merge_metrics",
    "merge_obs_delta",
    "ObsDelta",
    # the record schema, its sink and reader (repro.obs.events)
    "new_trace_id",
    "WIDE_EVENT_FORMAT",
    "WIDE_EVENT_VERSION",
    "WideEventLog",
    "make_record",
    "sample_keep",
    "load_wide_events",
    "tail_events",
    "summarize_events",
    "render_event_summary",
    "render_event_lines",
    # error accounting (repro.obs.events)
    "QUERY_ERRORS_METRIC",
    "classify_error",
    "count_query_error",
    "record_query_error",
]
