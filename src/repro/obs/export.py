"""Metric export formats and cross-process snapshot aggregation.

Two concerns live here, both pure functions over the JSON form of
:meth:`~repro.obs.metrics.MetricsRegistry.to_dict` (schema v2 — v1 flat
payloads parse identically, see :func:`~repro.obs.metrics.iter_series`):

* **OpenMetrics rendering** — :func:`render_openmetrics` turns the
  registry payload into the Prometheus/OpenMetrics text exposition
  format served by :mod:`repro.obs.server` on ``/metrics``.  Dotted
  metric names become underscore-separated (``search.rank_queries``
  → ``search_rank_queries``), counters gain the conventional
  ``_total`` suffix, histograms expand into cumulative
  ``_bucket{le="..."}`` series plus ``_sum`` / ``_count``, labelled
  children render as ``{label="value"}`` series under one ``# TYPE``
  header, and histogram buckets carrying an exemplar append the
  OpenMetrics ``# {trace_id="..."} value`` clause — the pointer a
  dashboard follows from a latency bucket to the flight-recorder record
  (``/debug/queries?trace_id=...``) holding that query's span tree.

* **Snapshot deltas and merging** — process-pool batch workers each
  accumulate into their *own* ``OBS`` singleton (a forked or spawned
  copy), so their counters would silently vanish when the pool shuts
  down.  :func:`metrics_delta` computes what one chunk added on top of a
  baseline snapshot (fork-safe: inherited pre-fork totals subtract out),
  and :func:`merge_metrics` folds such a delta back into the parent's
  registry.  Both operate per *series*, so labelled children survive the
  hop with their label sets intact.  :class:`ObsDelta` bundles the
  metric delta with the span trees and flight-recorder records the chunk
  finished, which is exactly the payload
  ``repro.engine.executor._pool_worker`` ships home.
"""

from __future__ import annotations

import math
import re
from time import perf_counter_ns, time_ns
from typing import Any, Dict, List, Optional, Tuple

from .metrics import (
    LabelTuple,
    MetricsRegistry,
    family_payload,
    histogram_from_payload,
    iter_series,
)
from .profiling import PROFILER

#: Content type the ``/metrics`` endpoint serves (Prometheus text format).
OPENMETRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Gauge: seconds since this module was first imported (process start,
#: to import-time resolution) — refreshed on every scrape/sample.
PROCESS_UPTIME_METRIC = "process.uptime_s"

#: Gauge: resident set size in bytes — refreshed on every scrape/sample.
PROCESS_RSS_METRIC = "process.rss_bytes"

_PROCESS_START_NS = time_ns()


def read_rss_bytes() -> int:
    """This process's resident set size in bytes (0 when unreadable).

    Linux reads ``VmRSS`` from ``/proc/self/status``; elsewhere the
    ``resource`` module's peak-RSS is the stand-in (kilobytes on Linux,
    bytes on macOS — normalized here).
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak if sys.platform == "darwin" else peak * 1024
    except Exception:
        return 0


def refresh_process_gauges(registry: MetricsRegistry) -> None:
    """Set the process-level gauges (uptime, RSS) on ``registry``.

    Called by the ``/metrics``/``/debug/metrics`` scrape handlers and by
    :meth:`~repro.obs.timeseries.TimeSeriesStore.sample`, so both the
    exposition and retained time-series snapshots carry fresh values.
    """
    registry.gauge(PROCESS_UPTIME_METRIC).set(
        round((time_ns() - _PROCESS_START_NS) / 1e9, 3)
    )
    registry.gauge(PROCESS_RSS_METRIC).set(read_rss_bytes())

_NAME_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
_NAME_LEADING = re.compile(r"^[^a-zA-Z_:]")

_LABEL_NAME_INVALID = re.compile(r"[^a-zA-Z0-9_]")
_LABEL_NAME_LEADING = re.compile(r"^[^a-zA-Z_]")


def sanitize_metric_name(name: str) -> str:
    """A Prometheus-legal metric name for a dotted repro metric name.

    >>> sanitize_metric_name("search.rank_queries")
    'search_rank_queries'
    >>> sanitize_metric_name("9bad name")
    '_bad_name'
    """
    cleaned = _NAME_INVALID.sub("_", name)
    return _NAME_LEADING.sub("_", cleaned[:1]) + cleaned[1:] if cleaned else "_"


def sanitize_label_name(name: str) -> str:
    """A Prometheus-legal label name (no colons, unlike metric names)."""
    cleaned = _LABEL_NAME_INVALID.sub("_", name)
    return _LABEL_NAME_LEADING.sub("_", cleaned[:1]) + cleaned[1:] if cleaned else "_"


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition grammar (\\\\, \\", \\n)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Any) -> str:
    """A Prometheus-style number: integers bare, floats via repr,
    non-finite values as the exposition-format spellings ``+Inf`` /
    ``-Inf`` / ``NaN`` (Python's ``inf``/``nan`` are not legal there)."""
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _render_labels(labels: LabelTuple, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    """``{name="value",...}`` for a frozen label tuple ('' when empty)."""
    pairs = [
        f'{sanitize_label_name(key)}="{escape_label_value(value)}"'
        for key, value in tuple(labels) + tuple(extra)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _render_exemplar(exemplar: Optional[dict]) -> str:
    """The ``# {trace_id="..."} value`` clause for one bucket ('' if none)."""
    if not exemplar or not exemplar.get("trace_id"):
        return ""
    trace_id = escape_label_value(str(exemplar["trace_id"]))
    return f' # {{trace_id="{trace_id}"}} {_format_value(exemplar.get("value", 0.0))}'


def render_openmetrics(metrics: Dict[str, dict], prefix: str = "repro_") -> str:
    """The Prometheus text exposition of a registry ``to_dict`` payload.

    Every series is prefixed (default ``repro_``) so a scrape of a mixed
    process cannot collide with other exporters.  Histogram buckets are
    rendered cumulatively with inclusive ``le`` bounds and a final
    ``+Inf`` bucket, matching the storage convention of
    :class:`~repro.obs.metrics.Histogram` (per-bucket, non-cumulative).
    Labelled children of one family share a single ``# TYPE`` header;
    the unlabelled child renders first as the bare-name series.
    """
    lines: List[str] = []
    for name in sorted(metrics):
        payload = metrics[name]
        kind = payload.get("type")
        base = prefix + sanitize_metric_name(name)
        series = iter_series(payload)
        if not series:
            continue
        if kind == "counter":
            lines.append(f"# TYPE {base}_total counter")
            for labels, child in series:
                lines.append(
                    f"{base}_total{_render_labels(labels)} "
                    f"{_format_value(child.get('value', 0))}"
                )
        elif kind == "gauge":
            lines.append(f"# TYPE {base} gauge")
            for labels, child in series:
                lines.append(
                    f"{base}{_render_labels(labels)} "
                    f"{_format_value(child.get('value', 0))}"
                )
        elif kind == "histogram":
            lines.append(f"# TYPE {base} histogram")
            for labels, child in series:
                buckets = child.get("buckets", [])
                counts = child.get("counts", [])
                exemplars = child.get("exemplars") or {}
                running = 0
                for i, (bound, count) in enumerate(zip(buckets, counts)):
                    running += count
                    label_str = _render_labels(
                        labels, (("le", _format_value(float(bound))),)
                    )
                    exemplar = _render_exemplar(exemplars.get(str(i)))
                    lines.append(f"{base}_bucket{label_str} {running}{exemplar}")
                running += counts[len(buckets)] if len(counts) > len(buckets) else 0
                inf_labels = _render_labels(labels, (("le", "+Inf"),))
                exemplar = _render_exemplar(exemplars.get(str(len(buckets))))
                lines.append(f"{base}_bucket{inf_labels} {running}{exemplar}")
                plain = _render_labels(labels)
                lines.append(f"{base}_sum{plain} {_format_value(child.get('sum', 0.0))}")
                lines.append(f"{base}_count{plain} {_format_value(child.get('count', 0))}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def fetch_metrics_json(url: str, timeout: float = 10.0) -> Dict[str, dict]:
    """The registry ``to_dict`` payload scraped from a live server.

    ``url`` is the server base (``http://host:port``) or the full
    ``/debug/metrics`` endpoint — the suffix is appended when missing.
    Shared by ``repro-cli stats --url`` and ``repro-cli slo`` so both
    read exactly what the server exports.
    """
    import json
    from urllib.request import urlopen

    if not url.rstrip("/").endswith("/debug/metrics"):
        url = url.rstrip("/") + "/debug/metrics"
    with urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


# -- cross-process snapshot aggregation -----------------------------------------


def metrics_delta(before: Dict[str, dict], after: Dict[str, dict]) -> Dict[str, dict]:
    """What ``after`` added on top of ``before`` (both ``to_dict`` payloads).

    Counters and histogram counts subtract element-wise; gauges are
    last-write-wins so the ``after`` value is taken verbatim.  The
    subtraction is per *series*: a labelled child subtracts against the
    same label set in ``before``, so worker deltas keep their dimensions.
    Series with nothing new are omitted, so an idle chunk ships an empty
    dict.  Histogram ``min``/``max`` in a delta are the ``after`` values
    — a bucket-resolution approximation, consistent with everything else
    a fixed-bucket histogram reports.
    """
    delta: Dict[str, dict] = {}
    for name, payload in after.items():
        kind = payload.get("type")
        prior_payload = before.get(name)
        if prior_payload is not None and prior_payload.get("type") != kind:
            prior_payload = None  # kind changed (registry reset mid-run): treat as new
        prior_series: Dict[LabelTuple, dict] = (
            dict(iter_series(prior_payload)) if prior_payload else {}
        )
        changed: Dict[LabelTuple, dict] = {}
        for labels, child in iter_series(payload):
            prior = prior_series.get(labels)
            if kind == "counter":
                value = child.get("value", 0) - (prior.get("value", 0) if prior else 0)
                if value:
                    changed[labels] = {"type": "counter", "name": name, "value": value}
            elif kind == "gauge":
                if prior is None or child.get("value") != prior.get("value"):
                    changed[labels] = {k: v for k, v in child.items() if k != "labels"}
            elif kind == "histogram":
                if prior is None:
                    if child.get("count", 0):
                        changed[labels] = {k: v for k, v in child.items() if k != "labels"}
                    continue
                if child.get("buckets") != prior.get("buckets"):
                    # buckets changed: ship whole thing
                    changed[labels] = {k: v for k, v in child.items() if k != "labels"}
                    continue
                counts = [c - p for c, p in zip(child.get("counts", []), prior.get("counts", []))]
                count = child.get("count", 0) - prior.get("count", 0)
                if count <= 0 and not any(counts):
                    continue
                entry = {k: v for k, v in child.items() if k != "labels"}
                entry["counts"] = counts
                entry["count"] = count
                entry["sum"] = child.get("sum", 0.0) - prior.get("sum", 0.0)
                changed[labels] = entry
        entry = family_payload(kind or "?", name, changed)
        if entry is not None:
            delta[name] = entry
    return delta


def merge_metrics(registry: MetricsRegistry, payload: Dict[str, dict]) -> None:
    """Fold a ``to_dict``/:func:`metrics_delta` payload into ``registry``.

    Counters increment, gauges set, histograms merge element-wise
    (buckets must agree with any existing instrument of the same name —
    the registry raises on mismatch, same as two live call sites would).
    Every series folds into the child with the same label set, so
    per-label totals survive the process hop losslessly.
    """
    for name in sorted(payload):
        entry = payload[name]
        kind = entry.get("type")
        for labels, child in iter_series(entry):
            label_dict = dict(labels)
            if kind == "counter":
                registry.series("counter", name, label_dict).inc(child.get("value", 0))
            elif kind == "gauge":
                registry.series("gauge", name, label_dict).set(child.get("value", 0))
            elif kind == "histogram":
                incoming = histogram_from_payload(dict(child, name=name))
                registry.series(
                    "histogram", name, label_dict, buckets=incoming.buckets
                ).merge(incoming)


class ObsDelta:
    """One chunk's observability payload: metric deltas, span trees, and
    freshly appended flight-recorder records.

    Built worker-side by :meth:`capture`/:meth:`finish`, shipped as a
    plain dict (picklable), merged parent-side by :func:`merge_obs_delta`.
    Shipping the records (not just the metrics) is what keeps histogram
    exemplars resolvable: a worker query's ``trace_id`` lands in the
    parent recorder, so ``/debug/queries?trace_id=...`` finds it no
    matter which process ran the search.
    """

    __slots__ = (
        "_before_metrics",
        "_before_roots",
        "_before_records",
        "_before_profile",
        "payload",
    )

    def __init__(self):
        self._before_metrics: Dict[str, dict] = {}
        self._before_roots = 0
        self._before_records = 0
        self._before_profile: Dict[tuple, int] = {}
        self.payload: Optional[dict] = None

    @classmethod
    def capture(cls, obs) -> "ObsDelta":
        """Snapshot ``obs`` (an :class:`~repro.obs.Observability`) now."""
        snap = cls()
        snap._before_metrics = obs.metrics.to_dict()
        snap._before_roots = len(obs.tracer.finished)
        recorder = getattr(obs, "recorder", None)
        snap._before_records = recorder.total_recorded if recorder is not None else 0
        # The process-wide profiler rides the same delta: snapshot its
        # folded counts so finish() ships only this chunk's samples.
        snap._before_profile = PROFILER.counts_snapshot()
        return snap

    def finish(self, obs) -> dict:
        """The delta accumulated on ``obs`` since :meth:`capture`.

        ``clock_ns`` anchors this process's monotonic span timestamps to
        the wall clock (wall time at the monotonic clock's zero), so the
        receiving process can rebase them onto *its* monotonic timeline
        and interleave worker spans with its own chronologically.
        ``records`` are the flight-recorder entries appended since
        capture (identified by their ``seq``; a fork-inherited ring's
        pre-existing records subtract out the same way metrics do).
        """
        spans = [span.to_dict() for span in obs.tracer.finished[self._before_roots :]]
        records: List[dict] = []
        recorder = getattr(obs, "recorder", None)
        if recorder is not None:
            seen = set()
            for record in recorder.recent() + recorder.slow():
                seq = record.get("seq", 0)
                if seq > self._before_records and seq not in seen:
                    seen.add(seq)
                    records.append(record)
            records.sort(key=lambda r: r.get("seq", 0))
        self.payload = {
            "metrics": metrics_delta(self._before_metrics, obs.metrics.to_dict()),
            "spans": spans,
            "records": records,
            "clock_ns": time_ns() - perf_counter_ns(),
        }
        # Samples the profiler collected during this chunk (None when the
        # profiler is off or idle) — per-worker sub-profiles ride home in
        # the same payload as metrics/spans/records.
        profile = PROFILER.delta_payload(self._before_profile)
        if profile is not None:
            self.payload["profile"] = profile
        return self.payload


def merge_obs_delta(obs, payload: Optional[dict]) -> None:
    """Merge one worker chunk's :class:`ObsDelta` payload into ``obs``.

    When the payload carries the sender's ``clock_ns`` wall anchor, the
    difference against the local anchor rebases adopted span start times
    onto the local monotonic clock (the anchors share the wall-clock
    reference, so their difference is exactly the monotonic offset
    between the two processes).  Shipped flight-recorder records are
    re-recorded locally: they get fresh ``seq`` numbers on the local
    ring (their worker-side ordering is preserved) and re-run the local
    slow-query pinning.
    """
    if not payload:
        return
    merge_metrics(obs.metrics, payload.get("metrics") or {})
    spans = payload.get("spans") or []
    if spans:
        offset_ns = 0
        clock_ns = payload.get("clock_ns")
        if clock_ns is not None:
            offset_ns = int(clock_ns) - (time_ns() - perf_counter_ns())
        obs.tracer.adopt(spans, offset_ns)
    recorder = getattr(obs, "recorder", None)
    if recorder is not None:
        for record in payload.get("records") or []:
            adopted = {k: v for k, v in record.items() if k not in ("seq", "slow")}
            recorder.record(adopted)
    # Worker profile samples fold into the parent's profile under a
    # worker:<slot> root frame (dropped when the parent never profiled).
    PROFILER.adopt(payload.get("profile"))
