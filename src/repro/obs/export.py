"""Cross-process snapshot aggregation.

Pure functions over the JSON form of
:meth:`~repro.obs.metrics.MetricsRegistry.to_dict` (schema v2 — v1 flat
payloads parse identically, see :func:`~repro.obs.metrics.iter_series`).

Process-pool batch workers each accumulate into their *own* ``OBS``
singleton (a forked or spawned copy), so their counters would silently
vanish when the pool shuts down.  :func:`metrics_delta` computes what
one chunk added on top of a baseline snapshot (fork-safe: inherited
pre-fork totals subtract out), and :func:`merge_metrics` folds such a
delta back into the parent's registry.  Both operate per *series*, so
labelled children survive the hop with their label sets intact.
:class:`ObsDelta` bundles the metric delta with the span trees the
chunk finished and the records it wrote into the worker's
:class:`RecordBuffer`, which is exactly the payload
``repro.engine.executor._pool_worker`` ships home.
"""

from __future__ import annotations

from time import perf_counter_ns, time_ns
from typing import Dict, List, Optional

from .metrics import (
    LabelTuple,
    MetricsRegistry,
    family_payload,
    histogram_from_payload,
    iter_series,
)


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


class RecordBuffer(list):
    """A pool worker's sink: the records its current chunk wrote.

    The worker installs one as ``OBS.wide_log`` when the parent has a
    sink open; :class:`ObsDelta` ships its contents home and empties it.
    """

    __slots__ = ()
    emit = list.append


class ObsDelta:
    """One chunk's observability payload: metric deltas, span trees, and
    the records the chunk wrote.

    Built worker-side by :meth:`capture`/:meth:`finish`, shipped as a
    plain dict (picklable), merged parent-side by :func:`merge_obs_delta`.
    Shipping the records (not just the metrics) puts a worker query's
    record, ``trace_id`` and span tree in the parent's sink, whichever
    process ran the search.
    """

    __slots__ = (
        "_before_metrics",
        "_before_roots",
        "payload",
    )

    def __init__(self):
        self._before_metrics: Dict[str, dict] = {}
        self._before_roots = 0
        self.payload: Optional[dict] = None

    @classmethod
    def capture(cls, obs) -> "ObsDelta":
        """Snapshot ``obs`` (an :class:`~repro.obs.Observability`) now;
        a :class:`RecordBuffer` sink starts the chunk empty."""
        snap = cls()
        snap._before_metrics = obs.metrics.to_dict()
        snap._before_roots = len(obs.tracer.finished)
        if isinstance(obs.wide_log, RecordBuffer):
            obs.wide_log.clear()
        return snap

    def finish(self, obs) -> dict:
        """The delta accumulated on ``obs`` since :meth:`capture`.

        ``clock_ns`` anchors this process's monotonic span timestamps to
        the wall clock (wall time at the monotonic clock's zero), so the
        receiving process can rebase them onto *its* monotonic timeline
        and interleave worker spans with its own chronologically.
        ``records`` are what a :class:`RecordBuffer` sink collected
        since capture, in write order, every one of them.
        """
        spans = [span.to_dict() for span in obs.tracer.finished[self._before_roots :]]
        records: List[dict] = []
        if isinstance(obs.wide_log, RecordBuffer):
            records = obs.wide_log[:]
            obs.wide_log.clear()
        self.payload = {
            "metrics": metrics_delta(self._before_metrics, obs.metrics.to_dict()),
            "spans": spans,
            "records": records,
            "clock_ns": time_ns() - perf_counter_ns(),
        }
        return self.payload


def merge_obs_delta(obs, payload: Optional[dict]) -> None:
    """Merge one worker chunk's :class:`ObsDelta` payload into ``obs``.

    When the payload carries the sender's ``clock_ns`` wall anchor, the
    difference against the local anchor rebases adopted span start times
    onto the local monotonic clock (the anchors share the wall-clock
    reference, so their difference is exactly the monotonic offset
    between the two processes).  Shipped records go to the local sink,
    in the worker's order, through its head sampling; with no sink open
    they are dropped.
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
    sink = obs.wide_log
    if sink is not None:
        for record in payload.get("records") or []:
            sink.emit(record)
