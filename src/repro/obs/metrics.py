"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the machine-readable side of the observability layer —
the paper's own evaluation quantities (n′ leaf counts, reuse rates,
rank-probe totals) become named metrics that every benchmark and the CLI
export the same way, instead of each harness hand-rolling its counters.

Three instrument kinds, in the Prometheus tradition but with no external
dependency:

* :class:`Counter` — a monotonically increasing total (rank probes,
  LF-walk steps, queries served);
* :class:`Gauge` — a last-write-wins level (index payload bytes,
  hash-table size after a search);
* :class:`Histogram` — fixed upper-bound buckets with count/sum/min/max,
  percentile estimation, and a compact ASCII rendering (per-query
  latency, S-tree depth, M-tree leaf count distributions).

Every name is a **metric family**: asking for the bare name returns the
unlabelled instrument (exactly the pre-label behaviour), while passing
label keywords returns the child for that label set::

    OBS.metrics.counter("query.count").inc()                        # total
    OBS.metrics.histogram("query.search_ms", engine="stree", k=2)   # series

Children are keyed by a frozen, sorted ``(key, value)`` tuple (values
stringified, the Prometheus model), so the same labels in any keyword
order hit the same child; a repeated call's own label items skip the
freeze (so ``1``, ``1.0`` and ``True`` share a child).  The paper's
evaluation is dimensional — Fig. 11(a) is time *as a function of k*,
Table 2 compares leaf counts *per method* — and label sets are what let
one live registry reproduce those cuts.

A per-family **cardinality cap** (:attr:`MetricsRegistry.max_label_sets`,
default :data:`DEFAULT_MAX_LABEL_SETS`, env
``REPRO_OBS_MAX_LABEL_SETS``) bounds distinct label sets: overflow
updates land in a detached per-family sink (so call sites never break)
and each dropped label set bumps the ``obs.labels.dropped`` counter —
the loss is counted, never silent.

Export paths: :meth:`MetricsRegistry.to_dict` (one JSON document, schema
v2 — see below), :meth:`MetricsRegistry.write_jsonl` (one JSON object
per series per line), and :meth:`MetricsRegistry.render_summary`
(aligned plain text for terminals).

Schema v2: a family with only the unlabelled child serializes exactly as
the historical v1 flat payload; labelled children ride in a ``"series"``
list of child payloads, each carrying its ``"labels"`` dict.  v1
payloads therefore parse as v2 with no series, and v2 payloads of
unlabelled-only registries are byte-identical to v1 — both directions of
the round-trip hold.

Updates are single attribute mutations under the GIL — safe for the
threads that share a registry (the batch watchdog).
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError


class MetricError(ReproError):
    """Raised on metric type conflicts or malformed histogram buckets."""


#: Default latency buckets in milliseconds (sub-0.1ms to 10s).
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 10_000,
)

#: Default buckets for tree-size style counts (leaves, nodes, depth).
COUNT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
    50_000, 250_000, 1_000_000,
)

#: Default per-family bound on distinct label sets —
#: override via REPRO_OBS_MAX_LABEL_SETS.
DEFAULT_MAX_LABEL_SETS = int(os.environ.get("REPRO_OBS_MAX_LABEL_SETS", "64"))

#: Counter bumped once per label set dropped by the cardinality cap.
LABELS_DROPPED_METRIC = "obs.labels.dropped"

#: A frozen label set: sorted ``(key, value)`` string pairs.
LabelTuple = Tuple[Tuple[str, str], ...]


def freeze_labels(labels: Dict[str, Any]) -> LabelTuple:
    """The canonical frozen form of a label dict (sorted, stringified).

    >>> freeze_labels({"k": 2, "engine": "stree"})
    (('engine', 'stree'), ('k', '2'))
    """
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def _label_suffix(labels: LabelTuple) -> str:
    """Human-readable ``{k=v,...}`` suffix for renderings ('' when unlabelled)."""
    if not labels:
        return ""
    return "{" + ",".join(f"{key}={value}" for key, value in labels) + "}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value", "labels")
    kind = "counter"

    def __init__(self, name: str, labels: LabelTuple = ()):
        self.name = name
        self.value = 0
        self.labels = labels

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the total."""
        self.value += n

    def to_dict(self) -> dict:
        payload = {"type": "counter", "name": self.name, "value": self.value}
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload


class Gauge:
    """A last-write-wins level."""

    __slots__ = ("name", "value", "labels")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelTuple = ()):
        self.name = name
        self.value: float = 0
        self.labels = labels

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> dict:
        payload = {"type": "gauge", "name": self.name, "value": self.value}
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max and percentiles.

    ``buckets`` are sorted upper bounds; an implicit +inf bucket catches
    the overflow.  ``counts[i]`` is the number of observations ``v``
    with ``v <= buckets[i]`` (and for the last slot, everything larger)
    — cumulative-free storage so merging histograms is element-wise.

    >>> h = Histogram("latency_ms", (1, 10, 100))
    >>> for v in (0.5, 3, 3, 250): h.observe(v)
    >>> h.counts
    [1, 2, 0, 1]
    >>> h.percentile(50)
    10.0
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max",
                 "labels")
    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_MS,
                 labels: LabelTuple = ()):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError(f"histogram buckets must be sorted and unique: {buckets!r}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.labels = labels

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper-bound estimate of the ``p``-th percentile (0 < p <= 100).

        Returns the upper bound of the bucket containing the percentile
        rank; observations above the largest bound report the observed
        maximum.  Bucket-resolution accuracy, like any fixed-bucket
        histogram.
        """
        if not 0 < p <= 100:
            raise MetricError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        running = 0
        for i, c in enumerate(self.counts):
            running += c
            if running >= rank:
                if i < len(self.buckets):
                    return self.buckets[i]
                return float(self.max if self.max is not None else 0.0)
        return float(self.max if self.max is not None else 0.0)

    def merge(self, other: "Histogram") -> "Histogram":
        """Element-wise merge of another histogram with identical buckets."""
        if other.buckets != self.buckets:
            raise MetricError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    def to_dict(self) -> dict:
        payload = {
            "type": "histogram",
            "name": self.name,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload

    def render(self, width: int = 40) -> str:
        """Compact ASCII bar rendering, one line per non-empty bucket."""
        peak = max(self.counts) if self.count else 0
        title = self.name + _label_suffix(self.labels)
        lines = [
            f"{title}: count={self.count} mean={self.mean:.3g} "
            f"min={self.min if self.min is not None else '-'} "
            f"max={self.max if self.max is not None else '-'} "
            f"p50={self.percentile(50):g} p90={self.percentile(90):g} "
            f"p99={self.percentile(99):g}" if self.count else f"{title}: count=0"
        ]
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            bound = f"<= {self.buckets[i]:g}" if i < len(self.buckets) else "> max bucket"
            bar = "#" * max(1, round(width * c / peak))
            lines.append(f"  {bound:>14} {c:>8} {bar}")
        return "\n".join(lines)


Metric = Union[Counter, Gauge, Histogram]

_KIND_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All the series sharing one metric name.

    ``children`` maps frozen label tuples to instruments; the empty tuple
    is the unlabelled child (the historical flat metric).  ``overflow``
    is the detached sink instrument updates land in once the cardinality
    cap rejects a new label set — it is never exported.
    """

    __slots__ = ("name", "kind", "buckets", "spec", "children", "lookup", "default", "overflow")

    def __init__(self, name: str, kind: str, buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.kind = kind
        #: Float upper bounds; ``spec`` is the ``buckets`` object last
        #: checked against them, so passing it again costs nothing.
        self.buckets = None if buckets is None else tuple(float(b) for b in buckets)
        self.spec = buckets
        self.children: Dict[LabelTuple, Metric] = {}
        #: A call's own label items -> the child they resolved to.
        self.lookup: Dict[tuple, Metric] = {}
        #: Fast-path alias for ``children[()]`` (None until first use).
        self.default: Optional[Metric] = None
        self.overflow: Optional[Metric] = None

    def _make(self, labels: LabelTuple) -> Metric:
        if self.kind == "histogram":
            return Histogram(self.name, self.buckets, labels=labels)
        return _KIND_CLASSES[self.kind](self.name, labels=labels)

    def n_label_sets(self) -> int:
        """How many *labelled* children exist (the cap's denominator)."""
        return len(self.children) - (1 if () in self.children else 0)

    def labelled(self) -> List[Metric]:
        """Labelled children, sorted by frozen label tuple."""
        return [self.children[key] for key in sorted(self.children) if key]

    def to_dict(self) -> dict:
        """Schema-v2 family payload.

        Unlabelled-only families serialize exactly as the v1 flat
        payload; labelled children ride in ``"series"``.
        """
        if self.default is not None:
            payload = self.default.to_dict()
        else:
            payload = {"type": self.kind, "name": self.name}
            if self.kind == "histogram" and self.buckets:
                payload["buckets"] = list(self.buckets)
        series = [child.to_dict() for child in self.labelled()]
        if series:
            payload["series"] = series
        return payload


class MetricsRegistry:
    """Name-keyed store of counter/gauge/histogram families.

    Accessors create on first use and return the existing instrument on
    later calls; asking for an existing name with a different kind (or a
    histogram with different buckets) raises :class:`MetricError` so two
    call sites can never silently split one metric.  Label keywords
    select (or create) the child series for that label set.
    """

    def __init__(self, max_label_sets: int = DEFAULT_MAX_LABEL_SETS):
        self._families: Dict[str, MetricFamily] = {}
        #: Per-family bound on distinct label sets; overflow is counted
        #: in ``obs.labels.dropped`` and routed to a detached sink.
        self.max_label_sets = max_label_sets

    # -- family plumbing -----------------------------------------------------

    def _family(self, name: str, kind: str,
                buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = MetricFamily(name, kind, buckets)
        elif family.kind != kind:
            raise MetricError(f"metric {name!r} is a {family.kind}, not a {kind}")
        elif buckets is not family.spec:
            if tuple(float(b) for b in buckets) != family.buckets:
                raise MetricError(f"histogram {name!r} already exists with different buckets")
            family.spec = buckets
        return family

    def _child(self, family: MetricFamily, labels: Dict[str, Any]) -> Metric:
        if not labels:
            child = family.default
            if child is None:
                child = family.default = family.children[()] = family._make(())
            return child
        items = tuple(labels.items())
        child = family.lookup.get(items)
        if child is not None:
            return child
        key = freeze_labels(labels)
        child = family.children.get(key)
        if child is None:
            if family.n_label_sets() >= self.max_label_sets:
                # Cap hit: count the drop and absorb updates in the
                # detached per-family sink so call sites never break
                # (not remembered: every such call counts).
                self.counter(LABELS_DROPPED_METRIC).inc()
                if family.overflow is None:
                    family.overflow = family._make(())
                return family.overflow
            child = family.children[key] = family._make(key)
        family.lookup[items] = child
        return child

    # -- accessors -----------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter series called ``name`` (+ labels), created on first use."""
        return self._child(self._family(name, "counter"), labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge series called ``name`` (+ labels), created on first use."""
        return self._child(self._family(name, "gauge"), labels)

    def histogram(self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_MS,
                  **labels: Any) -> Histogram:
        """The histogram series called ``name`` (+ labels), created on first use."""
        return self._child(self._family(name, "histogram", buckets), labels)

    def series(self, kind: str, name: str, labels: Optional[Dict[str, Any]] = None,
               buckets: Optional[Sequence[float]] = None) -> Metric:
        """The series addressed by ``(kind, name, labels)`` — dict-driven
        form of the accessors, for merge/replay paths that carry labels
        as data rather than keywords."""
        if kind not in _KIND_CLASSES:
            raise MetricError(f"unknown metric kind {kind!r}")
        buckets = (buckets or LATENCY_BUCKETS_MS) if kind == "histogram" else None
        return self._child(self._family(name, kind, buckets), labels or {})

    # -- introspection / export ----------------------------------------------

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def get(self, name: str) -> Optional[Metric]:
        """The unlabelled instrument called ``name``, or None.

        Label-only families return None here; use :meth:`family` to
        inspect their children.
        """
        family = self._families.get(name)
        return family.default if family is not None else None

    def family(self, name: str) -> Optional[MetricFamily]:
        """The :class:`MetricFamily` called ``name``, or None."""
        return self._families.get(name)

    def names(self) -> List[str]:
        """All registered family names, sorted."""
        return sorted(self._families)

    def reset(self) -> None:
        """Drop every registered family."""
        self._families = {}

    def to_dict(self) -> dict:
        """All families keyed by name, JSON-compatible (schema v2)."""
        return {name: self._families[name].to_dict() for name in sorted(self._families)}

    def write_jsonl(self, out: Union[str, IO[str]], extra: Optional[dict] = None) -> int:
        """Append one JSON line per series to ``out`` (path or file object).

        Labelled children each get their own line (carrying their
        ``labels`` dict); ``extra`` keys (run id, timestamp,
        configuration) are merged into every line.  Returns the number
        of lines written.
        """
        payloads: List[dict] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.default is not None:
                payloads.append(family.default.to_dict())
            payloads.extend(child.to_dict() for child in family.labelled())
        if extra:
            for payload in payloads:
                payload.update(extra)
        if isinstance(out, str):
            with open(out, "a") as handle:
                for payload in payloads:
                    handle.write(json.dumps(payload) + "\n")
        else:
            for payload in payloads:
                out.write(json.dumps(payload) + "\n")
        return len(payloads)

    def render_summary(self) -> str:
        """Aligned plain-text summary of every registered metric."""
        return render_metrics(self.to_dict())


def iter_series(payload: dict) -> List[Tuple[LabelTuple, dict]]:
    """Every series of one family payload as ``(label_tuple, child)`` pairs.

    Accepts both the v1 flat shape (one unlabelled series) and the v2
    family shape (optional unlabelled base + ``"series"`` children), so
    consumers — delta, merge, rendering — need no version branch.  A
    label-only family payload yields no ``()`` entry: the base dict is
    recognised as a series only when it carries its value fields.
    """
    kind = payload.get("type")
    out: List[Tuple[LabelTuple, dict]] = []
    base = {key: value for key, value in payload.items() if key != "series"}
    has_base = ("counts" in base) if kind == "histogram" else ("value" in base)
    if has_base:
        out.append(((), base))
    for child in payload.get("series") or []:
        out.append((freeze_labels(child.get("labels") or {}), child))
    return out


def family_payload(kind: str, name: str,
                   series: Dict[LabelTuple, dict]) -> Optional[dict]:
    """Reassemble ``(label_tuple -> child)`` series into one v2 payload.

    The inverse of :func:`iter_series`: an unlabelled-only input yields
    the flat v1 shape, anything labelled rides in ``"series"``.  Returns
    None when ``series`` is empty.
    """
    if not series:
        return None
    base = series.get(())
    if base is not None:
        payload = dict(base)
    else:
        payload = {"type": kind, "name": name}
    labelled = [
        dict(series[key], labels=dict(key)) for key in sorted(series) if key
    ]
    if labelled:
        payload["series"] = labelled
    return payload


def histogram_from_payload(payload: dict) -> Histogram:
    """A detached Histogram rebuilt from one series payload (for rendering)."""
    h = Histogram(
        payload.get("name", "?"),
        payload.get("buckets") or (1,),
        labels=freeze_labels(payload.get("labels") or {}),
    )
    h.counts = list(payload.get("counts", h.counts))
    h.count = payload.get("count", 0)
    h.total = payload.get("sum", 0.0)
    h.min = payload.get("min")
    h.max = payload.get("max")
    return h


def render_metrics(metrics: Dict[str, dict]) -> str:
    """Plain-text rendering of a :meth:`MetricsRegistry.to_dict` payload.

    Takes the JSON form so the CLI ``stats`` subcommand can replay saved
    files; live registries go through :meth:`MetricsRegistry.render_summary`.
    Accepts v1 flat payloads and v2 family payloads — labelled series
    render as ``name{k=v,...}`` lines after their family's unlabelled
    total.
    """
    scalars: List[Tuple[str, str, Any]] = []
    histograms: List[dict] = []
    for name in sorted(metrics):
        payload = metrics[name]
        kind = payload.get("type")
        for labels, series in iter_series(payload):
            title = name + _label_suffix(labels)
            if kind == "histogram":
                histograms.append(series)
            else:
                scalars.append((title, kind or "?", series.get("value")))
    lines: List[str] = []
    if scalars:
        width = max(len(name) for name, _, _ in scalars)
        for name, kind, value in scalars:
            lines.append(f"{name:<{width}}  {kind:<7}  {value}")
    for payload in histograms:
        if lines:
            lines.append("")
        lines.append(histogram_from_payload(payload).render())
    return "\n".join(lines)
