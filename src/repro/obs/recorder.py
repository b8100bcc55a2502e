"""Flight recorder: the in-memory ring of recent telemetry records.

The metrics registry answers "how much, in total"; the flight recorder
answers "what just happened" — a bounded ring buffer of the most recent
records (see :func:`repro.obs.events.make_record`: engine, ``k``,
pattern length, duration, occurrence count, the full
:class:`~repro.core.types.SearchStats` dictionary, and the query's span
tree when tracing is on).  Queries slower than a configurable threshold
are additionally **pinned** into a separate bounded list, so the
interesting outliers survive long after the ring has churned past them
— the black-box-recorder property the name is borrowed from.

Records arrive through :meth:`repro.obs.Observability.record_event`,
which also appends each one to the open ``--wide-events`` sink;
``--flight-json`` dumps the ring in the same schema, so
``repro-cli events`` reads both.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from collections import deque
from typing import Any, Dict, IO, List, Optional, Union

#: Ring-buffer capacity (recent records) — override via REPRO_FLIGHT_CAPACITY.
DEFAULT_CAPACITY = int(os.environ.get("REPRO_FLIGHT_CAPACITY", "256"))

#: Pinned-slow-record capacity.
DEFAULT_SLOW_CAPACITY = 64

#: Slow-query threshold in milliseconds — override via REPRO_SLOW_QUERY_MS.
DEFAULT_SLOW_MS = float(os.environ.get("REPRO_SLOW_QUERY_MS", "250"))


def new_trace_id() -> str:
    """A fresh 16-hex-char correlation id.

    One id per recorded query, shared between the flight-recorder record
    and the histogram exemplar the query's latency observation attaches
    (see :class:`~repro.obs.metrics.Histogram`), so a ``/metrics`` bucket
    annotation resolves to the record via ``/debug/queries?trace_id=...``.
    Random rather than sequential: ids stay unique across the processes
    of a pool batch without coordination.
    """
    return uuid.uuid4().hex[:16]


def prune_span_tree(span: Dict[str, Any], max_depth: int = 0, max_attrs: int = 0) -> Dict[str, Any]:
    """A bounded copy of one span-tree dict for flight-recorder storage.

    Deep engine traces (the S-tree expansion alone can nest dozens of
    levels with per-node attributes) make each record arbitrarily heavy;
    the recorder keeps hundreds of them.  ``max_depth`` keeps that many
    levels (1 = root only), ``max_attrs`` that many attributes per span
    (insertion order, i.e. the ones set at span entry); 0 means
    unlimited.  Whatever is cut is *marked*, not silently gone: a span
    whose subtree was dropped gains ``children_dropped`` (the number of
    descendants removed), one with trimmed attributes gains
    ``attrs_dropped``.  The input is never mutated.
    """

    def count_spans(node: Dict[str, Any]) -> int:
        return 1 + sum(count_spans(child) for child in node.get("children") or [])

    def walk(node: Dict[str, Any], depth_left: int) -> Dict[str, Any]:
        pruned = dict(node)
        attrs = node.get("attrs") or {}
        if max_attrs and len(attrs) > max_attrs:
            pruned["attrs"] = dict(list(attrs.items())[:max_attrs])
            pruned["attrs_dropped"] = len(attrs) - max_attrs
        children = node.get("children") or []
        if depth_left == 1 and children:
            pruned["children"] = []
            pruned["children_dropped"] = sum(count_spans(child) for child in children)
        else:
            pruned["children"] = [
                walk(child, depth_left - 1 if depth_left else 0) for child in children
            ]
        return pruned

    return walk(span, max_depth)


class FlightRecorder:
    """Bounded ring of recent records plus a pinned list of slow ones.

    Parameters
    ----------
    capacity:
        Maximum recent records retained (oldest evicted first).
    slow_ms:
        Records with ``duration_ms`` at or above this are *also* pinned
        into the slow list; ``None`` disables pinning.
    slow_capacity:
        Bound on the pinned list (oldest pinned records evicted first —
        the recorder never grows without bound).

    Appends take a lock: recorders are shared by the threaded batch
    paths, and a deque append alone is atomic but the sequence counter
    update next to it is not.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        slow_ms: Optional[float] = DEFAULT_SLOW_MS,
        slow_capacity: int = DEFAULT_SLOW_CAPACITY,
    ):
        if capacity < 1 or slow_capacity < 1:
            raise ValueError("flight recorder capacities must be positive")
        self.capacity = capacity
        self.slow_ms = slow_ms
        self.slow_capacity = slow_capacity
        self._recent: deque = deque(maxlen=capacity)
        self._slow: deque = deque(maxlen=slow_capacity)
        self._seq = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._recent)

    @property
    def total_recorded(self) -> int:
        """How many records have ever been appended (evicted ones included)."""
        return self._seq

    def record(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one record; returns it with its ``seq`` number set."""
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            record["slow"] = bool(
                self.slow_ms is not None
                and record.get("duration_ms", 0.0) >= self.slow_ms
            )
            self._recent.append(record)
            if record["slow"]:
                self._slow.append(record)
        return record

    def recent(self) -> List[Dict[str, Any]]:
        """The ring contents, oldest first."""
        with self._lock:
            return list(self._recent)

    def slow(self) -> List[Dict[str, Any]]:
        """The pinned slow records, oldest first (survive ring eviction)."""
        with self._lock:
            return list(self._slow)

    def slow_since(self, seq: int) -> List[Dict[str, Any]]:
        """Pinned slow records with ``seq`` strictly after ``seq``,
        oldest first — the incremental read the ``/debug/stream``
        publisher polls between frames."""
        with self._lock:
            return [record for record in self._slow
                    if record.get("seq", 0) > seq]

    def clear(self) -> None:
        """Drop every retained record (the sequence counter keeps counting)."""
        with self._lock:
            self._recent.clear()
            self._slow.clear()

    def find_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every retained record carrying ``trace_id`` (ring + pinned,
        deduplicated by ``seq``, oldest first) — the lookup behind
        ``/debug/queries?trace_id=...``, i.e. how a ``/metrics`` exemplar
        resolves to its full record.  A *batch* trace id matches too:
        worker-shipped per-query records carry their batch's id as
        ``batch_trace_id``, so one lookup returns the batch record plus
        every query record the batch produced."""
        matches: Dict[Any, Dict[str, Any]] = {}
        with self._lock:
            for record in list(self._recent) + list(self._slow):
                if (record.get("trace_id") == trace_id
                        or record.get("batch_trace_id") == trace_id):
                    matches[record.get("seq")] = record
        return [matches[seq] for seq in sorted(matches, key=lambda s: s or 0)]

    def to_dict(self) -> dict:
        """JSON document served by ``/debug/queries`` and the CLI dump."""
        return {
            "capacity": self.capacity,
            "slow_ms": self.slow_ms,
            "total_recorded": self.total_recorded,
            "recent": self.recent(),
            "slow": self.slow(),
        }

    def dump_jsonl(self, out: Union[str, IO[str]]) -> int:
        """Write every retained record as JSON lines (slow-but-evicted
        records included, deduplicated by ``seq``); returns line count."""
        recent = self.recent()
        seen = {record.get("seq") for record in recent}
        records = [r for r in self.slow() if r.get("seq") not in seen] + recent
        records.sort(key=lambda r: r.get("seq", 0))
        if isinstance(out, str):
            with open(out, "w") as handle:
                return self.dump_jsonl(handle)
        for record in records:
            out.write(json.dumps(record) + "\n")
        return len(records)
