"""Dimensional breakdown tables over labelled metric payloads.

``repro-cli stats --by engine,k`` answers the paper's evaluation
questions straight from telemetry — "how does search time move with k?"
(Fig. 11(a)), "how do the methods compare on probe volume?" (Table 2) —
by regrouping a registry ``to_dict`` payload (schema v2, from a stats
JSON file) along the requested label dimensions.

The regrouping is a projection: every labelled series is keyed by its
values of the requested labels and series landing on the same key are
folded together (counters sum, gauges last-write, histograms merge
element-wise).  Asking for ``--by engine`` over series labelled
``{engine, k}`` therefore sums across ``k`` — the same marginalisation a
PromQL ``sum by (engine) (...)`` performs.  Unlabelled series carry no
dimensions to project on and are left out; families with no series
matching any requested label are skipped entirely.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .metrics import histogram_from_payload, iter_series

#: Placeholder shown when a series lacks one of the requested labels.
MISSING = "-"


def parse_by(spec: str) -> List[str]:
    """``"engine,k"`` → ``["engine", "k"]`` (trimmed, empties dropped)."""
    return [part.strip() for part in spec.split(",") if part.strip()]


def breakdown(
    metrics: Dict[str, dict], by: List[str]
) -> Dict[str, Tuple[str, Dict[Tuple[str, ...], dict]]]:
    """Regroup a registry payload along the ``by`` label dimensions.

    Returns ``{family: (kind, {group_values: folded_payload})}`` where
    ``group_values`` has one entry per requested label (:data:`MISSING`
    when the series lacks it).  Only labelled series carrying at least
    one requested label participate.
    """
    out: Dict[str, Tuple[str, Dict[Tuple[str, ...], dict]]] = {}
    for name in sorted(metrics):
        payload = metrics[name]
        kind = payload.get("type", "?")
        groups: Dict[Tuple[str, ...], dict] = {}
        for labels, child in iter_series(payload):
            label_dict = dict(labels)
            if not any(dim in label_dict for dim in by):
                continue
            key = tuple(label_dict.get(dim, MISSING) for dim in by)
            if kind == "histogram":
                merged = groups.get(key)
                incoming = histogram_from_payload(dict(child, name=name))
                if merged is None:
                    groups[key] = incoming.to_dict()
                else:
                    combined = histogram_from_payload(dict(merged, name=name))
                    combined.merge(incoming)
                    groups[key] = combined.to_dict()
            elif kind == "counter":
                entry = groups.setdefault(key, {"type": "counter", "value": 0})
                entry["value"] += child.get("value", 0)
            else:  # gauge: last write wins, same as the instrument itself
                groups[key] = {"type": "gauge", "value": child.get("value", 0)}
        if groups:
            out[name] = (kind, groups)
    return out


def _format_number(value) -> str:
    if value is None:
        return MISSING
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def _render_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def render_breakdown(
    metrics: Dict[str, dict], by: List[str], families: Optional[List[str]] = None
) -> str:
    """Aligned per-family tables of :func:`breakdown` (CLI output).

    ``families`` restricts the report to the named metric families
    (exact match); default is every family with matching series.
    """
    grouped = breakdown(metrics, by)
    if families:
        grouped = {name: grouped[name] for name in families if name in grouped}
    if not grouped:
        dims = ",".join(by)
        return f"(no labelled series matching --by {dims})"
    parts: List[str] = []
    for name, (kind, groups) in grouped.items():
        title = f"{name} ({kind}) by {','.join(by)}"
        rows: List[List[str]] = []
        if kind == "histogram":
            headers = [*by, "count", "sum", "mean", "p50", "p90", "p99"]
            for key in sorted(groups):
                entry = groups[key]
                count = entry.get("count", 0)
                total = entry.get("sum", 0.0)
                rows.append([
                    *key,
                    _format_number(count),
                    _format_number(total),
                    _format_number(total / count if count else 0.0),
                    _format_number(entry.get("p50")),
                    _format_number(entry.get("p90")),
                    _format_number(entry.get("p99")),
                ])
        else:
            headers = [*by, "value"]
            for key in sorted(groups):
                rows.append([*key, _format_number(groups[key].get("value", 0))])
        parts.append(title + "\n" + _render_table(headers, rows))
    return "\n\n".join(parts)
