"""Plain-text reporting for benchmark output.

The benchmarks print the same rows/series the paper's tables and figures
report, as aligned ASCII tables — no plotting dependencies.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..obs.metrics import Histogram


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    >>> print(format_table(["k", "time"], [[1, "2.0s"], [10, "3.5s"]]))
    k   | time
    ----+-----
    1   | 2.0s
    10  | 3.5s
    """
    str_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(h), 3) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    separator = "-+-".join("-" * w for w in widths)
    body = "\n".join(
        " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in str_rows
    )
    parts = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(header_line)
    parts.append(separator)
    if body:
        parts.append(body)
    return "\n".join(parts)


def format_series(x_label: str, xs: Sequence[object], series: dict, title: str = "") -> str:
    """Render one table with the x axis first and one column per series.

    ``series`` maps a series name to its y values (same length as ``xs``)
    — the shape of a paper figure's data.
    """
    names = list(series)
    headers = [x_label] + names
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [series[name][i] for name in names])
    return format_table(headers, rows, title=title)


def format_seconds(seconds: float) -> str:
    """Human-readable duration with stable width for tables."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


#: Percentiles reported by the latency columns (paper tables report only
#: averages; the tail is where per-read variance shows).
PERCENTILES = (50, 90, 99)


def percentile_headers(prefix: str = "") -> List[str]:
    """Column headers matching :func:`percentile_cells` (``p50`` ...)."""
    return [f"{prefix}p{p}" for p in PERCENTILES]


def percentile_cells(hist: Optional[Histogram]) -> List[str]:
    """One formatted cell per :data:`PERCENTILES` entry for ``hist``.

    ``hist`` holds milliseconds (the convention of
    :class:`~repro.bench.suite.MethodResult.latency_hist`); empty or
    missing histograms render as dashes so tables stay aligned.
    """
    if hist is None or hist.count == 0:
        return ["-" for _ in PERCENTILES]
    return [format_seconds(hist.percentile(p) / 1e3) for p in PERCENTILES]
