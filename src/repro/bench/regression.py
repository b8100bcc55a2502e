"""Perf-regression gate: compare a benchmark run against a committed baseline.

The paper's claim is a *work-count* argument — Algorithm A wins because
range reuse collapses repeated subtrees — so the gate checks two
different things per method:

* **probe counts** (``stats.rank_queries``, plus leaves and expanded
  nodes): deterministic for a fixed seeded workload, so any growth is a
  real algorithmic regression and gets a tight threshold;
* **latency** (``avg_ms``): machine-dependent, so it gets a looser,
  configurable threshold — it catches gross slowdowns (the 2× kind)
  without flapping on CI-runner variance.

Workflow::

    repro-cli bench --json-out run.json                      # produce
    repro-cli bench --baseline benchmarks/results/baseline_ci.json \
              --check-regression                             # compare

:func:`compare_runs` is the pure core (two JSON documents in, a list of
:class:`Regression` findings out); everything else is plumbing around
it.  Baselines embed their workload parameters and comparison refuses
mismatched workloads — a silent genome-size change must not masquerade
as a speedup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import ReproError

#: Format tag/version embedded in benchmark JSON documents.
BENCH_FORMAT = "repro-bench"
BENCH_VERSION = 1

#: Default regression thresholds (fractional growth over baseline).
DEFAULT_LATENCY_THRESHOLD = 0.25
DEFAULT_PROBE_THRESHOLD = 0.25

#: Ignore latency regressions below this many milliseconds of absolute
#: growth — sub-millisecond averages are timer noise, not regressions.
LATENCY_FLOOR_MS = 0.05

#: The deterministic work counters compared per method, in report order.
#: ``lf_steps`` counts the one-row ranges walked by LF, index lookups that
#: ``rank_queries`` does not see; ``phi_steps`` the LF steps of the φ build;
#: ``locate_steps`` the LF steps that located the reported rows.
PROBE_COUNTERS = (
    "rank_queries", "lf_steps", "phi_steps", "locate_steps", "nodes_expanded", "leaves",
)

#: The (numerator, denominator) of the relative latency gate — the
#: paper's headline comparison, Algorithm A vs the S-tree baseline.
RATIO_METHODS = ("A()", "BWT")


class RegressionError(ReproError):
    """Raised on malformed benchmark documents or mismatched workloads."""


@dataclass(frozen=True)
class Regression:
    """One metric that regressed past its threshold."""

    method: str
    metric: str
    baseline: float
    current: float
    threshold: float

    @property
    def ratio(self) -> float:
        """Current over baseline (inf when the baseline was zero)."""
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        return (
            f"{self.method}: {self.metric} regressed "
            f"{self.baseline:g} -> {self.current:g} "
            f"({self.ratio:.2f}x, threshold {1 + self.threshold:.2f}x)"
        )


def validate_bench_document(document: dict, source: str = "benchmark JSON") -> dict:
    """Check format/version/shape; returns the document for chaining."""
    if not isinstance(document, dict):
        raise RegressionError(f"{source} is not a {BENCH_FORMAT} document")
    if document.get("format") != BENCH_FORMAT:
        raise RegressionError(
            f"{source} is not a {BENCH_FORMAT} document "
            f"(format={document.get('format')!r})"
        )
    version = document.get("version")
    if not isinstance(version, int) or version > BENCH_VERSION:
        raise RegressionError(
            f"{source} has unsupported {BENCH_FORMAT} version {version!r} "
            f"(this build reads versions <= {BENCH_VERSION})"
        )
    if not isinstance(document.get("methods"), dict):
        raise RegressionError(f"{source} has no 'methods' table")
    return document


def load_bench_json(path: str) -> dict:
    """Read and validate a benchmark document from disk."""
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise RegressionError(f"{path} is not valid JSON: {exc}") from None
    return validate_bench_document(document, source=path)


def _workload_key(document: dict) -> dict:
    workload = document.get("workload") or {}
    return {
        key: workload.get(key)
        for key in ("target_bp", "n_reads", "read_length", "k", "seed")
    }


def compare_runs(
    current: dict,
    baseline: dict,
    latency_threshold: float = DEFAULT_LATENCY_THRESHOLD,
    probe_threshold: float = DEFAULT_PROBE_THRESHOLD,
    ratio_threshold: Optional[float] = None,
    ratio_methods: Tuple[str, str] = RATIO_METHODS,
) -> List[Regression]:
    """Every metric in ``current`` that regressed past its threshold.

    Only methods present in *both* documents are compared (dropping a
    method from the run is surfaced as a :class:`RegressionError`, not
    silently passed).  Improvements never fail the gate.

    ``ratio_threshold`` additionally gates the *relative* latency of
    ``ratio_methods[0]`` over ``ratio_methods[1]`` (default: Algorithm A
    over the S-tree baseline — the paper's headline comparison) against
    the same ratio in the baseline document.  Both methods run on the
    same machine in the same process, so runner speed divides out: the
    ratio check stays meaningful at thresholds where the absolute
    wall-clock gate would flap on shared-runner noise.  Skipped when
    either method is absent from either document.
    """
    validate_bench_document(current, "current run")
    validate_bench_document(baseline, "baseline")
    if _workload_key(current) != _workload_key(baseline):
        raise RegressionError(
            "workload mismatch between run and baseline: "
            f"{_workload_key(current)} vs {_workload_key(baseline)} "
            "(regenerate the baseline or fix the run parameters)"
        )
    missing = set(baseline["methods"]) - set(current["methods"])
    if missing:
        raise RegressionError(
            f"current run is missing baseline method(s): {sorted(missing)}"
        )
    findings: List[Regression] = []
    for method in sorted(baseline["methods"]):
        base_row = baseline["methods"][method]
        cur_row = current["methods"][method]
        base_ms = float(base_row.get("avg_ms", 0.0))
        cur_ms = float(cur_row.get("avg_ms", 0.0))
        if (
            cur_ms > base_ms * (1 + latency_threshold)
            and cur_ms - base_ms > LATENCY_FLOOR_MS
        ):
            findings.append(
                Regression(method, "avg_ms", base_ms, cur_ms, latency_threshold)
            )
        base_stats = base_row.get("stats") or {}
        cur_stats = cur_row.get("stats") or {}
        for counter in PROBE_COUNTERS:
            base_value = float(base_stats.get(counter, 0))
            cur_value = float(cur_stats.get(counter, 0))
            if base_value and cur_value > base_value * (1 + probe_threshold):
                findings.append(
                    Regression(
                        method, f"stats.{counter}", base_value, cur_value, probe_threshold
                    )
                )
    if ratio_threshold is not None:
        numerator, denominator = ratio_methods
        rows = [current["methods"], baseline["methods"]]
        if all(numerator in r and denominator in r for r in rows):
            cur_ratio = _latency_ratio(current["methods"], numerator, denominator)
            base_ratio = _latency_ratio(baseline["methods"], numerator, denominator)
            if (
                cur_ratio is not None
                and base_ratio is not None
                and cur_ratio > base_ratio * (1 + ratio_threshold)
            ):
                findings.append(
                    Regression(
                        f"{numerator}/{denominator}",
                        "avg_ms_ratio",
                        base_ratio,
                        cur_ratio,
                        ratio_threshold,
                    )
                )
    return findings


def _latency_ratio(methods: dict, numerator: str, denominator: str) -> Optional[float]:
    """avg_ms(numerator) / avg_ms(denominator), or None when undefined."""
    num_ms = float(methods[numerator].get("avg_ms", 0.0))
    den_ms = float(methods[denominator].get("avg_ms", 0.0))
    return num_ms / den_ms if den_ms > 0 else None


def format_report(
    findings: Sequence[Regression], current: dict, baseline: Optional[dict] = None
) -> str:
    """Human-readable gate verdict for CLI/CI logs."""
    lines: List[str] = []
    for method in sorted(current.get("methods", {})):
        row = current["methods"][method]
        probes = (row.get("stats") or {}).get("rank_queries", "-")
        base_note = ""
        if baseline and method in baseline.get("methods", {}):
            base_row = baseline["methods"][method]
            base_note = (
                f"  (baseline avg {base_row.get('avg_ms', 0):.3f}ms, "
                f"probes {(base_row.get('stats') or {}).get('rank_queries', '-')})"
            )
        lines.append(
            f"  {method:<12} avg {row.get('avg_ms', 0):.3f}ms  "
            f"probes {probes}{base_note}"
        )
    if findings:
        lines.append("")
        lines.append(f"REGRESSION GATE FAILED — {len(findings)} finding(s):")
        lines.extend("  " + finding.describe() for finding in findings)
    else:
        lines.append("")
        lines.append("regression gate passed")
    return "\n".join(lines)


def run_ci_workload(
    methods: Sequence[str] = ("A()", "BWT"),
    k: int = 2,
    scale: int = 40_000,
    n_reads: int = 12,
    read_length: int = 60,
    seed: int = 7,
    repeats: int = 1,
) -> dict:
    """The small fixed workload the CI gate runs (seeded, deterministic).

    Returns a :meth:`~repro.bench.suite.MethodSuite.run_json` document
    with the seed recorded in the workload block, so baselines can only
    be compared against byte-identical set-ups.

    ``repeats > 1`` runs the whole suite that many times (a fresh
    :class:`~repro.bench.suite.MethodSuite` per pass, so Algorithm A's
    cross-query memo cannot leak work between passes and probe counters
    stay pass-identical) and reports each method's **median** ``avg_ms``
    / ``total_seconds`` — the noise reduction that lets CI run a tighter
    latency threshold than any single shared-runner measurement could
    hold.  The workload block records ``repeats``; the baseline
    compatibility key does not include it, so existing baselines stay
    comparable.
    """
    from statistics import median

    from .suite import MethodSuite
    from .workloads import catalog_workload

    if repeats < 1:
        raise RegressionError(f"repeats must be >= 1, got {repeats}")
    workload = catalog_workload(
        read_length=read_length, n_reads=n_reads, seed=seed, max_genome=scale
    )
    documents = []
    for _ in range(repeats):
        suite = MethodSuite(workload.genome, methods=tuple(methods))
        documents.append(
            suite.run_json(
                workload.reads, k, seed=seed, name=workload.name, repeats=repeats
            )
        )
    document = documents[0]
    if repeats > 1:
        for method, row in document["methods"].items():
            rows = [doc["methods"][method] for doc in documents]
            row["avg_ms"] = median(float(r.get("avg_ms", 0.0)) for r in rows)
            row["total_seconds"] = median(
                float(r.get("total_seconds", 0.0)) for r in rows
            )
    return document


def write_bench_json(document: dict, path: str) -> None:
    """Pretty-print a benchmark document to ``path`` (trailing newline)."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


__all__ = [
    "BENCH_FORMAT",
    "BENCH_VERSION",
    "DEFAULT_LATENCY_THRESHOLD",
    "DEFAULT_PROBE_THRESHOLD",
    "PROBE_COUNTERS",
    "RATIO_METHODS",
    "Regression",
    "RegressionError",
    "compare_runs",
    "format_report",
    "load_bench_json",
    "run_ci_workload",
    "validate_bench_document",
    "write_bench_json",
]
