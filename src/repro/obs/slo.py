"""SLO engine: error accounting, declarative objectives, burn-rate alerts.

The metrics layer can *describe* the serving path; this module lets it
*judge* it.  Three pieces:

* **Error accounting** — :func:`record_query_error` classifies a raised
  exception into a bounded ``kind`` (``pattern`` / ``corruption`` /
  ``worker`` / ``internal``) and bumps the ``query.errors{engine,k,kind}``
  counter family.  The facade, the batch executor and the shard router
  all call it wherever a query raises; tagging the exception object
  makes the call idempotent, so layered handlers count one failure once.
  Worker-side errors ride home through the ordinary
  :class:`~repro.obs.export.ObsDelta` payload.

* **Objectives and rules** — :class:`SLORules` holds declarative
  objectives (availability percentage, latency percentile targets,
  optionally scoped to an ``{engine,k}`` family) plus the multi-window
  alert policy, loaded from a TOML or JSON rules file
  (:func:`load_rules`) with in-repo defaults (:func:`default_rules`,
  the parsed form of :data:`DEFAULT_RULES_TOML`).  :func:`lint_rules`
  is the strict schema check — the rules-file sibling of
  :mod:`repro.obs.promlint`, wired into ``repro-cli slo lint``.

* **Evaluation** — :func:`evaluate_objective` judges one objective over
  one metrics payload (a registry ``to_dict`` or a
  :func:`~repro.obs.export.metrics_delta`): bad-event ratio against the
  error budget.  :class:`SLOEngine` runs that over *rolling windows*
  built from metric snapshot deltas — each :meth:`~SLOEngine.tick`
  snapshots the registry, subtracts the snapshot closest to each
  window's left edge, and computes the fast/slow **burn rates** (the
  multiple of the error budget the current bad-ratio would consume if
  sustained; the fast 5m / slow 1h pairing of the SRE workbook, both
  scaled freely for tests via the injectable ``clock``).  An alert
  fires when *both* windows burn past their thresholds — fast-only
  blips and slow-only leftovers do not page — and
  :class:`AlertManager` keeps the firing/resolved state ``/alerts``
  serves.

Everything here is pure stdlib; TOML parsing uses :mod:`tomllib`.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import (
    AlphabetError,
    IndexCorruptionError,
    PatternError,
    SerializationError,
)
from .metrics import MetricError, histogram_from_payload, iter_series
from .timeseries import TimeSeriesStore, get_timeseries

#: Counter family bumped once per raised query (labels: engine, k, kind).
QUERY_ERRORS_METRIC = "query.errors"

#: Counter bumped when the batch watchdog declares a pool stalled.
WORKER_STALLED_METRIC = "engine.worker.stalled"

#: Rules-file schema version this build reads.
RULES_VERSION = 1

#: Identifier written into every ``slo report``/``/slo`` document.
SLO_REPORT_FORMAT = "repro-slo-report"

#: Burn rates are capped here so reports stay strict-JSON (no Infinity).
BURN_RATE_CAP = 1e6

#: The default objectives and alert policy shipped in-repo (TOML, so the
#: same text works as a starting rules file).  Availability: at most 1%
#: of queries may raise.  Latency: 95% of queries within 250 ms at the
#: histogram's bucket resolution.  The alert policy is the classic
#: fast-5m/slow-1h multi-window pairing.
DEFAULT_RULES_TOML = """\
version = 1

[windows]
fast_s = 300.0
slow_s = 3600.0
fast_burn = 14.4
slow_burn = 6.0

[[objectives]]
name = "query-availability"
type = "availability"
target = 99.0

[[objectives]]
name = "query-latency-p95-250ms"
type = "latency"
target = 95.0
threshold_ms = 250.0
"""


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


# -- rules ----------------------------------------------------------------------


@dataclass(frozen=True)
class Objective:
    """One declarative objective.

    ``type`` is ``"availability"`` (``target``% of queries must not
    raise) or ``"latency"`` (``target``% of queries must finish within
    ``threshold_ms``, judged at histogram-bucket resolution).  ``engine``
    / ``k`` optionally scope the objective to one labelled
    ``{engine,k}`` family; unset means the process-wide totals.
    """

    name: str
    type: str
    target: float
    threshold_ms: Optional[float] = None
    engine: Optional[str] = None
    k: Optional[int] = None

    def selector(self) -> Dict[str, str]:
        """The label constraints this objective scopes to (stringified)."""
        out: Dict[str, str] = {}
        if self.engine is not None:
            out["engine"] = str(self.engine)
        if self.k is not None:
            out["k"] = str(self.k)
        return out

    def budget(self) -> float:
        """The error budget: the tolerated bad-event fraction.

        Rounded to 12 places so a target like 90.0 yields exactly 0.1
        rather than 0.09999999999999998 — an exactly-on-budget workload
        must not read as violated through float representation noise.
        """
        return round(max(0.0, 1.0 - self.target / 100.0), 12)


@dataclass(frozen=True)
class AlertPolicy:
    """Multi-window burn-rate thresholds (fast 5m / slow 1h style)."""

    fast_s: float = 300.0
    slow_s: float = 3600.0
    fast_burn: float = 14.4
    slow_burn: float = 6.0


@dataclass(frozen=True)
class SLORules:
    """A parsed, validated rules document: objectives + alert policy."""

    objectives: Tuple[Objective, ...]
    policy: AlertPolicy = field(default_factory=AlertPolicy)
    version: int = RULES_VERSION

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SLORules":
        """Build rules from a parsed TOML/JSON document; raises
        :class:`MetricError` naming every schema problem found."""
        problems = lint_rules(data)
        if problems:
            raise MetricError(
                "invalid SLO rules: " + "; ".join(problems)
            )
        windows = data.get("windows") or {}
        policy = AlertPolicy(
            fast_s=float(windows.get("fast_s", AlertPolicy.fast_s)),
            slow_s=float(windows.get("slow_s", AlertPolicy.slow_s)),
            fast_burn=float(windows.get("fast_burn", AlertPolicy.fast_burn)),
            slow_burn=float(windows.get("slow_burn", AlertPolicy.slow_burn)),
        )
        objectives = tuple(
            Objective(
                name=entry["name"],
                type=entry["type"],
                target=float(entry["target"]),
                threshold_ms=(
                    float(entry["threshold_ms"])
                    if entry.get("threshold_ms") is not None else None
                ),
                engine=entry.get("engine"),
                k=int(entry["k"]) if entry.get("k") is not None else None,
            )
            for entry in data.get("objectives", [])
        )
        return cls(objectives=objectives, policy=policy,
                   version=int(data.get("version", RULES_VERSION)))


_TOP_LEVEL_KEYS = {"version", "windows", "objectives"}
_WINDOW_KEYS = {"fast_s", "slow_s", "fast_burn", "slow_burn"}
_OBJECTIVE_KEYS = {"name", "type", "target", "threshold_ms", "engine", "k"}
_OBJECTIVE_TYPES = ("availability", "latency")


def lint_rules(data: Any) -> List[str]:
    """Every schema problem in a parsed rules document (empty = valid).

    The rules-file sibling of :func:`repro.obs.promlint.lint_openmetrics`:
    strict about unknown keys, types, ranges and window ordering, so a
    typo'd objective fails ``repro-cli slo lint`` (and CI) instead of
    silently never firing.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"rules document must be a table/object, got {type(data).__name__}"]
    for key in sorted(set(data) - _TOP_LEVEL_KEYS):
        problems.append(f"unknown top-level key {key!r}")
    version = data.get("version", RULES_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        problems.append(f"version must be an integer, got {version!r}")
    elif version > RULES_VERSION:
        problems.append(
            f"version {version} is newer than this build reads ({RULES_VERSION})"
        )
    windows = data.get("windows", {})
    if not isinstance(windows, dict):
        problems.append("windows must be a table/object")
        windows = {}
    for key in sorted(set(windows) - _WINDOW_KEYS):
        problems.append(f"windows: unknown key {key!r}")
    for key in _WINDOW_KEYS & set(windows):
        value = windows[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
            problems.append(f"windows.{key} must be a positive number, got {value!r}")
    fast_s = windows.get("fast_s", AlertPolicy.fast_s)
    slow_s = windows.get("slow_s", AlertPolicy.slow_s)
    if (isinstance(fast_s, (int, float)) and isinstance(slow_s, (int, float))
            and not isinstance(fast_s, bool) and not isinstance(slow_s, bool)
            and fast_s > 0 and slow_s > 0 and fast_s >= slow_s):
        problems.append(
            f"windows: fast_s ({fast_s}) must be shorter than slow_s ({slow_s})"
        )
    objectives = data.get("objectives")
    if not isinstance(objectives, list) or not objectives:
        problems.append("objectives must be a non-empty array of tables")
        objectives = []
    seen_names = set()
    for i, entry in enumerate(objectives):
        where = f"objectives[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} must be a table/object")
            continue
        for key in sorted(set(entry) - _OBJECTIVE_KEYS):
            problems.append(f"{where}: unknown key {key!r}")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: name must be a non-empty string")
        elif name in seen_names:
            problems.append(f"{where}: duplicate objective name {name!r}")
        else:
            seen_names.add(name)
        obj_type = entry.get("type")
        if obj_type not in _OBJECTIVE_TYPES:
            problems.append(
                f"{where}: type must be one of {_OBJECTIVE_TYPES}, got {obj_type!r}"
            )
        target = entry.get("target")
        if (not isinstance(target, (int, float)) or isinstance(target, bool)
                or not 0 < target <= 100):
            problems.append(f"{where}: target must be in (0, 100], got {target!r}")
        threshold = entry.get("threshold_ms")
        if obj_type == "latency":
            if (not isinstance(threshold, (int, float)) or isinstance(threshold, bool)
                    or threshold <= 0):
                problems.append(
                    f"{where}: latency objectives need threshold_ms > 0, "
                    f"got {threshold!r}"
                )
        elif threshold is not None:
            problems.append(
                f"{where}: threshold_ms only applies to latency objectives"
            )
        engine = entry.get("engine")
        if engine is not None and (not isinstance(engine, str) or not engine):
            problems.append(f"{where}: engine must be a non-empty string")
        k = entry.get("k")
        if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 0):
            problems.append(f"{where}: k must be a non-negative integer, got {k!r}")
    return problems


def parse_rules_text(text: str, fmt: str = "toml") -> Dict[str, Any]:
    """Parse rules source text (``fmt``: ``"toml"`` or ``"json"``)."""
    if fmt == "json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise MetricError(f"rules are not valid JSON: {exc}") from None
    import tomllib

    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise MetricError(f"rules are not valid TOML: {exc}") from None


def parse_rules_file(path: str) -> Dict[str, Any]:
    """Read and parse a rules file; format by extension (.json = JSON,
    anything else TOML)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    fmt = "json" if str(path).endswith(".json") else "toml"
    return parse_rules_text(text, fmt)


def load_rules(path: Optional[str] = None) -> SLORules:
    """The validated rules from ``path`` (TOML or JSON), or the shipped
    defaults when ``path`` is None/empty.  Raises :class:`MetricError`
    on parse or schema problems."""
    if not path:
        return default_rules()
    return SLORules.from_dict(parse_rules_file(path))


def default_rules() -> SLORules:
    """The in-repo default objectives (parsed :data:`DEFAULT_RULES_TOML`)."""
    return SLORules.from_dict(parse_rules_text(DEFAULT_RULES_TOML))


# -- evaluation ------------------------------------------------------------------


def _matching_children(family: Optional[dict], selector: Dict[str, str],
                       ignore: Tuple[str, ...] = ()) -> List[dict]:
    """Series of one family payload matching ``selector``.

    Empty selector picks the unlabelled child (the flat process-wide
    total — labelled children would double-count against it); a
    non-empty selector picks every labelled child agreeing on the
    selector's keys.  ``ignore`` names label keys that never
    disqualify a child (``kind`` on the error family).
    """
    if family is None:
        return []
    out = []
    for labels, child in iter_series(family):
        label_dict = dict(labels)
        if not selector:
            relevant = {key: value for key, value in label_dict.items()
                        if key not in ignore}
            if not relevant:
                out.append(child)
        elif labels and all(
            label_dict.get(key) == value for key, value in selector.items()
        ):
            out.append(child)
    return out


def _error_totals(metrics: Dict[str, dict],
                  selector: Dict[str, str]) -> Tuple[int, Dict[str, int]]:
    """(total errors, per-kind breakdown) matching ``selector``.

    ``query.errors`` children carry ``{engine,k,kind}``; the flat
    unlabelled child is the all-up total.  With a selector the matching
    labelled children are summed (each error lands in exactly one
    ``kind`` child, so the sum is exact); without one the unlabelled
    total is used and the breakdown still comes from the children.
    """
    family = metrics.get(QUERY_ERRORS_METRIC)
    if family is None:
        return 0, {}
    kinds: Dict[str, int] = {}
    labelled_total = 0
    unlabelled_total = 0
    for labels, child in iter_series(family):
        label_dict = dict(labels)
        value = int(child.get("value", 0))
        if not labels:
            unlabelled_total = value
            continue
        if selector and not all(
            label_dict.get(key) == expected for key, expected in selector.items()
        ):
            continue
        labelled_total += value
        kind = label_dict.get("kind", "unknown")
        kinds[kind] = kinds.get(kind, 0) + value
    total = labelled_total if selector else max(unlabelled_total, labelled_total)
    return total, kinds


def _sum_counter(metrics: Dict[str, dict], name: str,
                 selector: Dict[str, str]) -> int:
    return sum(
        int(child.get("value", 0))
        for child in _matching_children(metrics.get(name), selector)
    )


def _latency_counts(metrics: Dict[str, dict], selector: Dict[str, str],
                    threshold_ms: float):
    """(total, within-threshold, merged Histogram or None) for a latency
    objective.  Scoped objectives read the labelled ``query.search_ms``
    children; unscoped ones read the flat ``query.latency_ms`` series.
    "Within" is judged at bucket resolution: observations in buckets
    whose upper bound is <= threshold are provably within it.
    """
    name = "query.search_ms" if selector else "query.latency_ms"
    merged = None
    for child in _matching_children(metrics.get(name), selector):
        hist = histogram_from_payload(dict(child, name=name))
        if merged is None:
            merged = hist
        elif hist.buckets == merged.buckets:
            merged.merge(hist)
    if merged is None or merged.count == 0:
        return 0, 0, None
    return merged.count, merged.count_le(threshold_ms), merged


def evaluate_objective(objective: Objective,
                       metrics: Dict[str, dict]) -> Dict[str, Any]:
    """Judge one objective over one metrics payload (full registry dump
    or a windowed delta).  Returns a JSON-shaped status:

    ``total``/``bad`` are the event counts seen, ``bad_ratio`` their
    quotient, ``budget`` the tolerated ratio, ``burn_rate`` the multiple
    of the budget the observed ratio consumes (capped at
    :data:`BURN_RATE_CAP` to stay strict-JSON), and ``ok`` whether the
    objective holds.  Zero traffic is vacuously ok (``no_data`` set).
    """
    selector = objective.selector()
    budget = objective.budget()
    extra: Dict[str, Any] = {}
    if objective.type == "availability":
        bad, kinds = _error_totals(metrics, selector)
        good = _sum_counter(metrics, "query.count", selector)
        total = good + bad
        if kinds:
            extra["kinds"] = kinds
    else:
        total, within, hist = _latency_counts(
            metrics, selector, objective.threshold_ms or 0.0
        )
        bad = total - within
        if hist is not None:
            extra["p50_ms"] = hist.percentile(50)
            extra["p99_ms"] = hist.percentile(99)
    bad_ratio = (bad / total) if total else 0.0
    if budget > 0:
        burn = bad_ratio / budget
    else:
        burn = 0.0 if bad_ratio == 0 else BURN_RATE_CAP
    status = {
        "objective": objective.name,
        "type": objective.type,
        "target": objective.target,
        "selector": selector,
        "total": total,
        "bad": bad,
        "bad_ratio": round(bad_ratio, 9),
        "budget": round(budget, 9),
        "burn_rate": round(min(burn, BURN_RATE_CAP), 6),
        "ok": total == 0 or bad_ratio <= budget,
        "no_data": total == 0,
    }
    if objective.threshold_ms is not None:
        status["threshold_ms"] = objective.threshold_ms
    status.update(extra)
    return status


def evaluate_payload(metrics: Dict[str, dict],
                     rules: Optional[SLORules] = None) -> List[Dict[str, Any]]:
    """One-shot (lifetime-window) evaluation of every objective over a
    metrics payload — what ``repro-cli slo check`` runs against a live
    ``/debug/metrics`` scrape or a saved trace document."""
    rules = rules or default_rules()
    return [evaluate_objective(objective, metrics)
            for objective in rules.objectives]


# -- alerting --------------------------------------------------------------------


class AlertManager:
    """Firing/resolved state per objective, fed by :meth:`SLOEngine.tick`.

    States: ``inactive`` (never fired), ``firing``, ``resolved``
    (previously fired, condition cleared).  Transitions are counted and
    timestamped with the engine's (injectable) clock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._alerts: Dict[str, dict] = {}

    def update(self, name: str, firing: bool, now: float,
               burn_fast: float = 0.0, burn_slow: float = 0.0) -> dict:
        with self._lock:
            alert = self._alerts.get(name)
            if alert is None:
                alert = self._alerts[name] = {
                    "objective": name,
                    "state": "inactive",
                    "since": now,
                    "transitions": 0,
                }
            if firing and alert["state"] != "firing":
                alert.update(state="firing", since=now,
                             transitions=alert["transitions"] + 1)
            elif not firing and alert["state"] == "firing":
                alert.update(state="resolved", since=now,
                             transitions=alert["transitions"] + 1)
            alert["burn_fast"] = round(burn_fast, 6)
            alert["burn_slow"] = round(burn_slow, 6)
            alert["updated_at"] = now
            return dict(alert)

    def firing(self) -> List[dict]:
        """Currently-firing alerts, by objective name order."""
        with self._lock:
            return [dict(alert) for name, alert in sorted(self._alerts.items())
                    if alert["state"] == "firing"]

    def to_dict(self) -> dict:
        with self._lock:
            alerts = [dict(self._alerts[name]) for name in sorted(self._alerts)]
        return {
            "alerts": alerts,
            "n_firing": sum(1 for alert in alerts if alert["state"] == "firing"),
        }


# -- the rolling-window engine ---------------------------------------------------


class SLOEngine:
    """Rolling-window objective evaluation over metric snapshot deltas.

    Each :meth:`tick` snapshots the registry, then for every objective
    and both alert windows finds the retained snapshot closest to the
    window's left edge, takes :func:`~repro.obs.export.metrics_delta`
    against it, and judges the objective over just that window's
    increments.  An alert fires when the fast *and* slow windows both
    burn past their thresholds.

    ``clock`` is injectable (defaults to :func:`time.monotonic`) so
    tests — and the windows themselves — scale to any timebase;
    ``registry`` defaults to the process-wide ``OBS.metrics``.  Ticks
    are serialized internally: concurrent ``/slo`` scrapes share one
    consistent snapshot history.

    Snapshot retention lives in a
    :class:`~repro.obs.timeseries.TimeSeriesStore` — pass one (the
    process-wide engine shares :func:`~repro.obs.timeseries.get_timeseries`,
    so burn-rate windows and ``rate``/``percentile_over_time`` queries
    read one substrate) or let the engine build a private store from
    ``registry``/``clock``.  The engine pins the store's retention
    horizon to its slow window.
    """

    def __init__(self, rules: Optional[SLORules] = None, registry=None,
                 clock: Optional[Callable[[], float]] = None,
                 store: Optional[TimeSeriesStore] = None):
        self.rules = rules or default_rules()
        self._registry = registry
        self.clock = clock or time.monotonic
        if store is None:
            store = TimeSeriesStore(registry=registry, clock=self.clock)
        self.store = store
        self.store.retention_s = self.rules.policy.slow_s
        self.alerts = AlertManager()
        self._lock = threading.Lock()
        self.last_report: Optional[dict] = None

    def registry(self):
        if self._registry is not None:
            return self._registry
        return self.store.registry()

    # -- evaluation -----------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> dict:
        """Snapshot, evaluate every objective over both windows, update
        alert state, and return the report ``/slo`` serves."""
        with self._lock:
            if now is None:
                now = self.clock()
            current = self.registry().to_dict()
            policy = self.rules.policy
            objectives = []
            for objective in self.rules.objectives:
                windows: Dict[str, dict] = {}
                for label, window_s, burn_threshold in (
                    ("fast", policy.fast_s, policy.fast_burn),
                    ("slow", policy.slow_s, policy.slow_burn),
                ):
                    delta, covered = self.store.window_delta(window_s, now,
                                                             current)
                    if delta is None:
                        status = {"no_data": True, "total": 0, "bad": 0,
                                  "burn_rate": 0.0, "ok": True}
                    else:
                        status = evaluate_objective(objective, delta)
                    status["window_s"] = window_s
                    status["covered_s"] = round(covered, 3)
                    status["burn_threshold"] = burn_threshold
                    windows[label] = status
                firing = (
                    windows["fast"]["total"] > 0
                    and windows["fast"]["burn_rate"] >= policy.fast_burn
                    and windows["slow"]["burn_rate"] >= policy.slow_burn
                )
                alert = self.alerts.update(
                    objective.name, firing, now,
                    burn_fast=windows["fast"]["burn_rate"],
                    burn_slow=windows["slow"]["burn_rate"],
                )
                objectives.append({
                    "objective": objective.name,
                    "type": objective.type,
                    "target": objective.target,
                    "selector": objective.selector(),
                    "windows": windows,
                    "firing": firing,
                    "alert_state": alert["state"],
                })
            self.store.append(now, current)
            report = {
                "format": SLO_REPORT_FORMAT,
                "version": 1,
                "clock": now,
                "policy": {
                    "fast_s": policy.fast_s, "slow_s": policy.slow_s,
                    "fast_burn": policy.fast_burn, "slow_burn": policy.slow_burn,
                },
                "objectives": objectives,
                "alerts": self.alerts.to_dict()["alerts"],
            }
            self.last_report = report
            return report


# -- the server's engine ---------------------------------------------------------

_default_engine: Optional[SLOEngine] = None
_default_engine_lock = threading.Lock()


def get_slo_engine() -> SLOEngine:
    """The process-wide engine behind ``/slo`` and ``/alerts`` (created
    on first use with the shipped default rules, sharing the
    process-wide time-series store)."""
    global _default_engine
    with _default_engine_lock:
        if _default_engine is None:
            _default_engine = SLOEngine(store=get_timeseries())
        return _default_engine


def configure_slo_engine(rules: Optional[SLORules] = None,
                         clock: Optional[Callable[[], float]] = None,
                         registry=None) -> SLOEngine:
    """Replace the process-wide engine (``serve-metrics --slo-rules``).

    With the default clock and registry the engine keeps sharing the
    process-wide time-series store; overriding either builds a private
    store on the overridden timebase/registry instead."""
    global _default_engine
    with _default_engine_lock:
        store = get_timeseries() if clock is None and registry is None else None
        _default_engine = SLOEngine(rules=rules, clock=clock,
                                    registry=registry, store=store)
        return _default_engine


__all__ = [
    "QUERY_ERRORS_METRIC",
    "WORKER_STALLED_METRIC",
    "DEFAULT_RULES_TOML",
    "SLO_REPORT_FORMAT",
    "classify_error",
    "count_query_error",
    "record_query_error",
    "Objective",
    "AlertPolicy",
    "SLORules",
    "lint_rules",
    "parse_rules_text",
    "parse_rules_file",
    "load_rules",
    "default_rules",
    "evaluate_objective",
    "evaluate_payload",
    "AlertManager",
    "SLOEngine",
    "get_slo_engine",
    "configure_slo_engine",
]
