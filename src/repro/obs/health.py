"""Deep health: per-component readiness behind ``/readyz``.

``/healthz`` is *liveness* — "the process is up and answering HTTP" —
and deliberately never fails while the server runs.  Readiness is the
stronger claim "this process can serve queries correctly right now",
and that needs evidence: a canary query against the actually-loaded
index, a worker pool that is still making progress.  This module holds
that evidence.

:data:`READINESS` is the process-wide :class:`HealthMonitor`.  Two ways
to feed it:

* **Components** — code that *knows* its state pushes it:
  ``READINESS.set_component("workers", False, "no chunk in 30s")``
  (the :class:`~repro.engine.executor.BatchExecutor` watchdog does
  exactly this when a pool stalls).
* **Probes** — registered callables run on every :meth:`check` (every
  ``/readyz`` request): ``READINESS.register_probe("index",
  index_canary(index))``.  A probe returns ``(ok, detail)`` or just
  ``True``/``False``; raising counts as not ready with the exception as
  detail.

Overall readiness is the conjunction over all components; a monitor
with nothing registered is trivially ready (a bare metrics server has
nothing to prove).  Everything is stdlib-only and thread-safe — probes
run under the server's handler threads and the watchdog flips
components from its own thread.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple, Union

#: What a probe may return: a bare bool or an (ok, detail) pair.
ProbeResult = Union[bool, Tuple[bool, str]]


class HealthMonitor:
    """Named component states plus on-demand probes, conjoined into one
    ready/not-ready verdict.

    >>> monitor = HealthMonitor()
    >>> monitor.check()["ready"]
    True
    >>> _ = monitor.set_component("workers", False, "pool stalled")
    >>> monitor.check()["ready"]
    False
    >>> _ = monitor.set_component("workers", True)
    >>> monitor.check()["ready"]
    True
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self._clock = clock
        self._lock = threading.Lock()
        self._components: Dict[str, dict] = {}
        self._probes: Dict[str, Callable[[], ProbeResult]] = {}

    # -- pushed state ---------------------------------------------------------

    def set_component(self, name: str, ok: bool, detail: str = "") -> dict:
        """Record component ``name`` as ready (``ok=True``) or not."""
        entry = {
            "ok": bool(ok),
            "detail": detail,
            "checked_at": self._clock(),
            "source": "component",
        }
        with self._lock:
            self._components[name] = entry
        return entry

    # -- pulled state ---------------------------------------------------------

    def register_probe(self, name: str, probe: Callable[[], ProbeResult]) -> None:
        """Run ``probe`` on every :meth:`check`; its result becomes
        component ``name``.  Re-registering a name replaces the probe."""
        with self._lock:
            self._probes[name] = probe

    def reset(self) -> None:
        """Drop every component and probe (fresh-server state)."""
        with self._lock:
            self._components.clear()
            self._probes.clear()

    # -- evaluation -----------------------------------------------------------

    def check(self) -> dict:
        """Run every probe, fold in pushed component states, and report.

        The report is JSON-shaped: ``{"ready": bool, "components":
        {name: {"ok", "detail", "checked_at", "source"}}}`` — what
        ``/readyz`` serves (200 when ready, 503 otherwise).
        """
        with self._lock:
            probes = list(self._probes.items())
        for name, probe in probes:
            started = self._clock()
            try:
                result = probe()
            except Exception as exc:  # a failing probe IS the signal
                result = (False, f"probe raised {type(exc).__name__}: {exc}")
            if isinstance(result, tuple):
                ok, detail = result
            else:
                ok, detail = bool(result), ""
            entry = {
                "ok": bool(ok),
                "detail": detail,
                "checked_at": started,
                "source": "probe",
            }
            with self._lock:
                self._components[name] = entry
        with self._lock:
            components = {name: dict(entry) for name, entry in self._components.items()}
        return {
            "ready": all(entry["ok"] for entry in components.values()),
            "components": components,
        }


def index_canary(
    index, k: int = 0, length: int = 12, pattern: Optional[str] = None
) -> Callable[[], ProbeResult]:
    """A readiness probe running a real query against ``index``.

    The canary pattern is a prefix of the indexed text itself (so it
    *must* occur at least once) unless an explicit ``pattern`` is given;
    the probe passes iff the query answers without raising and finds the
    guaranteed hit.  This exercises the full serving path — alphabet
    validation, engine dispatch, rank probes, suffix-array location —
    against the exact index object the process serves, which is what
    distinguishes ``/readyz`` from ``/healthz``'s unconditional "ok".
    """
    if pattern is None:
        pattern = index.text[: max(1, min(length, index.text_length))]

    def probe() -> ProbeResult:
        start = time.perf_counter()
        try:
            found = index.contains(pattern, k)
        except Exception as exc:
            return False, f"canary query raised {type(exc).__name__}: {exc}"
        elapsed_ms = (time.perf_counter() - start) * 1e3
        if not found:
            return False, (
                f"canary pattern (a {len(pattern)} bp prefix of the target) "
                f"not found — index answers but answers wrong"
            )
        return True, f"canary query ok in {elapsed_ms:.2f} ms"

    return probe


#: Process-wide readiness state, served by ``/readyz``.
READINESS = HealthMonitor()

__all__ = ["HealthMonitor", "READINESS", "index_canary"]
