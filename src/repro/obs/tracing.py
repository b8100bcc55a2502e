"""Span-based tracing for the k-mismatch engine.

A **span** is one timed region of a query or build — "construct the
suffix array", "run Algorithm A over this read" — with a name, free-form
attributes, and nanosecond timestamps from :func:`time.perf_counter_ns`.
Spans nest: entering a span while another is active makes it a child, so
one ``repro-cli search --trace`` run produces a tree like::

    kmismatch.build                     41.2ms
      fmindex.build                     40.9ms
        fmindex.suffix_array            22.1ms
        fmindex.bwt                      1.4ms
        fmindex.rank_tables             13.9ms
          rankall.build                 13.8ms
    kmismatch.search                     3.1ms
      algorithm_a.search                 3.0ms

Design constraints (in priority order):

1. **Disabled must be (near) free.**  The hot paths of the engine —
   rankall probes, S-tree expansion — run millions of times per query;
   they guard every touch with a single ``if OBS.enabled:`` attribute
   read, and :meth:`Tracer.span` returns a shared no-op singleton when
   the tracer is off, so a ``with`` block costs two empty method calls.
   ``tests/test_obs.py`` pins the end-to-end overhead.
2. **Thread safety.**  The active-span stack is per-thread (a dict keyed
   by :func:`threading.get_ident`, every operation a single dict op under
   the GIL), so concurrent searches each get their own span tree;
   finished roots are appended to a shared list under the GIL.  One dict
   holds every thread's stack, so :meth:`Tracer.clear_stack` forgets them
   all at once — the fork hygiene a pool worker needs.
3. **Bounded memory.**  At most :data:`Tracer.max_roots` finished root
   spans are retained; older roots are dropped oldest-first.

The module is dependency-free and importable from anywhere in the
package without cycles (it imports nothing from :mod:`repro`).
"""

from __future__ import annotations

import threading
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One timed, attributed region of execution.

    Create spans through :meth:`Tracer.span`; using the class directly
    skips the tracer's enabled check and parent bookkeeping.

    Attributes are free-form key/value pairs; :meth:`set` adds more after
    entry (e.g. result counts known only at the end of the region).
    """

    __slots__ = ("name", "attrs", "start_ns", "end_ns", "children", "_tracer")

    def __init__(self, name: str, attrs: Dict[str, Any], tracer: "Tracer"):
        self.name = name
        self.attrs = attrs
        self.start_ns = 0
        self.end_ns = 0
        self.children: List["Span"] = []
        self._tracer = tracer

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = perf_counter_ns()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    # -- API ----------------------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        """Attach more attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds (0 while the span is still open)."""
        return max(0, self.end_ns - self.start_ns)

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return self.duration_ns / 1e9

    def to_dict(self) -> dict:
        """JSON-compatible representation (children nested).

        ``start_ns`` is this process's :func:`time.perf_counter_ns`
        reading — only meaningful relative to other spans from the same
        process unless rebased (see :meth:`from_dict`'s ``offset_ns``).
        """
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def iter_spans(self) -> Iterator["Span"]:
        """Yield this span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    @classmethod
    def from_dict(
        cls, payload: dict, tracer: Optional["Tracer"] = None, offset_ns: int = 0
    ) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output.

        ``offset_ns`` rebases the recorded ``start_ns`` onto another
        process's monotonic timeline: pass the difference between the
        recording process's wall-clock anchor and the local one (see
        :func:`repro.obs.export.merge_obs_delta`) and adopted worker
        spans interleave chronologically with locally recorded ones.
        """
        span = cls(str(payload.get("name", "?")), dict(payload.get("attrs") or {}), tracer)
        span.start_ns = int(payload.get("start_ns", 0)) + offset_ns
        span.end_ns = span.start_ns + int(payload.get("duration_ns", 0))
        span.children = [
            cls.from_dict(child, tracer, offset_ns) for child in payload.get("children") or []
        ]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_ns}ns, {len(self.children)} children)"


class _NullSpan:
    """Shared no-op span returned while tracing is disabled.

    Every method is an empty stub so instrumented code never needs to
    branch on the tracer state itself.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    duration_ns = 0
    duration_s = 0.0

    def to_dict(self) -> dict:
        return {"name": "", "start_ns": 0, "duration_ns": 0, "attrs": {}, "children": []}


#: The singleton no-op span (safe to share: it holds no state).
NULL_SPAN = _NullSpan()


class Timer:
    """A context-manager stopwatch that *always* measures.

    Unlike spans, timers are for wall-times the program itself reports
    (CLI "indexed N bp in ..." lines) — they must work with tracing off.
    When the owning tracer is enabled the timer also opens a span of the
    same name, so CLI wall-times and traces agree by construction.
    """

    __slots__ = ("seconds", "_start", "_span")

    def __init__(self, span: Any):
        self.seconds = 0.0
        self._start = 0.0
        self._span = span

    def __enter__(self) -> "Timer":
        self._span.__enter__()
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = perf_counter() - self._start
        self._span.__exit__(exc_type, exc, tb)
        return False

    def set(self, **attrs: Any) -> "Timer":
        """Forward attributes to the underlying span (no-op when disabled)."""
        self._span.set(**attrs)
        return self


class Tracer:
    """Factory and collector for spans.

    >>> tracer = Tracer(enabled=True)
    >>> with tracer.span("outer") as outer:
    ...     with tracer.span("inner", step=1):
    ...         pass
    >>> [s.name for s in tracer.finished[0].iter_spans()]
    ['outer', 'inner']
    """

    #: Retain at most this many finished root spans (oldest dropped).
    max_roots = 10_000

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.finished: List[Span] = []
        #: thread id -> open-span stack.  Entries are removed when a
        #: thread's last span closes, so dead threads leave nothing behind.
        self._stacks: Dict[int, List[Span]] = {}

    # -- span lifecycle (called by Span) -------------------------------------

    def _stack(self) -> List[Span]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = []
        # Tolerate exotic unwinding (generator GC, re-entrancy): pop back
        # to this span rather than asserting perfect nesting.
        while stack:
            top = stack.pop()
            if top is span:
                break
        if not stack:
            self._stacks.pop(ident, None)
            self.finished.append(span)
            if len(self.finished) > self.max_roots:
                del self.finished[: len(self.finished) - self.max_roots]

    # -- public API ----------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context-manager span, or the no-op singleton when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(name, attrs, self)

    def timed(self, name: str, **attrs: Any) -> Timer:
        """A :class:`Timer` that doubles as a span when tracing is on."""
        return Timer(self.span(name, **attrs))

    def reset(self) -> None:
        """Drop all finished spans (open spans are unaffected)."""
        self.finished = []

    def clear_stack(self) -> None:
        """Forget any open spans (fork hygiene).

        A pool worker forked while the parent held an open span would
        otherwise attach every span it records as a child of that
        inherited — and in the worker never-finishing — parent, so they
        would never reach :attr:`finished` and the chunk's telemetry
        delta would ship no span trees.
        """
        self._stacks = {}

    def adopt(self, payloads: List[dict], offset_ns: int = 0) -> None:
        """Append span trees recorded elsewhere (worker processes).

        ``payloads`` is :meth:`to_dicts` output from another tracer; the
        reconstructed roots join ``finished`` under the same
        :data:`max_roots` bound as locally recorded spans.  ``offset_ns``
        rebases their ``start_ns`` onto this process's monotonic clock
        (see :meth:`Span.from_dict`).
        """
        for payload in payloads:
            self.finished.append(Span.from_dict(payload, self, offset_ns))
        if len(self.finished) > self.max_roots:
            del self.finished[: len(self.finished) - self.max_roots]

    def to_dicts(self) -> List[dict]:
        """All finished root spans as JSON-compatible dictionaries."""
        return [span.to_dict() for span in self.finished]

    def iter_finished(self) -> Iterator[Span]:
        """Every finished span, roots and descendants, pre-order."""
        for root in self.finished:
            yield from root.iter_spans()


def render_span_tree(spans: List[dict], indent: str = "  ") -> str:
    """Plain-text rendering of :meth:`Tracer.to_dicts` output.

    Accepts the JSON form (not Span objects) so the CLI ``stats``
    subcommand can replay a saved trace file.
    """
    lines: List[str] = []

    def fmt_duration(ns: int) -> str:
        if ns < 1_000_000:
            return f"{ns / 1e3:.1f}us"
        if ns < 1_000_000_000:
            return f"{ns / 1e6:.1f}ms"
        return f"{ns / 1e9:.2f}s"

    def walk(node: dict, depth: int) -> None:
        attrs = node.get("attrs") or {}
        attr_text = " ".join(f"{k}={v}" for k, v in attrs.items())
        label = f"{indent * depth}{node.get('name', '?')}"
        duration = fmt_duration(int(node.get("duration_ns", 0)))
        lines.append(f"{label:<48} {duration:>10}" + (f"  {attr_text}" if attr_text else ""))
        for child in node.get("children", []):
            walk(child, depth + 1)

    for root in spans:
        walk(root, 0)
    return "\n".join(lines)
