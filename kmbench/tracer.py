"""Outside-in span tracer for the traced benchmark pass.

:meth:`Tracer.install` replaces public functions of the program's
modules with wrappers that record one span per call, and
:meth:`Tracer.restore` puts every original back; the program's source
is never touched.  Spans live in flat in-memory arrays (name id, parent
index, start, end) and are folded once, at the end, into calls,
inclusive time and self time per span name.

Self time of a span is its duration minus the durations of its direct
child spans.  Inclusive time of a name counts only its outermost spans,
so a name nested inside itself (a facade calling the same facade layer)
is not counted twice.  Only calls on the installing thread of the
installing process are recorded; other threads, and processes forked
while the wrappers are in place (pool workers), call straight through.
"""

from __future__ import annotations

import functools
import os
import threading
from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Tuple


@dataclass
class Folded:
    """Per-name totals of a traced run (times in nanoseconds)."""

    calls: int = 0
    inclusive_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Flat span store plus the attribute patches that feed it."""

    def __init__(self):
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name_of = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._outermost = array("b")
        self._root = array("q")
        self._stack: List[int] = []
        self._depth: Dict[int, int] = {}
        self._owner = (os.getpid(), threading.get_ident())
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return name_id

    def begin(self, name: str) -> int:
        """Open a span; returns its index (pass it to :meth:`end`)."""
        name_id = self._name_id(name)
        index = len(self._start)
        self._name_of.append(name_id)
        parent = self._stack[-1] if self._stack else -1
        self._parent.append(parent)
        self._root.append(self._root[parent] if parent >= 0 else index)
        depth = self._depth.get(name_id, 0)
        self._outermost.append(1 if depth == 0 else 0)
        self._depth[name_id] = depth + 1
        self._stack.append(index)
        self._end.append(0)
        self._start.append(perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        """Close the span opened as ``index`` (spans close in LIFO order)."""
        self._end[index] = perf_counter_ns()
        self._stack.pop()
        self._depth[self._name_of[index]] -= 1

    def span(self, name: str) -> "_SpanContext":
        """Context-manager form of :meth:`begin` / :meth:`end`."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call on the owner thread."""
        pid, thread = self._owner
        getpid, get_ident = os.getpid, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != thread or getpid() != pid:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        traced.__wrapped_by_kmbench__ = True
        return traced

    # -- patching ----------------------------------------------------------------

    def install(self, targets: Iterable[Tuple[str, object, str]]) -> None:
        """Wrap each ``(span name, owner, attribute)``; classmethods and
        staticmethods keep their descriptor kind."""
        for name, owner, attr in targets:
            original = owner.__dict__[attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self.wrap(name, original.__func__))
            else:
                wrapped = self.wrap(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- folding -------------------------------------------------------------------

    def fold(self) -> Dict[str, Folded]:
        """Calls, inclusive and self time per span name, over all spans."""
        return {name: entry for (_, name), entry in self._fold().items()}

    def fold_by_phase(self) -> Dict[str, Dict[str, Folded]]:
        """Like :meth:`fold`, split by the name of each span's root span
        (the benchmark phase it ran under)."""
        phases: Dict[str, Dict[str, Folded]] = {}
        for (root, name), entry in self._fold(by_root=True).items():
            phases.setdefault(root, {})[name] = entry
        return phases

    def _fold(self, by_root: bool = False) -> Dict[Tuple[str, str], Folded]:
        names, name_of, parent, root = self._names, self._name_of, self._parent, self._root
        start, end, outermost = self._start, self._end, self._outermost
        totals: Dict[Tuple[str, str], Folded] = {}

        def entry(i: int) -> Folded:
            key = (names[name_of[root[i]]] if by_root else "", names[name_of[i]])
            found = totals.get(key)
            if found is None:
                found = totals[key] = Folded()
            return found

        for i in range(len(start)):
            duration = end[i] - start[i]
            own = entry(i)
            own.calls += 1
            own.self_ns += duration
            if outermost[i]:
                own.inclusive_ns += duration
            if parent[i] >= 0:
                entry(parent[i]).self_ns -= duration
        return totals


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._index = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._index)


def program_targets() -> List[Tuple[str, object, str]]:
    """The public functions the traced pass wraps, by layer.

    Each entry is ``(span name, owner, attribute)``; the span name's
    prefix is the layer (module) the function belongs to.
    """
    import repro.suffix
    from repro.bwt.fmindex import FMIndex
    from repro.core.algorithm_a import AlgorithmASearcher
    from repro.core.matcher import KMismatchIndex
    from repro.core.stree import STreeSearcher
    from repro.engine.executor import BatchExecutor
    from repro.io import binfmt
    from repro.mismatch.tables import MismatchTables
    from repro.shard.sharded import QueryRouter, ShardedIndex

    return [
        ("suffix.sa", repro.suffix, "suffix_array"),
        ("bwt.build", FMIndex, "__init__"),
        ("bwt.children", FMIndex, "children"),
        ("bwt.locate", FMIndex, "suffix_position"),
        ("core.algorithm_a", AlgorithmASearcher, "search"),
        ("core.stree", STreeSearcher, "search"),
        ("mismatch.tables", MismatchTables, "__init__"),
        ("core.matcher", KMismatchIndex, "search_with_stats"),
        ("core.matcher", KMismatchIndex, "map_read_with_stats"),
        ("shard.build", ShardedIndex, "build"),
        ("shard.router", ShardedIndex, "search_with_stats"),
        ("shard.router", QueryRouter, "search_with_stats"),
        ("io.save", binfmt, "save_fmindex"),
        ("io.save", binfmt, "save_manifest"),
        ("io.save", binfmt, "dump_fmindex"),
        ("io.open", binfmt, "open_fmindex"),
        ("io.open", binfmt, "load_manifest"),
        ("io.open", binfmt, "sniff"),
        ("io.open", binfmt, "sniff_manifest"),
        ("engine.batch", BatchExecutor, "run_map"),
    ]
