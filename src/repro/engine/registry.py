"""Declarative engine registry: one registration point for every matcher.

Every way this package can answer "where does ``pattern`` occur in the
target within distance ``k``?" — the paper's Algorithm A, the S-tree
baseline of [34], the ablation variants, and the comparison methods from
:mod:`repro.baselines` — is described by an :class:`EngineSpec` and
registered in the process-wide :data:`REGISTRY`.  The facade
(:class:`~repro.core.matcher.KMismatchIndex`), the CLI, and the benchmark
suite all resolve method names through the registry instead of keeping
their own if/elif chains, so adding an engine is a single
``REGISTRY.register(...)`` call.

Engines follow one protocol (:class:`SearchEngine`): construction binds
the engine to a target (via the index), ``search(pattern, k)`` returns
``(occurrences, stats)``.  Matchers whose native signature differs —
per-pattern constructors like Amir's, plain ``fn(text, pattern, k)``
functions like the naive scan — are wrapped by the adapter classes below
at registration time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Protocol, Tuple

from ..core.types import Occurrence, SearchStats
from ..errors import PatternError

class SearchEngine(Protocol):
    """The uniform engine protocol.

    An engine is bound to one target at construction time and may keep
    per-target state (indexes, caches, cross-query memos) between calls.
    Engine instances are **not** thread-safe; parallel callers must use
    one instance per worker (see :class:`repro.engine.executor.BatchExecutor`).
    """

    def search(self, pattern: str, k: int) -> Tuple[List[Occurrence], SearchStats]:
        """All occurrences of ``pattern`` within distance ``k``, plus stats."""
        ...


#: Capability labels used by :attr:`EngineSpec.capabilities`.
CAP_MISMATCH = "mismatch"
CAP_EDIT = "edit"
CAP_WILDCARD = "wildcard"


@dataclass(frozen=True)
class EngineSpec:
    """Declarative description of one registered engine.

    Attributes
    ----------
    name:
        Canonical method name (what :meth:`EngineRegistry.resolve` returns).
    factory:
        ``factory(index, **knobs) -> SearchEngine``; ``index`` is the
        owning :class:`~repro.core.matcher.KMismatchIndex` (text engines
        only read ``index.text``, index engines use ``index.fm_index``).
    kind:
        ``"index"`` — operates over the shared BWT/FM structures;
        ``"text"`` — scans or indexes the raw target itself.
    capabilities:
        Problem variants the engine answers (``mismatch``/``edit``/``wildcard``).
    aliases:
        Alternative names (the paper's display names, short forms).
    uses_phi / uses_reuse:
        Whether the φ(i) cut-off / the pair-hash-table derivation are
        active — lets ablation tooling enumerate variants declaratively.
    supports_mtree:
        Engine honours the ``record_mtree`` knob and exposes ``last_mtree``.
    cacheable:
        Instances are safely reusable across queries, so the facade may
        keep one per (name, knobs) — the cross-query memo lives there.
    description:
        One-line summary for listings (``repro-cli engines``).
    """

    name: str
    factory: Callable[..., SearchEngine]
    kind: str = "index"
    capabilities: FrozenSet[str] = frozenset({CAP_MISMATCH})
    aliases: Tuple[str, ...] = ()
    uses_phi: bool = False
    uses_reuse: bool = False
    supports_mtree: bool = False
    cacheable: bool = True
    description: str = ""


class EngineRegistry:
    """Name → :class:`EngineSpec` mapping with alias resolution.

    Registration order is preserved: enumeration APIs report engines in
    the order they were registered, so tables and CLI listings stay
    stable.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, EngineSpec] = {}
        self._aliases: Dict[str, str] = {}

    # -- registration ---------------------------------------------------------

    def register(self, spec: EngineSpec) -> EngineSpec:
        """Add ``spec``; duplicate names or aliases are rejected."""
        if spec.kind not in ("index", "text"):
            raise PatternError(f"engine kind must be 'index' or 'text', got {spec.kind!r}")
        for name in (spec.name, *spec.aliases):
            if name in self._specs or name in self._aliases:
                raise PatternError(f"engine name {name!r} is already registered")
        self._specs[spec.name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = spec.name
        return spec

    # -- lookup ---------------------------------------------------------------

    def resolve(self, name: str) -> EngineSpec:
        """The spec for ``name`` (canonical or alias); raises on unknown names."""
        canonical = self._aliases.get(name, name)
        spec = self._specs.get(canonical)
        if spec is None:
            raise PatternError(
                f"unknown method {name!r}; expected one of {self.names()}"
            )
        return spec

    def create(self, name: str, index, **knobs) -> SearchEngine:
        """Instantiate the engine ``name`` for ``index``."""
        return self.resolve(name).factory(index, **knobs)

    def canonical_name(self, name: str) -> str:
        """The canonical spec name for ``name`` (aliases resolved);
        unknown names come back unchanged.

        Telemetry label values go through here so one engine is one
        series: ``A()`` and ``algorithm_a`` must not split the
        ``{engine=...}`` dimension just because callers spelled the
        method differently.
        """
        canonical = self._aliases.get(name, name)
        return canonical if canonical in self._specs else name

    def names(
        self, capability: Optional[str] = None, kind: Optional[str] = None
    ) -> Tuple[str, ...]:
        """Canonical names, optionally filtered by capability and kind."""
        return tuple(spec.name for spec in self.specs(capability=capability, kind=kind))

    def specs(
        self, capability: Optional[str] = None, kind: Optional[str] = None
    ) -> Tuple[EngineSpec, ...]:
        """Registered specs in registration order, optionally filtered."""
        out = []
        for spec in self._specs.values():
            if capability is not None and capability not in spec.capabilities:
                continue
            if kind is not None and spec.kind != kind:
                continue
            out.append(spec)
        return tuple(out)

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def __iter__(self) -> Iterator[EngineSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


# -- adapters -----------------------------------------------------------------
#
# The baselines predate the engine protocol; these adapters bring their
# three native shapes (function, per-pattern matcher, per-target matcher)
# onto SearchEngine without touching the baseline modules themselves.


class FunctionEngine:
    """Adapter for ``fn(text, pattern, k) -> [Occurrence]`` matchers."""

    def __init__(self, text: str, fn: Callable[[str, str, int], List[Occurrence]]):
        self._text = text
        self._fn = fn

    def search(self, pattern: str, k: int) -> Tuple[List[Occurrence], SearchStats]:
        return self._fn(self._text, pattern, k), SearchStats()


class PerPatternEngine:
    """Adapter for ``Matcher(text, pattern).search(k)`` matchers (Amir, LV)."""

    def __init__(self, text: str, matcher_cls):
        self._text = text
        self._matcher_cls = matcher_cls

    def search(self, pattern: str, k: int) -> Tuple[List[Occurrence], SearchStats]:
        return self._matcher_cls(self._text, pattern).search(k), SearchStats()


class PerTargetEngine:
    """Adapter for ``Matcher(text).search(pattern, k)`` matchers (Cole, q-gram).

    The wrapped matcher is built lazily on first use and kept — for
    Cole's method that amortises the suffix-tree construction across
    every query, exactly the way :class:`MethodSuite` used to hand-cache
    it.
    """

    def __init__(self, text: str, matcher_factory: Callable[[str], object]):
        self._text = text
        self._matcher_factory = matcher_factory
        self._matcher = None

    def search(self, pattern: str, k: int) -> Tuple[List[Occurrence], SearchStats]:
        if self._matcher is None:
            self._matcher = self._matcher_factory(self._text)
        return self._matcher.search(pattern, k), SearchStats()


class VariantEngine:
    """Adapter for the problem-variant index searchers, whose ``search``
    returns occurrences alone and ``search_with_stats`` the protocol's
    pair (:class:`~repro.core.wildcard.WildcardSearcher`,
    :class:`~repro.core.kerrors.KErrorsSearcher`)."""

    def __init__(self, searcher):
        self._searcher = searcher

    def search(self, pattern: str, k: int):
        return self._searcher.search_with_stats(pattern, k)


# -- builtin registration ------------------------------------------------------


def _register_builtin_engines(registry: EngineRegistry) -> None:
    """Register every engine this package ships with.

    Imports are local so that ``repro.engine`` stays importable without
    dragging in every baseline at interpreter start, and to keep the
    module free of import cycles with :mod:`repro.core.matcher` (engine
    factories receive the index instance; they never import its class).
    """
    from ..baselines.amir import AmirMatcher
    from ..baselines.bwt_seed import BwtSeedMatcher
    from ..baselines.cole import ColeMatcher
    from ..baselines.landau_vishkin import LandauVishkinMatcher
    from ..baselines.naive import naive_search
    from ..baselines.qgram import QGramIndex
    from ..core.algorithm_a import AlgorithmASearcher
    from ..core.kerrors import KErrorsSearcher
    from ..core.stree import STreeSearcher
    from ..core.wildcard import DEFAULT_WILDCARD, WildcardSearcher

    registry.register(
        EngineSpec(
            name="algorithm_a",
            factory=lambda index, record_mtree=False: AlgorithmASearcher(
                index.fm_index, record_mtree=record_mtree
            ),
            aliases=("A()", "a"),
            uses_phi=True,
            uses_reuse=True,
            supports_mtree=True,
            description="the paper's Algorithm A: BWT search with subtree derivation",
        )
    )
    registry.register(
        EngineSpec(
            name="algorithm_a_nophi",
            factory=lambda index, record_mtree=False: AlgorithmASearcher(
                index.fm_index, record_mtree=record_mtree, use_phi=False
            ),
            aliases=("A()-nophi",),
            uses_reuse=True,
            supports_mtree=True,
            description="Algorithm A ablation: φ(i) cut-off disabled",
        )
    )
    registry.register(
        EngineSpec(
            name="algorithm_a_noreuse",
            factory=lambda index, record_mtree=False: AlgorithmASearcher(
                index.fm_index, record_mtree=record_mtree, enable_reuse=False
            ),
            aliases=("A()-noreuse",),
            uses_phi=True,
            supports_mtree=True,
            description="Algorithm A ablation: pair hash table disabled",
        )
    )
    registry.register(
        EngineSpec(
            name="stree",
            factory=lambda index: STreeSearcher(index.fm_index, use_phi=True),
            aliases=("BWT", "bwt"),
            uses_phi=True,
            description="S-tree baseline of [34] with the φ(i) heuristic",
        )
    )
    registry.register(
        EngineSpec(
            name="stree_nophi",
            factory=lambda index: STreeSearcher(index.fm_index, use_phi=False),
            aliases=("BWT-nophi",),
            description="S-tree baseline, φ(i) heuristic off",
        )
    )
    registry.register(
        EngineSpec(
            name="naive",
            factory=lambda index: FunctionEngine(index.text, naive_search),
            kind="text",
            description="O(mn) direct scan (ground truth)",
        )
    )
    registry.register(
        EngineSpec(
            name="landau_vishkin",
            factory=lambda index: PerPatternEngine(index.text, LandauVishkinMatcher),
            kind="text",
            aliases=("LV", "lv"),
            description="O(kn) kangaroo verification at every position",
        )
    )
    registry.register(
        EngineSpec(
            name="amir",
            factory=lambda index: PerPatternEngine(index.text, AmirMatcher),
            kind="text",
            aliases=("Amir's", "amirs"),
            description="Amir's method: block marking + verification",
        )
    )
    registry.register(
        EngineSpec(
            name="cole",
            factory=lambda index: PerTargetEngine(index.text, ColeMatcher),
            kind="text",
            aliases=("Cole's", "coles"),
            description="Cole's method: k-mismatch DFS over a suffix tree",
        )
    )
    registry.register(
        EngineSpec(
            name="qgram",
            factory=lambda index: PerTargetEngine(index.text, QGramIndex),
            kind="text",
            description="q-gram seed index with pigeonhole filtration",
        )
    )
    registry.register(
        EngineSpec(
            name="bwt_seed",
            factory=lambda index: PerTargetEngine(index.text, BwtSeedMatcher),
            kind="text",
            description="BWT-backed seed-and-verify matcher",
        )
    )
    registry.register(
        EngineSpec(
            name="kerrors",
            factory=lambda index: VariantEngine(KErrorsSearcher(index.fm_index)),
            capabilities=frozenset({CAP_EDIT}),
            description="k errors (Levenshtein) over the same BWT index",
        )
    )
    registry.register(
        EngineSpec(
            name="wildcard",
            factory=lambda index, wildcard=DEFAULT_WILDCARD: VariantEngine(
                WildcardSearcher(index.fm_index, wildcard=wildcard)
            ),
            capabilities=frozenset({CAP_WILDCARD}),
            description="k-mismatch search with don't-care pattern positions",
        )
    )


#: The process-wide registry every dispatch layer consults.
REGISTRY = EngineRegistry()
_register_builtin_engines(REGISTRY)
