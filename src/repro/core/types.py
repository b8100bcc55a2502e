"""Shared result types for every k-mismatch matcher in the package."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple, Tuple


class Occurrence(NamedTuple):
    """One approximate occurrence of the pattern in the target.

    A named tuple ``(start, mismatches)``: it sorts by start, then
    mismatch offsets, and equals (and hashes as) the plain tuple of its
    fields.  Hot paths build it with ``tuple.__new__(Occurrence, (start,
    mismatches))``, which skips the Python-level constructor.

    Attributes
    ----------
    start:
        0-based start position of the occurrence window in the target.
    mismatches:
        Sorted 0-based *pattern offsets* where the window disagrees with
        the pattern (the paper's mismatch array ``B_l`` of a path, minus
        the ``∞`` padding).
    """

    start: int
    mismatches: Tuple[int, ...] = ()

    @property
    def n_mismatches(self) -> int:
        """Hamming distance between the pattern and the matched window."""
        return len(self.mismatches)

    def end(self, pattern_length: int) -> int:
        """Exclusive end position of the window in the target."""
        return self.start + pattern_length


@dataclass
class SearchStats:
    """Instrumentation counters shared by the tree searches.

    The M-tree leaf count ``n'`` (paper Table 2) and the S-tree node
    totals come from here; benchmarks report them alongside wall time.
    """

    #: Characters consumed by live index search (S-tree nodes created from
    #: ``children()`` results or by the LF walk; Algorithm A's
    #: memo-derived ones count in ``chars_replayed``).
    nodes_expanded: int = 0
    #: ``children()`` calls on ranges wider than one row (one-row ones
    #: only where Algorithm A's memo takes them) — each costs
    #: O(|Σ|) rankall probes.
    rank_queries: int = 0
    #: One-row ranges walked by LF instead of expanded by ``children()``:
    #: one ``L[row]`` read each, plus one ``occ`` probe when the path goes
    #: on.  ``rank_queries + lf_steps`` is the node expansions that asked
    #: the index.
    lf_steps: int = 0
    #: LF steps taken to build the φ table (:func:`~repro.core.stree.compute_phi`),
    #: its block tests included; each is one ``occ`` probe at both ends
    #: of a range.
    phi_steps: int = 0
    #: LF steps taken to locate reported rows: each row's walk to a
    #: sampled suffix-array row, summed.
    locate_steps: int = 0
    #: Path terminations of any kind — the paper's n' (leaves of D).
    leaves: int = 0
    #: Paths that reached the full pattern length (reported occurrences).
    completed_paths: int = 0
    #: Paths cut because the mismatch budget was exhausted.
    budget_pruned: int = 0
    #: Paths cut because the index had no continuation.
    dead_ends: int = 0
    #: Paths cut by the φ(i) heuristic (S-tree baseline only).
    phi_pruned: int = 0
    #: Memo hits: ranges whose stored continuation was re-scored instead
    #: of re-searched (Alg. A).
    reuse_hits: int = 0
    #: Subset of ``reuse_hits`` on entries recorded by an *earlier* query
    #: (Alg. A with a persistent cross-query memo).
    shared_reuse_hits: int = 0
    #: Stored characters re-scored instead of searched (Alg. A): chain
    #: characters a chain replay scored, plus memo-derived children the
    #: search loop kept.
    chars_replayed: int = 0
    #: Steps of the kangaroo merge (Alg. A): one per self-mismatch or
    #: recorded mismatch it visits.
    derivation_jumps: int = 0
    #: Occurrence rows located (suffix-array walks).
    rows_located: int = 0
    #: Entries in the pair hash table at the end of the search (Alg. A).
    memo_size: int = 0

    extra: dict = field(default_factory=dict)

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Aggregate counters from another search (for batch runs).

        Every dataclass counter field is summed — the field list is
        derived from :func:`dataclasses.fields`, so counters added later
        can never be silently dropped from batch aggregation.  ``extra``
        is merged key-wise: numeric values add (missing keys count as 0),
        anything else takes the other side's value.
        """
        for spec in fields(self):
            if spec.name == "extra":
                continue
            setattr(self, spec.name, getattr(self, spec.name) + getattr(other, spec.name))
        for key, value in other.extra.items():
            mine = self.extra.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool) and (
                mine is None or (isinstance(mine, (int, float)) and not isinstance(mine, bool))
            ):
                self.extra[key] = (mine or 0) + value
            else:
                self.extra[key] = value
        return self

    def to_dict(self) -> dict:
        """JSON-compatible dictionary of every counter (``extra`` included)."""
        payload = {
            spec.name: getattr(self, spec.name) for spec in fields(self) if spec.name != "extra"
        }
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload
