"""The mismatching tree (M-tree) of paper Sec. IV-D.

An M-tree ``D`` compresses an S-tree: every *maximal match sub-path*
(MM-path, Def. 3) collapses into a single node ``<-, 0>``, and every
mismatching S-node ``<x, [α, β]>`` compared against ``r[i]`` becomes a
node ``<x, i>``.  Each root-to-leaf path of ``D`` is one mismatch array
``B_l`` — one candidate alignment of the pattern.

The searchers build the M-tree from the per-path mismatch records
``(position, character)``: consecutive mismatch positions ``p < q`` with
``q > p + 1`` have a (shared, maximal) match node between them, leading
matches merge into the virtual root (itself a ``<-, 0>`` node, paper
Fig. 7), and trailing matches append one final match node.  The leaf count
``n'`` of this tree is the quantity the paper's complexity bound
O(k·n' + n) and Table 2 are stated in.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

MATCH_KIND = "match"
MISMATCH_KIND = "mismatch"


class MTreeNode:
    """One node of an M-tree.

    Match nodes render as ``<-, 0>``; mismatch nodes as ``<char, pos>``
    with ``pos`` the 0-based pattern offset of the disagreement.
    """

    __slots__ = ("kind", "char", "pos", "children", "leaf_paths")

    def __init__(self, kind: str, char: Optional[str] = None, pos: Optional[int] = None):
        self.kind = kind
        self.char = char
        self.pos = pos
        #: Children keyed by ``(char, pos)`` for mismatch nodes and by the
        #: singleton ``MATCH_KIND`` for the (unique) match child.
        self.children: Dict[object, "MTreeNode"] = {}
        #: Number of search paths terminating at this node.
        self.leaf_paths = 0

    @property
    def is_match(self) -> bool:
        """True for ``<-, 0>`` nodes."""
        return self.kind == MATCH_KIND

    def label(self) -> str:
        """Paper-style node label."""
        if self.is_match:
            return "<-, 0>"
        return f"<{self.char}, {self.pos}>"

    def match_child(self) -> "MTreeNode":
        """Get or create this node's match child (never on a match node)."""
        child = self.children.get(MATCH_KIND)
        if child is None:
            child = MTreeNode(MATCH_KIND)
            self.children[MATCH_KIND] = child
        return child

    def mismatch_child(self, char: str, pos: int) -> "MTreeNode":
        """Get or create the mismatch child ``<char, pos>``."""
        key = (char, pos)
        child = self.children.get(key)
        if child is None:
            child = MTreeNode(MISMATCH_KIND, char, pos)
            self.children[key] = child
        return child


class MTree:
    """A mismatching tree, built incrementally from search-path records.

    >>> tree = MTree(pattern_length=5)
    >>> _ = tree.add_path([(0, 'a'), (3, 'g')])   # the paper's B_1 = [1, 4]
    >>> _ = tree.add_path([(0, 'a'), (1, 'g')])   # B_2 = [1, 2]
    >>> tree.n_leaves
    2
    """

    def __init__(self, pattern_length: int):
        if pattern_length <= 0:
            raise ValueError("pattern_length must be positive")
        self._m = pattern_length
        #: The virtual root — handled as a match node (paper Fig. 7, u0).
        self.root = MTreeNode(MATCH_KIND)
        self._n_paths = 0

    @property
    def pattern_length(self) -> int:
        """Length of the pattern the tree describes alignments of."""
        return self._m

    def add_path(self, mismatches: Sequence[Tuple[int, str]], length: Optional[int] = None) -> MTreeNode:
        """Record one search path.

        ``mismatches`` is the path's sorted ``(pattern offset, character)``
        record; ``length`` is how many pattern positions the path covered
        before terminating (defaults to the full pattern — i.e. a
        completed alignment).  Returns the leaf node.
        """
        end = self._m if length is None else length
        node = self.root
        prev = -1
        for pos, char in mismatches:
            if not prev < pos < end:
                raise ValueError(f"mismatch offsets must be increasing and below {end}")
            if pos > prev + 1 and not node.is_match:
                node = node.match_child()
            node = node.mismatch_child(char, pos)
            prev = pos
        if end - 1 > prev and not node.is_match:
            node = node.match_child()
        node.leaf_paths += 1
        self._n_paths += 1
        return node

    # -- measurements ------------------------------------------------------

    @property
    def n_paths(self) -> int:
        """Number of paths recorded so far."""
        return self._n_paths

    def iter_nodes(self) -> Iterator[MTreeNode]:
        """Every node, root included, in DFS order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    @property
    def n_nodes(self) -> int:
        """Total node count (root included)."""
        return sum(1 for _ in self.iter_nodes())

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes — the paper's n'."""
        return sum(1 for node in self.iter_nodes() if not node.children)

    def render(self) -> str:
        """ASCII rendering (for debugging and the worked examples)."""
        lines: List[str] = []
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            marker = f"  × {node.leaf_paths}" if node.leaf_paths and not node.children else ""
            lines.append("  " * depth + node.label() + marker)
            for key in sorted(node.children, key=str, reverse=True):
                stack.append((node.children[key], depth + 1))
        return "\n".join(lines)
