"""A simplified R*-tree over axis-aligned boxes.

Section IV-C of the paper keeps "a standard spatial index (a simplified
R*-tree)" over the bounding boxes of past sensing regions.  This module
implements that index from scratch:

* **ChooseSubtree** descends by least overlap-enlargement at the leaf level
  and least volume-enlargement above it (the R*-tree heuristic).
* **Split** uses the R*-tree axis-sweep: pick the split axis by minimum total
  margin over candidate distributions, then the distribution with minimum
  overlap (ties by minimum combined volume).  Each candidate distribution's
  two bounding boxes come from running prefix / suffix bounds of the sorted
  children, so one axis costs O(M), not one union per candidate.
* **Forced reinsertion** on first overflow per level per insertion pass (the
  R*-tree trick that reduces overlap), simplified to a single reinsert batch.

Entries are ``(box, value)`` pairs; values are opaque to the tree.  Deletion
is supported (the cleaning pipeline prunes sensing regions that have expired)
via the classic R-tree condense-tree algorithm.

:class:`~repro.geometry.box.Box` is the currency at the public surface only
(``insert`` / ``search`` / ``delete`` take one, ``items`` / ``search_entries``
hand the caller's own boxes back).  Inside, every node and entry carries its
bounds as two raw ``(x, y, z)`` float tuples and all node arithmetic —
bounding boxes, enlargement, overlap, margins, intersection tests — runs on
those: the tree constructs no ``Box``.  (An insert does a few hundred of these
operations; as validated dataclass instances they were the cost of the index.)
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..errors import GeometryError
from ..geometry.box import Box

Corner = Tuple[float, float, float]
Bounds = Tuple[Corner, Corner]


def _intersects(lo_a: Corner, hi_a: Corner, lo_b: Corner, hi_b: Corner) -> bool:
    return (
        lo_a[0] <= hi_b[0]
        and lo_b[0] <= hi_a[0]
        and lo_a[1] <= hi_b[1]
        and lo_b[1] <= hi_a[1]
        and lo_a[2] <= hi_b[2]
        and lo_b[2] <= hi_a[2]
    )


def _union(lo_a: Corner, hi_a: Corner, lo_b: Corner, hi_b: Corner) -> Bounds:
    return (
        (min(lo_a[0], lo_b[0]), min(lo_a[1], lo_b[1]), min(lo_a[2], lo_b[2])),
        (max(hi_a[0], hi_b[0]), max(hi_a[1], hi_b[1]), max(hi_a[2], hi_b[2])),
    )


def _bounds_of(children: Sequence[Any]) -> Bounds:
    """Smallest bounds covering every child (entries and nodes alike)."""
    los = tuple(zip(*[c.lo for c in children]))
    his = tuple(zip(*[c.hi for c in children]))
    return (
        (min(los[0]), min(los[1]), min(los[2])),
        (max(his[0]), max(his[1]), max(his[2])),
    )


def _volume(lo: Corner, hi: Corner) -> float:
    return (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2])


def _area_xy(lo: Corner, hi: Corner) -> float:
    return (hi[0] - lo[0]) * (hi[1] - lo[1])


def _margin(lo: Corner, hi: Corner) -> float:
    return (hi[0] - lo[0]) + (hi[1] - lo[1]) + (hi[2] - lo[2])


def _enlargement(lo: Corner, hi: Corner, lo_b: Corner, hi_b: Corner) -> float:
    """Growth of ``(lo, hi)`` if extended to cover ``(lo_b, hi_b)``: volume,
    falling back to xy-area and then margin in degenerate-z scenes (the
    criterion of :meth:`Box.enlargement`)."""
    lo_m, hi_m = _union(lo, hi, lo_b, hi_b)
    dv = _volume(lo_m, hi_m) - _volume(lo, hi)
    if dv > 0.0:
        return dv
    da = _area_xy(lo_m, hi_m) - _area_xy(lo, hi)
    if da > 0.0:
        return da
    return _margin(lo_m, hi_m) - _margin(lo, hi)


def _overlap(lo_a: Corner, hi_a: Corner, lo_b: Corner, hi_b: Corner) -> float:
    """Size of the intersection (volume, falling back to xy-area).

    ChooseSubtree evaluates O(children^2) of these per insert — the tree's
    hot path — hence comparisons instead of ``min`` / ``max`` calls.
    """
    lo, hi = lo_a[0], hi_a[0]
    dx = (hi if hi < hi_b[0] else hi_b[0]) - (lo if lo > lo_b[0] else lo_b[0])
    if dx < 0.0:
        return 0.0
    lo, hi = lo_a[1], hi_a[1]
    dy = (hi if hi < hi_b[1] else hi_b[1]) - (lo if lo > lo_b[1] else lo_b[1])
    if dy < 0.0:
        return 0.0
    lo, hi = lo_a[2], hi_a[2]
    dz = (hi if hi < hi_b[2] else hi_b[2]) - (lo if lo > lo_b[2] else lo_b[2])
    if dz < 0.0:
        return 0.0
    volume = dx * dy * dz
    return volume if volume > 0.0 else dx * dy


def _sweep(ordered: Sequence[Any]) -> Tuple[List[Bounds], List[Bounds]]:
    """Running bounds of ``ordered``: ``prefix[i]`` covers ``ordered[:i + 1]``,
    ``suffix[i]`` covers ``ordered[i:]``."""
    prefix: List[Bounds] = []
    lo, hi = ordered[0].lo, ordered[0].hi
    for child in ordered:
        lo, hi = _union(lo, hi, child.lo, child.hi)
        prefix.append((lo, hi))
    suffix: List[Bounds] = []
    lo, hi = ordered[-1].lo, ordered[-1].hi
    for child in reversed(ordered):
        lo, hi = _union(lo, hi, child.lo, child.hi)
        suffix.append((lo, hi))
    suffix.reverse()
    return prefix, suffix


class _Entry:
    """Leaf entry: the caller's box, its raw bounds, and the payload."""

    __slots__ = ("box", "value", "lo", "hi")

    def __init__(self, box: Box, value: Any):
        self.box = box
        self.value = value
        self.lo: Corner = box.lo
        self.hi: Corner = box.hi


class _Node:
    """Tree node.  Leaves hold `_Entry`s; internal nodes hold `_Node`s.
    ``lo``/``hi`` bound the children; both are ``None`` for an empty node."""

    __slots__ = ("leaf", "children", "lo", "hi", "parent")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.children: List[Any] = []
        self.lo: Optional[Corner] = None
        self.hi: Optional[Corner] = None
        self.parent: Optional["_Node"] = None

    def recompute_box(self) -> None:
        if not self.children:
            self.lo = self.hi = None
            return
        self.lo, self.hi = _bounds_of(self.children)


class RStarTree:
    """Simplified R*-tree.

    Parameters
    ----------
    max_entries:
        Node capacity `M`.  Minimum fill is ``max(2, M * min_fill)``.
    min_fill:
        Fraction of `M` used as the minimum node occupancy (R*-tree uses 0.4).
    reinsert_fraction:
        Fraction of entries removed and reinserted on first overflow
        (R*-tree uses 0.3).
    """

    def __init__(
        self,
        max_entries: int = 16,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
    ):
        if max_entries < 4:
            raise GeometryError("max_entries must be >= 4")
        if not (0.0 < min_fill <= 0.5):
            raise GeometryError("min_fill must be in (0, 0.5]")
        self._max = max_entries
        self._min = max(2, int(max_entries * min_fill))
        self._reinsert = max(1, int(max_entries * reinsert_fraction))
        self._root = _Node(leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, box: Box, value: Any) -> None:
        """Insert a ``(box, value)`` entry."""
        self._insert_entry(_Entry(box, value), allow_reinsert=True)
        self._size += 1

    def _insert_entry(self, entry: _Entry, allow_reinsert: bool) -> None:
        leaf = self._choose_leaf(self._root, entry.lo, entry.hi)
        leaf.children.append(entry)
        self._adjust_upward(leaf, allow_reinsert)

    def _choose_leaf(self, node: _Node, lo: Corner, hi: Corner) -> _Node:
        while not node.leaf:
            children: List[_Node] = node.children
            if children[0].leaf:
                # Children are leaves: minimize overlap enlargement.
                best = self._least_overlap_child(children, lo, hi)
            else:
                best = self._least_enlargement_child(children, lo, hi)
            node = best
        return node

    @staticmethod
    def _least_enlargement_child(children: List[_Node], lo: Corner, hi: Corner) -> _Node:
        best = None
        best_key = None
        for child in children:
            lo_c, hi_c = child.lo, child.hi
            key = (
                _enlargement(lo_c, hi_c, lo, hi),
                _volume(lo_c, hi_c),
                _margin(lo_c, hi_c),
            )
            if best_key is None or key < best_key:
                best_key = key
                best = child
        assert best is not None
        return best

    @staticmethod
    def _least_overlap_child(children: List[_Node], lo: Corner, hi: Corner) -> _Node:
        best = None
        best_key = None
        bounds = [(c.lo, c.hi) for c in children]
        for i, child in enumerate(children):
            lo_c, hi_c = bounds[i]
            lo_g, hi_g = _union(lo_c, hi_c, lo, hi)
            overlap_delta = 0.0
            for j, (lo_o, hi_o) in enumerate(bounds):
                if j == i:
                    continue
                grown = _overlap(lo_g, hi_g, lo_o, hi_o)
                if grown:  # the child lies inside its grown bounds: 0 implies 0
                    overlap_delta += grown
                    overlap_delta -= _overlap(lo_c, hi_c, lo_o, hi_o)
            key = (
                overlap_delta,
                _enlargement(lo_c, hi_c, lo, hi),
                _volume(lo_c, hi_c),
            )
            if best_key is None or key < best_key:
                best_key = key
                best = child
        assert best is not None
        return best

    def _adjust_upward(self, node: _Node, allow_reinsert: bool) -> None:
        while node is not None:
            node.recompute_box()
            if len(node.children) > self._max:
                if allow_reinsert and node is not self._root:
                    self._reinsert_overflow(node)
                    allow_reinsert = False
                else:
                    self._split(node)
            node = node.parent  # type: ignore[assignment]

    def _reinsert_overflow(self, node: _Node) -> None:
        """Forced reinsertion: remove entries farthest from the node center
        and insert them again from the root."""
        node.recompute_box()
        cx, cy, cz = [(l + h) / 2.0 for l, h in zip(node.lo, node.hi)]

        def dist(child) -> float:
            dx = (child.lo[0] + child.hi[0]) / 2.0 - cx
            dy = (child.lo[1] + child.hi[1]) / 2.0 - cy
            dz = (child.lo[2] + child.hi[2]) / 2.0 - cz
            return dx * dx + dy * dy + dz * dz

        node.children.sort(key=dist)
        spill = node.children[-self._reinsert:]
        node.children = node.children[: -self._reinsert]
        self._propagate_boxes(node)
        for child in spill:
            if node.leaf:
                self._insert_entry(child, allow_reinsert=False)
            else:
                child.parent = None
                self._insert_subtree(child)

    def _insert_subtree(self, subtree: _Node) -> None:
        """Reinsert an internal child at its original level (here: one above
        the leaves; sufficient because we only reinsert from one overflow)."""
        node = self._root
        target_height = self._height(subtree)
        while self._height(node) > target_height + 1 and not node.leaf:
            node = self._least_enlargement_child(node.children, subtree.lo, subtree.hi)
        subtree.parent = node
        node.children.append(subtree)
        self._adjust_upward(node, allow_reinsert=False)

    def _height(self, node: _Node) -> int:
        h = 0
        while not node.leaf:
            node = node.children[0]
            h += 1
        return h

    def _split(self, node: _Node) -> None:
        group_a, group_b = self._rstar_split(node.children)
        if node is self._root:
            new_root = _Node(leaf=False)
            left = _Node(leaf=node.leaf)
            right = _Node(leaf=node.leaf)
            left.children = group_a
            right.children = group_b
            for child in left.children:
                if not node.leaf:
                    child.parent = left
            for child in right.children:
                if not node.leaf:
                    child.parent = right
            left.recompute_box()
            right.recompute_box()
            left.parent = new_root
            right.parent = new_root
            new_root.children = [left, right]
            new_root.recompute_box()
            self._root = new_root
            return
        sibling = _Node(leaf=node.leaf)
        node.children = group_a
        sibling.children = group_b
        if not node.leaf:
            for child in node.children:
                child.parent = node
            for child in sibling.children:
                child.parent = sibling
        node.recompute_box()
        sibling.recompute_box()
        parent = node.parent
        assert parent is not None
        sibling.parent = parent
        parent.children.append(sibling)
        parent.recompute_box()

    def _rstar_split(self, children: List[Any]) -> Tuple[List[Any], List[Any]]:
        """R*-tree split: choose axis by minimum margin sum, then the
        distribution with least overlap (ties: least combined volume)."""
        m = self._min
        splits = range(m, len(children) - m + 1)
        best_margin = None
        for axis in range(3):
            ordered = sorted(children, key=lambda c: (c.lo[axis], c.hi[axis]))
            prefix, suffix = _sweep(ordered)
            margin = 0.0
            for k in splits:
                margin += _margin(*prefix[k - 1]) + _margin(*suffix[k])
            if best_margin is None or margin < best_margin:
                best_margin = margin
                best = (ordered, prefix, suffix)
        ordered, prefix, suffix = best
        best_split = None
        best_key = None
        for k in splits:
            left, right = prefix[k - 1], suffix[k]
            key = (
                _overlap(*left, *right),
                _volume(*left) + _volume(*right),
                _margin(*left) + _margin(*right),
            )
            if best_key is None or key < best_key:
                best_key = key
                best_split = k
        assert best_split is not None
        return list(ordered[:best_split]), list(ordered[best_split:])

    def _propagate_boxes(self, node: Optional[_Node]) -> None:
        while node is not None:
            node.recompute_box()
            node = node.parent

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(self, box: Box) -> List[Any]:
        """Values of all entries whose boxes intersect ``box``."""
        return [entry.value for entry in self._hits(box)]

    def search_entries(self, box: Box) -> List[Tuple[Box, Any]]:
        """Like :meth:`search` but returns ``(box, value)`` pairs."""
        return [(entry.box, entry.value) for entry in self._hits(box)]

    def _hits(self, box: Box) -> List[_Entry]:
        lo, hi = box.lo, box.hi
        out: List[_Entry] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.lo is None or not _intersects(node.lo, node.hi, lo, hi):
                continue
            if node.leaf:
                for entry in node.children:
                    if _intersects(entry.lo, entry.hi, lo, hi):
                        out.append(entry)
            else:
                stack.extend(reversed(node.children))
        return out

    def items(self) -> Iterator[Tuple[Box, Any]]:
        """Iterate over every ``(box, value)`` entry in the tree."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                for entry in node.children:
                    yield (entry.box, entry.value)
            else:
                stack.extend(node.children)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, box: Box, predicate: Callable[[Any], bool]) -> int:
        """Remove entries intersecting ``box`` whose value satisfies
        ``predicate``.  Returns the number of entries removed."""
        removed: List[_Entry] = []
        self._delete_from(self._root, box.lo, box.hi, predicate, removed)
        if removed:
            self._size -= len(removed)
            self._condense()
        return len(removed)

    def _delete_from(
        self,
        node: _Node,
        lo: Corner,
        hi: Corner,
        predicate: Callable[[Any], bool],
        removed: List[_Entry],
    ) -> None:
        if node.lo is None or not _intersects(node.lo, node.hi, lo, hi):
            return
        if node.leaf:
            keep = []
            for entry in node.children:
                if _intersects(entry.lo, entry.hi, lo, hi) and predicate(entry.value):
                    removed.append(entry)
                else:
                    keep.append(entry)
            node.children = keep
            return
        for child in node.children:
            self._delete_from(child, lo, hi, predicate, removed)

    def _condense(self) -> None:
        """Rebuild after deletion: collect orphaned entries from underfull
        nodes and reinsert them.  Simplified full-subtree collection keeps
        the invariants without per-level bookkeeping."""
        orphans: List[_Entry] = []
        self._prune(self._root, orphans)
        self._root.recompute_box()
        # Collapse a root with a single internal child.
        while not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._root.parent = None
        # An internal root can end up with zero children when every subtree
        # was pruned; reset to an empty leaf so insertion stays well-defined.
        if not self._root.leaf and not self._root.children:
            self._root = _Node(leaf=True)
        for entry in orphans:
            self._insert_entry(entry, allow_reinsert=False)

    def _prune(self, node: _Node, orphans: List[_Entry]) -> bool:
        """Post-order prune; returns True if ``node`` should be removed."""
        if node.leaf:
            node.recompute_box()
            return node is not self._root and len(node.children) < self._min
        keep = []
        for child in node.children:
            if self._prune(child, orphans):
                self._collect_entries(child, orphans)
            else:
                keep.append(child)
        node.children = keep
        node.recompute_box()
        return node is not self._root and len(node.children) < self._min

    def _collect_entries(self, node: _Node, out: List[_Entry]) -> None:
        if node.leaf:
            out.extend(node.children)
            return
        for child in node.children:
            self._collect_entries(child, out)

    # ------------------------------------------------------------------
    # Invariant checking (used by the test suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if any structural invariant is broken."""
        self._check_node(self._root, is_root=True)
        count = sum(1 for _ in self.items())
        assert count == self._size, f"size {self._size} != entry count {count}"
        # All leaves at the same depth.
        depths = set()
        self._leaf_depths(self._root, 0, depths)
        assert len(depths) <= 1, f"leaves at multiple depths: {depths}"

    def _leaf_depths(self, node: _Node, depth: int, out: set) -> None:
        if node.leaf:
            out.add(depth)
            return
        for child in node.children:
            self._leaf_depths(child, depth + 1, out)

    def _check_node(self, node: _Node, is_root: bool) -> None:
        if not is_root:
            assert len(node.children) >= self._min, "underfull node"
        assert len(node.children) <= self._max, "overfull node"
        if node.children:
            assert (node.lo, node.hi) == _bounds_of(node.children), (
                "node bounds are not its children's bounding box"
            )
        if not node.leaf:
            for child in node.children:
                assert child.parent is node, "broken parent pointer"
                self._check_node(child, is_root=False)
