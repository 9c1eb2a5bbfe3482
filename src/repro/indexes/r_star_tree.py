"""R*-tree with forced reinsertion, plus an STR bulk loader.

The RdNN-Tree baseline [51] and the TPL comparator [43] both live on top of
an R-tree-family index; the paper's scalability story (Section 8.3) hinges on
how this structure degrades with dimensionality [47].  This module implements
the R*-tree of Beckmann et al. (SIGMOD 1990):

* **ChooseSubtree** — minimum overlap enlargement at the leaf level,
  minimum area enlargement above it;
* **overflow treatment** — forced reinsertion of the 30% of entries
  farthest from the node's MBR center, once per level per insertion;
* **R\\* split** — split axis chosen by minimum margin sum, distribution
  chosen by minimum overlap (ties by area).

A Sort-Tile-Recursive (STR) bulk loader is provided for building large trees
quickly in benchmarks; insert-based and bulk-loaded trees answer identical
queries.

Query-side, the tree offers the library-wide incremental-NN protocol.  The
lower bound for a box is ``d(q, clip(q, lo, hi))`` — exact for every
Minkowski metric — so the index composes with the metric abstraction even
though rectangles are only *efficient* for low-dimensional data (which is
precisely the effect the paper's experiments demonstrate).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from repro.indexes.base import Index
from repro.indexes.batch_tools import (
    KSmallestKeeper,
    box_lower_bounds,
    check_exclude_indices,
    mask_excluded,
)
from repro.utils.priority_queue import MinPriorityQueue
from repro.utils.validation import (
    as_query_point,
    as_query_rows,
    check_k,
    check_positive_int,
)

__all__ = ["RStarTreeIndex"]


class _Entry:
    """An MBR plus either a child node (internal) or a point id (leaf)."""

    __slots__ = ("lo", "hi", "child", "point_id")

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        child: Optional["_RNode"] = None,
        point_id: int = -1,
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.child = child
        self.point_id = point_id

    @property
    def is_point(self) -> bool:
        return self.child is None


class _RNode:
    __slots__ = ("is_leaf", "entries", "parent")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[_Entry] = []
        self.parent: Optional["_RNode"] = None


def _area(lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.prod(hi - lo))


def _margin(lo: np.ndarray, hi: np.ndarray) -> float:
    return float((hi - lo).sum())


def _union(entries: list[_Entry]) -> tuple[np.ndarray, np.ndarray]:
    lo = entries[0].lo.copy()
    hi = entries[0].hi.copy()
    for entry in entries[1:]:
        np.minimum(lo, entry.lo, out=lo)
        np.maximum(hi, entry.hi, out=hi)
    return lo, hi


def _overlap(
    lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray
) -> float:
    inter = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    if (inter <= 0.0).any():
        return 0.0
    return float(np.prod(inter))


def _overlap_matrix(
    lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray
) -> np.ndarray:
    """Pairwise overlap volumes between two stacks of boxes, ``(a, b)``."""
    inter = np.minimum(hi_a[:, None, :], hi_b[None, :, :]) - np.maximum(
        lo_a[:, None, :], lo_b[None, :, :]
    )
    positive = (inter > 0.0).all(axis=2)
    return np.where(positive, np.prod(inter, axis=2), 0.0)


class RStarTreeIndex(Index):
    """R*-tree over point data with incremental NN search."""

    name = "r-star-tree"
    supports_insert = True
    supports_remove = True
    #: Inserts run in-place node splits and forced re-insertions — a
    #: snapshot view sharing the structure can observe a half-split
    #: node.  The Service layer drains readers before mutating.
    snapshot_stable = False

    def __init__(
        self,
        data,
        metric=None,
        capacity: int = 32,
        bulk_load: bool = True,
    ) -> None:
        super().__init__(data, metric)
        self.capacity = check_positive_int(capacity, name="capacity")
        if self.capacity < 4:
            raise ValueError(f"capacity must be >= 4, got {capacity}")
        self.min_fill = max(2, int(0.4 * self.capacity))
        self._reinsert_count = max(1, int(0.3 * self.capacity))
        self._height = 1
        self._root = _RNode(is_leaf=True)
        n = self._points.shape[0]
        if bulk_load and n > self.capacity:
            self._root = self._bulk_load(np.arange(n, dtype=np.intp))
        else:
            for point_id in range(n):
                self._insert_entry(self._point_entry(point_id), level=0)

    def _repr_knobs(self) -> str:
        return f"capacity={self.capacity}"

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------
    def _point_entry(self, point_id: int) -> _Entry:
        p = self._points[point_id]
        return _Entry(p.copy(), p.copy(), point_id=int(point_id))

    def _bulk_load(self, ids: np.ndarray) -> _RNode:
        pts = self._points[ids]
        tiles = self._str_tiles(pts)
        level_nodes: list[_RNode] = []
        los: list[np.ndarray] = []
        his: list[np.ndarray] = []
        for tile in tiles:
            node = _RNode(is_leaf=True)
            for i in tile:
                self._attach(node, self._point_entry(int(ids[i])))
            level_nodes.append(node)
            tile_pts = pts[tile]
            los.append(tile_pts.min(axis=0))
            his.append(tile_pts.max(axis=0))
        self._height = 1
        while len(level_nodes) > 1:
            lo_arr = np.stack(los)
            hi_arr = np.stack(his)
            tiles = self._str_tiles((lo_arr + hi_arr) * 0.5)
            next_nodes: list[_RNode] = []
            next_los: list[np.ndarray] = []
            next_his: list[np.ndarray] = []
            for tile in tiles:
                node = _RNode(is_leaf=False)
                for i in tile:
                    self._attach(
                        node,
                        _Entry(
                            lo_arr[i].copy(), hi_arr[i].copy(), child=level_nodes[i]
                        ),
                    )
                next_nodes.append(node)
                next_los.append(lo_arr[tile].min(axis=0))
                next_his.append(hi_arr[tile].max(axis=0))
            level_nodes, los, his = next_nodes, next_los, next_his
            self._height += 1
        return level_nodes[0]

    def _str_tiles(self, centers: np.ndarray) -> list[np.ndarray]:
        """Sort-Tile-Recursive ordering over entry centers, fully vectorized.

        Returns positional index arrays, one per node: entries sorted
        stably by first-axis center, cut into ~sqrt(n/capacity) vertical
        slabs, each slab sorted stably by the second axis and chunked into
        capacity-sized runs.  The orderings are identical to the historical
        entry-list packer, so bulk-loaded tree shapes are unchanged.
        """
        n = centers.shape[0]
        if n <= self.capacity:
            return [np.arange(n, dtype=np.intp)]
        n_nodes = math.ceil(n / self.capacity)
        order = np.argsort(centers[:, 0], kind="stable")
        # Number of vertical slabs ~ sqrt of the node count.
        n_slabs = max(1, int(math.ceil(math.sqrt(n_nodes))))
        slab_size = math.ceil(n / n_slabs)
        sort_dim = 1 if centers.shape[1] > 1 else 0
        tiles: list[np.ndarray] = []
        for start in range(0, n, slab_size):
            slab = order[start : start + slab_size]
            slab = slab[np.argsort(centers[slab, sort_dim], kind="stable")]
            for node_start in range(0, slab.shape[0], self.capacity):
                tiles.append(slab[node_start : node_start + self.capacity])
        return tiles

    def _attach(self, node: _RNode, entry: _Entry) -> None:
        node.entries.append(entry)
        if entry.child is not None:
            entry.child.parent = node

    # ------------------------------------------------------------------
    # Insertion (R* algorithm)
    # ------------------------------------------------------------------
    def insert(self, point) -> int:
        point_id = self._append_point(point)
        self._insert_entry(self._point_entry(point_id), level=0)
        return point_id

    def _insert_entry(self, entry: _Entry, level: int) -> None:
        # One forced-reinsert pass is allowed per level per insertion.
        self._reinserted_levels: set[int] = set()
        self._insert_at_level(entry, level)

    def _insert_at_level(self, entry: _Entry, level: int) -> None:
        node = self._choose_subtree(entry, level)
        self._attach(node, entry)
        if len(node.entries) > self.capacity:
            self._overflow(node, level)

    def _node_level(self, node: _RNode) -> int:
        """Level of a node: leaves are level 0.

        Derived from the maintained ``self._height`` and the node's depth
        (parent-chain length) — O(1) for the root, where the insertion
        descent starts, instead of the historical walk down child pointers
        to a leaf on every single insert.
        """
        depth = 0
        current = node
        while current.parent is not None:
            depth += 1
            current = current.parent
        return self._height - 1 - depth

    def _choose_subtree(self, entry: _Entry, level: int) -> _RNode:
        node = self._root
        depth_remaining = self._node_level(node) - level
        while depth_remaining > 0:
            child_is_leaf = depth_remaining == 1 and node.entries[0].child.is_leaf
            los = np.stack([candidate.lo for candidate in node.entries])
            his = np.stack([candidate.hi for candidate in node.entries])
            enl_lo = np.minimum(los, entry.lo)
            enl_hi = np.maximum(his, entry.hi)
            areas = np.prod(his - los, axis=1)
            enlargements = np.prod(enl_hi - enl_lo, axis=1) - areas
            if child_is_leaf:
                # Minimum overlap enlargement among siblings: each
                # candidate's summed overlap with the other entries, before
                # and after enlargement, in two (f, f) box-intersection
                # kernels with the self-overlap diagonal removed.
                before = _overlap_matrix(los, his, los, his)
                after = _overlap_matrix(enl_lo, enl_hi, los, his)
                overlap_growth = (
                    after.sum(axis=1)
                    - np.diagonal(after)
                    - (before.sum(axis=1) - np.diagonal(before))
                )
                ranking = np.lexsort((areas, enlargements, overlap_growth))
            else:
                ranking = np.lexsort((areas, enlargements))
            best = node.entries[int(ranking[0])]
            np.minimum(best.lo, entry.lo, out=best.lo)
            np.maximum(best.hi, entry.hi, out=best.hi)
            node = best.child
            depth_remaining -= 1
        return node

    def _overflow(self, node: _RNode, level: int) -> None:
        if node is not self._root and level not in self._reinserted_levels:
            self._reinserted_levels.add(level)
            self._force_reinsert(node, level)
        else:
            self._split_node(node)

    def _force_reinsert(self, node: _RNode, level: int) -> None:
        lo, hi = _union(node.entries)
        center = (lo + hi) * 0.5
        dists = [
            float(np.linalg.norm((entry.lo + entry.hi) * 0.5 - center))
            for entry in node.entries
        ]
        order = np.argsort(dists)
        keep = [node.entries[i] for i in order[: -self._reinsert_count]]
        evicted = [node.entries[i] for i in order[-self._reinsert_count :]]
        node.entries = keep
        self._tighten_upward(node)
        for entry in evicted:
            self._insert_at_level(entry, level)

    def _split_node(self, node: _RNode) -> None:
        group_a, group_b = self._rstar_split(node.entries)
        if node is self._root:
            new_root = _RNode(is_leaf=False)
            for group in (group_a, group_b):
                child = _RNode(is_leaf=node.is_leaf)
                for entry in group:
                    self._attach(child, entry)
                lo, hi = _union(group)
                self._attach(new_root, _Entry(lo, hi, child=child))
            self._root = new_root
            self._height += 1
            return
        parent = node.parent
        # Reuse `node` for group A, create a sibling for group B.
        node.entries = []
        for entry in group_a:
            self._attach(node, entry)
        sibling = _RNode(is_leaf=node.is_leaf)
        for entry in group_b:
            self._attach(sibling, entry)
        # Update the parent entry of `node` and add one for the sibling.
        parent_entry = self._find_parent_entry(parent, node)
        parent_entry.lo, parent_entry.hi = _union(node.entries)
        lo, hi = _union(sibling.entries)
        self._attach(parent, _Entry(lo, hi, child=sibling))
        self._tighten_upward(parent)
        if len(parent.entries) > self.capacity:
            self._overflow(parent, self._node_level(parent))

    def _find_parent_entry(self, parent: _RNode, child: _RNode) -> _Entry:
        for entry in parent.entries:
            if entry.child is child:
                return entry
        raise RuntimeError("corrupt tree: child not found in parent")

    def _tighten_upward(self, node: _RNode) -> None:
        current = node
        while current.parent is not None:
            entry = self._find_parent_entry(current.parent, current)
            entry.lo, entry.hi = _union(current.entries)
            current = current.parent

    def _rstar_split(self, entries: list[_Entry]) -> tuple[list[_Entry], list[_Entry]]:
        dim = self.dim
        m = self.min_fill
        best_axis, best_axis_margin = 0, np.inf
        # Choose split axis: minimum total margin over all distributions.
        for axis in range(dim):
            margin_sum = 0.0
            for sorted_entries in self._axis_sorts(entries, axis):
                for split_at in range(m, len(entries) - m + 1):
                    lo_a, hi_a = _union(sorted_entries[:split_at])
                    lo_b, hi_b = _union(sorted_entries[split_at:])
                    margin_sum += _margin(lo_a, hi_a) + _margin(lo_b, hi_b)
            if margin_sum < best_axis_margin:
                best_axis, best_axis_margin = axis, margin_sum
        # Choose distribution on that axis: minimum overlap, ties by area.
        best_split = None
        best_key = None
        for sorted_entries in self._axis_sorts(entries, best_axis):
            for split_at in range(m, len(entries) - m + 1):
                group_a = sorted_entries[:split_at]
                group_b = sorted_entries[split_at:]
                lo_a, hi_a = _union(group_a)
                lo_b, hi_b = _union(group_b)
                key = (
                    _overlap(lo_a, hi_a, lo_b, hi_b),
                    _area(lo_a, hi_a) + _area(lo_b, hi_b),
                )
                if best_key is None or key < best_key:
                    best_split = (list(group_a), list(group_b))
                    best_key = key
        return best_split

    def _axis_sorts(
        self, entries: list[_Entry], axis: int
    ) -> Iterator[list[_Entry]]:
        yield sorted(entries, key=lambda e: (e.lo[axis], e.hi[axis]))
        yield sorted(entries, key=lambda e: (e.hi[axis], e.lo[axis]))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _box_lower_bound(self, query: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
        return self.metric.distance(query, np.clip(query, lo, hi))

    def iter_neighbors(self, query) -> Iterator[tuple[int, float]]:
        query = as_query_point(query, dim=self.dim)
        queue = MinPriorityQueue()
        queue.push(0.0, self._root)
        while queue:
            key, item = queue.pop()
            if isinstance(item, _RNode):
                for entry in item.entries:
                    if entry.is_point:
                        if self._active[entry.point_id]:
                            dist = self.metric.distance(
                                query, self._points[entry.point_id]
                            )
                            queue.push(dist, int(entry.point_id))
                    else:
                        bound = self._box_lower_bound(query, entry.lo, entry.hi)
                        queue.push(bound, entry.child)
            else:
                yield item, key

    def knn_distances(
        self, query_points, k: int, exclude_indices=None, prune_caps=None
    ) -> np.ndarray:
        """Batched k-th NN distances via a pruned block traversal.

        Internal nodes evaluate the MBR lower bounds of *all* their
        entries for the whole active query block with one ``clip`` +
        metric kernel (:func:`~repro.indexes.batch_tools.box_lower_bounds`);
        each subtree is then visited in ascending mean bound with only the
        rows its bound still beats — the per-row radii come from the
        shared :class:`~repro.indexes.batch_tools.KSmallestKeeper` pool
        and shrink as leaves are consumed.  Removed points (lazy removal)
        are skipped at the leaves.
        """
        k = check_k(k)
        queries = as_query_rows(query_points, dim=self.dim, dtype=self._points.dtype)
        m = queries.shape[0]
        exclude = check_exclude_indices(exclude_indices, m)
        keeper = KSmallestKeeper(
            m, k, dtype=self._points.dtype, caps=prune_caps
        )
        if m and self.size:
            rows = np.arange(m, dtype=np.intp)
            self._descend(self._root, rows, queries, exclude, keeper)
        return keeper.result()

    def _descend(
        self,
        node: _RNode,
        rows: np.ndarray,
        queries: np.ndarray,
        exclude: np.ndarray,
        keeper: KSmallestKeeper,
    ) -> None:
        if node.is_leaf:
            ids = np.asarray(
                [
                    entry.point_id
                    for entry in node.entries
                    if self._active[entry.point_id]
                ],
                dtype=np.intp,
            )
            if ids.shape[0]:
                cand = self.metric.pairwise(queries[rows], self._points[ids])
                mask_excluded(cand, ids, exclude[rows])
                keeper.update(rows, cand)
            return
        if not node.entries:
            return
        los = np.stack([entry.lo for entry in node.entries])
        his = np.stack([entry.hi for entry in node.entries])
        bounds = box_lower_bounds(self.metric, queries[rows], los, his)
        for col in np.argsort(bounds.mean(axis=0)):
            sub = rows[bounds[:, col] < keeper.kth[rows]]
            if sub.shape[0]:
                self._descend(
                    node.entries[col].child, sub, queries, exclude, keeper
                )

    def range_count(self, query, radius: float) -> int:
        query = as_query_point(query, dim=self.dim)
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if entry.is_point:
                    if self._active[entry.point_id]:
                        if self.metric.distance(
                            query, self._points[entry.point_id]
                        ) <= radius:
                            count += 1
                elif self._box_lower_bound(query, entry.lo, entry.hi) <= radius:
                    stack.append(entry.child)
        return count

    def remove(self, index: int) -> None:
        # Lazy removal: MBRs stay valid (possibly loose) bounding volumes.
        self._deactivate(index)

    # ------------------------------------------------------------------
    # Introspection (used by the test suite and the RdNN-tree subclass)
    # ------------------------------------------------------------------
    @property
    def root(self) -> _RNode:
        return self._root

    def check_invariants(self) -> None:
        """Verify MBR containment and fan-out bounds; raises AssertionError."""
        reported: set[int] = set()
        stack: list[tuple[_RNode, Optional[_Entry]]] = [(self._root, None)]
        while stack:
            node, routing = stack.pop()
            assert len(node.entries) <= self.capacity, "node overflow"
            if node is not self._root:
                assert len(node.entries) >= 1, "empty non-root node"
            for entry in node.entries:
                if routing is not None:
                    assert (entry.lo >= routing.lo - 1e-12).all(), "MBR breach (lo)"
                    assert (entry.hi <= routing.hi + 1e-12).all(), "MBR breach (hi)"
                if entry.is_point:
                    assert node.is_leaf, "point entry in internal node"
                    reported.add(entry.point_id)
                else:
                    assert not node.is_leaf, "child entry in leaf node"
                    assert entry.child.parent is node, "broken parent link"
                    stack.append((entry.child, entry))
        assert reported == set(range(self._points.shape[0])), (
            "leaf entries do not cover all points"
        )
