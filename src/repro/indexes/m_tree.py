"""M-tree: a dynamic, balanced index for general metric spaces.

Implements the structure of Ciaccia, Patella and Zezula (VLDB 1997), which
the MRkNNCoP baseline builds on.  Every node holds up to ``capacity``
entries; internal entries are *routing objects* — a center point, a covering
radius bounding the subtree, and the distance to the parent center — and
leaf entries are data points with their distance to the parent center.

Insertion descends to the leaf whose routing ball needs the least
enlargement; overflowing nodes are split with the mM_RAD promotion policy
(sample candidate promotion pairs, partition by generalized hyperplane,
minimize the larger covering radius).  Splits propagate upward, growing a
new root when the old one overflows, so the tree stays balanced.

Construction defaults to a **bulk load** (``bulk_build=True``): sampled
pivots recursively partition the whole id block into capacity-sized
nodes, with every distance — assignment, covering radii, parent
distances — produced by vectorized ``Metric.to_point`` columns instead
of one scalar metric call per (point, node) pair.  Covering radii come
out *exact* (the max of each pivot's distance column over its block)
rather than the accumulated upper bounds the insert path maintains, so
the bulk tree is at least as tight as an insert-built one; both answer
identical queries.  The insert path remains for dynamic use and as the
benchmark baseline (``benchmarks/test_build_backends.py``).

The incremental search is best-first over the bound

    d(q, y) >= max(0, d(q, center) - radius)        for y under a routing entry,

which is exact for any metric by the triangle inequality.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.indexes.base import Index
from repro.indexes.batch_tools import (
    KSmallestKeeper,
    check_exclude_indices,
    mask_excluded,
)
from repro.utils.priority_queue import MinPriorityQueue
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    as_query_point,
    as_query_rows,
    check_k,
    check_positive_int,
)

__all__ = ["MTreeIndex"]


class _Entry:
    """Routing entry (points at a child node) or leaf entry (a data point)."""

    __slots__ = ("center_id", "radius", "child", "dist_to_parent")

    def __init__(
        self,
        center_id: int,
        radius: float = 0.0,
        child: Optional["_MNode"] = None,
    ) -> None:
        self.center_id = center_id
        self.radius = radius
        self.child = child
        self.dist_to_parent = 0.0

    @property
    def is_leaf_entry(self) -> bool:
        return self.child is None


class _MNode:
    __slots__ = ("is_leaf", "entries", "parent_entry", "parent_node")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[_Entry] = []
        self.parent_entry: Optional[_Entry] = None
        self.parent_node: Optional["_MNode"] = None


class MTreeIndex(Index):
    """Dynamic M-tree supporting incremental forward NN search."""

    name = "m-tree"
    supports_insert = True
    supports_remove = True  # lazy removal: points are masked, not detached
    #: Inserts split routing nodes in place (entries are redistributed
    #: between the two halves while readers may be mid-descent), so
    #: snapshot views sharing the structure are not mutation-safe.
    snapshot_stable = False

    def __init__(
        self,
        data,
        metric=None,
        capacity: int = 32,
        seed=0,
        bulk_build: bool = True,
    ) -> None:
        super().__init__(data, metric)
        self.capacity = check_positive_int(capacity, name="capacity")
        if self.capacity < 4:
            raise ValueError(f"capacity must be >= 4, got {capacity}")
        self._rng = ensure_rng(seed)
        self._root = _MNode(is_leaf=True)
        n = self._points.shape[0]
        if bulk_build and n > self.capacity:
            self._root = self._bulk_load(np.arange(n, dtype=np.intp))
        else:
            for point_id in range(n):
                self._insert_id(point_id)

    def _repr_knobs(self) -> str:
        return f"capacity={self.capacity}"

    # ------------------------------------------------------------------
    # Bulk loading (sampled-pivot recursive partitioning)
    # ------------------------------------------------------------------
    def _pivot_columns(self, ids: np.ndarray, pivots: np.ndarray) -> np.ndarray:
        """Distances from every id row to every pivot, one ``to_point``
        column per pivot.  Columns are bit-identical to scalar
        ``_dist_ids`` calls (the invariant checker and the insert path
        compare against the same kernel), which a ``pairwise`` block
        would not guarantee."""
        block = self._points[ids]
        out = np.empty((ids.shape[0], pivots.shape[0]), dtype=np.float64)
        for col, pivot in enumerate(pivots):
            out[:, col] = self.metric.to_point(block, self._points[pivot])
        return out

    def _bulk_load(self, ids: np.ndarray) -> _MNode:
        pivot = int(ids[self._rng.integers(ids.shape[0])])
        d_pivot = self.metric.to_point(self._points[ids], self._points[pivot])
        routing = self._bulk_subtree(ids, pivot, d_pivot)
        root = routing.child
        root.parent_entry = None  # the root carries no routing entry
        return root

    def _bulk_subtree(
        self, ids: np.ndarray, pivot_id: int, d_pivot: np.ndarray
    ) -> _Entry:
        """Build a subtree over ``ids`` and return its routing entry.

        ``d_pivot`` holds d(pivot, x) for every x in ``ids``; the covering
        radius is its exact maximum.  The caller fills in
        ``dist_to_parent``.
        """
        radius = float(d_pivot.max()) if d_pivot.shape[0] else 0.0
        if ids.shape[0] <= self.capacity:
            node = _MNode(is_leaf=True)
            for pos in range(ids.shape[0]):
                entry = _Entry(int(ids[pos]))
                entry.dist_to_parent = float(d_pivot[pos])
                node.entries.append(entry)
            routing = _Entry(pivot_id, radius=radius, child=node)
            node.parent_entry = routing
            return routing
        # Sample one pivot per child and assign every id to its nearest
        # pivot with one distance column per pivot.
        fanout = min(self.capacity, -(-ids.shape[0] // self.capacity))
        pivot_pos = np.sort(
            self._rng.choice(ids.shape[0], size=fanout, replace=False)
        )
        pivots = ids[pivot_pos]
        dists = self._pivot_columns(ids, pivots)
        assign = np.argmin(dists, axis=1)
        groups = [np.flatnonzero(assign == col) for col in range(fanout)]
        if max(group.shape[0] for group in groups) == ids.shape[0]:
            # Degenerate geometry (e.g. all points identical): nearest-pivot
            # assignment made no progress, so slice the block evenly instead.
            groups = [g for g in np.array_split(np.arange(ids.shape[0]), fanout)]
            pivot_pos = np.asarray([int(g[0]) for g in groups], dtype=np.intp)
            pivots = ids[pivot_pos]
            dists = self._pivot_columns(ids, pivots)
        node = _MNode(is_leaf=False)
        for col, group in enumerate(groups):
            if group.shape[0] == 0:
                continue
            child_entry = self._bulk_subtree(
                ids[group], int(pivots[col]), dists[group, col]
            )
            child_entry.dist_to_parent = float(d_pivot[pivot_pos[col]])
            child_entry.child.parent_node = node
            node.entries.append(child_entry)
        routing = _Entry(pivot_id, radius=radius, child=node)
        node.parent_entry = routing
        return routing

    # ------------------------------------------------------------------
    # Construction / maintenance
    # ------------------------------------------------------------------
    def _dist_ids(self, a: int, b: int) -> float:
        return self.metric.distance(self._points[a], self._points[b])

    def _entry_centers(self, entries: list[_Entry]) -> np.ndarray:
        return np.fromiter(
            (entry.center_id for entry in entries), np.intp, count=len(entries)
        )

    def _insert_id(self, point_id: int) -> None:
        point = self._points[point_id]
        node = self._root
        d_parent = 0.0
        # Descend to a leaf, enlarging covering radii along the way.  Each
        # level evaluates all entry centers with one to_point call; the
        # chosen entry's distance is carried so neither the enlargement
        # check nor the leaf entry's parent distance re-issues a call.
        while not node.is_leaf:
            dists = self.metric.to_point(
                self._points[self._entry_centers(node.entries)], point
            )
            radii = np.fromiter(
                (entry.radius for entry in node.entries),
                np.float64,
                count=len(node.entries),
            )
            inside = dists <= radii
            if inside.any():
                best_col = int(np.argmin(np.where(inside, dists, np.inf)))
            else:
                best_col = int(np.argmin(dists - radii))
            best = node.entries[best_col]
            d_parent = float(dists[best_col])
            if d_parent > best.radius:
                best.radius = d_parent
            node = best.child
        entry = _Entry(point_id)
        if node.parent_entry is not None:
            entry.dist_to_parent = d_parent
        node.entries.append(entry)
        if len(node.entries) > self.capacity:
            self._split(node)

    def _split(self, node: _MNode) -> None:
        entries = node.entries
        ids = [e.center_id for e in entries]
        promo_a, promo_b = self._promote(ids)
        centers = self._points[self._entry_centers(entries)]
        d_a = self.metric.to_point(centers, self._points[promo_a])
        d_b = self.metric.to_point(centers, self._points[promo_b])
        group_a: list[_Entry] = []
        group_b: list[_Entry] = []
        for pos, entry in enumerate(entries):
            (group_a if d_a[pos] <= d_b[pos] else group_b).append(entry)
        # Guard against empty partitions under pathological ties.
        if not group_a:
            group_a.append(group_b.pop())
        if not group_b:
            group_b.append(group_a.pop())

        node_a = _MNode(is_leaf=node.is_leaf)
        node_b = _MNode(is_leaf=node.is_leaf)
        entry_a = self._make_routing_entry(promo_a, group_a, node_a)
        entry_b = self._make_routing_entry(promo_b, group_b, node_b)

        parent = node.parent_node
        if parent is None:
            new_root = _MNode(is_leaf=False)
            self._adopt(new_root, entry_a)
            self._adopt(new_root, entry_b)
            self._root = new_root
            return
        parent.entries.remove(node.parent_entry)
        self._adopt(parent, entry_a)
        self._adopt(parent, entry_b)
        if len(parent.entries) > self.capacity:
            self._split(parent)

    def _promote(self, ids: list[int]) -> tuple[int, int]:
        """mM_RAD-style promotion: sample pairs, pick the best separation."""
        n = len(ids)
        n_samples = min(10, n * (n - 1) // 2)
        pairs = [self._rng.choice(n, size=2, replace=False) for _ in range(n_samples)]
        if not pairs:
            return ids[0], ids[1]
        left = np.asarray([ids[int(i)] for i, _ in pairs], dtype=np.intp)
        right = np.asarray([ids[int(j)] for _, j in pairs], dtype=np.intp)
        scores = self.metric.paired(self._points[left], self._points[right])
        best = int(np.argmax(scores))
        return int(left[best]), int(right[best])

    def _make_routing_entry(
        self, center_id: int, group: list[_Entry], child: _MNode
    ) -> _Entry:
        child.entries = group
        dists = self.metric.to_point(
            self._points[self._entry_centers(group)], self._points[center_id]
        )
        radius = 0.0
        for pos, entry in enumerate(group):
            d = float(dists[pos])
            entry.dist_to_parent = d
            reach = d if entry.is_leaf_entry else d + entry.radius
            if reach > radius:
                radius = reach
            if not entry.is_leaf_entry:
                entry.child.parent_node = child
        routing = _Entry(center_id, radius=radius, child=child)
        child.parent_entry = routing
        for entry in group:
            if not entry.is_leaf_entry:
                entry.child.parent_entry = entry
        return routing

    def _adopt(self, parent: _MNode, entry: _Entry) -> None:
        parent.entries.append(entry)
        entry.child.parent_node = parent
        entry.child.parent_entry = entry
        if parent.parent_entry is not None:
            entry.dist_to_parent = self._dist_ids(
                parent.parent_entry.center_id, entry.center_id
            )

    @property
    def root(self) -> _MNode:
        """The root node (read-only structural access for analyses built
        on top of the tree, e.g. MRkNNCoP's aggregated bounds)."""
        return self._root

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def iter_neighbors(self, query) -> Iterator[tuple[int, float]]:
        query = as_query_point(query, dim=self.dim)
        queue = MinPriorityQueue()
        queue.push(0.0, self._root)
        while queue:
            key, item = queue.pop()
            if isinstance(item, _MNode):
                for entry in item.entries:
                    d = self.metric.distance(
                        query, self._points[entry.center_id]
                    )
                    if entry.is_leaf_entry:
                        if self._active[entry.center_id]:
                            queue.push(d, int(entry.center_id))
                    else:
                        queue.push(max(0.0, d - entry.radius), entry.child)
            else:
                yield item, key

    def knn_distances(
        self, query_points, k: int, exclude_indices=None, prune_caps=None
    ) -> np.ndarray:
        """Batched k-th NN distances via a pruned block traversal.

        Each visited node evaluates the active query block against all of
        its entry centers with one pairwise kernel.  Leaf entries feed the
        shared :class:`~repro.indexes.batch_tools.KSmallestKeeper` pool
        directly (removed points' columns are masked to ``inf`` — removal
        is lazy here); routing entries lower the center distances by their
        covering radius to bound the subtree, and query rows whose running
        k-th smallest distance already prunes it are deactivated before
        descending.  Subtrees are visited in ascending mean bound so radii
        shrink before the far ones are attempted.
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
            self._descend(self._root, rows, np.zeros(m), queries, exclude, keeper)
        return keeper.result()

    def _descend(
        self,
        node: _MNode,
        rows: np.ndarray,
        bounds: np.ndarray,
        queries: np.ndarray,
        exclude: np.ndarray,
        keeper: KSmallestKeeper,
    ) -> None:
        alive = bounds < keeper.kth[rows]
        rows = rows[alive]
        if rows.shape[0] == 0 or not node.entries:
            return
        center_ids = np.asarray(
            [entry.center_id for entry in node.entries], dtype=np.intp
        )
        dists = self.metric.pairwise(queries[rows], self._points[center_ids])
        if node.is_leaf:
            cand = dists
            inactive = ~self._active[center_ids]
            if inactive.any():
                cand[:, inactive] = np.inf
            mask_excluded(cand, center_ids, exclude[rows])
            keeper.update(rows, cand)
            return
        radii = np.asarray([entry.radius for entry in node.entries])
        child_bounds = np.maximum(0.0, dists - radii[None, :])
        for col in np.argsort(child_bounds.mean(axis=0)):
            self._descend(
                node.entries[col].child,
                rows,
                child_bounds[:, col],
                queries,
                exclude,
                keeper,
            )

    def range_count(self, query, radius: float) -> int:
        query = as_query_point(query, dim=self.dim)
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                d = self.metric.distance(query, self._points[entry.center_id])
                if entry.is_leaf_entry:
                    if d <= radius and self._active[entry.center_id]:
                        count += 1
                elif d - entry.radius <= radius:
                    stack.append(entry.child)
        return count

    # ------------------------------------------------------------------
    # Dynamic operations
    # ------------------------------------------------------------------
    def insert(self, point) -> int:
        point_id = self._append_point(point)
        self._insert_id(point_id)
        return point_id

    def remove(self, index: int) -> None:
        # Lazy removal: the routing structure keeps the point as a pivot but
        # queries never report it.  Covering radii remain valid upper bounds.
        self._deactivate(index)

    # ------------------------------------------------------------------
    # Invariant checking (used by the test suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify covering-radius and parent-distance invariants.

        The M-tree guarantee is that every routing ball covers all *points*
        stored beneath it (not that child balls nest inside parent balls —
        insertion does not maintain the stronger property, and the search
        bound does not need it).
        """
        stack: list[tuple[_MNode, Optional[_Entry]]] = [(self._root, None)]
        reported: set[int] = set()
        while stack:
            node, routing = stack.pop()
            assert len(node.entries) <= self.capacity, "node overflow"
            for entry in node.entries:
                if routing is not None:
                    d = self._dist_ids(routing.center_id, entry.center_id)
                    assert abs(d - entry.dist_to_parent) <= 1e-9, (
                        "stale parent distance"
                    )
                if entry.is_leaf_entry:
                    reported.add(entry.center_id)
                else:
                    assert entry.child.parent_entry is entry, "broken child link"
                    subtree_ids = self._collect_points(entry.child)
                    dists = self.metric.to_point(
                        self._points[np.asarray(subtree_ids, dtype=np.intp)],
                        self._points[entry.center_id],
                    )
                    assert float(dists.max()) <= entry.radius + 1e-9, (
                        "covering radius does not cover subtree points"
                    )
                    stack.append((entry.child, entry))
        expected = set(range(self._points.shape[0]))
        assert reported == expected, "leaf entries do not cover all points"

    def _collect_points(self, node: _MNode) -> list[int]:
        ids: list[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            for entry in current.entries:
                if entry.is_leaf_entry:
                    ids.append(entry.center_id)
                else:
                    stack.append(entry.child)
        return ids
