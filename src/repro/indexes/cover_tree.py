"""Cover tree with dynamic insert/remove and incremental NN search.

The paper (Section 7.1) uses the cover tree of Beygelzimer, Kakade and
Langford as the incremental-kNN back-end for all low/medium-dimensional
datasets.  This module implements the *simplified* cover tree of Izbicki and
Shelton (ICML 2015), which maintains only the covering invariant:

    every child ``c`` of a node ``p`` satisfies ``d(p, c) <= covdist(p)``,
    where ``covdist(p) = 2 ** p.level`` and ``c.level = p.level - 1``.

Each node additionally caches ``maxdist`` — an upper bound on the distance
from the node's point to any point in its subtree — which yields the
best-first search bound

    d(q, y) >= d(q, node.point) - node.maxdist        for y in subtree(node).

The incremental search is a single priority queue mixing exact point
distances and subtree lower bounds; points are emitted when they reach the
queue front, guaranteeing nondecreasing order (the contract required by
RDT's filter phase).

Removal detaches the node and re-inserts the points of its orphaned
subtree — the standard approach for cover trees, adequate because RDT's
dynamic scenarios (Section 1: warehouses, streams) remove points far less
often than they query.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from repro.indexes.base import Index
from repro.indexes.batch_tools import (
    KSmallestKeeper,
    check_exclude_indices,
    mask_excluded,
)
from repro.utils.priority_queue import MinPriorityQueue
from repro.utils.validation import as_query_point, as_query_rows, check_k

__all__ = ["CoverTreeIndex"]


class _Node:
    __slots__ = ("point_id", "level", "children", "maxdist", "parent")

    def __init__(self, point_id: int, level: int, parent: Optional["_Node"] = None):
        self.point_id = point_id
        self.level = level
        self.children: list[_Node] = []
        self.maxdist = 0.0
        self.parent = parent

    def covdist(self) -> float:
        return 2.0**self.level


class CoverTreeIndex(Index):
    """Simplified cover tree (Izbicki & Shelton 2015) over an arbitrary metric."""

    name = "cover-tree"
    supports_insert = True
    supports_remove = True
    #: Inserts rewire nodes in place and removals eagerly detach a
    #: subtree and re-insert its orphans — snapshot views share that
    #: structure, so concurrent structural mutation can corrupt their
    #: reads.  The Service layer drains readers before mutating.
    snapshot_stable = False

    def __init__(self, data, metric=None, batch_build: bool = True) -> None:
        super().__init__(data, metric)
        self._root: Optional[_Node] = None
        self._nodes: dict[int, _Node] = {}
        self._batch_sizes: Optional[dict[int, int]] = None
        n = self._points.shape[0]
        if batch_build and n > 1:
            self._batch_build(np.arange(n, dtype=np.intp))
        else:
            for point_id in range(n):
                self._insert_id(point_id)

    def _repr_knobs(self) -> str:
        return f"root_level={self._root.level if self._root is not None else None}"

    # ------------------------------------------------------------------
    # Batch construction (divide and conquer)
    # ------------------------------------------------------------------
    def _batch_build(self, ids: np.ndarray) -> None:
        """Build the whole tree at once instead of n point-at-a-time descents.

        Each node carves its block of subtree points into children with one
        ``to_point`` kernel per child: the first unassigned point becomes a
        child at ``level - 1`` and absorbs every remaining point within its
        cover ball ``2 ** (level - 1)`` — those points can recursively live
        under it, while the leftovers stay direct-child candidates of the
        node (they are within ``covdist(node)`` by construction).  The
        node's ``maxdist`` is the exact max of its block's distances, known
        before the block is partitioned, so no bottom-up pass is needed.
        Blocks at distance zero (exact duplicates) are chained one node per
        level without any kernel calls — the same chain shape the
        incremental path produces, minus its quadratic descent cost.
        """
        root_id = int(ids[0])
        rest = ids[1:]
        d_rest = self.metric.to_point(self._points[rest], self._points[root_id])
        d_max = float(d_rest.max()) if rest.shape[0] else 0.0
        level = max(0, int(math.ceil(math.log2(d_max)))) if d_max > 0.0 else 0
        root = _Node(root_id, level=level)
        self._root = root
        self._nodes[root_id] = root
        stack: list[tuple[_Node, np.ndarray, np.ndarray]] = [(root, rest, d_rest)]
        while stack:
            node, block, dists = stack.pop()
            if block.shape[0] == 0:
                continue
            node.maxdist = float(dists.max())
            remaining, d_remaining = block, dists
            while remaining.shape[0]:
                if float(d_remaining.max()) == 0.0:
                    # Every remaining point duplicates the node's point:
                    # chain them, one single-child node per level.
                    chain = node
                    for dup in remaining:
                        child = _Node(int(dup), level=chain.level - 1, parent=chain)
                        chain.children.append(child)
                        self._nodes[int(dup)] = child
                        chain = child
                    break
                child_id = int(remaining[0])
                child = _Node(child_id, level=node.level - 1, parent=node)
                node.children.append(child)
                self._nodes[child_id] = child
                rest_block = remaining[1:]
                if rest_block.shape[0] == 0:
                    break
                d_child = self.metric.to_point(
                    self._points[rest_block], self._points[child_id]
                )
                absorbed = d_child <= child.covdist()
                stack.append((child, rest_block[absorbed], d_child[absorbed]))
                remaining = rest_block[~absorbed]
                d_remaining = d_remaining[1:][~absorbed]
        self._batch_sizes = None

    # ------------------------------------------------------------------
    # Construction / maintenance
    # ------------------------------------------------------------------
    def _dist_ids(self, a: int, b: int) -> float:
        return self.metric.distance(self._points[a], self._points[b])

    def _insert_id(self, point_id: int) -> None:
        if self._root is None:
            self._root = _Node(point_id, level=0)
            self._nodes[point_id] = self._root
            return
        root = self._root
        d_root = self._dist_ids(root.point_id, point_id)
        if d_root > root.covdist():
            # Raise the root level until its cover ball reaches the new point.
            # Growing covdist keeps all existing covering invariants valid.
            if d_root > 0.0:
                root.level = max(root.level, int(math.ceil(math.log2(d_root))))
        self._insert_under(root, point_id, d_root)

    def _insert_under(self, node: _Node, point_id: int, d_node: float) -> None:
        """Insert below ``node``; ``d_node`` is d(node.point, new point)."""
        while True:
            node.maxdist = max(node.maxdist, d_node)
            best_child: Optional[_Node] = None
            best_dist = math.inf
            for child in node.children:
                d_child = self._dist_ids(child.point_id, point_id)
                if d_child <= child.covdist() and d_child < best_dist:
                    best_child = child
                    best_dist = d_child
            if best_child is None:
                new_node = _Node(point_id, level=node.level - 1, parent=node)
                node.children.append(new_node)
                self._nodes[point_id] = new_node
                return
            node, d_node = best_child, best_dist

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def iter_neighbors(self, query) -> Iterator[tuple[int, float]]:
        query = as_query_point(query, dim=self.dim)
        if self._root is None:
            return
        queue = MinPriorityQueue()
        d_root = self.metric.distance(query, self._points[self._root.point_id])
        queue.push(d_root, ("point", self._root.point_id))
        if self._root.children:
            queue.push(max(0.0, d_root - self._root.maxdist), ("node", self._root))
        while queue:
            key, (kind, payload) = queue.pop()
            if kind == "point":
                yield payload, key
                continue
            # Expand a subtree: push each child's own point and child subtree.
            for child in payload.children:
                d_child = self.metric.distance(query, self._points[child.point_id])
                queue.push(d_child, ("point", child.point_id))
                if child.children:
                    queue.push(max(0.0, d_child - child.maxdist), ("node", child))

    def knn_distances(
        self, query_points, k: int, exclude_indices=None, prune_caps=None
    ) -> np.ndarray:
        """Batched k-th NN distances via a pruned block traversal.

        Each visited node evaluates the whole active block against all of
        its children's points with one pairwise kernel — those distances
        both feed the shared
        :class:`~repro.indexes.batch_tools.KSmallestKeeper` pool (every
        cover-tree node *is* a data point) and, lowered by each child's
        ``maxdist``, bound its subtree.  Query rows whose running k-th
        smallest distance already prunes a subtree are deactivated before
        descending; children are visited in ascending mean distance so
        radii shrink before the far subtrees are attempted.  Because each
        node holds exactly one point, a node-by-node descent would pay
        interpreter overhead per *point*; subtrees that shrink below
        ``_FLAT_SUBTREE`` descendants are therefore evaluated as one
        pairwise block instead (their entry bound has already been
        checked, so this only trades pruning granularity for kernel
        width).  Removal is eager in this tree, so every node in it is an
        active point.
        """
        k = check_k(k)
        queries = as_query_rows(query_points, dim=self.dim, dtype=self._points.dtype)
        m = queries.shape[0]
        exclude = check_exclude_indices(exclude_indices, m)
        keeper = KSmallestKeeper(
            m, k, dtype=self._points.dtype, caps=prune_caps
        )
        if m and self._root is not None:
            if self._batch_sizes is None:
                # Cached until the next insert/remove: rebuilding this
                # O(n) table per call would tax every single-query
                # refinement with an interpreted full-tree walk.
                self._batch_sizes = {}
                self._subtree_sizes(self._root, self._batch_sizes)
            sizes = self._batch_sizes
            rows = np.arange(m, dtype=np.intp)
            d_root = self.metric.to_point(queries, self._points[self._root.point_id])
            cand = d_root[:, None].copy()
            mask_excluded(
                cand, np.asarray([self._root.point_id], dtype=np.intp), exclude
            )
            keeper.update(rows, cand)
            self._descend(
                self._root, rows, d_root, queries, exclude, keeper, sizes
            )
        return keeper.result()

    #: Subtrees with at most this many descendants are evaluated as one
    #: pairwise block instead of being descended node by node.
    _FLAT_SUBTREE = 192

    def _subtree_sizes(self, root: _Node, sizes: dict[int, int]) -> None:
        """Post-order subtree point counts, keyed by ``id(node)``."""
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if ready:
                sizes[id(node)] = 1 + sum(
                    sizes[id(child)] for child in node.children
                )
            else:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))

    def _descend(
        self,
        node: _Node,
        rows: np.ndarray,
        d_node: np.ndarray,
        queries: np.ndarray,
        exclude: np.ndarray,
        keeper: KSmallestKeeper,
        sizes: dict[int, int],
    ) -> None:
        if not node.children:
            return
        alive = (d_node - node.maxdist) < keeper.kth[rows]
        rows = rows[alive]
        if rows.shape[0] == 0:
            return
        if sizes[id(node)] - 1 <= self._FLAT_SUBTREE:
            collected: list[int] = []
            self._collect_subtree(node, collected)
            ids = np.asarray(collected[1:], dtype=np.intp)  # node itself is done
            cand = self.metric.pairwise(queries[rows], self._points[ids])
            mask_excluded(cand, ids, exclude[rows])
            keeper.update(rows, cand)
            return
        child_ids = np.asarray([c.point_id for c in node.children], dtype=np.intp)
        dists = self.metric.pairwise(queries[rows], self._points[child_ids])
        cand = dists.copy()
        mask_excluded(cand, child_ids, exclude[rows])
        keeper.update(rows, cand)
        for col in np.argsort(dists.mean(axis=0)):
            child = node.children[col]
            if child.children:
                self._descend(
                    child, rows, dists[:, col], queries, exclude, keeper, sizes
                )

    def range_count(self, query, radius: float) -> int:
        """Count points within ``radius`` using the maxdist pruning bound."""
        query = as_query_point(query, dim=self.dim)
        if self._root is None:
            return 0
        count = 0
        d_root = self.metric.distance(query, self._points[self._root.point_id])
        stack = [(self._root, d_root)]
        while stack:
            node, d_node = stack.pop()
            if d_node <= radius:
                count += 1
            if d_node - node.maxdist > radius:
                continue
            for child in node.children:
                d_child = self.metric.distance(query, self._points[child.point_id])
                stack.append((child, d_child))
        return count

    # ------------------------------------------------------------------
    # Dynamic operations
    # ------------------------------------------------------------------
    def insert(self, point) -> int:
        point_id = self._append_point(point)
        self._insert_id(point_id)
        self._batch_sizes = None  # structure changed; see knn_distances
        return point_id

    def remove(self, index: int) -> None:
        self._batch_sizes = None  # structure changed; see knn_distances
        self._deactivate(index)
        node = self._nodes.pop(index)
        orphans: list[int] = []
        self._collect_subtree(node, orphans)
        orphans.remove(index)
        if node.parent is None:
            self._root = None
        else:
            node.parent.children.remove(node)
        for orphan_id in orphans:
            del self._nodes[orphan_id]
        for orphan_id in orphans:
            self._insert_id(orphan_id)

    def _collect_subtree(self, node: _Node, out: list[int]) -> None:
        out.append(node.point_id)
        for child in node.children:
            self._collect_subtree(child, out)

    # ------------------------------------------------------------------
    # Introspection / invariant checking (used by the test suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify covering and maxdist invariants; raises AssertionError."""
        if self._root is None:
            assert self.size == 0, "tree empty but active points remain"
            return
        seen: set[int] = set()
        stack = [self._root]
        while stack:
            node = stack.pop()
            assert node.point_id not in seen, "duplicate node for one point id"
            seen.add(node.point_id)
            for child in node.children:
                d = self._dist_ids(node.point_id, child.point_id)
                assert d <= node.covdist() + 1e-9, (
                    f"covering violated: d={d} > covdist={node.covdist()}"
                )
                # Root raising can leave older children at lower levels than
                # level-1; the search only relies on maxdist, so we check the
                # weaker (still sufficient) ordering invariant.
                assert child.level <= node.level - 1, "child level mismatch"
                stack.append(child)
            true_max = self._subtree_maxdist(node)
            assert node.maxdist >= true_max - 1e-9, (
                f"maxdist {node.maxdist} below true subtree radius {true_max}"
            )
        assert seen == set(int(i) for i in self.active_ids()), (
            "tree nodes do not match active point ids"
        )

    def _subtree_maxdist(self, node: _Node) -> float:
        ids: list[int] = []
        self._collect_subtree(node, ids)
        base = self._points[node.point_id]
        dists = self.metric.to_point(self._points[np.asarray(ids, dtype=np.intp)], base)
        return float(dists.max())
