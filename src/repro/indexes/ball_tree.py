"""Ball tree: centroid/radius space partitioning for moderate dimensions.

A classic alternative to the KD-tree whose regions are metric balls rather
than axis-aligned boxes, which makes it exact under any metric without the
clamp trick.  Nodes store a centroid and the radius covering their subtree;
construction splits each node's points between the two mutually farthest
seed points (the "bouncing ball" heuristic).  The incremental search is the
usual best-first queue over the bound

    d(q, y) >= max(0, d(q, centroid) - radius)      for y under a node.

Included as a further demonstration that RDT composes with any
incremental-NN back-end; the ablation benchmarks compare it against the
cover tree and the sequential scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.indexes.base import Index
from repro.indexes.batch_tools import KSmallestKeeper, check_exclude_indices
from repro.indexes.build_tools import apply_partition, subtree_point_ids
from repro.indexes.soa import FlatBallLayout, ball_flat_descent, flatten_ball
from repro.utils.priority_queue import MinPriorityQueue
from repro.utils.validation import (
    as_query_point,
    as_query_rows,
    check_k,
    check_positive_int,
)

__all__ = ["BallTreeIndex"]


@dataclass
class _Node:
    centroid: np.ndarray
    radius: float
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    point_ids: Optional[list[int]] = None  # leaves only

    @property
    def is_leaf(self) -> bool:
        return self.point_ids is not None


class BallTreeIndex(Index):
    """Static ball tree with incremental NN search (any metric)."""

    name = "ball-tree"
    supports_remove = True  # lazy removal

    def __init__(self, data, metric=None, leaf_size: int = 16) -> None:
        super().__init__(data, metric)
        self.leaf_size = check_positive_int(leaf_size, name="leaf_size")
        self._root = self._build(np.arange(self._points.shape[0], dtype=np.intp))
        #: Lazily built flat node layout (repro.indexes.soa).  The ball
        #: tree is structurally static (removal is lazy), so the layout
        #: never goes stale once built; snapshots share it zero-copy.
        self._layout: FlatBallLayout | None = None

    def _repr_knobs(self) -> str:
        return f"leaf_size={self.leaf_size}"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray) -> _Node:
        """Build a subtree over ``ids`` by index-array partitioning.

        One permutation array is partitioned in place; nodes are ranges of
        it, so the only per-node allocations are the centroid/seed
        distance columns (one gather each) and the leaf id lists.  Seeds,
        masks, and id orderings match the historical copying build, so
        tree structures are unchanged.
        """
        perm = np.array(ids, dtype=np.intp)
        return self._build_range(perm, 0, perm.shape[0])

    def _build_range(self, perm: np.ndarray, start: int, end: int) -> _Node:
        view = perm[start:end]
        pts = self._points[view]
        centroid = pts.mean(axis=0)
        from_centroid = self.metric.to_point(pts, centroid)
        node = _Node(centroid=centroid, radius=float(from_centroid.max()))
        if end - start <= self.leaf_size:
            node.point_ids = view.tolist()
            return node
        # Bouncing-ball seeds: a point far from the centroid, then the
        # point farthest from it.
        seed_a = int(np.argmax(from_centroid))
        from_a = self.metric.to_point(pts, pts[seed_a])
        seed_b = int(np.argmax(from_a))
        from_b = self.metric.to_point(pts, pts[seed_b])
        left_mask = from_a <= from_b
        if left_mask.all() or not left_mask.any():
            # Duplicate-heavy region: no separating pair exists.
            node.point_ids = view.tolist()
            return node
        n_left = apply_partition(view, left_mask)
        node.left = self._build_range(perm, start, start + n_left)
        node.right = self._build_range(perm, start + n_left, end)
        return node

    def check_invariants(self) -> None:
        """Verify ball coverage and id-coverage invariants."""
        seen: list[int] = []
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                seen.extend(node.point_ids)
                ids = np.asarray(node.point_ids, dtype=np.intp)
            else:
                stack.append(node.left)
                stack.append(node.right)
                ids = subtree_point_ids(node)
            if ids.shape[0]:
                dists = self.metric.to_point(self._points[ids], node.centroid)
                assert float(dists.max()) <= node.radius + 1e-9, (
                    "ball radius does not cover subtree points"
                )
        assert sorted(seen) == list(range(self._points.shape[0])), (
            "leaves do not store every id exactly once"
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def iter_neighbors(self, query) -> Iterator[tuple[int, float]]:
        query = as_query_point(query, dim=self.dim)
        queue = MinPriorityQueue()
        queue.push(0.0, self._root)
        while queue:
            key, item = queue.pop()
            if isinstance(item, _Node):
                if item.is_leaf:
                    ids = self._live_list(item.point_ids)
                    if ids:
                        dists = self.metric.to_point(
                            self._points[np.asarray(ids, dtype=np.intp)], query
                        )
                        for point_id, dist in zip(ids, dists):
                            queue.push(float(dist), int(point_id))
                else:
                    for child in (item.left, item.right):
                        d_centroid = self.metric.distance(query, child.centroid)
                        queue.push(max(0.0, d_centroid - child.radius), child)
            else:
                yield item, key

    def knn_distances(
        self, query_points, k: int, exclude_indices=None, prune_caps=None
    ) -> np.ndarray:
        """Batched k-th NN distances via a pruned block traversal.

        The batch walks the tree together: each node computes the active
        block's distances to both children's centroids with one kernel,
        lowers them by the covering radii into subtree bounds, and
        deactivates query rows whose running k-th smallest distance
        (shared :class:`~repro.indexes.batch_tools.KSmallestKeeper` pool)
        already prunes the subtree.  The child preferred by the majority
        of rows is descended first so radii shrink before the far side is
        attempted — the tree's pruning survives batching while all
        distance work stays in vectorized per-node blocks.
        """
        k = check_k(k)
        queries = as_query_rows(query_points, dim=self.dim, dtype=self._points.dtype)
        m = queries.shape[0]
        exclude = check_exclude_indices(exclude_indices, m)
        keeper = KSmallestKeeper(
            m, k, dtype=self._points.dtype, caps=prune_caps
        )
        if m and self.size:
            # Leaf lists can only be trusted when every stored id is
            # live; a frozen snapshot's mask may postdate removals.
            all_active = bool(self._active.all()) and not self._frozen
            ball_flat_descent(
                self._flat_layout(),
                self.metric,
                self._points,
                None if all_active else self._active,
                queries,
                exclude,
                keeper,
            )
        return keeper.result()

    def _flat_layout(self) -> FlatBallLayout:
        """The flat node arrays, built lazily (the tree is static)."""
        if self._layout is None:
            self._layout = flatten_ball(
                self._root,
                self.dim,
                self._points.dtype,
                points=self._points,
                metric=self.metric,
            )
        return self._layout

    def adopt_flat_layout(self, layout: FlatBallLayout) -> None:
        """Adopt a prebuilt flat layout (see ``KDTreeIndex.adopt_flat_layout``)."""
        if self.version != 0:
            raise ValueError(
                "can only adopt a layout into a pristine (version-0) tree; "
                "this one has been mutated"
            )
        if layout.leaf_ids.shape[0] != self._points.shape[0]:
            raise ValueError(
                f"layout indexes {layout.leaf_ids.shape[0]} points but this "
                f"tree stores {self._points.shape[0]}"
            )
        self._layout = layout

    def snapshot(self) -> "BallTreeIndex":
        # Materialize before freezing so every snapshot shares the arrays.
        self._flat_layout()
        return super().snapshot()

    def range_count(self, query, radius: float) -> int:
        query = as_query_point(query, dim=self.dim)
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            d_centroid = self.metric.distance(query, node.centroid)
            if d_centroid - node.radius > radius:
                continue
            if node.is_leaf:
                ids = self._live_list(node.point_ids)
                if ids:
                    dists = self.metric.to_point(
                        self._points[np.asarray(ids, dtype=np.intp)], query
                    )
                    count += int(np.count_nonzero(dists <= radius))
            else:
                stack.append(node.left)
                stack.append(node.right)
        return count

    def remove(self, index: int) -> None:
        # Lazy removal: ball radii remain valid (possibly loose) bounds.
        self._deactivate(index)
