"""KD-tree with best-first incremental nearest-neighbor search.

A classic axis-aligned space partitioning tree.  Internal nodes split on the
widest dimension of their bounding box at the median; leaves hold up to
``leaf_size`` points.  The incremental search maintains a single priority
queue mixing *points* (keyed by their exact distance) and *subtrees* (keyed
by the minimum possible distance to their bounding box); a point is emitted
only when it reaches the front of the queue, which guarantees nondecreasing
distance order.

The bounding-box lower bound is computed as ``d(q, clip(q, lo, hi))`` —
the closest point of an axis-aligned box under any ``L_p`` metric is the
coordinate-wise clamp of the query, so the same code is exact for Euclidean,
Manhattan, Chebyshev and general Minkowski metrics.

Inserts are supported (descend to the leaf and append, splitting oversized
leaves).  Removals deactivate the point in place and the tree compacts
itself once tombstones outnumber the configured live fraction: a full
rebuild over the surviving ids purges dead leaf slots and re-tightens every
bounding box (boxes only ever grow under inserts, so without compaction a
long insert/remove churn leaves the tree scanning tombstones and pruning
against stale volumes on every query).

The tree is **snapshot-stable** (see :attr:`repro.Index.snapshot_stable`):
every structural mutation is published atomically, so readers holding a
previously taken :meth:`~repro.indexes.base.Index.snapshot` stay
consistent while the live tree churns.  Concretely: leaf splits and
compactions build their replacement subtree fully before attaching it
with a single reference assignment; in-place bounding-box growth is
conservative (boxes only ever grow, so a reader sees pruning bounds at
worst looser than its snapshot requires); and ids appended to shared
leaf lists after a snapshot froze its mask are filtered bounds-safely
(``_live_list``) instead of trusted.

Batched ``knn_distances`` queries run a pruned block traversal: one
``clip`` + metric kernel evaluates the box lower bound of a node for every
active query row at once, and rows whose running k-th smallest distance
(shared :class:`~repro.indexes.batch_tools.KSmallestKeeper` pool) already
prunes the subtree are deactivated on entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.indexes.base import Index
from repro.indexes.batch_tools import KSmallestKeeper, check_exclude_indices
from repro.indexes.build_tools import (
    apply_partition,
    partition_median,
    subtree_point_ids,
)
from repro.indexes.soa import FlatKDLayout, flatten_kd, kd_flat_descent
from repro.utils.priority_queue import MinPriorityQueue
from repro.utils.validation import (
    as_query_point,
    as_query_rows,
    check_k,
    check_positive_int,
)

__all__ = ["KDTreeIndex"]


@dataclass
class _Node:
    """One KD-tree node; a leaf iff ``point_ids`` is not None."""

    lo: np.ndarray
    hi: np.ndarray
    axis: int = -1
    split: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    point_ids: Optional[list[int]] = field(default=None)

    @property
    def is_leaf(self) -> bool:
        return self.point_ids is not None


class KDTreeIndex(Index):
    """Axis-aligned KD-tree supporting incremental forward NN search."""

    name = "kd-tree"
    supports_insert = True
    supports_remove = True
    snapshot_stable = True

    #: Rebuild the tree once the live fraction of ids stored in it drops
    #: below this threshold (see :meth:`remove`).
    compaction_threshold = 0.5

    def __init__(self, data, metric=None, leaf_size: int = 16) -> None:
        super().__init__(data, metric)
        self.leaf_size = check_positive_int(leaf_size, name="leaf_size")
        ids = np.arange(self._points.shape[0], dtype=np.intp)
        self._root = self._build(ids)
        self._tombstones = 0  # removed ids still stored in tree leaves
        #: Lazily rebuilt flat node layout (see repro.indexes.soa);
        #: invalidated by structural mutation, shared by snapshots.
        self._layout: FlatKDLayout | None = None

    def _repr_knobs(self) -> str:
        return f"leaf_size={self.leaf_size}"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray) -> _Node:
        """Build a subtree over ``ids`` by index-array partitioning.

        One permutation array is partitioned in place; nodes are ranges of
        it, medians come from ``partition_median`` (selection, not a
        sort), and no per-node Python id lists exist outside the leaves.
        The recursion's split values and id orderings are identical to the
        historical copying build, so tree structures are unchanged.
        """
        perm = np.array(ids, dtype=np.intp)
        return self._build_range(perm, 0, perm.shape[0])

    def _build_range(self, perm: np.ndarray, start: int, end: int) -> _Node:
        view = perm[start:end]
        pts = self._points[view]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        if end - start <= self.leaf_size:
            return _Node(lo=lo, hi=hi, point_ids=view.tolist())
        axis = int(np.argmax(hi - lo))
        if hi[axis] == lo[axis]:
            # All points identical along every axis: keep them in one leaf.
            return _Node(lo=lo, hi=hi, point_ids=view.tolist())
        coords = pts[:, axis]
        split = partition_median(coords)
        left_mask = coords <= split
        # A median equal to the maximum would send everything left; nudge the
        # split so both sides are non-empty.
        if left_mask.all():
            left_mask = coords < split
        node = _Node(lo=lo, hi=hi, axis=axis, split=split)
        n_left = apply_partition(view, left_mask)
        node.left = self._build_range(perm, start, start + n_left)
        node.right = self._build_range(perm, start + n_left, end)
        return node

    def check_invariants(self) -> None:
        """Verify box containment, split-side, and id-coverage invariants."""
        seen: list[int] = []
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            assert (node.lo <= node.hi).all(), "inverted bounding box"
            if node.is_leaf:
                seen.extend(node.point_ids)
                ids = np.asarray(node.point_ids, dtype=np.intp)
                if ids.shape[0]:
                    pts = self._points[ids]
                    assert (pts >= node.lo - 1e-12).all(), "point below box"
                    assert (pts <= node.hi + 1e-12).all(), "point above box"
                continue
            for child in (node.left, node.right):
                assert (child.lo >= node.lo - 1e-12).all(), "box breach (lo)"
                assert (child.hi <= node.hi + 1e-12).all(), "box breach (hi)"
                stack.append(child)
            # Split sides: the build sends `coords <= split` left and the
            # insert path routes equal coordinates left, so left holds
            # coords <= split and right holds coords >= split.
            assert (
                self._points[subtree_point_ids(node.left), node.axis]
                <= node.split + 1e-12
            ).all(), "left subtree crosses split"
            assert (
                self._points[subtree_point_ids(node.right), node.axis]
                >= node.split - 1e-12
            ).all(), "right subtree crosses split"
        assert len(seen) == len(set(seen)), "id stored in more than one leaf"
        stored = set(seen)
        active = set(int(i) for i in self.active_ids())
        assert active <= stored, "active point missing from tree leaves"

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _box_lower_bound(self, query: np.ndarray, node: _Node) -> float:
        nearest = np.clip(query, node.lo, node.hi)
        return self.metric.distance(query, nearest)

    def iter_neighbors(self, query) -> Iterator[tuple[int, float]]:
        query = as_query_point(query, dim=self.dim)
        queue = MinPriorityQueue()
        queue.push(self._box_lower_bound(query, self._root), self._root)
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
                    queue.push(self._box_lower_bound(query, item.left), item.left)
                    queue.push(self._box_lower_bound(query, item.right), item.right)
            else:
                yield item, key

    def knn(
        self, query, k: int, exclude_index: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        k = check_k(k)
        ids: list[int] = []
        dists: list[float] = []
        for point_id, dist in self.iter_neighbors(query):
            if point_id == exclude_index:
                continue
            ids.append(point_id)
            dists.append(dist)
            if len(ids) == k:
                break
        return np.asarray(ids, dtype=np.intp), np.asarray(dists, dtype=np.float64)

    def knn_distances(
        self, query_points, k: int, exclude_indices=None, prune_caps=None
    ) -> np.ndarray:
        """Batched k-th NN distances via a pruned block traversal.

        The whole batch walks the tree together: each node evaluates its
        box lower bound for every still-active query row with one
        ``clip`` + metric kernel, rows whose running k-th smallest
        distance rules the subtree out are dropped on entry, and leaves
        feed a single pairwise block into the shared
        :class:`~repro.indexes.batch_tools.KSmallestKeeper` pool.  The
        child on the side of the majority of rows is descended first so
        pruning radii shrink before the far side is attempted.
        """
        k = check_k(k)
        queries = as_query_rows(query_points, dim=self.dim, dtype=self._points.dtype)
        m = queries.shape[0]
        exclude = check_exclude_indices(exclude_indices, m)
        keeper = KSmallestKeeper(
            m, k, dtype=self._points.dtype, caps=prune_caps
        )
        if m and self.size:
            # A frozen snapshot can never take the trust-the-leaf-list
            # shortcut: the shared tree may hold ids inserted after the
            # mask froze, which must read as inactive.
            all_active = bool(self._active.all()) and not self._frozen
            kd_flat_descent(
                self._flat_layout(),
                self.metric,
                self._points,
                None if all_active else self._active,
                queries,
                exclude,
                keeper,
            )
        return keeper.result()

    def _flat_layout(self) -> FlatKDLayout:
        """The flat node arrays, rebuilt lazily after structural changes.

        Removals are mask flips and never invalidate the layout; inserts
        (in-place box growth, possible leaf splits) and compactions do.
        :meth:`snapshot` materializes the layout first, so frozen views
        share a current layout zero-copy and never rebuild.
        """
        if self._layout is None:
            self._layout = flatten_kd(
                self._root,
                self.dim,
                self._points.dtype,
                points=self._points,
                metric=self.metric,
            )
        return self._layout

    def adopt_flat_layout(self, layout: FlatKDLayout) -> None:
        """Adopt a prebuilt flat layout instead of flattening this tree.

        For replica trees (parallel workers): a version-0 tree is a pure
        deterministic bulk build, so a layout flattened from the original
        is node-for-node valid here — adopting it shares one physical
        copy of the node arrays (e.g. shared-memory views) across every
        worker instead of re-flattening per process.
        """
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

    def snapshot(self) -> "KDTreeIndex":
        self._flat_layout()
        return super().snapshot()

    def range_count(self, query, radius: float) -> int:
        """Count points within ``radius`` by pruning whole boxes."""
        query = as_query_point(query, dim=self.dim)
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if self._box_lower_bound(query, node) > radius:
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

    # ------------------------------------------------------------------
    # Dynamic operations
    # ------------------------------------------------------------------
    def insert(self, point) -> int:
        point_id = self._append_point(point)
        # Structural change: box growth below mutates node boxes in place
        # (and a leaf split may attach a new subtree), so the flat layout
        # no longer mirrors the tree.
        self._layout = None
        point = self._points[point_id]
        parent = None
        node = self._root
        # Grow bounding boxes along the descent path.  In-place growth is
        # safe for snapshot readers: boxes only ever grow, so a concurrent
        # reader sees at worst looser pruning bounds, never tighter ones.
        while True:
            np.minimum(node.lo, point, out=node.lo)
            np.maximum(node.hi, point, out=node.hi)
            if node.is_leaf:
                break
            parent = node
            node = node.left if point[node.axis] <= node.split else node.right
        live = self._live_list(node.point_ids)
        if len(live) + 1 > self.leaf_size:
            # Split by building the replacement subtree fully, then
            # attaching it with a single reference assignment — snapshot
            # readers see either the old leaf or the complete new
            # subtree, never a half-mutated node.
            rebuilt = self._build(np.asarray(live + [point_id], dtype=np.intp))
            if parent is None:
                self._root = rebuilt
            elif parent.left is node:
                parent.left = rebuilt
            else:
                parent.right = rebuilt
        else:
            node.point_ids.append(point_id)
        return point_id

    def remove(self, index: int) -> None:
        """Deactivate a point; compact the tree when tombstones pile up.

        Leaves keep the ids of removed points (every query re-filters
        them) and bounding boxes never shrink, so a long churn of inserts
        and removals would otherwise decay both scan and pruning
        performance without bound.  Once live ids fall below
        ``compaction_threshold`` of everything stored in the tree, the
        tree is rebuilt over the survivors — amortized O(log n) per
        removal — which purges tombstones and re-tightens every box.
        """
        self._deactivate(index)
        self._tombstones += 1
        live = self.size
        if live and live < self.compaction_threshold * (live + self._tombstones):
            self.compact()

    def compact(self) -> None:
        """Rebuild the tree over the live points, purging all tombstones.

        Runs automatically once removals cross ``compaction_threshold``;
        callers (e.g. :meth:`repro.Service.compact`) may also invoke it
        eagerly before a latency-sensitive query burst.  The rebuilt tree
        is attached with one reference assignment (snapshot readers keep
        traversing the old structure) and bumps :attr:`version`.
        """
        self._check_writable()
        live = self.active_ids()
        if live.shape[0] == 0:
            # Nothing to rebuild over (the builder needs at least one
            # row for its bounding box); queries filter the tombstones.
            return
        self._root = self._build(live)
        self._layout = None
        self._tombstones = 0
        self._version += 1
