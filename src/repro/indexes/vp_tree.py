"""Vantage-point tree for general metric spaces.

A static metric tree: each internal node stores a vantage point and the
median distance ``mu`` from the vantage point to the points of its subtree.
Points at distance ``<= mu`` go to the inner child, the rest to the outer
child.  The triangle inequality yields lower bounds for both sides:

    inner subtree:  d(q, y) >= max(0, d(q, vp) - mu)
    outer subtree:  d(q, y) >= max(0, mu - d(q, vp))

(combined with the bound inherited from the parent), which drive the
best-first incremental search.  Vantage points are chosen by sampling a few
candidates and keeping the one with the largest distance spread — the
classic Yianilos heuristic.

The VP-tree exists in this library to exercise RDT's claim that the analysis
holds for *any* metric back-end: the tree never looks at coordinates, only
at metric evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.indexes.base import Index
from repro.indexes.batch_tools import (
    KSmallestKeeper,
    check_exclude_indices,
    mask_excluded,
)
from repro.indexes.build_tools import partition_median
from repro.utils.priority_queue import MinPriorityQueue
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    as_query_point,
    as_query_rows,
    check_k,
    check_positive_int,
)

__all__ = ["VPTreeIndex"]


@dataclass
class _Node:
    vantage_id: int = -1
    mu: float = 0.0
    inner: Optional["_Node"] = None
    outer: Optional["_Node"] = None
    point_ids: Optional[list[int]] = None  # set on leaves only

    @property
    def is_leaf(self) -> bool:
        return self.point_ids is not None


class VPTreeIndex(Index):
    """Static vantage-point tree with incremental NN search."""

    name = "vp-tree"

    def __init__(
        self, data, metric=None, leaf_size: int = 16, n_candidates: int = 5, seed=0
    ) -> None:
        super().__init__(data, metric)
        self.leaf_size = check_positive_int(leaf_size, name="leaf_size")
        self.n_candidates = check_positive_int(n_candidates, name="n_candidates")
        self._rng = ensure_rng(seed)
        ids = np.arange(self._points.shape[0], dtype=np.intp)
        self._root = self._build(ids)

    def _repr_knobs(self) -> str:
        return f"leaf_size={self.leaf_size}, n_candidates={self.n_candidates}"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _select_vantage(self, ids: np.ndarray) -> int:
        """Pick the candidate vantage point with the widest distance spread."""
        n_cand = min(self.n_candidates, ids.shape[0])
        candidates = self._rng.choice(ids, size=n_cand, replace=False)
        sample = ids if ids.shape[0] <= 64 else self._rng.choice(ids, 64, replace=False)
        best_id, best_spread = int(candidates[0]), -1.0
        for cand in candidates:
            dists = self.metric.to_point(self._points[sample], self._points[cand])
            spread = float(dists.std())
            if spread > best_spread:
                best_id, best_spread = int(cand), spread
        return best_id

    def _build(self, ids: np.ndarray) -> _Node:
        """Build a subtree over ``ids`` by index-array partitioning.

        A single permutation array is reordered in place — vantage point
        first, then the inner block, then the outer block — so each node is
        a range of it; the only per-node allocations are the vantage
        distance column and the leaf id lists.  Selection rule, median
        values, and id orderings match the historical copying build.
        """
        perm = np.array(ids, dtype=np.intp)
        return self._build_range(perm, 0, perm.shape[0])

    def _build_range(self, perm: np.ndarray, start: int, end: int) -> _Node:
        view = perm[start:end]
        if end - start <= self.leaf_size:
            return _Node(point_ids=view.tolist())
        vantage_id = self._select_vantage(view)
        rest = view[view != vantage_id]
        dists = self.metric.to_point(self._points[rest], self._points[vantage_id])
        mu = partition_median(dists)
        inner_mask = dists <= mu
        if inner_mask.all() or not inner_mask.any():
            # Degenerate distance distribution (e.g. duplicates): keep a leaf.
            return _Node(point_ids=view.tolist())
        node = _Node(vantage_id=vantage_id, mu=mu)
        # Reorder the slice in place: vantage first, inner block, outer block.
        n_inner = int(np.count_nonzero(inner_mask))
        view[0] = vantage_id
        view[1 : 1 + n_inner] = rest[inner_mask]
        view[1 + n_inner :] = rest[~inner_mask]
        node.inner = self._build_range(perm, start + 1, start + 1 + n_inner)
        node.outer = self._build_range(perm, start + 1 + n_inner, end)
        return node

    def check_invariants(self) -> None:
        """Verify mu-partition and id-coverage invariants."""
        seen: list[int] = []
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                seen.extend(node.point_ids)
                continue
            seen.append(node.vantage_id)
            vantage = self._points[node.vantage_id]
            for child, inner in ((node.inner, True), (node.outer, False)):
                ids = self._subtree_ids(child)
                if ids.shape[0]:
                    dists = self.metric.to_point(self._points[ids], vantage)
                    if inner:
                        assert (dists <= node.mu + 1e-12).all(), (
                            "inner subtree outside mu"
                        )
                    else:
                        assert (dists > node.mu - 1e-12).all(), (
                            "outer subtree inside mu"
                        )
                stack.append(child)
        assert sorted(seen) == list(range(self._points.shape[0])), (
            "tree does not store every id exactly once"
        )

    def _subtree_ids(self, node: _Node) -> np.ndarray:
        ids: list[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                ids.extend(current.point_ids)
            else:
                ids.append(current.vantage_id)
                stack.append(current.inner)
                stack.append(current.outer)
        return np.asarray(ids, dtype=np.intp)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def iter_neighbors(self, query) -> Iterator[tuple[int, float]]:
        query = as_query_point(query, dim=self.dim)
        queue = MinPriorityQueue()
        queue.push(0.0, (self._root, 0.0))
        while queue:
            key, item = queue.pop()
            if isinstance(item, tuple):
                node, bound = item
                if node.is_leaf:
                    ids = self._live_list(node.point_ids)
                    if ids:
                        dists = self.metric.to_point(
                            self._points[np.asarray(ids, dtype=np.intp)], query
                        )
                        for point_id, dist in zip(ids, dists):
                            queue.push(float(dist), int(point_id))
                    continue
                d_vp = self.metric.distance(query, self._points[node.vantage_id])
                if self._active[node.vantage_id]:
                    queue.push(d_vp, int(node.vantage_id))
                inner_bound = max(bound, d_vp - node.mu, 0.0)
                outer_bound = max(bound, node.mu - d_vp, 0.0)
                queue.push(inner_bound, (node.inner, inner_bound))
                queue.push(outer_bound, (node.outer, outer_bound))
            else:
                yield item, key

    def knn_distances(
        self, query_points, k: int, exclude_indices=None, prune_caps=None
    ) -> np.ndarray:
        """Batched k-th NN distances via a pruned block traversal.

        The batch descends the tree together: each node computes the
        block's distances to its vantage point with one ``to_point``
        kernel, derives the triangle-inequality bounds for both children,
        and deactivates query rows whose running k-th smallest distance
        (shared :class:`~repro.indexes.batch_tools.KSmallestKeeper` pool)
        already prunes the subtree.  The child preferred by the majority
        of rows is descended first so radii shrink early.
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
            self._descend(
                self._root, rows, np.zeros(m), queries, exclude, keeper
            )
        return keeper.result()

    def _descend(
        self,
        node: _Node,
        rows: np.ndarray,
        bounds: np.ndarray,
        queries: np.ndarray,
        exclude: np.ndarray,
        keeper: KSmallestKeeper,
    ) -> None:
        alive = bounds < keeper.kth[rows]
        rows = rows[alive]
        if rows.shape[0] == 0:
            return
        bounds = bounds[alive]
        if node.is_leaf:
            ids = np.asarray(self._live_list(node.point_ids), dtype=np.intp)
            if ids.shape[0]:
                cand = self.metric.pairwise(queries[rows], self._points[ids])
                mask_excluded(cand, ids, exclude[rows])
                keeper.update(rows, cand)
            return
        d_vp = self.metric.to_point(queries[rows], self._points[node.vantage_id])
        if self._active[node.vantage_id]:
            cand = d_vp[:, None].copy()
            mask_excluded(
                cand, np.asarray([node.vantage_id], dtype=np.intp), exclude[rows]
            )
            keeper.update(rows, cand)
        inner_bounds = np.maximum(bounds, d_vp - node.mu)
        outer_bounds = np.maximum(bounds, node.mu - d_vp)
        inner_votes = np.count_nonzero(d_vp <= node.mu)
        if 2 * inner_votes >= rows.shape[0]:
            order = ((node.inner, inner_bounds), (node.outer, outer_bounds))
        else:
            order = ((node.outer, outer_bounds), (node.inner, inner_bounds))
        for child, child_bounds in order:
            self._descend(child, rows, child_bounds, queries, exclude, keeper)
