"""Brute-force reverse-kNN reference, computed without ``repro``.

Everything here uses NumPy and SciPy only, so an answer the library gets
wrong cannot be confirmed by the library's own code.  Distances are exact
float64 differences (``cKDTree`` computes them that way; the BLAS path
below only shortlists neighbours and recomputes the winners directly).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

#: Query threads of the reference.  It runs after the timed session, so
#: its threads cannot disturb the measurement.
_WORKERS = 2

#: Rows per block of the dense (d = 64) kNN pass: bounds the (rows, n)
#: distance block at about 80 MiB for n = 20 000.
_DENSE_BLOCK = 500

#: Extra shortlisted columns per row of the dense pass, recomputed exactly
#: so BLAS round-off cannot reorder the k-th neighbour.
_DENSE_SLACK = 8


def kth_distances(points: np.ndarray, ids: np.ndarray, k: int, active=None) -> np.ndarray:
    """Self-excluded k-th NN distance of ``points[ids]`` over the active rows.

    ``active`` is a boolean mask over ``points`` (all rows when ``None``);
    each id is excluded from its own neighbourhood, the library-wide rank
    convention.  Returns ``inf`` where fewer than ``k`` other rows exist.
    """
    ids = np.asarray(ids, dtype=np.intp)
    out = np.full(ids.shape[0], np.inf)
    rows = np.flatnonzero(active) if active is not None else np.arange(points.shape[0])
    if ids.shape[0] == 0:
        return out
    if rows.shape[0] <= k + 1:
        return _kth_small(points, ids, k, rows)
    dist, pos = cKDTree(points[rows]).query(points[ids], k=k + 1, workers=_WORKERS)
    nbr = rows[pos]
    own = nbr == ids[:, None]
    # Drop each row's own id when it was returned; otherwise the k + 1
    # nearest hold k others already and the k-th is the last but one.
    has_own = own.any(axis=1)
    out[has_own] = np.where(
        own[has_own].cumsum(axis=1)[:, k - 1] > 0,
        dist[has_own, k],
        dist[has_own, k - 1],
    )
    out[~has_own] = dist[~has_own, k - 1]
    return out


#: Relative slack of the cluster bound in :func:`clustered_knn`, far above
#: the round-off of the distances it compares.
_BOUND_MARGIN = 1e-9

#: Nearest points of a query used to rule out the rest of the data in
#: :func:`reverse_neighbours`.
_FILTER_SIZE = 64

#: Relative margin of the filter's squared-distance test, far above the
#: round-off of the dot-product form it uses.
_FILTER_MARGIN = 1e-6


def reverse_neighbours(points, queries, owns, k, reach_of) -> list[np.ndarray]:
    """For each query q, the ids x with ``d(q, x) <= reach_of(d_k(x))``.

    ``d_k(x)`` is the self-excluded k-th NN distance of ``x`` in
    ``points``; ``owns`` holds each query's id (``-1`` for a fresh point),
    which is never returned.  Computing ``d_k`` of every point costs
    seconds at n = 100 000, so a filter rules most points out first: if
    ``k`` of the query's ``_FILTER_SIZE`` nearest points other than ``x``
    are closer to ``x`` than the query is (by a relative margin), then
    ``d_k(x) < d(q, x)`` and ``x`` is no reverse neighbour.  The test
    ``|x - y|^2 < |x - q|^2`` is linear in ``x``, so one matrix product
    decides it for every point.  Only the survivors get an exact ``d_k``,
    from one ``cKDTree`` query over all of them.
    """
    found = []
    for query, own in zip(queries, owns):
        d2 = ((points - query) ** 2).sum(axis=1)
        width = min(_FILTER_SIZE + 1, points.shape[0] - 1)
        near = np.argpartition(d2, width)[: width + 1]
        near = near[near != own][:_FILTER_SIZE]
        filt = points[near]
        # |x - y|^2 - |x - q|^2 = 2 x.(q - y) + |y|^2 - |q|^2
        gap = 2.0 * (points @ (query - filt).T) + (
            np.einsum("ij,ij->i", filt, filt) - query @ query
        )
        closer = gap < -_FILTER_MARGIN * d2[:, None]
        closer[near, np.arange(near.shape[0])] = False
        cand = np.flatnonzero(closer.sum(axis=1) < k)
        cand = cand[cand != own]
        found.append((cand, np.sqrt(d2[cand])))
    union = np.unique(np.concatenate([c for c, _ in found] + [np.empty(0, np.intp)]))
    kth = kth_distances(points, union, k)
    return [cand[dist <= reach_of(kth[np.searchsorted(union, cand)])]
            for cand, dist in found]


def _kth_small(points, ids, k, rows):
    """:func:`kth_distances` for sets too small for a (k + 1)-NN query."""
    out = np.full(ids.shape[0], np.inf)
    for i, pid in enumerate(ids):
        others = rows[rows != pid]
        if others.shape[0] >= k:
            d = np.sqrt(((points[others] - points[pid]) ** 2).sum(axis=1))
            out[i] = np.partition(d, k - 1)[k - 1]
    return out


def dense_knn(points: np.ndarray, k: int, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Exact self-excluded kNN ids and distances of ``rows``, by blocks.

    ``rows`` defaults to every row.  The dot-product expansion only
    shortlists ``k + _DENSE_SLACK`` candidates per row; their distances
    are recomputed as direct differences and re-sorted, so the returned
    values are exact.
    """
    n = points.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    width = min(k + _DENSE_SLACK, n - 1)
    sq = np.einsum("ij,ij->i", points, points)
    ids = np.empty((rows.shape[0], k), dtype=np.intp)
    dists = np.empty((rows.shape[0], k))
    for start in range(0, rows.shape[0], _DENSE_BLOCK):
        own = rows[start:start + _DENSE_BLOCK]
        block = sq[own, None] + sq[None, :] - 2.0 * (points[own] @ points.T)
        block[np.arange(own.shape[0]), own] = np.inf
        cand = np.argpartition(block, width - 1, axis=1)[:, :width]
        exact = np.sqrt(((points[cand] - points[own, None, :]) ** 2).sum(axis=2))
        order = np.lexsort((cand, exact), axis=1)[:, :k]
        ids[start:start + own.shape[0]] = np.take_along_axis(cand, order, axis=1)
        dists[start:start + own.shape[0]] = np.take_along_axis(exact, order, axis=1)
    return ids, dists


def clustered_knn(points: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dense_knn` of every row, one cluster at a time.

    ``labels`` is the cluster each point was drawn from.  A row's kNN
    within its own cluster is its kNN overall when every point of every
    other cluster j is provably farther than its k-th: by the triangle
    inequality such a point is at least ``d(x, c_j) - r_j`` away, with
    ``c_j`` the cluster's mean and ``r_j`` its largest distance from it.
    Rows that fail the bound, and clusters of ``k`` points or fewer, are
    redone against all points.
    """
    n = points.shape[0]
    ids = np.empty((n, k), dtype=np.intp)
    dists = np.empty((n, k))
    groups = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    lower = np.empty((n, len(groups)))
    for j, g in enumerate(groups):
        centre = points[g].mean(axis=0)
        to_centre = np.sqrt(((points - centre) ** 2).sum(axis=1))
        lower[:, j] = to_centre - to_centre[g].max()
        lower[g, j] = np.inf
        if g.shape[0] > k:
            g_ids, g_dists = dense_knn(points[g], k)
            ids[g], dists[g] = g[g_ids], g_dists
        else:
            lower[g] = -np.inf
    redo = np.flatnonzero(lower.min(axis=1) <= dists[:, -1] * (1 + _BOUND_MARGIN))
    if redo.shape[0]:
        ids[redo], dists[redo] = dense_knn(points, k, rows=redo)
    return ids, dists


def reverse_lists(knn_ids: np.ndarray) -> list[np.ndarray]:
    """Reverse adjacency of a kNN table: ``out[q]`` = ids listing ``q``."""
    n, k = knn_ids.shape
    owners = np.repeat(np.arange(n), k)
    flat = knn_ids.ravel()
    order = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[order], np.arange(n + 1))
    sorted_owners = owners[order]
    return [np.sort(sorted_owners[bounds[q]:bounds[q + 1]]) for q in range(n)]


def pair_distances(points: np.ndarray, queries: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Exact ``d(queries[i], points[ids[i]])`` for paired rows."""
    return np.sqrt(((points[ids] - queries) ** 2).sum(axis=1))
