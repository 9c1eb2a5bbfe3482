"""HRNN-style navigable proximity graph for approximate RkNN.

High-dimensional member sets defeat every tree-backed engine in this
library: past d ~ 32 the dimensional test and the MBR bounds stop pruning
and `rdt+` degrades to a brute-force scan per query.  The hybrid
reverse-nearest-neighbor graph of HRNN (PAPERS.md, arxiv 2606.03225)
sidesteps spatial pruning entirely: every member keeps *forward* edges to
its ``M`` nearest neighbors plus the induced *reverse* adjacency (who
points at me), and an HNSW-flavored layer hierarchy (Malkov & Yashunin)
makes the structure navigable from a single entry point.

Three observations make this a good fit for the library's strategy
protocol (:mod:`repro.approx.base`):

* **The forward edge lists double as an exact d_k cache.**  The base
  layer is built by a full vectorized kNN pass (chunked dgemm-speed
  ``pairwise`` blocks), so each member's sorted neighbor distances are
  its exact self-excluded kNN distances for every ``k <= graph_m``.
  Member queries emit them as :attr:`StrategyDecision.query_kth`, which
  the engine reuses to skip those members' verification — the RkNN
  self-join needs **zero** extra ``knn_distances`` calls.
* **Reverse adjacency is the RkNN candidate generator.**  A true reverse
  neighbor ``x`` of member ``q`` has ``q`` among its ``k`` nearest, so
  for ``k <= graph_m`` the edge ``x -> q`` exists and ``x`` appears in
  ``q``'s reverse list: the reverse list *is* the shortlist, and (ties
  at the k-th distance aside) misses nothing.
* **Raw points navigate.**  Queries that are not members greedily
  descend the layer hierarchy to the base layer, run an ``ef``-wide
  best-first beam search for a neighborhood, and expand that
  neighborhood's reverse edges into the shortlist.  ``ef`` (and
  ``graph_m``) trade search work against recall.

Every shortlisted candidate is handed to the engine as *pending* and
decided by the exact ``d(q, x) <= d_k(x)`` test (the shared deduplicated
verification pass), so — like the LSH filter of Arthur & Oudot
(arXiv:1011.4955) — the strategy has **precision exactly 1** and pays
only in recall.

Determinism: level assignment draws from ``default_rng([seed, n])`` and
everything else is derived arithmetic, so same data + same seed = same
graph (the save/load contract: `Service.save` serializes the base layer,
and payloads that cannot be adopted fall back to this deterministic
rebuild).
"""

from __future__ import annotations

import numpy as np

from repro.approx.base import ApproxStrategy, StrategyDecision
from repro.indexes.base import Index
from repro.indexes.bulk_knn import adaptive_chunk_size
from repro.utils.validation import check_positive_int

__all__ = ["GraphRkNNStrategy"]

#: Hard cap on the layer-hierarchy height (a degree-16 graph only reaches
#: it past ~16^8 points).
_MAX_LEVEL = 8

#: Greedy-descent hop cap per layer.  Each accepted hop strictly
#: decreases the current distance, so termination is guaranteed anyway;
#: the cap just bounds the pathological-tie case.
_MAX_HOPS = 64

#: Frontier width: beam members expanded per vectorized search round.
_FRONTIER = 8

#: Query rows per vectorized search block (bounds the (B, n) visited mask).
_QUERY_BLOCK = 128


def _multi_slice(values: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Concatenate ``values[starts[i]:ends[i]]`` slices without a loop."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype), counts
    base = np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.repeat(starts, counts) + (np.arange(total) - base)
    return values[idx], counts


class GraphRkNNStrategy(ApproxStrategy):
    """Candidate generation through a layered forward/reverse kNN graph.

    Parameters
    ----------
    index:
        Any :class:`repro.indexes.Index`; only its point storage and
        metric are used (the graph is its own navigation structure).
    graph_m:
        Forward-edge degree ``M``: every member links to its ``graph_m``
        nearest neighbors on the base layer.  Member queries with
        ``k <= graph_m`` are answered from the reverse adjacency with
        recall 1 up to k-th-distance ties; larger ``k`` falls back to
        beam search.  Also sets the layer-assignment decay (``1/M``).
    ef:
        Beam width of the base-layer best-first search used by raw-point
        queries (and member queries with ``k > graph_m``); the recall
        knob for navigated queries.  Widened to ``k`` when ``k > ef``.
    seed:
        Level-assignment seed; same data + same seed = same graph.
    """

    name = "graph"

    def __init__(
        self,
        index: Index,
        graph_m: int = 16,
        ef: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(index)
        self.graph_m = check_positive_int(graph_m, name="graph_m")
        self.ef = check_positive_int(ef, name="ef")
        self.seed = seed
        self._active = np.empty(0, dtype=np.intp)
        self._points = np.empty((0, index.dim), dtype=np.float64)
        self._levels = np.empty(0, dtype=np.intp)
        #: base-layer forward edges, ``(n, deg)`` local ids, -1 padded
        self._nbr = np.empty((0, 1), dtype=np.intp)
        #: matching sorted neighbor distances — the exact d_k cache
        self._nbr_dist = np.empty((0, 1), dtype=np.float64)
        #: upper layers, bottom-up: ``(members, nbrs)`` in local ids
        self._layers: list[tuple[np.ndarray, np.ndarray]] = []
        self._rev_indptr = np.zeros(1, dtype=np.intp)
        self._rev_indices = np.empty(0, dtype=np.intp)
        self._entry = -1

    # ------------------------------------------------------------------
    # Structure maintenance
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """The realized base-layer degree ``min(graph_m, n - 1)``."""
        n = self._active.shape[0]
        return min(self.graph_m, max(n - 1, 0))

    def _knn_among(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact kNN edges among ``members`` (local ids), chunked pairwise.

        Returns ``(neighbors, dists)`` of shape ``(m, deg)`` with
        neighbors as *local* ids into the full active set, sorted by
        distance; one -1/inf pad column when the subset is a singleton.
        """
        metric = self.index.metric
        pts = self._points[members]
        m = members.shape[0]
        deg = min(self.graph_m, m - 1)
        if deg <= 0:
            return (
                np.full((m, 1), -1, dtype=np.intp),
                np.full((m, 1), np.inf, dtype=np.float64),
            )
        nbrs = np.empty((m, deg), dtype=np.intp)
        dists = np.empty((m, deg), dtype=np.float64)
        chunk = adaptive_chunk_size(m)
        for start in range(0, m, chunk):
            stop = min(m, start + chunk)
            block = metric.pairwise(pts[start:stop], pts)
            block[np.arange(stop - start), np.arange(start, stop)] = np.inf
            part = np.argpartition(block, deg - 1, axis=1)[:, :deg]
            part_d = np.take_along_axis(block, part, axis=1)
            order = np.argsort(part_d, axis=1, kind="stable")
            nbrs[start:stop] = np.take_along_axis(part, order, axis=1)
            dists[start:stop] = np.take_along_axis(part_d, order, axis=1)
        return members[nbrs], dists

    def _assign_levels(self, n: int) -> np.ndarray:
        """Geometric layer assignment: ``P(level >= l) = (1/graph_m)^l``."""
        if n == 0:
            return np.empty(0, dtype=np.intp)
        rng = np.random.default_rng([self.seed, n])
        decay = 1.0 / max(2, self.graph_m)
        u = np.maximum(rng.random(n), 1e-300)
        levels = np.floor(np.log(u) / np.log(decay)).astype(np.intp)
        return np.minimum(levels, _MAX_LEVEL)

    def _rebuild(self, active_ids: np.ndarray) -> None:
        self._active = np.asarray(active_ids, dtype=np.intp)
        self._points = self.index.points[self._active]
        n = self._active.shape[0]
        self._nbr, self._nbr_dist = self._knn_among(
            np.arange(n, dtype=np.intp)
        )
        self._levels = self._assign_levels(n)
        self._finalize()

    def _finalize(self) -> None:
        """Derive layers, reverse adjacency, and the entry point.

        Everything here is deterministic arithmetic over the stored base
        layer + levels, shared by :meth:`_rebuild` and
        :meth:`adopt_graph` (the persistence fast path).
        """
        n = self._active.shape[0]
        self._layers = []
        top = int(self._levels.max()) if n else 0
        for level in range(1, top + 1):
            members = np.flatnonzero(self._levels >= level)
            if members.shape[0] <= 1:
                break
            nbrs, _ = self._knn_among(members)
            self._layers.append((members, nbrs))
        self._entry = int(np.argmax(self._levels)) if n else -1
        # Reverse adjacency of the base layer, CSR over local ids.
        edges = self._nbr.ravel()
        valid = edges >= 0
        src = np.repeat(np.arange(n, dtype=np.intp), self._nbr.shape[1])[valid]
        dst = edges[valid]
        order = np.argsort(dst, kind="stable")
        self._rev_indices = src[order]
        counts = np.bincount(dst, minlength=n)
        self._rev_indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=self._rev_indptr[1:])

    # ------------------------------------------------------------------
    # Persistence (Service.save / Service.load)
    # ------------------------------------------------------------------
    def serialized_graph(self) -> dict[str, np.ndarray]:
        """The npz arrays that round-trip the expensive build state.

        Only the base layer (+ levels) is stored: upper layers and the
        reverse CSR are cheap deterministic functions of it, recomputed
        by :meth:`adopt_graph`.
        """
        self.ensure_current()
        return {
            "graph_node_ids": self._active,
            "graph_levels": self._levels,
            "graph_neighbors": self._nbr,
            "graph_neighbor_dists": self._nbr_dist,
        }

    def adopt_graph(self, node_ids, levels, neighbors, neighbor_dists) -> bool:
        """Adopt a serialized base layer instead of rebuilding.

        Returns ``False`` — leaving the normal lazy rebuild in place —
        when the payload does not match the current active set or the
        configured degree (the deterministic-rebuild fallback for stale
        or foreign payloads).
        """
        node_ids = np.asarray(node_ids, dtype=np.intp)
        active = self.index.active_ids()
        if not np.array_equal(node_ids, active):
            return False
        n = active.shape[0]
        neighbors = np.asarray(neighbors, dtype=np.intp)
        neighbor_dists = np.asarray(neighbor_dists, dtype=np.float64)
        levels = np.asarray(levels, dtype=np.intp)
        expected_deg = max(min(self.graph_m, n - 1), 1) if n else 1
        if (
            neighbors.shape != (n, expected_deg)
            or neighbor_dists.shape != (n, expected_deg)
            or levels.shape != (n,)
        ):
            return False
        self._active = active
        self._points = self.index.points[active]
        self._nbr = neighbors
        self._nbr_dist = neighbor_dists
        self._levels = levels
        self._finalize()
        self._built_version = self.index.version
        return True

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _greedy(self, Q, cur, cur_dist, members, nbrs):
        """One layer of vectorized greedy descent (hop while improving)."""
        metric = self.index.metric
        pos = np.searchsorted(members, cur)
        rows = np.arange(Q.shape[0], dtype=np.intp)
        for _ in range(_MAX_HOPS):
            if rows.shape[0] == 0:
                break
            cand = nbrs[pos[rows]]
            valid = cand >= 0
            safe = np.where(valid, cand, 0)
            d = metric.to_point_sets(Q[rows], self._points[safe])
            d = np.where(valid, d, np.inf)
            j = np.argmin(d, axis=1)
            best = d[np.arange(rows.shape[0]), j]
            improved = best < cur_dist[rows]
            moved = rows[improved]
            hit = np.flatnonzero(improved)
            new_nodes = cand[hit, j[hit]]
            cur[moved] = new_nodes
            cur_dist[moved] = best[hit]
            pos[moved] = np.searchsorted(members, new_nodes)
            rows = moved
        return cur, cur_dist

    def _descend(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Greedy descent from the entry point to base-layer seeds."""
        metric = self.index.metric
        cur = np.full(Q.shape[0], self._entry, dtype=np.intp)
        cur_dist = np.asarray(
            metric.to_point(Q, self._points[self._entry]), dtype=np.float64
        )
        for members, nbrs in reversed(self._layers):
            cur, cur_dist = self._greedy(Q, cur, cur_dist, members, nbrs)
        return cur, cur_dist

    def _beam(self, Q, seeds, seed_dists, ef):
        """Best-first beam search on the base layer.

        Returns ``(beam_ids, scanned)``: per row the up-to-``ef``
        closest nodes discovered (local ids, -1 padded, sorted by
        distance) and the count of distance evaluations spent.
        """
        metric = self.index.metric
        B = Q.shape[0]
        n = self._active.shape[0]
        ef = min(ef, n)
        nbrs = self._nbr
        deg = nbrs.shape[1]
        visited = np.zeros((B, n), dtype=bool)
        rows0 = np.arange(B, dtype=np.intp)
        beam_i = np.full((B, ef), -1, dtype=np.intp)
        beam_d = np.full((B, ef), np.inf, dtype=np.float64)
        beam_x = np.zeros((B, ef), dtype=bool)
        beam_i[:, 0] = seeds
        beam_d[:, 0] = seed_dists
        visited[rows0, seeds] = True
        scanned = np.ones(B, dtype=np.intp)
        alive = np.ones(B, dtype=bool)
        for _ in range(n):
            rowsel = np.flatnonzero(alive)
            if rowsel.shape[0] == 0:
                break
            sub_i = beam_i[rowsel]
            unexp = ~beam_x[rowsel] & (sub_i >= 0)
            done = ~unexp.any(axis=1)
            if done.any():
                alive[rowsel[done]] = False
                rowsel = rowsel[~done]
                if rowsel.shape[0] == 0:
                    continue
                sub_i = sub_i[~done]
                unexp = unexp[~done]
            # The beam is kept distance-sorted, so the first _FRONTIER
            # unexpanded slots are the best unexpanded nodes.
            take = unexp & (np.cumsum(unexp, axis=1) <= _FRONTIER)
            trows, tcols = np.nonzero(take)
            beam_x[rowsel[trows], tcols] = True
            crow = np.repeat(rowsel[trows], deg)
            cnode = nbrs[sub_i[trows, tcols]].ravel()
            ok = cnode >= 0
            crow, cnode = crow[ok], cnode[ok]
            fresh = ~visited[crow, cnode]
            crow, cnode = crow[fresh], cnode[fresh]
            if crow.shape[0] == 0:
                continue
            # Two frontier nodes of one row can share a neighbor: dedupe
            # the (row, node) pairs before marking them visited.
            key = crow * n + cnode
            _, first = np.unique(key, return_index=True)
            crow, cnode = crow[first], cnode[first]
            visited[crow, cnode] = True
            np.add.at(scanned, crow, 1)
            cd = np.asarray(
                metric.paired(Q[crow], self._points[cnode]), dtype=np.float64
            )
            # Merge the new candidates into each touched row's beam: pad
            # to a rectangle, concatenate, keep the ef best.
            order = np.argsort(crow, kind="stable")
            crow, cnode, cd = crow[order], cnode[order], cd[order]
            urows, starts = np.unique(crow, return_index=True)
            counts = np.diff(np.append(starts, crow.shape[0]))
            width = int(counts.max())
            R = urows.shape[0]
            pad_d = np.full((R, width), np.inf, dtype=np.float64)
            pad_i = np.full((R, width), -1, dtype=np.intp)
            cols = np.arange(crow.shape[0]) - np.repeat(starts, counts)
            rws = np.repeat(np.arange(R), counts)
            pad_d[rws, cols] = cd
            pad_i[rws, cols] = cnode
            all_d = np.concatenate([beam_d[urows], pad_d], axis=1)
            all_i = np.concatenate([beam_i[urows], pad_i], axis=1)
            all_x = np.concatenate(
                [beam_x[urows], np.zeros((R, width), dtype=bool)], axis=1
            )
            keep = np.argsort(all_d, axis=1, kind="stable")[:, :ef]
            beam_d[urows] = np.take_along_axis(all_d, keep, axis=1)
            beam_i[urows] = np.take_along_axis(all_i, keep, axis=1)
            beam_x[urows] = np.take_along_axis(all_x, keep, axis=1)
        return beam_i, scanned

    def _reverse_of(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flattened reverse-adjacency lists of ``nodes`` (+ counts)."""
        starts = self._rev_indptr[nodes]
        ends = self._rev_indptr[nodes + 1]
        return _multi_slice(self._rev_indices, starts, ends)

    # ------------------------------------------------------------------
    # Strategy interface
    # ------------------------------------------------------------------
    def decide_batch(
        self, query_points: np.ndarray, exclude: np.ndarray, k: int
    ) -> list[StrategyDecision]:
        self.ensure_current()
        k = int(k)
        metric = self.index.metric
        active = self._active
        n = active.shape[0]
        m = query_points.shape[0]
        decisions: list[StrategyDecision | None] = [None] * m
        if n == 0:
            return [StrategyDecision() for _ in range(m)]
        deg = self.degree
        Q = np.asarray(query_points)

        # Member rows map to their local graph node; their exact d_k is
        # free from the sorted edge distances whenever k <= degree (and
        # trivially inf past the eligible-set size).
        local = np.full(m, -1, dtype=np.intp)
        mrows = np.flatnonzero(exclude >= 0)
        if mrows.shape[0]:
            pos = np.searchsorted(active, exclude[mrows])
            pos_in = np.minimum(pos, n - 1)
            found = active[pos_in] == exclude[mrows]
            local[mrows[found]] = pos_in[found]
        kth = np.full(m, np.nan)
        has_node = local >= 0
        if k > n - 1:
            kth[has_node] = np.inf
        elif k <= deg:
            kth[has_node] = self._nbr_dist[local[has_node], k - 1]

        # Fast path: member queries with a known d_k.  Every true reverse
        # neighbor x has q among its k <= graph_m nearest, so the edge
        # x -> q exists and the reverse list is a complete shortlist
        # (up to argpartition ties at the k-th distance).
        fast = has_node & ~np.isnan(kth)
        frows = np.flatnonzero(fast)
        if frows.shape[0]:
            flat, counts = self._reverse_of(local[frows])
            qrow = np.repeat(frows, counts)
            if flat.shape[0]:
                dists = np.asarray(
                    metric.paired(Q[qrow], self._points[flat]),
                    dtype=np.float64,
                )
            else:
                dists = np.empty(0, dtype=np.float64)
            ends = np.cumsum(counts)
            for i, r in enumerate(frows):
                lo = ends[i - 1] if i else 0
                decisions[r] = StrategyDecision(
                    pending_ids=active[flat[lo : ends[i]]],
                    pending_dists=dists[lo : ends[i]],
                    num_scanned=int(counts[i]),
                    query_kth=float(kth[r]),
                )

        # Navigated path: raw query points, and member queries whose k
        # exceeds the edge degree.  Greedy-descend the layer hierarchy,
        # beam-search an ef-neighborhood, then expand its reverse edges.
        srows = np.flatnonzero(~fast)
        ef = min(max(self.ef, k), n)
        for start in range(0, srows.shape[0], _QUERY_BLOCK):
            block = srows[start : start + _QUERY_BLOCK]
            Qb = Q[block]
            seeds, seed_dists = self._descend(Qb)
            own = local[block]
            seeded = own >= 0
            if seeded.any():
                # A member query's own node is the perfect seed
                # (distance 0 to itself).
                rows = np.flatnonzero(seeded)
                seeds[rows] = own[rows]
                seed_dists[rows] = np.asarray(
                    metric.paired(Qb[rows], self._points[own[rows]]),
                    dtype=np.float64,
                )
            beam_i, scanned = self._beam(Qb, seeds, seed_dists, ef)
            cand_per_row: list[np.ndarray] = []
            for i in range(block.shape[0]):
                ids = beam_i[i]
                ids = ids[ids >= 0]
                rev, _ = self._reverse_of(ids)
                cand = np.unique(np.concatenate([ids, rev]))
                if own[i] >= 0:
                    cand = cand[cand != own[i]]
                cand_per_row.append(cand)
            counts = np.asarray([c.shape[0] for c in cand_per_row])
            flat = (
                np.concatenate(cand_per_row)
                if counts.sum()
                else np.empty(0, dtype=np.intp)
            )
            qrow = np.repeat(block, counts)
            if flat.shape[0]:
                dists = np.asarray(
                    metric.paired(Q[qrow], self._points[flat]),
                    dtype=np.float64,
                )
            else:
                dists = np.empty(0, dtype=np.float64)
            ends = np.cumsum(counts)
            for i, r in enumerate(block):
                lo = ends[i - 1] if i else 0
                decisions[r] = StrategyDecision(
                    pending_ids=active[cand_per_row[i]],
                    pending_dists=dists[lo : ends[i]],
                    num_scanned=int(scanned[i] + counts[i]),
                    query_kth=float(kth[r]),
                )
        return decisions
