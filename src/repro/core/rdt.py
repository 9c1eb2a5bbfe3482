"""RDT — Reverse k-nearest neighbor queries by Dimensional Testing.

This is the paper's Algorithm 1, in two variants:

* **RDT**: every point retrieved by the expanding forward search enters the
  filter set and participates in witness counting;
* **RDT+** (Section 4.3): a retrieved point that collects ``k`` witnesses
  within its own first cycle is excluded from the filter set, trading a
  possible loss of precision for much cheaper witness maintenance on large
  candidate sets.

A query proceeds in two phases:

**Filter** — an incremental forward search expands from the query ``q``
through the backing index.  Each retrieved point ``v`` runs one witness
cycle against the current candidates (see :mod:`repro.core.witness`), then
the dimensional test (:mod:`repro.core.termination`) decides whether any
undiscovered reverse neighbor can still exist under the assumption that the
scale parameter ``t`` upper-bounds the local intrinsic dimensionality.
Points with identical query distance are drained as one tie group before
the test runs, so the rank bookkeeping matches the paper's max-rank
convention ``s = rho_S(q, v)``.

**Refinement** — candidates that were neither lazily accepted nor lazily
rejected are verified with forward kNN distances: ``x`` belongs to the
result iff ``d_k(x) >= d(q, x)`` (self-exclusive kNN distance, boundary
ties included).  This is the expensive step the witness rules exist to
avoid; the per-query statistics record exactly how many verifications were
spent.  All undecided candidates of a query (or of a whole batch, see
below) are verified with one call to the index's batched
:meth:`~repro.indexes.Index.knn_distances` capability rather than one
Python-level search per candidate.

**Batched execution** — :meth:`RDT.query_batch` answers many queries in
one pass and :meth:`RDT.query_all` answers one query per indexed point
(the RkNN self-join workload of the mining and evaluation modules).  The
batch engine vectorizes both phases:

* for the plain ``rdt`` variant the filter phase is computed in closed
  form from chunked pairwise distances — the sequential witness recursion
  of Algorithm 1 collapses, because with every retrieved point stored, the
  final witness count of a candidate ``x`` is simply the number of other
  candidates strictly inside the ball ``B(x, d(q, x))``, and ``x`` is
  lazily decided iff some later-retrieved point lies at distance at least
  ``2 d(q, x)``;
* for ``rdt+`` the exclusion rule makes the recursion genuinely
  sequential, so the filter runs per query while refinement is still
  batched;
* the refinement phase issues a single :meth:`knn_distances` call for the
  undecided candidates of the *entire batch*.

Per-query :class:`~repro.core.result.QueryStats` survive batching: the
semantic counters (retrieved/candidates/lazy decisions/verifications),
``omega`` and the termination reason are identical to a loop of
single-point queries; distance-call counts and wall-clock fields report
the batch's actual (shared, vectorized) work, attributed per query.

Exactness: with ``t`` at least the maximum generalized expansion dimension
of the data (see :func:`repro.lid.max_ged`), the returned set equals the
true reverse k-nearest neighbors (Theorem 1); for smaller ``t`` the result
may miss members whose query distance exceeds the final ``omega`` bound,
which is exposed in :class:`~repro.core.result.QueryStats`.
"""

from __future__ import annotations

import time
from typing import Iterator

import numpy as np

from repro.core.protocol import EngineBase
from repro.core.result import QueryStats, RkNNResult
from repro.core.termination import DimensionalTest
from repro.core.witness import CandidateStore
from repro.distances import EuclideanMetric
from repro import kernels
from repro.kernels import numpy_impl
from repro.indexes.base import Index
from repro.utils.tolerance import DIST_ATOL as _DIST_ATOL
from repro.utils.tolerance import DIST_RTOL as _DIST_RTOL
from repro.utils.tolerance import dist_le_many, inflate
from repro.utils.validation import (
    as_query_point,
    check_k,
    check_scale_parameter,
    resolve_batch_queries,
)

__all__ = ["RDT", "VARIANTS"]

VARIANTS = ("rdt", "rdt+")

#: Peak doubles of gathered-coordinate work per block of the batched
#: filter phase (the row budget divides this by n * dim).  Results are
#: block-size independent — the pairwise kernel's centering decision
#: depends only on Y, and selection/witness math is per-row — but time is
#: not: column budgets (preselect width, witness tensor sides) are maxima
#: over the block's rows, so wide blocks make every row pay for the
#: widest one.  Keep blocks narrow.
_FILTER_BLOCK = 4 * 1024 * 1024


def _tie_groups(
    neighbor_iter: Iterator[tuple[int, float]],
) -> Iterator[list[tuple[int, float]]]:
    """Group an ascending neighbor stream by exactly-equal distances."""
    group: list[tuple[int, float]] = []
    for point_id, dist in neighbor_iter:
        if group and dist != group[0][1]:
            yield group
            group = []
        group.append((point_id, dist))
    if group:
        yield group


class RDT(EngineBase):
    """Reverse-kNN query processor over any incremental-NN index.

    Parameters
    ----------
    index:
        Any :class:`repro.indexes.Index`.  The algorithm inherits the
        index's metric; dynamic updates to the index are picked up by
        subsequent queries automatically (the paper's Section 4 storage
        argument: RDT itself keeps no per-dataset state).
    variant:
        ``"rdt"`` or ``"rdt+"`` (candidate-set reduction).
    conservative:
        Use the provably exact termination rank ``k + 1`` (default); False
        reproduces the paper's literal formula with ``k``.  See
        :mod:`repro.core.termination`.
    use_witnesses:
        Ablation switch (default True).  With False, the witness machinery
        of Section 4.1 is skipped entirely: every candidate reaching the
        refinement phase is verified with a forward-kNN query, which is how
        the paper explains the RDT-over-SFT advantage (Section 8.2).  The
        result set is unchanged for plain RDT — only the cost moves.
    """

    supports_batch = True
    query_knobs = ("t",)
    batch_knobs = ("filter_mode",)

    def __init__(
        self,
        index: Index,
        variant: str = "rdt",
        conservative: bool = True,
        use_witnesses: bool = True,
    ) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if variant == "rdt+" and not use_witnesses:
            raise ValueError(
                "RDT+ is defined through its witness-based exclusion rule; "
                "use_witnesses=False only applies to the plain RDT variant"
            )
        self.index = index
        self.built_at_version = index.version
        self.variant = variant
        self.conservative = bool(conservative)
        self.use_witnesses = bool(use_witnesses)
        # Protocol identity: the registry names the two variants apart.
        self.engine_name = variant
        # Exact given t >= max GED (Theorem 1); RDT+ additionally trades
        # precision for cheaper witness upkeep (Section 4.3).
        self.guarantee = "scale-exact" if variant == "rdt" else "scale-recall"

    def __repr__(self) -> str:
        knobs = ""
        if not self.conservative:
            knobs += ", conservative=False"
        if not self.use_witnesses:
            knobs += ", use_witnesses=False"
        return f"RDT(variant={self.variant!r}{knobs}, index={self.index!r})"

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def query(
        self,
        query=None,
        *,
        query_index: int | None = None,
        k: int,
        t: float,
    ) -> RkNNResult:
        """Answer one reverse k-nearest neighbor query.

        Exactly one of ``query`` (a raw point, not necessarily a dataset
        member) or ``query_index`` (id of an indexed point; the point is
        excluded from its own answer, as in the paper's experiments) must
        be given.  ``t`` is the scale parameter trading accuracy for time;
        see :mod:`repro.core.scale` for data-driven choices.
        """
        k = check_k(k)
        t = check_scale_parameter(t)
        if (query is None) == (query_index is None):
            raise ValueError("provide exactly one of `query` or `query_index`")
        if query_index is not None:
            query_point = self.index.get_point(query_index)
        else:
            query_point = as_query_point(query, dim=self.index.dim)

        metric = self.index.metric
        calls_before = metric.num_calls
        stats = QueryStats()

        store, test = self._filter_phase(query_point, query_index, k, t, stats)
        result_ids, lazy_ids = self._refinement_phase(store, k, stats)

        stats.num_distance_calls = metric.num_calls - calls_before
        stats.omega = test.omega
        stats.terminated_by = test.terminated_by or "unknown"
        return RkNNResult(
            ids=result_ids, k=k, t=t, lazy_accepted_ids=lazy_ids, stats=stats
        )

    def query_batch(
        self,
        queries=None,
        *,
        query_indices=None,
        k: int,
        t: float,
        filter_mode: str = "auto",
    ) -> list[RkNNResult]:
        """Answer many reverse-kNN queries in one vectorized pass.

        Exactly one of ``queries`` (an ``(m, dim)`` array of raw points)
        or ``query_indices`` (a sequence of member point ids, each excluded
        from its own answer) must be given.  Returns one
        :class:`~repro.core.result.RkNNResult` per query, in input order,
        with decisions identical to a loop of :meth:`query` calls — only
        the execution strategy changes (see the module docstring).

        ``filter_mode`` selects the filter-phase strategy:

        * ``"auto"`` (default) — the closed-form vectorized filter for the
          plain ``rdt`` variant, the per-query sequential filter otherwise;
        * ``"sequential"`` — force the per-query index-driven filter.  The
          vectorized filter scans all active points per query, so on very
          large datasets with a pruning tree backend the sequential filter
          (plus the still-batched refinement) can do less total work;
        * ``"vectorized"`` — require the closed-form filter (raises for
          ``rdt+``, whose exclusion rule is order-dependent).
        """
        if filter_mode not in ("auto", "sequential", "vectorized"):
            raise ValueError(
                "filter_mode must be 'auto', 'sequential' or 'vectorized', "
                f"got {filter_mode!r}"
            )
        if filter_mode == "vectorized" and self.variant != "rdt":
            raise ValueError(
                "filter_mode='vectorized' requires the plain 'rdt' variant: "
                "the RDT+ exclusion rule is order-dependent and has no "
                "closed form"
            )
        k = check_k(k)
        t = check_scale_parameter(t)
        query_points, exclude = resolve_batch_queries(
            self.index, queries, query_indices
        )
        if query_points.shape[0] == 0:
            return []

        stats_list = [QueryStats() for _ in range(query_points.shape[0])]
        if self.variant == "rdt" and filter_mode != "sequential":
            stores = self._filter_phase_batch(
                query_points, exclude, k, t, stats_list
            )
        else:
            # Per-query index-driven filter: mandatory for RDT+ (each
            # exclusion changes the witness counts of everything retrieved
            # later, so the recursion is order-dependent), optional via
            # filter_mode for plain RDT; refinement is still batched.
            metric = self.index.metric
            stores = []
            for row, stats in enumerate(stats_list):
                calls_before = metric.num_calls
                query_index = int(exclude[row]) if exclude[row] >= 0 else None
                store, test = self._filter_phase(
                    query_points[row], query_index, k, t, stats
                )
                stats.num_distance_calls = metric.num_calls - calls_before
                stats.omega = test.omega
                stats.terminated_by = test.terminated_by or "unknown"
                stores.append(store)
        return self._refine_batch(stores, k, t, stats_list)

    def query_all(
        self, *, k: int, t: float, filter_mode: str = "auto"
    ) -> dict[int, RkNNResult]:
        """The RkNN self-join: one query per active indexed point.

        Returns ``{point_id: result}`` for every active point, computed
        through :meth:`query_batch` — this is the all-points mode the
        mining (:mod:`repro.mining`) and evaluation workloads consume.
        """
        ids = self.index.active_ids()
        results = self.query_batch(
            query_indices=ids, k=k, t=t, filter_mode=filter_mode
        )
        return {int(pid): result for pid, result in zip(ids, results)}

    # ------------------------------------------------------------------
    # Phase 1: expanding search with dimensional testing
    # ------------------------------------------------------------------
    def _filter_phase(
        self,
        query_point: np.ndarray,
        query_index: int | None,
        k: int,
        t: float,
        stats: QueryStats,
    ) -> tuple[CandidateStore, DimensionalTest]:
        started = time.perf_counter()
        n = self.index.size
        test = DimensionalTest(k, t, n, conservative=self.conservative)
        store = CandidateStore(self.index.dim, self.index.metric, k)
        exclude_if_rejected = self.variant == "rdt+"

        rank = 0
        for group in _tie_groups(self.index.iter_neighbors(query_point)):
            # Max-rank tie convention: every member of the group takes the
            # rank of the group's last element.
            rank += len(group)
            frontier = group[0][1]
            for point_id, dist in group:
                if point_id == query_index:
                    # The query point counts toward ranks (ball cardinalities
                    # are physical counts) but is never its own candidate.
                    continue
                if self.use_witnesses:
                    store.process_retrieved(
                        point_id,
                        self.index.get_point(point_id),
                        dist,
                        exclude_if_rejected=exclude_if_rejected,
                    )
                else:
                    store.append_candidate(
                        point_id, self.index.get_point(point_id), dist
                    )
            test.observe(rank, frontier)
            if test.should_terminate(rank, frontier):
                break
        else:
            test.mark_exhausted()

        stats.num_retrieved = rank
        stats.num_candidates = store.size
        stats.num_excluded = store.num_excluded
        stats.filter_seconds = time.perf_counter() - started
        return store, test

    # ------------------------------------------------------------------
    # Phase 1, batched: closed-form filter for the plain RDT variant
    # ------------------------------------------------------------------
    def _filter_phase_batch(
        self,
        query_points: np.ndarray,
        exclude: np.ndarray,
        k: int,
        t: float,
        stats_list: list[QueryStats],
    ) -> list[CandidateStore]:
        """Vectorized filter phase for ``variant="rdt"``.

        Each query's distances to the whole active set carry the same bits
        as the sequential scan's per-query ``metric.to_point`` call (the
        row-block ``to_point_many`` kernel evaluates the identical
        elementwise expression), so tie-group structure and termination
        rank are bit-identical to a looped :meth:`query`.  The termination
        rank, final witness counts and lazy decisions then follow in
        closed form (see the module docstring for why the sequential
        recursion collapses when every retrieved point is stored).

        The selection, sort, and omega recursion run row-parallel over
        blocks of queries; rows whose selection straddles a tie group at
        the rank cap fall back to the per-row closed form, which handles
        straddling exactly.
        """
        index = self.index
        metric = index.metric
        active = index.active_ids()
        points = index.points[active]
        n = active.shape[0]
        probe = DimensionalTest(k, t, n, conservative=self.conservative)
        rank_cap = probe.rank_cap
        termination_rank = probe.termination_rank
        inv_t = 1.0 / probe.t
        m = query_points.shape[0]

        if n == 0:
            # Empty active set: nothing to select; the closed form marks
            # every query's search exhausted.
            empty = np.empty(0)
            return [
                self._filter_one_from_distances(
                    empty,
                    active,
                    int(exclude[row]),
                    k,
                    termination_rank,
                    rank_cap,
                    inv_t,
                    stats,
                )
                for row, stats in enumerate(stats_list)
            ]

        out: list[CandidateStore | None] = [None] * m
        m_scale = (
            self._max_centered_norm_sq(points) if self.use_witnesses else 0.0
        )
        bound_scale = (
            4.0 * 1000.0 * index.dim * float(np.finfo(points.dtype).eps) * m_scale
            if self.use_witnesses
            else None
        )
        fast_select = isinstance(metric, EuclideanMetric)
        presel_err = (
            self._preselect_error_bound(query_points, points)
            if fast_select
            else 0.0
        )
        all_points = index.points
        points_mu = points.mean(axis=0) if n else None
        limit = min(rank_cap, n)
        presel_stats = None
        if fast_select and limit < n and kernels.active_backend() == "numpy":
            # Hoist the pairwise kernel's Y-side passes (squared norms,
            # mean, centering decision — chunk-independent by design) out
            # of the per-block loop; the stats variant then reproduces
            # metric.pairwise(qblock, points) bit-for-bit.
            presel_stats = numpy_impl.euclidean_y_stats(points)
        # Column-constant parts of the omega recursion: rank r sits at
        # column r - 1 of every sorted selection row.
        col_ranks = np.arange(1, limit + 1, dtype=np.int64)
        rank_eligible = col_ranks > termination_rank
        ratio_row = np.where(
            rank_eligible, (col_ranks / termination_rank) ** inv_t - 1.0, np.inf
        )
        cap_cols = (col_ranks >= rank_cap)[None, :]

        block = max(1, _FILTER_BLOCK // max(1, n * max(1, index.dim)))
        for start in range(0, m, block):
            stop = min(m, start + block)
            width = stop - start
            t_block = time.perf_counter()
            qblock = query_points[start:stop]
            cols = None
            if fast_select and limit < n:
                # Squared-domain preselection with the dgemm expansion
                # kernel: the exact ``limit`` smallest distances (with all
                # their ties) of every row are guaranteed to sit among its
                # columns with approx-squared value within ``2 * presel_err``
                # of the row's limit-th smallest — exact distances are then
                # recomputed only for that thin slab of columns.
                if presel_stats is not None:
                    asq = kernels.euclidean_pairwise_stats(
                        qblock, *presel_stats
                    )
                    metric.num_calls += width * n
                else:
                    asq = metric.pairwise(qblock, points)
                np.square(asq, out=asq)
                lp = limit + 64
                if lp < n:
                    # One O(n)-selection pass: the limit-th smallest (for
                    # the threshold) and the candidate columns both come
                    # from the same ``lp``-wide argpartition.  When every
                    # row's prefix boundary value exceeds its threshold,
                    # the prefix provably contains all below-threshold
                    # entries and is itself a valid column superset — the
                    # downstream selection works on exact recomputed
                    # distances, so extra columns are harmless — and the
                    # full-width counting pass is skipped entirely.
                    part = np.argpartition(asq, lp - 1, axis=1)[:, :lp]
                    vals = np.take_along_axis(asq, part, axis=1)
                    thr = (
                        np.partition(vals, limit - 1, axis=1)[:, limit - 1]
                        + 2.0 * presel_err
                    )
                    if bool((vals.max(axis=1) > thr).all()):
                        cols = np.sort(part, axis=1)
                else:
                    thr = (
                        np.partition(asq, limit - 1, axis=1)[:, limit - 1]
                        + 2.0 * presel_err
                    )
                if cols is None:
                    # Tie plateau at the prefix boundary (or no usable
                    # prefix): fall back to the exact counting pass.
                    maxc = int(
                        np.count_nonzero(asq <= thr[:, None], axis=1).max()
                    )
                    if maxc < n:
                        cols = np.sort(
                            np.argpartition(asq, maxc - 1, axis=1)[:, :maxc],
                            axis=1,
                        )
                if cols is not None:
                    # Bit-identical to per-point ``to_point``: same
                    # subtraction, same contiguous last-axis reduction.
                    diff = points[cols] - qblock[:, None, :]
                    sub_d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
                del asq
            if cols is None:
                sub_d = metric.to_point_many(qblock, points)
            share_seconds = (time.perf_counter() - t_block) / width

            nc = sub_d.shape[1]
            if limit < nc:
                part = np.argpartition(sub_d, limit - 1, axis=1)[:, :limit]
                # Ascending positions restore ascending ids (active is
                # sorted and cols rows are sorted), so a stable sort by
                # distance afterwards equals the per-row
                # lexsort((ids, dists)).
                pos = np.sort(part, axis=1)
                sel = np.take_along_axis(sub_d, pos, axis=1)
                order = np.argsort(sel, axis=1, kind="stable")
                sel = np.take_along_axis(sel, order, axis=1)
                pos = np.take_along_axis(pos, order, axis=1)
                counts = np.count_nonzero(
                    sub_d <= sel[:, -1][:, None], axis=1
                )
                # Rows where a tie group straddles the cap retrieve more
                # than ``limit`` points; leave them to the per-row path.
                # (Preselection never hides straddles: every point within
                # tolerance of the limit-th distance is among the columns.)
                regular = counts == limit
            else:
                pos = np.argsort(sub_d, axis=1, kind="stable")
                sel = np.take_along_axis(sub_d, pos, axis=1)
                regular = np.ones(width, dtype=bool)

            reg = np.flatnonzero(regular)
            if reg.shape[0]:
                sd = sel[reg]
                nreg = reg.shape[0]
                is_end = np.empty(sd.shape, dtype=bool)
                if sd.shape[1] > 1:
                    np.not_equal(sd[:, 1:], sd[:, :-1], out=is_end[:, :-1])
                is_end[:, -1] = True
                eligible = is_end & rank_eligible[None, :] & (sd > 0.0)
                bounds = np.full(sd.shape, np.inf)
                np.divide(
                    sd,
                    ratio_row[None, :],
                    out=bounds,
                    where=eligible & (ratio_row > 0.0)[None, :],
                )
                omega_run = np.minimum.accumulate(bounds, axis=1)
                terminating = is_end & ((sd > omega_run) | cap_cols)
                first_end = np.argmax(terminating, axis=1)
                has_hit = terminating[np.arange(nreg), first_end]
                ret = np.where(has_hit, first_end + 1, sd.shape[1])

                # Compact every regular row's candidate set (retrieved
                # prefix minus the query itself) into padded (nreg, c)
                # arrays so witness counting runs as one batched kernel.
                max_r = int(ret.max())
                pos_r = pos[reg, :max_r]
                if cols is not None:
                    gpos = np.take_along_axis(cols[reg], pos_r, axis=1)
                else:
                    gpos = pos_r
                ids_mat = active[gpos]
                d_mat = sd[:, :max_r]
                valid = np.arange(max_r)[None, :] < ret[:, None]
                keep = valid & (ids_mat != exclude[start:stop][reg][:, None])
                sizes = keep.sum(axis=1)
                c = int(sizes.max()) if nreg else 0
                corder = np.argsort(~keep, axis=1, kind="stable")[:, :c]
                cand_ids = np.take_along_axis(ids_mat, corder, axis=1)
                cand_d = np.take_along_axis(d_mat, corder, axis=1)
                cvalid = np.arange(c)[None, :] < sizes[:, None]

                counts_w = None
                dk = None
                if self.use_witnesses and c:
                    counts_w, dk = self._batched_witnesses(
                        all_points,
                        points_mu,
                        cand_ids,
                        cand_d,
                        cvalid,
                        k,
                        m_scale,
                    )

                arange_cache: dict[int, np.ndarray] = {}
                for j in range(nreg):
                    row = start + int(reg[j])
                    stats = stats_list[row]
                    t_row = time.perf_counter()
                    if has_hit[j]:
                        g = int(first_end[j])
                        stats.omega = float(omega_run[j, g])
                        stats.terminated_by = (
                            "omega" if sd[j, g] > omega_run[j, g] else "rank-cap"
                        )
                    else:
                        # Only reachable when the selection covered the
                        # whole index.
                        stats.omega = float(omega_run[j, -1])
                        stats.terminated_by = "exhausted"
                    size = int(sizes[j])
                    cid = cand_ids[j, :size].astype(np.intp)
                    cd = np.array(cand_d[j, :size])
                    cpts = all_points[cid]
                    witnesses = np.zeros(size, dtype=np.int64)
                    decided = np.zeros(size, dtype=bool)
                    accepted = np.zeros(size, dtype=bool)
                    dk_caps = None
                    wit_calls = 0
                    if size and self.use_witnesses:
                        witnesses = np.array(counts_w[j, :size])
                        wit_calls = size * size
                        if dk is not None:
                            dk_caps = dk[j, :size].copy()
                        ar = arange_cache.get(size)
                        if ar is None:
                            ar = np.arange(size)
                            arange_cache[size] = ar
                        decided = (ar < size - 1) & (2.0 * cd <= cd[-1])
                        accepted = decided & (witnesses < k)
                    store = CandidateStore(index.dim, metric, k)
                    store._ids = cid
                    store._points = cpts
                    store._query_dists = cd
                    store._witnesses = witnesses
                    store._decided = decided
                    store._accepted = accepted
                    store.size = size
                    store.dk_caps = dk_caps
                    out[row] = store
                    stats.num_retrieved = int(ret[j])
                    stats.num_candidates = size
                    stats.num_excluded = 0
                    stats.num_distance_calls = n + wit_calls
                    stats.filter_seconds = share_seconds + (
                        time.perf_counter() - t_row
                    )

            for row_local in np.flatnonzero(~regular):
                row = start + int(row_local)
                stats = stats_list[row]
                t_row = time.perf_counter()
                calls_row = metric.num_calls
                if cols is None:
                    dists_full = sub_d[row_local]
                else:
                    dists_full = metric.to_point(points, query_points[row])
                out[row] = self._filter_one_from_distances(
                    dists_full,
                    active,
                    int(exclude[row]),
                    k,
                    termination_rank,
                    rank_cap,
                    inv_t,
                    stats,
                    bound_scale,
                )
                stats.num_distance_calls = n + (metric.num_calls - calls_row)
                stats.filter_seconds = share_seconds + (
                    time.perf_counter() - t_row
                )
        return out

    def _filter_one_from_distances(
        self,
        dists: np.ndarray,
        ids: np.ndarray,
        query_index: int,
        k: int,
        termination_rank: int,
        rank_cap: int,
        inv_t: float,
        stats: QueryStats,
        bound_scale: float | None = None,
    ) -> CandidateStore:
        """Closed-form filter outcome for one query, given all distances."""
        n = dists.shape[0]
        # Only the first rank_cap ranks (plus the tie group straddling the
        # cap) can ever be retrieved; select them without a full sort.
        limit = min(rank_cap, n)
        if limit < n:
            threshold = np.partition(dists, limit - 1)[limit - 1]
            selection = np.flatnonzero(dists <= threshold)
            sel_dists = dists[selection]
            sel_ids = ids[selection]
        else:
            sel_dists = dists
            sel_ids = ids
        order = np.lexsort((sel_ids, sel_dists))
        sel_dists = sel_dists[order]
        sel_ids = sel_ids[order]
        if sel_dists.shape[0] == 0:
            # Empty active set: mirror the sequential loop, which yields no
            # groups and marks the search exhausted.
            stats.omega = float("inf")
            stats.terminated_by = "exhausted"
            stats.num_retrieved = 0
            stats.num_candidates = 0
            stats.num_excluded = 0
            store = CandidateStore(self.index.dim, self.index.metric, k)
            return store

        # Tie groups and the omega recursion over their end ranks.
        boundaries = np.flatnonzero(sel_dists[1:] != sel_dists[:-1])
        ends = np.append(boundaries, sel_dists.shape[0] - 1)
        ranks = ends + 1
        group_dists = sel_dists[ends]
        eligible = (ranks > termination_rank) & (group_dists > 0.0)
        ratio = np.where(
            eligible, (ranks / termination_rank) ** inv_t - 1.0, np.inf
        )
        # Huge t underflows the ratio to exactly 0.0; divide only where the
        # bound is defined instead of filtering a 0-division afterwards.
        bounds = np.full(ratio.shape, np.inf)
        np.divide(
            group_dists, ratio, out=bounds, where=eligible & (ratio > 0.0)
        )
        omega_run = np.minimum.accumulate(bounds)
        terminating = (group_dists > omega_run) | (ranks >= rank_cap)
        hits = np.flatnonzero(terminating)
        if hits.shape[0]:
            g = int(hits[0])
            retrieved = int(ranks[g])
            stats.omega = float(omega_run[g])
            stats.terminated_by = (
                "omega" if group_dists[g] > omega_run[g] else "rank-cap"
            )
        else:
            # Only reachable when the selection covered the whole index.
            retrieved = int(sel_dists.shape[0])
            stats.omega = float(omega_run[-1]) if ends.shape[0] else float("inf")
            stats.terminated_by = "exhausted"

        return self._finish_store(
            sel_ids[:retrieved],
            sel_dists[:retrieved],
            query_index,
            k,
            retrieved,
            stats,
            bound_scale,
        )

    def _finish_store(
        self,
        prefix_ids: np.ndarray,
        prefix_dists: np.ndarray,
        query_index: int,
        k: int,
        retrieved: int,
        stats: QueryStats,
        bound_scale: float | None = None,
    ) -> CandidateStore:
        """Candidate store for one query from its retrieved prefix."""
        if query_index >= 0:
            keep = prefix_ids != query_index
            cand_ids = prefix_ids[keep]
            cand_dists = prefix_dists[keep]
        else:
            cand_ids = prefix_ids.copy()
            cand_dists = prefix_dists.copy()
        cand_points = self.index.points[cand_ids]
        size = cand_ids.shape[0]

        witnesses = np.zeros(size, dtype=np.int64)
        decided = np.zeros(size, dtype=bool)
        accepted = np.zeros(size, dtype=bool)
        if size and self.use_witnesses:
            # Final witness count of x = other candidates strictly inside
            # B(x, d(q, x)); all of them are retrieved before any point at
            # distance >= 2 d(q, x), so the count at lazy-decision time
            # equals the final count.
            witnesses = self._count_witnesses(cand_points, cand_dists, bound_scale)
            # x is decided iff a later-retrieved point completed its ball:
            # candidates are in retrieval order, so the last one decides all
            # the others whose doubled query distance it covers.
            decided = (np.arange(size) < size - 1) & (
                2.0 * cand_dists <= cand_dists[-1]
            )
            accepted = decided & (witnesses < k)

        store = CandidateStore(self.index.dim, self.index.metric, k)
        store._ids = cand_ids.astype(np.intp)
        store._points = cand_points
        store._query_dists = cand_dists
        store._witnesses = witnesses.astype(np.int64)
        store._decided = decided
        store._accepted = accepted
        store.size = size
        stats.num_retrieved = retrieved
        stats.num_candidates = size
        stats.num_excluded = 0
        return store

    @staticmethod
    def _preselect_error_bound(queries: np.ndarray, points: np.ndarray) -> float:
        """Absolute error bound on the expansion kernel's squared distances.

        Mirrors the centering decision of the dispatched pairwise kernel
        (``repro.kernels.numpy_impl.euclidean_pairwise``): when the kernel
        centers on the point mean, errors scale with the centered squared
        norms; otherwise with the raw ones.  The factor is deliberately
        generous (the true bound is ``~log2(dim)`` epsilons) — a too-large
        bound only widens the preselection by a few columns.
        """
        if points.shape[0] == 0 or queries.shape[0] == 0:
            return 0.0
        yy = np.einsum("ij,ij->i", points, points)
        mu = points.mean(axis=0)
        offset_sq = float(mu @ mu)
        spread_sq = max(float(yy.mean()) - offset_sq, 0.0)
        if offset_sq > 100.0 * spread_sq:
            q = queries - mu
            p = points - mu
            yy = np.einsum("ij,ij->i", p, p)
        else:
            q = queries
        xx = np.einsum("ij,ij->i", q, q)
        m_sq = max(float(xx.max()), float(yy.max()))
        eps = float(np.finfo(points.dtype).eps)
        return 1000.0 * points.shape[1] * eps * m_sq

    def _batched_witnesses(
        self,
        all_points: np.ndarray,
        points_mu: np.ndarray,
        cand_ids: np.ndarray,
        cand_d: np.ndarray,
        cvalid: np.ndarray,
        k: int,
        m_scale: float,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Witness counts for a block of candidate sets in one batched kernel.

        ``cand_ids``/``cand_d`` are ``(r, c)`` padded candidate ids and
        exact query distances; ``cvalid`` masks the padding.  Returns
        ``(counts, dk_caps)``: per-candidate witness counts and optional
        upper bounds on each candidate's true k-th NN distance (``inf``
        where underfull).

        The distance tensor is assembled in float32 on globally centered
        coordinates: the comparisons run in the squared domain, where every
        decision farther than the float32-scaled error bound from its
        boundary provably matches the exact per-pair computation, and each
        entry inside that band is recomputed individually with the same
        subtract/einsum/sqrt bit recipe as :meth:`Metric.to_point` — so the
        counts equal the sequential path's everywhere, at half the memory
        traffic of a float64 tensor.
        """
        eps32 = float(np.finfo(np.float32).eps)
        # ``m_scale`` is the full set's largest centered squared norm.
        # This path centers on the full-set mean, so every norm here is
        # bounded by m_scale directly (no subset-mean headroom), and the
        # true float32 assembly error is ~(dim + 14) * eps32 * m_scale; a
        # 32x margin keeps the bound sound with a thin repair band — the
        # scalar path's 1000x slack would flag a visible fraction of all
        # entries at float32 eps and melt the batched win into repairs.
        dim = all_points.shape[1]
        err32 = 32.0 * (dim + 16.0) * eps32 * m_scale
        cp = (all_points[cand_ids] - points_mu).astype(
            np.float32, copy=False
        )
        nn = np.einsum("ijk,ijk->ij", cp, cp)
        # Padding rows get an inf norm, which floods their sq rows AND
        # columns with inf — they can never witness or be witnessed.
        nn[~cvalid] = np.inf
        sq = cp @ cp.swapaxes(1, 2)
        sq *= np.float32(-2.0)
        sq += nn[:, :, None]
        sq += nn[:, None, :]
        np.maximum(sq, np.float32(0.0), out=sq)
        c = sq.shape[1]
        diag = np.arange(c)
        sq[:, diag, diag] = np.inf
        bound_sq = np.where(
            cvalid,
            np.square(cand_d.astype(np.float32)),
            np.float32(-np.inf),
        )
        b3 = bound_sq[:, None, :]
        max_bsq = np.max(
            np.where(cvalid, bound_sq, np.float32(0.0)), axis=1
        ).astype(np.float64)
        # The band must absorb the float32 kernel error, the float32
        # rounding of the bounds themselves, and the distance-domain
        # comparison tolerance mapped into the squared domain; the 1.25
        # headroom also covers the cast of the threshold back to float32.
        threshold = (
            1.25
            * (
                err32
                + 8.0 * eps32 * max_bsq
                + 2.0 * (_DIST_RTOL * max_bsq + _DIST_ATOL)
            )
        ).astype(np.float32)[:, None, None]
        # Entries within the band (or non-finite — overflow in float32)
        # cannot be decided from the float32 tensor; written as a negated
        # comparison so NaNs land in the repair set.
        flagged = ~(np.abs(sq - b3) > threshold)
        counts = np.count_nonzero((sq < b3) & ~flagged, axis=1)
        if flagged.any():
            # Per-entry exact repair: recompute each flagged pair with the
            # raw (uncentered) rows and the contiguous last-axis einsum —
            # bit-identical to Metric.to_point — then compare strictly in
            # the distance domain exactly like the sequential path.
            w_i, i_i, j_i = np.nonzero(flagged)
            diff = all_points[cand_ids[w_i, i_i]] - all_points[
                cand_ids[w_i, j_i]
            ]
            exact = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            np.add.at(counts, (w_i, j_i), exact < cand_d[w_i, j_i])
        dk = None
        if c > k:
            # k-th smallest candidate-to-candidate distance per column is
            # an upper bound on that candidate's true k-th NN distance
            # (all candidates are distinct member points); widened by the
            # float32 kernel error bound so it stays valid against exact
            # bits.  Caps are pure pruning hints, so float32 precision is
            # fine as long as the bound stays an upper bound.
            sq_t = np.ascontiguousarray(sq.swapaxes(1, 2))
            sq_t.partition(k - 1, axis=2)
            dk = np.sqrt(sq_t[:, :, k - 1].astype(np.float64) + err32)
            dk[~np.isfinite(dk)] = np.inf
        return counts, dk

    @staticmethod
    def _max_centered_norm_sq(points: np.ndarray) -> float:
        """Largest squared norm of ``points`` centered on their mean."""
        if points.shape[0] == 0:
            return 0.0
        centered = points - points.mean(axis=0)
        return float(np.einsum("ij,ij->i", centered, centered).max())

    def _count_witnesses(
        self,
        cand_points: np.ndarray,
        cand_dists: np.ndarray,
        bound_scale: float | None = None,
    ) -> np.ndarray:
        """Witness counts for one query's candidate set, column-chunked.

        ``W[x] = #{u != x : d(u, x) < d(q, x)}``, computed with the fast
        pairwise kernel in memory-bounded column blocks.  The strict
        comparison must decide exactly like the sequential path's
        per-point ``to_point`` calls, and the two kernels can sit one ulp
        apart precisely at ties — so any column holding an entry within a
        conservative kernel-error bound of its decision boundary is
        recomputed with :meth:`~repro.distances.Metric.to_point`
        (bit-identical to the sequential comparison).  On tie-free data
        the bound never fires and the dgemm-speed path stands.
        """
        metric = self.index.metric
        size, dim = cand_points.shape
        witnesses = np.empty(size, dtype=np.int64)
        if bound_scale is None:
            eps = float(np.finfo(cand_points.dtype).eps)
            centered = cand_points - cand_points.mean(axis=0)
            max_norm_sq = float(np.einsum("ij,ij->i", centered, centered).max())
            bound_scale = 1000.0 * dim * eps * max_norm_sq
        block = max(16, _FILTER_BLOCK // max(1, size))
        for start in range(0, size, block):
            stop = min(size, start + block)
            pair = metric.pairwise(cand_points, cand_points[start:stop])
            diag = np.arange(start, stop)
            pair[diag, diag - start] = np.inf
            bounds = cand_dists[None, start:stop]
            gaps = np.abs(pair - bounds)
            min_pair = float(pair.min())
            if min_pair <= 0.0:
                threshold = np.inf  # duplicate candidates: always repair
            else:
                threshold = (
                    _DIST_RTOL * float(cand_dists.max())
                    + _DIST_ATOL
                    + bound_scale / min_pair
                )
            if float(gaps.min()) <= threshold:
                cols = np.flatnonzero((gaps <= threshold).any(axis=0))
                exact = metric.to_point_many(
                    cand_points, cand_points[start + cols]
                )
                exact[start + cols, np.arange(cols.shape[0])] = np.inf
                pair[:, cols] = exact
            witnesses[start:stop] = np.count_nonzero(pair < bounds, axis=0)
        return witnesses

    # ------------------------------------------------------------------
    # Phase 2: verification of undecided candidates
    # ------------------------------------------------------------------
    def _verify_stores(
        self,
        stores: list[CandidateStore],
        k: int,
        stats_list: list[QueryStats],
    ) -> list[np.ndarray]:
        """Verify the undecided candidates of one or more stores in one call.

        The per-candidate forward-kNN searches of the sequential algorithm
        collapse into a single :meth:`~repro.indexes.Index.knn_distances`
        invocation over the concatenated candidate rows; wall-clock time
        and distance calls of that shared call are attributed to each query
        in proportion to its number of verified candidates.  Returns the
        final accepted mask per store and fills each query's lazy/verify
        statistics.
        """
        metric = self.index.metric
        slots_list = [np.flatnonzero(s.needs_verification) for s in stores]
        row_counts = [int(sl.shape[0]) for sl in slots_list]
        total_rows = sum(row_counts)

        hits_list: list[np.ndarray] = [
            np.zeros(count, dtype=bool) for count in row_counts
        ]
        shared_seconds = 0.0
        shared_calls = 0
        if total_rows:
            rows = np.concatenate(
                [s.points[sl] for s, sl in zip(stores, slots_list)], axis=0
            )
            exclude = np.concatenate(
                [s.ids[sl] for s, sl in zip(stores, slots_list)]
            )
            query_dists = np.concatenate(
                [s.query_dists[sl] for s, sl in zip(stores, slots_list)]
            )
            started = time.perf_counter()
            calls_before = metric.num_calls
            # Per-occurrence upper bounds on each candidate's k-th NN
            # distance, seeding the batched kNN so the tree descent prunes
            # from the first node instead of warming up its radii from
            # ``inf``.  Triangle bound: the k + 1 filter candidates
            # closest to q all sit within spill = (k+1)-th smallest
            # d(q, .) of q, so at least k points other than x lie within
            # d(q, x) + spill of x.  The filter's dk_caps (k-th NN among
            # the candidate set itself) are usually far tighter.  Inflated
            # so kernel round-off can never make a cap exclusive of a true
            # k-th neighbor.
            occ_caps = np.full(total_rows, np.inf)
            offset = 0
            for store, slots in zip(stores, slots_list):
                count = int(slots.shape[0])
                if count:
                    bound = np.full(count, np.inf)
                    if store.size > k:
                        spill = float(np.partition(store.query_dists, k)[k])
                        bound = (
                            store.query_dists[slots].astype(np.float64)
                            + spill
                        )
                    if store.dk_caps is not None:
                        bound = np.minimum(bound, store.dk_caps[slots])
                    occ_caps[offset : offset + count] = bound
                offset += count
            occ_caps = inflate(occ_caps, dtype=rows.dtype)
            hits = np.zeros(total_rows, dtype=bool)
            # Cap pre-reject: the final test is a tolerant
            # d(q, x) <= kth(x), and the computed kth can never exceed the
            # inflated cap — so a candidate already failing the test
            # against its cap fails it against kth too, and never needs
            # the search.
            alive = dist_le_many(query_dists, occ_caps)
            if np.any(alive):
                a_idx = np.flatnonzero(alive)
                # Candidates are always member points verified against
                # S \ {candidate}, so their k-th NN distance is independent
                # of which query asked: verify each distinct candidate once
                # and scatter the answer back to every occurrence.
                unique_ids, first_rows, inverse = np.unique(
                    exclude[a_idx], return_index=True, return_inverse=True
                )
                caps = np.full(unique_ids.shape[0], np.inf)
                np.minimum.at(caps, inverse, occ_caps[a_idx])
                kth_unique = self.index.knn_distances(
                    rows[a_idx][first_rows],
                    k,
                    exclude_indices=unique_ids,
                    prune_caps=caps,
                )
                hits[a_idx] = dist_le_many(
                    query_dists[a_idx], kth_unique[inverse]
                )
            shared_calls = metric.num_calls - calls_before
            shared_seconds = time.perf_counter() - started
            offset = 0
            for i, count in enumerate(row_counts):
                hits_list[i] = hits[offset : offset + count]
                offset += count

        accepted_masks: list[np.ndarray] = []
        for store, slots, hits, stats in zip(
            stores, slots_list, hits_list, stats_list
        ):
            accepted_mask = store.accepted.copy()
            accepted_mask[slots[hits]] = True
            stats.num_verified = int(slots.shape[0])
            stats.num_verified_hits = int(np.count_nonzero(hits))
            stats.num_lazy_accepts = int(np.count_nonzero(store.accepted))
            stats.num_lazy_rejects = (
                int(np.count_nonzero(store.lazy_rejected)) + store.num_excluded
            )
            if total_rows:
                fraction = slots.shape[0] / total_rows
                stats.refine_seconds = shared_seconds * fraction
                stats.num_distance_calls += int(round(shared_calls * fraction))
            accepted_masks.append(accepted_mask)
        return accepted_masks

    def _refinement_phase(
        self, store: CandidateStore, k: int, stats: QueryStats
    ) -> tuple[np.ndarray, np.ndarray]:
        accepted_mask = self._verify_stores([store], k, [stats])[0]
        lazy_ids = np.sort(store.ids[store.accepted])
        result_ids = np.sort(store.ids[accepted_mask])
        return result_ids.astype(np.intp), lazy_ids.astype(np.intp)

    def _refine_batch(
        self,
        stores: list[CandidateStore],
        k: int,
        t: float,
        stats_list: list[QueryStats],
    ) -> list[RkNNResult]:
        """Build per-query results on top of the shared verification core."""
        accepted_masks = self._verify_stores(stores, k, stats_list)
        return [
            RkNNResult(
                ids=np.sort(store.ids[mask]).astype(np.intp),
                k=k,
                t=t,
                lazy_accepted_ids=np.sort(store.ids[store.accepted]).astype(
                    np.intp
                ),
                stats=stats,
            )
            for store, mask, stats in zip(stores, accepted_masks, stats_list)
        ]
