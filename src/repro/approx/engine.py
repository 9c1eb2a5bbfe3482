"""The approximate RkNN engine: one API over interchangeable strategies.

:class:`ApproxRkNN` mirrors the exact engine's query surface —
``query`` / ``query_batch`` / ``query_all`` with the ``queries`` /
``query_indices`` calling convention of :meth:`repro.core.RDT.query_batch`
— and returns the same :class:`~repro.core.result.RkNNResult` /
:class:`~repro.core.result.QueryStats` containers, so evaluation harness,
mining code, and tests drive exact and approximate engines through one
shape.  Only the guarantee changes: correctness is *statistical* (recall
and precision measured against the brute-force oracle) instead of
bit-exact, with the failure mode determined by the strategy
(:mod:`repro.approx.base`).

Execution is two-phase, like the exact batch engine:

1. the strategy's cheap phase splits each query's member set into
   accepted / pending / ignored (:class:`~repro.approx.base.StrategyDecision`);
2. the engine verifies all pending candidates of the whole batch with
   **one** deduplicated :meth:`~repro.indexes.Index.knn_distances` call —
   the same shared-refinement trick as :meth:`RDT.query_batch` — and
   decides them with the tolerant boundary comparison
   (:func:`repro.utils.tolerance.dist_le_many`).

``QueryStats`` are filled so cost reporting composes with the exact
engines: ``num_lazy_accepts`` counts unverified accepts,
``num_verified``/``num_verified_hits`` the exact fallbacks, and the
shared verification cost is attributed per query in proportion to its
verified candidates.  ``stats.terminated_by`` is ``"approx-<strategy>"``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.approx.base import ApproxStrategy
from repro.core.protocol import EngineBase
from repro.core.result import QueryStats, RkNNResult
from repro.indexes.base import Index
from repro.utils.tolerance import dist_le_many
from repro.utils.validation import (
    as_query_point,
    check_k,
    resolve_batch_queries,
)

__all__ = ["ApproxRkNN"]


class ApproxRkNN(EngineBase):
    """Approximate reverse-kNN queries behind the exact engines' API.

    Parameters
    ----------
    index:
        Any :class:`repro.indexes.Index` over the member set.
    strategy:
        A registry name (``"sampled"`` or ``"graph"``, see
        :data:`repro.approx.APPROX_STRATEGIES`) or a ready
        :class:`~repro.approx.base.ApproxStrategy` instance.
    strategy_kwargs:
        Forwarded to the strategy constructor when ``strategy`` is a
        name (e.g. ``sample_size=1024``, ``ef=64``).
    """

    supports_batch = True

    def __init__(self, index: Index, strategy="sampled", **strategy_kwargs) -> None:
        from repro.approx import build_strategy

        if isinstance(strategy, ApproxStrategy):
            if strategy_kwargs:
                raise ValueError(
                    "strategy_kwargs only apply when `strategy` is a registry "
                    "name; configure the instance directly instead"
                )
            if strategy.index is not index:
                raise ValueError(
                    "the strategy instance is bound to a different index"
                )
            self.strategy = strategy
        else:
            self.strategy = build_strategy(strategy, index, **strategy_kwargs)
        self.index = index
        self.built_at_version = index.version
        # Protocol identity: the registry names the strategies apart, and
        # each strategy determines which side of the answer is guaranteed
        # (DESIGN.md "Approximate search"): the sampled estimator's
        # upper-bound shortlist never loses a member, the graph's
        # verify-everything design never reports a false one.
        self.engine_name = f"approx-{self.strategy.name}"
        self.guarantee = {
            "sampled": "recall",
            "graph": "precision",
        }.get(self.strategy.name, "heuristic")

    # ------------------------------------------------------------------
    # Public API (RDT parity)
    # ------------------------------------------------------------------
    def query(
        self, query=None, *, query_index: int | None = None, k: int
    ) -> RkNNResult:
        """Answer one approximate reverse-kNN query.

        Exactly one of ``query`` (a raw point) or ``query_index`` (a
        member id, excluded from its own answer) must be given — the
        :meth:`repro.core.RDT.query` convention.
        """
        if (query is None) == (query_index is None):
            raise ValueError("provide exactly one of `query` or `query_index`")
        if query_index is not None:
            results = self.query_batch(query_indices=[query_index], k=k)
        else:
            # The shared single-point validation (scalars, wrong
            # dimension, non-finite entries fail exactly like the exact
            # engines) before the batch promotion.
            point = as_query_point(
                query, dim=self.index.dim, dtype=self.index.points.dtype
            )
            results = self.query_batch(point[None, :], k=k)
        return results[0]

    def query_batch(
        self, queries=None, *, query_indices=None, k: int
    ) -> list[RkNNResult]:
        """Answer many approximate queries in one two-phase pass.

        Accepts exactly one of ``queries`` (``(m, dim)`` raw points) or
        ``query_indices`` (member ids); returns one
        :class:`~repro.core.result.RkNNResult` per query in input order —
        shape- and semantics-compatible with :meth:`RDT.query_batch`.
        """
        k = check_k(k)
        query_points, exclude = resolve_batch_queries(
            self.index, queries, query_indices
        )
        m = query_points.shape[0]
        if m == 0:
            return []
        metric = self.index.metric

        started = time.perf_counter()
        calls_before = metric.num_calls
        decisions = self.strategy.decide_batch(query_points, exclude, k)
        filter_calls = metric.num_calls - calls_before
        filter_seconds = time.perf_counter() - started

        stats_list = [QueryStats() for _ in range(m)]
        pending_counts = [int(d.pending_ids.shape[0]) for d in decisions]
        total_pending = sum(pending_counts)

        hits_list: list[np.ndarray] = [
            np.zeros(count, dtype=bool) for count in pending_counts
        ]
        shared_seconds = 0.0
        shared_calls = 0
        if total_pending:
            pending_ids = np.concatenate([d.pending_ids for d in decisions])
            pending_dists = np.concatenate([d.pending_dists for d in decisions])
            started = time.perf_counter()
            calls_before = metric.num_calls
            # Candidates are member points verified against S \ {candidate}:
            # their k-th NN distance is query-independent, so verify each
            # distinct id once and scatter the answer back (the exact batch
            # engine's deduplicated-refinement trick).  Member queries whose
            # strategy scan already yielded their own exact kNN distance
            # (StrategyDecision.query_kth) skip even that single lookup.
            unique_ids, inverse = np.unique(pending_ids, return_inverse=True)
            kth_unique = self._known_kth(unique_ids, exclude, decisions)
            missing = np.flatnonzero(np.isnan(kth_unique))
            if missing.shape[0]:
                kth_unique[missing] = self.index.knn_distances(
                    self.index.points[unique_ids[missing]],
                    k,
                    exclude_indices=unique_ids[missing],
                )
            shared_calls = metric.num_calls - calls_before
            shared_seconds = time.perf_counter() - started
            hits = dist_le_many(pending_dists, kth_unique[inverse])
            offset = 0
            for i, count in enumerate(pending_counts):
                hits_list[i] = hits[offset : offset + count]
                offset += count

        results: list[RkNNResult] = []
        for row, (decision, hits, stats) in enumerate(
            zip(decisions, hits_list, stats_list)
        ):
            accepted = decision.accepted_ids
            verified = decision.pending_ids[hits]
            ids = np.sort(np.concatenate([accepted, verified]))
            if exclude[row] >= 0:
                # Contract guard independent of the strategy: a member
                # query is never its own reverse neighbor.
                ids = ids[ids != exclude[row]]
            stats.num_retrieved = decision.num_scanned
            stats.num_candidates = int(
                accepted.shape[0] + decision.pending_ids.shape[0]
            )
            stats.num_lazy_accepts = int(accepted.shape[0])
            stats.num_verified = int(decision.pending_ids.shape[0])
            stats.num_verified_hits = int(np.count_nonzero(hits))
            stats.terminated_by = f"approx-{self.strategy.name}"
            stats.filter_seconds = filter_seconds / m
            stats.num_distance_calls = int(round(filter_calls / m))
            if total_pending:
                fraction = stats.num_verified / total_pending
                stats.refine_seconds = shared_seconds * fraction
                stats.num_distance_calls += int(round(shared_calls * fraction))
            results.append(
                RkNNResult(
                    ids=ids.astype(np.intp),
                    k=k,
                    t=float("nan"),
                    lazy_accepted_ids=np.sort(accepted).astype(np.intp),
                    stats=stats,
                )
            )
        return results

    @staticmethod
    def _known_kth(
        unique_ids: np.ndarray, exclude: np.ndarray, decisions
    ) -> np.ndarray:
        """kNN distances already known from the batch's own strategy scans.

        Returns one value per unique pending id: the ``query_kth``
        by-product where the id is a member query of this batch whose
        strategy decision carries one, ``nan`` (= must be verified)
        otherwise.
        """
        out = np.full(unique_ids.shape[0], np.nan)
        member_rows = np.flatnonzero(exclude >= 0)
        if member_rows.shape[0] == 0:
            return out
        kth = np.asarray([decisions[r].query_kth for r in member_rows])
        have = ~np.isnan(kth)
        if not have.any():
            return out
        known_ids = exclude[member_rows[have]]
        known_kth = kth[have]
        order = np.argsort(known_ids, kind="stable")
        known_ids = known_ids[order]
        known_kth = known_kth[order]
        pos = np.searchsorted(known_ids, unique_ids)
        pos_in = np.minimum(pos, known_ids.shape[0] - 1)
        found = known_ids[pos_in] == unique_ids
        out[found] = known_kth[pos_in[found]]
        return out

    def query_all(self, *, k: int) -> dict[int, RkNNResult]:
        """The approximate RkNN self-join: one query per active point."""
        ids = self.index.active_ids()
        results = self.query_batch(query_indices=ids, k=k)
        return {int(pid): result for pid, result in zip(ids, results)}

    def __repr__(self) -> str:
        return (
            f"ApproxRkNN(strategy={self.strategy.name!r}, index={self.index!r})"
        )
