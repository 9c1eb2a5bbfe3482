"""Sampled-kNN estimator: approximate RkNN through subsampled kNN distances.

Exact RkNN membership is ``d(q, x) <= d_k(x)`` with ``d_k`` computed over
``S \\ {x}`` — the O(n) part is knowing ``d_k`` for every shortlisted
``x``.  This strategy precomputes, per ``k``, a *sampled* kNN-distance
table: ``u_k(x)``, the k-th NN distance of ``x`` within a fixed random
subsample of the member set.  Two facts drive the decision rule:

* **The sampled distance is a deterministic upper bound**: the sample is a
  subset of ``S \\ {x}``, so its k-th NN distance can only be larger than
  the true ``d_k(x)``.  Any ``x`` with ``d(q, x) > u_k(x)`` is therefore
  *provably* not a reverse neighbor — the cheap phase rejects it without
  error, which is why this strategy never loses recall.
* **A calibrated correction factor recenters the bound into an estimate.**
  With sampling fraction ``p = s/n`` the sample's k-th neighbor sits near
  full-set rank ``k/p``, inflating ``u_k`` by a data-dependent factor.
  Rather than modeling it through an intrinsic-dimensionality estimate,
  the build measures it: a small calibration subset gets exact ``d_k``
  values (O(n) per calibration point), and the median ratio
  ``d_k / u_k`` becomes the correction ``c``.

The decision per candidate ``x`` with ``dq = d(q, x)``:

* ``dq > u_k(x)`` (tolerant) — rejected, provably correct;
* ``dq <= (1 - margin) * c * u_k(x)`` — *decisively* inside the estimated
  neighborhood: accepted without verification (the only step that can
  produce false positives);
* otherwise — pending: the engine verifies it with an exact
  ``knn_distances`` call.

``margin`` trades verification work against precision risk: ``margin=1``
never accepts (exact fallback for every candidate, precision 1), small
margins accept more aggressively.  Rows whose sampled table holds ``inf``
(fewer than ``k`` eligible sample points — DESIGN.md fewer-than-k
convention) are never accepted outright, only verified, so an undersized
sample degrades to exact behavior instead of to wrong answers.
"""

from __future__ import annotations

import numpy as np

from repro.approx.base import ApproxStrategy, StrategyDecision
from repro.indexes.base import Index
from repro.indexes.bulk_knn import adaptive_chunk_size, chunked_knn_distances
from repro.utils.tolerance import DIST_ATOL, DIST_RTOL
from repro.utils.validation import check_positive_int

__all__ = ["SampledKNNEstimator"]


class SampledKNNEstimator(ApproxStrategy):
    """Candidate shortlisting through sampled, calibrated kNN distances.

    Parameters
    ----------
    index:
        Any :class:`repro.indexes.Index`; queries scan its active points
        with chunked pairwise kernels, so a plain linear-scan backend is
        the natural fit.
    sample_size:
        Member points in the kNN-distance subsample (capped at ``n``).
        Larger samples tighten the upper bound — fewer candidates and a
        thinner verification band — at higher per-``k`` build cost.
    margin:
        Decisive-accept safety margin in ``[0, 1]``.  A candidate is
        accepted unverified only when its query distance clears the
        corrected estimate by this relative margin; ``1.0`` disables the
        accept path entirely (every candidate verified, precision 1).
    calibration_size:
        Members given exact ``d_k`` values to measure the correction
        factor (capped at ``n``).
    seed:
        Sampling seed; same data + same seed = same tables.
    """

    name = "sampled"

    def __init__(
        self,
        index: Index,
        sample_size: int = 512,
        margin: float = 0.25,
        calibration_size: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(index)
        self.sample_size = check_positive_int(sample_size, name="sample_size")
        margin = float(margin)
        if not 0.0 <= margin <= 1.0:
            raise ValueError(f"margin must lie in [0, 1], got {margin}")
        self.margin = margin
        self.calibration_size = check_positive_int(
            calibration_size, name="calibration_size"
        )
        self.seed = seed
        self._active = np.empty(0, dtype=np.intp)
        self._points = np.empty((0, index.dim), dtype=np.float64)
        #: per-k tables: k -> (upper bound, corrected decisive-accept radius)
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: per-k measured correction factors (exposed for reporting/tests)
        self.corrections: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Structure maintenance
    # ------------------------------------------------------------------
    def _rebuild(self, active_ids: np.ndarray) -> None:
        self._active = active_ids
        self._points = self.index.points[active_ids]
        self._tables.clear()
        self.corrections.clear()

    def _table(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k in self._tables:
            return self._tables[k]
        metric = self.index.metric
        active, points = self._active, self._points
        n = active.shape[0]
        rng = np.random.default_rng([self.seed, k])
        sample = np.sort(rng.choice(n, size=min(self.sample_size, n), replace=False))
        upper = chunked_knn_distances(
            points,
            points[sample],
            k,
            metric,
            point_ids=active[sample],
            exclude_ids=active,
        )
        cal = rng.choice(n, size=min(self.calibration_size, n), replace=False)
        exact = chunked_knn_distances(
            points[cal],
            points,
            k,
            metric,
            point_ids=active,
            exclude_ids=active[cal],
        )
        usable = np.isfinite(exact) & np.isfinite(upper[cal]) & (upper[cal] > 0.0)
        if usable.any():
            correction = float(np.median(exact[usable] / upper[cal][usable]))
        else:
            correction = 1.0
        self.corrections[k] = correction
        # Accept region: decisively inside the corrected estimate.  Rows
        # with an inf upper bound (undersized sample) must never accept
        # outright — map them to -inf so they always fall through to the
        # exact verification path.
        accept = (1.0 - self.margin) * correction * upper
        accept[~np.isfinite(accept)] = -np.inf
        self._tables[k] = (upper, accept)
        return self._tables[k]

    # ------------------------------------------------------------------
    # Strategy interface
    # ------------------------------------------------------------------
    def decide_batch(
        self, query_points: np.ndarray, exclude: np.ndarray, k: int
    ) -> list[StrategyDecision]:
        self.ensure_current()
        upper, accept = self._table(k)
        metric = self.index.metric
        active, points = self._active, self._points
        n = active.shape[0]
        m = query_points.shape[0]
        # Tolerant candidate boundary (utils/tolerance policy): the upper
        # bound and the query distances come from different vectorized
        # kernels, and true members can sit exactly on the boundary.
        cand_bound = upper + (DIST_RTOL * np.abs(upper) + DIST_ATOL)
        decisions: list[StrategyDecision] = []
        chunk = adaptive_chunk_size(n)
        for start in range(0, m, chunk):
            stop = min(m, start + chunk)
            dists = metric.pairwise(query_points[start:stop], points)
            block_exclude = exclude[start:stop]
            rows = np.flatnonzero(block_exclude >= 0)
            if rows.shape[0]:
                cols = np.searchsorted(active, block_exclude[rows])
                cols_in = np.minimum(cols, n - 1)
                found = active[cols_in] == block_exclude[rows]
                rows = rows[found]
                dists[rows, cols_in[found]] = np.inf
            # Member rows just had their own column masked, so the k-th
            # smallest of the row *is* the query's exact self-excluded kNN
            # distance — a by-product the engine reuses to skip those
            # members' verification (StrategyDecision.query_kth).
            row_kth = np.full(stop - start, np.nan)
            if rows.shape[0]:
                if k <= n:
                    row_kth[rows] = np.partition(dists[rows], k - 1, axis=1)[
                        :, k - 1
                    ]
                else:
                    row_kth[rows] = np.inf
            cand = dists <= cand_bound[None, :]
            accepted = cand & (dists <= accept[None, :])
            pending = cand & ~accepted
            if rows.shape[0]:
                # The inf-masked own column still passes the candidate test
                # when the upper bound itself is inf (underfull active
                # set); a query is never its own reverse neighbor.
                own = cols_in[found]
                accepted[rows, own] = False
                pending[rows, own] = False
            # One nonzero sweep per block instead of two per row; nonzero
            # returns row-major order, so per-row slices fall out of the
            # row counts directly.
            acc_rows, acc_cols = np.nonzero(accepted)
            pend_rows, pend_cols = np.nonzero(pending)
            rows_in_block = stop - start
            acc_ends = np.cumsum(np.bincount(acc_rows, minlength=rows_in_block))
            pend_ends = np.cumsum(np.bincount(pend_rows, minlength=rows_in_block))
            acc_ids = active[acc_cols]
            pend_ids = active[pend_cols]
            pend_dists = dists[pend_rows, pend_cols]
            for local in range(rows_in_block):
                a0 = acc_ends[local - 1] if local else 0
                p0 = pend_ends[local - 1] if local else 0
                decisions.append(
                    StrategyDecision(
                        accepted_ids=acc_ids[a0 : acc_ends[local]],
                        pending_ids=pend_ids[p0 : pend_ends[local]],
                        pending_dists=pend_dists[p0 : pend_ends[local]],
                        num_scanned=n,
                        query_kth=float(row_kth[local]),
                    )
                )
        return decisions
