"""Strategy protocol for the approximate RkNN engine.

The exact engines (:class:`repro.core.RDT`, the brute-force baselines)
decide RkNN membership by computing, for every surviving candidate ``x``,
its exact k-th NN distance and testing ``d(q, x) <= d_k(x)``.  An
*approximate strategy* replaces the expensive part of that pipeline with a
cheap, possibly-wrong phase and tells the engine what it is still unsure
about.  Concretely, a strategy answers one batched question:

    given query rows, which member points are (a) accepted outright,
    (b) worth an exact verification, and (c) ignored?

encoded per query as a :class:`StrategyDecision`.  The engine
(:class:`repro.approx.ApproxRkNN`) then verifies every *pending* candidate
exactly — one deduplicated :meth:`repro.indexes.Index.knn_distances` call
for the whole batch, identical to the exact engine's refinement — and
merges the accepted ids in unverified.  The split determines the failure
mode (DESIGN.md "Approximate search"):

* a strategy that never accepts outright (the navigable graph) has
  perfect precision and pays for it with recall — members it fails to
  shortlist are lost;
* a strategy that shortlists through a provable upper bound (the sampled
  estimator) has perfect recall and risks precision only on the
  candidates it accepts without verification.

Strategies cache index-derived structure (graph adjacency, sampled
distance tables) and rebuild it automatically when the index's
:attr:`~repro.indexes.base.Index.version` moves past the version the
cache was built at, so dynamic insert/remove workloads stay correct
without manual invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.indexes.base import Index

__all__ = ["ApproxStrategy", "StrategyDecision"]


def _empty_ids() -> np.ndarray:
    return np.empty(0, dtype=np.intp)


@dataclass
class StrategyDecision:
    """One query's candidate split, produced by a strategy's cheap phase."""

    #: member ids accepted without exact verification (may cost precision)
    accepted_ids: np.ndarray = field(default_factory=_empty_ids)
    #: member ids the engine must verify with an exact kNN distance
    pending_ids: np.ndarray = field(default_factory=_empty_ids)
    #: ``d(q, x)`` for each pending id, in the same order
    pending_dists: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64)
    )
    #: how many stored points the cheap phase examined (cost reporting)
    num_scanned: int = 0
    #: exact self-excluded k-th NN distance of the query row itself, when
    #: the cheap phase computed it as a by-product (member queries whose
    #: whole distance row was scanned).  ``nan`` = not computed; ``inf``
    #: is a *valid* value (fewer than ``k`` eligible points).  The engine
    #: reuses these for pending candidates that are member queries of the
    #: same batch, skipping their exact re-verification.
    query_kth: float = float("nan")


class ApproxStrategy:
    """Base class for approximate candidate-generation strategies."""

    #: Registry identifier, e.g. ``"sampled"`` / ``"graph"``.
    name: str = "abstract"

    def __init__(self, index: Index) -> None:
        self.index = index
        self._built_version: int | None = None

    # ------------------------------------------------------------------
    # Strategy interface
    # ------------------------------------------------------------------
    def decide_batch(
        self, query_points: np.ndarray, exclude: np.ndarray, k: int
    ) -> list[StrategyDecision]:
        """Split each query row's member set into accepted/pending/ignored.

        ``query_points`` is an ``(m, dim)`` array; ``exclude`` holds one
        member id per row that must never appear in that row's answer
        (``-1`` = nothing to exclude — the raw-point convention shared
        with :func:`repro.utils.validation.resolve_batch_queries`).
        """
        raise NotImplementedError

    def _rebuild(self, active_ids: np.ndarray) -> None:
        """Recompute all index-derived structure for the given live set."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared cache invalidation
    # ------------------------------------------------------------------
    def ensure_current(self) -> None:
        """Rebuild cached structure iff the index churned since the build.

        The signature is the index :attr:`~repro.indexes.base.Index.version`
        — every insert, remove, and compaction bumps it, so an O(1)
        integer compare replaces the historical whole-array comparison of
        active id sets.  (Compaction does not change the active set, so
        the version test rebuilds slightly more eagerly than the array
        test did; strategies only derive state from active points, so
        the extra rebuild is merely conservative.)
        """
        version = self.index.version
        if self._built_version == version:
            return
        self._rebuild(self.index.active_ids())
        self._built_version = version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(index={self.index!r})"
