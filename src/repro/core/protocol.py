"""The `RkNNEngine` protocol: one query surface for every engine family.

The toolkit grew four engine families — :class:`repro.core.RDT` (RDT and
RDT+), :class:`repro.core.BichromaticRDT`, :class:`repro.approx.ApproxRkNN`,
and the five competitors in :mod:`repro.baselines` — each initially with
its own constructor and query conventions.  This module is the contract
that makes them interchangeable behind one front door
(:func:`repro.create_engine`, :class:`repro.Service`):

``query(query=None, *, query_index=None, k, **knobs) -> RkNNResult``
    One reverse-kNN query.  Exactly one of ``query`` (a raw point, not
    necessarily a dataset member) or ``query_index`` (a member id,
    excluded from its own answer) is given; the answer is always an
    :class:`~repro.core.result.RkNNResult` carrying ascending member ids
    and per-query :class:`~repro.core.result.QueryStats`.

``query_batch(queries=None, *, query_indices=None, k, **knobs) -> list[RkNNResult]``
    Many queries, one result per input row/id in order.  Engines with a
    vectorized batch implementation (``supports_batch = True``) answer
    the whole workload in one pass; the :class:`EngineBase` default loops
    :meth:`query`, so every engine is batch-drivable either way.

``query_all(*, k, **knobs) -> dict[int, RkNNResult]``
    The RkNN self-join: one query per member point, keyed by id.

**Capability flags** (class attributes) let generic drivers — the
evaluation runner, the mining joins, the conformance oracle, the
:class:`repro.Service` facade — route workloads without isinstance
checks:

``engine_name``
    The registry identifier (``"rdt+"``, ``"approx-graph"``, ...).
``supports_batch``
    Whether ``query_batch`` is natively vectorized (as opposed to the
    looped default).
``supports_raw_queries`` / ``supports_member_queries``
    Which of the two query forms the engine accepts.  Bichromatic
    queries, for instance, are never members of either color.
``supports_bichromatic``
    Whether the engine answers the two-color (client/service) problem.
``query_knobs``
    The query-time keyword arguments the engine understands beyond ``k``
    (``("t", "filter_mode")`` for RDT, ``("alpha",)`` for SFT, ...).
    :meth:`repro.QuerySpec.knobs_for` filters a spec down to this tuple,
    which is how one spec drives heterogeneous engines.
``guarantee``
    What the engine promises about its answers (see
    :data:`GUARANTEES`); the conformance oracle maps each value to the
    assertion it can actually make.
``reads_index_live``
    Whether the engine observes index churn (insert/remove) on its own.
    Engines built from a data snapshot (``"naive"``, ``"mrknncop"``,
    ``"rdnn"``) answer stale results after churn; the
    :class:`repro.Service` facade rebuilds them automatically.
    Live-reading engines carry the opposite hazard under concurrency:
    a query racing a writer reads the index *mid-mutation* (a torn
    read), so a concurrency layer must run them over frozen
    :meth:`~repro.indexes.base.Index.snapshot` views instead.

**Versioning.**  Every engine records :attr:`~EngineBase.built_at_version`
— the backing index's :attr:`~repro.indexes.base.Index.version` at
construction — and answers :meth:`~EngineBase.is_stale`, the one
staleness predicate the drivers consult.  This replaces the historical
per-engine ad-hoc checks (the approx strategies compared whole active-id
arrays; the Service counted churn events).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.result import RkNNResult

__all__ = [
    "GUARANTEES",
    "EngineBase",
    "EngineCapabilityError",
    "RkNNEngine",
]

#: The vocabulary of :attr:`EngineBase.guarantee` values.
GUARANTEES = {
    "exact": "answers equal the brute-force reference on any input",
    "scale-exact": (
        "answers equal the reference whenever the scale parameter t "
        "dominates the data's generalized expansion dimension (Theorem 1)"
    ),
    "scale-recall": (
        "answers contain every reference member whenever t dominates the "
        "expansion dimension; precision may drop (RDT+'s Section 4.3 trade)"
    ),
    "recall": "answers contain every reference member (no false negatives)",
    "precision": "every answered id is a reference member (no false positives)",
    "heuristic": "no deterministic containment guarantee either way",
}


class EngineCapabilityError(RuntimeError):
    """Raised when an engine is asked for a query form it does not support."""


@runtime_checkable
class RkNNEngine(Protocol):
    """Structural type of every reverse-kNN engine (see module docstring)."""

    engine_name: str
    supports_batch: bool
    supports_raw_queries: bool
    supports_member_queries: bool
    supports_bichromatic: bool
    query_knobs: tuple[str, ...]
    guarantee: str
    reads_index_live: bool
    built_at_version: int | None

    def is_stale(self, index=None) -> bool:
        ...

    def query(self, query=None, *, query_index=None, k=None, **knobs) -> RkNNResult:
        ...

    def query_batch(
        self, queries=None, *, query_indices=None, k=None, **knobs
    ) -> list[RkNNResult]:
        ...

    def query_all(self, *, k=None, **knobs) -> dict[int, RkNNResult]:
        ...


class EngineBase:
    """Mixin turning a single-query method into a full protocol surface.

    Subclasses implement :meth:`query` and (for engines without a live
    :attr:`index`) override :meth:`member_ids`; the mixin supplies looped
    ``query_batch`` / ``query_all`` with the protocol's calling
    convention.  Engines with a vectorized batch path override both and
    set ``supports_batch = True``.
    """

    engine_name: str = "abstract"
    supports_batch: bool = False
    supports_raw_queries: bool = True
    supports_member_queries: bool = True
    supports_bichromatic: bool = False
    query_knobs: tuple[str, ...] = ()
    #: extra knobs understood only by the batched entry points (e.g.
    #: RDT's ``filter_mode`` — an execution-strategy switch that has no
    #: meaning for a single query).
    batch_knobs: tuple[str, ...] = ()
    guarantee: str = "heuristic"
    reads_index_live: bool = True
    #: The backing index's :attr:`~repro.indexes.base.Index.version` at
    #: the time this engine's derived state was built.  Index-backed
    #: engines bind it in their constructor; data-snapshot engines have
    #: no index to read and leave it ``None`` until an owner (e.g.
    #: :class:`repro.Service`) stamps it.
    built_at_version: int | None = None

    def is_stale(self, index=None) -> bool:
        """Whether ``index`` has churned past :attr:`built_at_version`.

        With no argument, checks the engine's own ``self.index``.  An
        engine with no bound index or no recorded version is never
        reported stale — the owner that built it from raw data is
        responsible for stamping :attr:`built_at_version` if it wants
        this predicate to fire.  Note the meaning differs by family:
        for ``reads_index_live`` engines staleness marks *derived state*
        (caches, estimates) as outdated while queries still see fresh
        data; for snapshot engines it means the answers themselves
        reflect an older epoch.
        """
        if index is None:
            index = getattr(self, "index", None)
        if index is None or self.built_at_version is None:
            return False
        return int(index.version) != int(self.built_at_version)

    def member_ids(self) -> np.ndarray:
        """Ids of the member points ``query_all`` should enumerate."""
        index = getattr(self, "index", None)
        if index is None:
            raise EngineCapabilityError(
                f"{type(self).__name__} has no backing index; override "
                "member_ids() to enumerate its member points"
            )
        return index.active_ids()

    def query_batch(
        self, queries=None, *, query_indices=None, k=None, **knobs
    ) -> list[RkNNResult]:
        """Looped default: one :meth:`query` call per input row/id."""
        if (queries is None) == (query_indices is None):
            raise ValueError(
                "provide exactly one of `queries` or `query_indices`"
            )
        if query_indices is not None:
            return [
                self.query(query_index=int(qi), k=k, **knobs)
                for qi in np.asarray(query_indices, dtype=np.intp)
            ]
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError(
                f"queries must be a 2-D array of rows, got shape {queries.shape}"
            )
        return [self.query(row, k=k, **knobs) for row in queries]

    def query_all(self, *, k=None, **knobs) -> dict[int, RkNNResult]:
        """The RkNN self-join through :meth:`query_batch`."""
        ids = self.member_ids()
        results = self.query_batch(query_indices=ids, k=k, **knobs)
        return {int(pid): result for pid, result in zip(ids, results)}
