"""Query-parallel execution: fan ``query_batch``/``query_all`` across cores.

RkNN self-joins and batched queries are embarrassingly parallel over
query blocks — each block's answers depend only on the (immutable)
published epoch, never on the other blocks.  :class:`ParallelExecutor`
exploits exactly that: it pins one :class:`repro.Service` epoch, publishes
the epoch's point matrix + active mask (and, when valid, the backend's
SoA flat layout) into shared memory once (:mod:`repro.parallel.shared`),
and fans query blocks out to a persistent ``multiprocessing`` pool whose
workers attach the arrays zero-copy and rebuild only the engine against
them (:mod:`repro.parallel.worker`).

The MVCC contract is the Service's own, extended across processes: one
dispatch answers against exactly one published epoch (stale-but-
consistent — a writer storming between dispatches moves the epoch, never
tears a batch).  Dispatches are serialized on an executor lock, so a
republish only ever happens between dispatches; retired segments are
unlinked immediately (POSIX keeps them valid for workers still mapping
them, and workers drop old mappings when they first see the new epoch's
fingerprint).

Start-method policy (DESIGN.md "Parallel execution"): ``fork``
by default where the platform offers it — workers inherit the imported
library for free and the shared segments carry the data either way —
overridable to ``spawn`` via the ``REPRO_MP_START`` environment variable
or the ``start_method`` knob (CI runs the fast parallel tier under both).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading

import numpy as np

from repro.engines import ENGINE_REGISTRY
from repro.parallel import shared
from repro.parallel.worker import BoundContext, WorkerInit, init_worker, run_task
from repro.service import QuerySpec, Service

__all__ = ["ParallelExecutor", "resolve_start_method"]

#: Environment override for the multiprocessing start method; the CI
#: fast-tier matrix runs the parallel tests under both values.
START_METHOD_ENV = "REPRO_MP_START"


def resolve_start_method(start_method: str | None = None) -> str:
    """The effective start method: knob > ``REPRO_MP_START`` > fork > spawn."""
    if start_method is None:
        start_method = os.environ.get(START_METHOD_ENV) or None
    available = multiprocessing.get_all_start_methods()
    if start_method is None:
        return "fork" if "fork" in available else "spawn"
    if start_method not in available:
        raise ValueError(
            f"start_method {start_method!r} not available on this platform; "
            f"choices: {available}"
        )
    return start_method


def _metric_meta(metric) -> dict:
    """Picklable metric reconstruction meta (the Service.save recipe)."""
    meta = {"name": metric.name}
    if hasattr(metric, "p"):
        meta["p"] = float(metric.p)
    meta["dtype"] = metric.dtype.name
    return meta


#: Backends whose SoA flat layout can be published for worker adoption.
_LAYOUT_KINDS = {"kd-tree": "kd", "ball-tree": "ball"}


class ParallelExecutor:
    """Fan a Service's batched queries out to a process pool.

    Parameters
    ----------
    source:
        A :class:`repro.Service` to execute for (adopted, not owned), or
        raw ``(n, dim)`` data / a prebuilt index — then an internal
        Service is built from the remaining constructor knobs and owned
        (closed with the executor).
    engine:
        Engine registry name for the internal Service (default
        ``"rdt+"``); must be an index-family engine — those answer in
        index ids, so per-block answers from worker processes need no id
        translation.  Ignored (and rejected) when adopting a Service.
    workers:
        Pool size (default ``os.cpu_count()``).
    start_method:
        ``"fork"``/``"spawn"``/``"forkserver"`` override (see
        :func:`resolve_start_method`).
    block_size:
        Queries per worker task; default splits each dispatch into
        ``4 * workers`` blocks for load balancing.
    backend / metric / dtype / defaults / backend_kwargs / engine_kwargs:
        Forwarded to the internal :class:`repro.Service` when ``source``
        is raw data.

    ``query_batch``/``query_all`` (and their ``_versioned`` forms) mirror
    the Service's signatures; single :meth:`query` calls stay in-process
    (one query cannot amortize a cross-process hop).  Every dispatch
    repins the Service's latest published epoch and republishes the
    shared arrays only when the epoch (or the engine configuration a
    spec implies) actually moved.

    :meth:`close` joins the pool first, then closes and unlinks every
    published segment, so test teardowns can assert ``/dev/shm`` holds
    no leaked ``repro-*`` blocks.
    """

    def __init__(
        self,
        source,
        engine: str | None = None,
        *,
        workers: int | None = None,
        start_method: str | None = None,
        block_size: int | None = None,
        backend: str = "kd",
        metric=None,
        dtype=None,
        defaults: QuerySpec | None = None,
        backend_kwargs: dict | None = None,
        engine_kwargs: dict | None = None,
    ) -> None:
        if isinstance(source, Service):
            if engine is not None or metric is not None or dtype is not None:
                raise ValueError(
                    "engine/metric/dtype only apply when building from raw "
                    "data; the given Service already carries them"
                )
            if defaults is not None or backend_kwargs or engine_kwargs:
                raise ValueError(
                    "defaults/backend_kwargs/engine_kwargs only apply when "
                    "building from raw data; configure the Service instead"
                )
            self.service = source
            self._owns_service = False
        else:
            self.service = Service(
                source,
                backend=backend,
                engine="rdt+" if engine is None else engine,
                metric=metric,
                dtype=dtype,
                defaults=defaults,
                backend_kwargs=backend_kwargs,
                engine_kwargs=engine_kwargs,
            )
            self._owns_service = True
        self._entry = ENGINE_REGISTRY[self.service.engine_name]
        if self._entry.needs != "index":
            raise ValueError(
                f"parallel execution supports index-family engines only "
                f"(they answer in index ids); {self.service.engine_name!r} "
                f"needs {self._entry.needs!r}"
            )
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not shared.shared_memory_available():
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable here (no "
                "usable /dev/shm?); parallel execution needs it"
            )
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.workers = int(workers)
        self.start_method = resolve_start_method(start_method)
        self.block_size = block_size
        self._lock = threading.RLock()
        self._pool = None
        self._packs: list = []
        self._closed = False
        self._ctx: BoundContext | None = None
        self._ctx_key = None
        self._active_ids: np.ndarray | None = None

    # -- pool ---------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            ctx = multiprocessing.get_context(self.start_method)
            self._pool = ctx.Pool(
                self.workers,
                initializer=init_worker,
                initargs=(WorkerInit(jit_env=os.environ.get("REPRO_JIT")),),
            )
        return self._pool

    def _map(self, tasks: list) -> list:
        return self._ensure_pool().map(run_task, tasks)

    def probe(self) -> list[dict]:
        """One kernel-dispatch report per submitted probe task.

        Used by the regression tests asserting workers re-resolved their
        dispatch tables under both fork and spawn.
        """
        with self._lock:
            self._check_open()
            return self._map([("probe",)] * self.workers)

    def _swap_packs(self, packs: list) -> None:
        """Adopt new packs, retiring (unlinking) the previous publication."""
        old, self._packs = self._packs, packs
        for pack in old:
            pack.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"cannot use a closed {type(self).__name__}")

    # -- epoch publication --------------------------------------------
    def _ensure_context(self, spec: QuerySpec) -> BoundContext:
        """Pin the Service's latest epoch, republishing shared arrays on change.

        Runs with the dispatch lock held; the Service-side pin uses the
        same read guard/lock-free path as an in-process query, so the
        snapshot captured here is one consistent epoch even against a
        concurrent writer storm.
        """
        service = self.service
        with service._read_guard():
            state = service._pin_state(spec)
        key = (state.epoch, tuple(sorted(state.built_kwargs.items())))
        if self._ctx is not None and self._ctx_key == key:
            return self._ctx
        snap = state.snapshot
        active = np.zeros(snap.points.shape[0], dtype=bool)
        active_ids = snap.active_ids()
        active[active_ids] = True
        arrays = {"points": snap.points, "active": active}
        packs = [shared.publish_arrays(arrays, tag=f"data{state.epoch}")]
        layout_kind = layout_meta = None
        if state.epoch == 0 and bool(active.all()):
            # A pure bulk-built tree: the worker's deterministic rebuild
            # reproduces it node for node, so the parent's flat layout
            # arrays are directly adoptable (no re-flatten per worker).
            kind = _LAYOUT_KINDS.get(service.backend_name)
            layout_arrays = None
            if kind is not None:
                from repro.indexes.soa import layout_to_arrays

                layout_arrays = layout_to_arrays(snap._flat_layout())
            if layout_arrays:
                packs.append(
                    shared.publish_arrays(
                        layout_arrays, tag=f"layout{state.epoch}"
                    )
                )
                layout_kind = kind
                layout_meta = packs[-1].meta
        ctx = BoundContext(
            pack=packs[0].meta,
            epoch=state.epoch,
            backend=service.backend_name,
            engine=service.engine_name,
            metric=_metric_meta(service.metric),
            backend_kwargs=dict(service._backend_kwargs),
            engine_kwargs=dict(state.built_kwargs),
            layout_kind=layout_kind,
            layout=layout_meta,
        )
        self._swap_packs(packs)
        self._ctx = ctx
        self._ctx_key = key
        self._active_ids = active_ids
        return ctx

    def _knobs(self, spec: QuerySpec) -> dict:
        # query_knobs/batch_knobs are class attributes, so the engine's
        # *class* resolves the same knob set the Service forwards.
        return spec.knobs_for(self._entry.cls, batch=True)

    def _blocks(self, count: int) -> list[np.ndarray]:
        if count == 0:
            return []
        if self.block_size is not None:
            parts = math.ceil(count / self.block_size)
        else:
            parts = min(count, self.workers * 4)
        return np.array_split(np.arange(count, dtype=np.intp), parts)

    # -- queries ------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.service.epoch

    def query(self, query=None, *, query_index=None, spec=None, **overrides):
        """One query, answered in-process (see the class docstring)."""
        return self.query_versioned(
            query, query_index=query_index, spec=spec, **overrides
        )[1]

    def query_versioned(
        self, query=None, *, query_index=None, spec=None, **overrides
    ):
        return self.service.query_versioned(
            query, query_index=query_index, spec=spec, **overrides
        )

    def query_batch(
        self, queries=None, *, query_indices=None, spec=None, **overrides
    ):
        return self.query_batch_versioned(
            queries, query_indices=query_indices, spec=spec, **overrides
        )[1]

    def query_batch_versioned(
        self, queries=None, *, query_indices=None, spec=None, **overrides
    ):
        """Batched queries fanned out across the pool; ``(epoch, results)``."""
        if (queries is None) == (query_indices is None):
            raise ValueError(
                "provide exactly one of `queries` or `query_indices`"
            )
        spec = self.service.resolve_spec(spec, **overrides)
        with self._lock:
            self._check_open()
            ctx = self._ensure_context(spec)
            knobs = self._knobs(spec)
            if query_indices is not None:
                items = np.asarray(query_indices, dtype=np.intp)
                if items.ndim != 1:
                    raise ValueError("query_indices must be one-dimensional")
                kind = "member"
            else:
                items = np.asarray(queries)
                if items.ndim == 1:
                    items = items[None, :]
                kind = "raw"
            tasks = [
                (kind, ctx, items[rows], spec.k, knobs)
                for rows in self._blocks(items.shape[0])
            ]
            chunks = self._map(tasks)
        results = [result for chunk in chunks for result in chunk]
        return ctx.epoch, results

    def query_all(self, *, spec=None, **overrides):
        return self.query_all_versioned(spec=spec, **overrides)[1]

    def query_all_versioned(self, *, spec=None, **overrides):
        """The RkNN self-join over all members, fanned across the pool.

        Returns ``(epoch, {point_id: result})`` — the same mapping (and,
        for index-family engines, the same bits) as
        :meth:`repro.Service.query_all` against that epoch.
        """
        spec = self.service.resolve_spec(spec, **overrides)
        with self._lock:
            self._check_open()
            ctx = self._ensure_context(spec)
            knobs = self._knobs(spec)
            qids = self._active_ids
            tasks = [
                ("member", ctx, qids[rows], spec.k, knobs)
                for rows in self._blocks(qids.shape[0])
            ]
            chunks = self._map(tasks)
        flat = [result for chunk in chunks for result in chunk]
        return ctx.epoch, {
            int(qid): result for qid, result in zip(qids, flat)
        }

    # -- teardown -----------------------------------------------------
    def close(self) -> None:
        """Tear down the pool and unlink every published segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._pool is not None:
                self._pool.close()
                self._pool.join()
                self._pool = None
            self._swap_packs([])
        if self._owns_service:
            self.service.close()
        self._ctx = None
        self._ctx_key = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - gc-order dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelExecutor(engine={self.service.engine_name!r}, "
            f"workers={self.workers}, start_method={self.start_method!r}, "
            f"n={self.service.size})"
        )
