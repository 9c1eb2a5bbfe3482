"""The one front door: a Service facade over backends, engines, and specs.

Everything the toolkit can do to a dataset — exact RDT/RDT+ queries,
approximate strategies, competitor baselines, bichromatic queries, dynamic
updates, persistence — is reachable from one object::

    import repro

    svc = repro.Service(data, backend="kd", engine="rdt+",
                        defaults=repro.QuerySpec(k=10, t=8.0))
    result = svc.query(query_index=7)            # defaults apply
    batch  = svc.query_batch(query_indices=ids, t=4.0)   # per-call override
    join   = svc.query_all()                     # the RkNN self-join
    svc.insert(point); svc.remove(3)             # engines follow the churn
    svc.save("svc.npz"); svc2 = repro.Service.load("svc.npz")

The facade owns three responsibilities the call sites used to duplicate:

**Parameter routing** — every query call resolves one :class:`QuerySpec`
(defaults, optionally overridden per call), validates it in one place,
and forwards only the knobs the active engine understands
(:attr:`~repro.core.protocol.EngineBase.query_knobs`); ``t`` reaches RDT
but not the approximate engines, ``alpha`` reaches SFT, strategy knobs
(``margin``/``sample_size``/``ef``/``graph_m``) trigger an
engine rebuild.  Unknown knob names fail fast with the valid list.

**Lifecycle** — the backend index is built once (bulk path); engines are
built lazily from the registry (:func:`repro.create_engine`) and rebuilt
automatically when they need it: every engine after any insert/remove
(the index :attr:`~repro.indexes.base.Index.version` is the epoch
signal), ``rdnn`` additionally when the requested ``k`` changes,
``mrknncop`` when ``k`` exceeds its fitted ``k_max``.  Engines answering
in dense snapshot ids are transparently translated back into the
service's id space, so callers always see index ids regardless of the
engine family.

**Concurrency** — the Service is split into an exclusive *write path*
and a lock-free *read path* (DESIGN.md "Concurrency & versioning").
Mutations serialize on a writer lock; each one bumps the backend's
version and atomically publishes a fresh ``(epoch, snapshot)`` head,
where the snapshot is the backend's copy-on-read
:meth:`~repro.indexes.base.Index.snapshot` view and the epoch is the
version it pins.  Queries pin the latest published
``(epoch, snapshot, engine)`` triple with plain attribute reads — they
never block behind inserts.  Engine rebuilds happen off the read path
under a dedicated rebuild lock and are published with one assignment;
while a rebuild is in flight, other readers keep serving the previous
published state (a *stale but consistent* older epoch — never torn
data).  Backends whose live structure cannot be mutated under readers
(:attr:`~repro.indexes.base.Index.snapshot_stable` is False) are gated
by a :class:`~repro.utils.concurrency.ReadWriteLock` that drains
in-flight queries before each mutation.  :meth:`query_versioned` exposes
the epoch each answer was computed against.

**Persistence** — :meth:`Service.save` writes a single ``.npz`` payload
(point matrix including removed rows, the active mask, metric, backend +
engine names and kwargs, default spec, and — for ``approx-graph`` — the
strategy's base-layer adjacency) and :meth:`Service.load` rebuilds the
tree via the backends' deterministic bulk builds and replays the
removals, so a round trip reproduces ``query_all`` bit-identically.
"""

from __future__ import annotations

import difflib
import json
import pathlib
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from repro.core.result import RkNNResult
from repro.distances import get_metric
from repro.engines import ENGINE_REGISTRY, kwargs_for_k
from repro.indexes import RStarTreeIndex, create_index, resolve_index_name
from repro.indexes.base import Index
from repro.utils.concurrency import ReadWriteLock
from repro.utils.validation import (
    check_k,
    check_positive_int,
    check_scale_parameter,
)

__all__ = ["QuerySpec", "Service", "SERVICE_FORMAT_VERSION"]

#: Bumped whenever the ``.npz`` payload layout changes incompatibly.
SERVICE_FORMAT_VERSION = 3

#: Payload versions this build can read.  Version 1 predates the dtype
#: knob: its payloads are always float64 and carry no storage-dtype
#: metadata, so they load exactly as before.  Version 3 adds optional
#: graph-adjacency arrays for the ``approx-graph`` engine; version <= 2
#: payloads simply fall back to the strategy's deterministic rebuild.
_READABLE_FORMAT_VERSIONS = (1, 2, 3)

#: The npz keys that carry the serialized approx-graph base layer
#: (format version 3; optional — absent for every other engine).
_GRAPH_PAYLOAD_KEYS = (
    "graph_node_ids",
    "graph_levels",
    "graph_neighbors",
    "graph_neighbor_dists",
)

#: Spec fields and engines that payloads written by older library
#: versions may still name.  ``load`` drops a retired spec field (every
#: older payload carries it, usually as ``null``) and refuses a retired
#: engine with a pointer to its replacement.
_RETIRED_SPEC_FIELDS = ("n_tables",)
_RETIRED_ENGINES = {"approx-lsh": "approx-graph"}

#: Storage dtypes the service accepts (the Metric dtype policy).
_DTYPE_NAMES = ("float32", "float64")


def _check_dtype_name(dtype) -> str:
    """Normalize a dtype knob to its canonical name, or raise."""
    name = np.dtype(dtype).name
    if name not in _DTYPE_NAMES:
        raise ValueError(
            f"dtype must be one of {_DTYPE_NAMES}, got {name!r}"
        )
    return name

_FILTER_MODES = ("auto", "sequential", "vectorized")

#: QuerySpec fields that configure an approximate *strategy* rather than a
#: single query; changing one rebuilds the engine.
_STRATEGY_KNOBS = ("margin", "sample_size", "ef", "graph_m")

#: Which strategy knobs each engine family's constructor understands —
#: the construction-time analogue of `query_knobs` (knobs an engine does
#: not understand are carried by the spec but never forwarded).
_ENGINE_STRATEGY_KNOBS = {
    "approx-sampled": ("margin", "sample_size"),
    "approx-graph": ("ef", "graph_m"),
}

#: Kwarg names people reach for when they mean ``query_index`` — the
#: member-id argument of query()/query_batch(), which is not a spec knob.
_QUERY_INDEX_ALIASES = frozenset(
    {"member", "member_id", "query_id", "point_id", "index", "id", "qid",
     "query_index"}
)

#: Constructor knobs recoverable from a prebuilt index adopted by a
#: Service, so save()/load() can rebuild an equivalent tree.
_BACKEND_KNOB_ATTRS = ("leaf_size", "n_candidates", "capacity", "k")


@dataclass(frozen=True)
class QuerySpec:
    """One validated bundle of query-time parameters for any engine.

    A spec is engine-agnostic: it may carry knobs the active engine does
    not understand, and only the understood subset is forwarded (see
    :meth:`knobs_for`).  Validation happens once, here, instead of in
    every engine's entry points.
    """

    #: neighborhood size (every engine)
    k: int = 10
    #: scale parameter for the dimensional test (RDT/RDT+/bichromatic)
    t: float = 8.0
    #: batched filter strategy for RDT (see :meth:`repro.RDT.query_batch`)
    filter_mode: str = "auto"
    #: candidate-pool factor for SFT (``None`` = the engine's default)
    alpha: float | None = None
    #: decisive-accept margin of the sampled strategy (rebuilds the engine)
    margin: float | None = None
    #: subsample size of the sampled strategy (rebuilds the engine)
    sample_size: int | None = None
    #: beam width of the graph strategy (rebuilds the engine)
    ef: int | None = None
    #: forward-edge degree of the graph strategy (rebuilds the engine)
    graph_m: int | None = None
    #: expected storage dtype ("float32"/"float64"); a spec carrying one
    #: refuses to run against a service with a different point dtype
    dtype: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", check_k(self.k))
        object.__setattr__(self, "t", check_scale_parameter(self.t))
        if self.dtype is not None:
            object.__setattr__(self, "dtype", _check_dtype_name(self.dtype))
        if self.filter_mode not in _FILTER_MODES:
            raise ValueError(
                f"filter_mode must be one of {_FILTER_MODES}, "
                f"got {self.filter_mode!r}"
            )
        if self.alpha is not None and self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.margin is not None and not 0.0 <= self.margin <= 1.0:
            raise ValueError(f"margin must lie in [0, 1], got {self.margin}")
        for name in ("sample_size", "ef", "graph_m"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self, name, check_positive_int(value, name=name)
                )

    def replace(self, **overrides) -> "QuerySpec":
        """A new spec with the given fields overridden (re-validated).

        Unknown names fail here, up front, with the valid knob list —
        instead of surfacing as a bare ``dataclasses.replace`` TypeError
        three frames deep in the query path (``sv.query(kk=3)``,
        ``sv.query(member=3)``).
        """
        valid = tuple(f.name for f in fields(self))
        unknown = sorted(set(overrides) - set(valid))
        if unknown:
            bad = unknown[0]
            if bad.lower() in _QUERY_INDEX_ALIASES:
                hint = (
                    " (to query a member point, pass query_index=... to "
                    "query()/query_batch(), not a spec knob)"
                )
            else:
                close = difflib.get_close_matches(bad, valid, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise TypeError(
                f"unknown query knob {bad!r}{hint}; valid knobs: "
                f"{', '.join(sorted(valid))}"
            )
        return replace(self, **overrides)

    def knobs_for(self, engine, batch: bool = False) -> dict:
        """The query-time kwargs of this spec that ``engine`` understands."""
        names = tuple(getattr(engine, "query_knobs", ()))
        if batch:
            names += tuple(getattr(engine, "batch_knobs", ()))
        return {
            name: getattr(self, name)
            for name in names
            if getattr(self, name, None) is not None
        }

    def strategy_kwargs(self) -> dict:
        """The engine-construction knobs carried by this spec."""
        return {
            name: getattr(self, name)
            for name in _STRATEGY_KNOBS
            if getattr(self, name) is not None
        }


@dataclass(frozen=True)
class _Head:
    """The write path's atomically published ``(epoch, snapshot)`` pair."""

    epoch: int
    snapshot: Index


@dataclass(frozen=True)
class _ReadState:
    """One published ``(epoch, snapshot, engine)`` triple the read path pins.

    Immutable once published: readers that grabbed it keep a fully
    consistent view of one epoch even while the write path churns and
    newer states are published over it.
    """

    epoch: int
    snapshot: Index
    engine: object
    #: merged engine-construction kwargs the engine was built with — the
    #: compatibility signature a spec is checked against
    built_kwargs: dict
    #: the spec ``k`` at build time (fixed-k engines rebuild on change)
    built_k: int
    #: service id per dense engine row, for engines answering in dense
    #: snapshot ids after removals (``None`` = identity)
    id_map: np.ndarray | None

    def to_engine_index(self, query_index: int) -> int:
        if self.id_map is None:
            return int(query_index)
        pos = int(np.searchsorted(self.id_map, query_index))
        if pos >= self.id_map.shape[0] or self.id_map[pos] != query_index:
            raise KeyError(f"point id {query_index} has been removed")
        return pos

    def map_result(self, result: RkNNResult) -> RkNNResult:
        if self.id_map is None:
            return result
        return RkNNResult(
            ids=self.id_map[result.ids],
            k=result.k,
            t=result.t,
            lazy_accepted_ids=self.id_map[result.lazy_accepted_ids],
            stats=result.stats,
        )


class Service:
    """One dataset, one backend, one engine — swappable by name.

    Parameters
    ----------
    data:
        ``(n, dim)`` member points, or a prebuilt
        :class:`~repro.indexes.Index` to adopt as the backend.
    backend:
        Index backend name or alias (``"kd"``, ``"rstar"``, ``"linear"``,
        ...); ignored when ``data`` is already an index.
    engine:
        Engine registry name (see :data:`repro.ENGINE_REGISTRY`).  The
        bichromatic engine is not a per-dataset engine — use
        :meth:`query_bichromatic` instead.
    metric:
        Metric name or instance (only when building from raw data).
    dtype:
        Storage dtype policy, ``"float32"`` or ``"float64"`` (default).
        When building from raw data this constructs the metric with the
        given dtype (conflicting metric instances raise); when adopting
        a prebuilt index it is a cross-check against the index's storage.
        The dtype survives :meth:`save`/:meth:`load`.
    defaults:
        The :class:`QuerySpec` applied when a query call does not
        override it.
    backend_kwargs / engine_kwargs:
        Forwarded to the backend / engine constructors.  Both must be
        JSON-serializable for :meth:`save`.

    Queries (:meth:`query`, :meth:`query_batch`, :meth:`query_all`) are
    safe to issue from many threads concurrently with :meth:`insert` /
    :meth:`remove` / :meth:`compact`; every answer is exact with respect
    to one published epoch (see the module docstring).  :meth:`save`,
    :meth:`load`, and :meth:`bichromatic` are not part of the concurrent
    surface — call them without racing writers.
    """

    def __init__(
        self,
        data,
        *,
        backend: str = "kd",
        engine: str = "rdt+",
        metric=None,
        dtype=None,
        defaults: QuerySpec | None = None,
        backend_kwargs: dict | None = None,
        engine_kwargs: dict | None = None,
        parallel=None,
    ) -> None:
        engine = str(engine).lower()
        if engine not in ENGINE_REGISTRY:
            raise ValueError(
                f"unknown engine {engine!r}; known: {sorted(ENGINE_REGISTRY)}"
            )
        if engine == "bichromatic":
            raise ValueError(
                "the bichromatic engine needs a second color per call; "
                "use Service.query_bichromatic(queries, clients=...) instead"
            )
        self.engine_name = engine
        self.defaults = defaults if defaults is not None else QuerySpec()
        if not isinstance(self.defaults, QuerySpec):
            raise TypeError(
                f"defaults must be a QuerySpec, got {type(self.defaults).__name__}"
            )
        self._backend_kwargs = dict(backend_kwargs or {})
        self._engine_kwargs = dict(engine_kwargs or {})
        if isinstance(data, Index):
            if metric is not None:
                raise ValueError(
                    "metric only applies when building from raw data; the "
                    "given index already carries one"
                )
            if dtype is not None and _check_dtype_name(dtype) != (
                data.points.dtype.name
            ):
                raise ValueError(
                    f"dtype={_check_dtype_name(dtype)!r} conflicts with the "
                    f"adopted index's {data.points.dtype.name!r} storage; "
                    "build the index with the desired metric dtype instead"
                )
            if backend_kwargs:
                raise ValueError(
                    "backend_kwargs only apply when building from raw data"
                )
            self.index = data
            self.backend_name = resolve_index_name(data.name)
            # Recover the adopted tree's constructor knobs so save()/load()
            # rebuilds an equivalent backend (an RdNN-tree's required k
            # included).  Non-attribute knobs (e.g. sampling seeds) fall
            # back to constructor defaults on reload — answers are
            # unchanged, only internal tree shape may differ.
            self._backend_kwargs = {
                name: getattr(data, name)
                for name in _BACKEND_KNOB_ATTRS
                if hasattr(data, name)
            }
        else:
            self.backend_name = resolve_index_name(backend)
            if dtype is not None:
                # The dtype knob is the metric's numeric policy;
                # get_metric raises on a conflicting metric instance.
                metric = get_metric(metric, dtype=_check_dtype_name(dtype))
            self.index = create_index(
                self.backend_name, data, metric=metric, **self._backend_kwargs
            )
        # --- concurrency state (module docstring "Concurrency") ---
        # serializes insert/remove/compact
        self._writer_lock = threading.RLock()
        # serializes engine (re)builds, off the read path
        self._rebuild_lock = threading.Lock()
        # drains in-flight readers before mutating backends whose live
        # structure is not safe to change under concurrent snapshots
        self._gate = None if self.index.snapshot_stable else ReadWriteLock()
        self._published: _ReadState | None = None
        self._head = _Head(self.index.version, self.index.snapshot())
        # --- attached resources (closed by close()) ---
        self._parallel_config = self._normalize_parallel(parallel)
        self._parallel = None
        self._closeables: list = []
        self._closed = False

    def _normalize_parallel(self, parallel) -> dict | None:
        """Validate the ``parallel=`` knob into executor kwargs (or None).

        Accepts ``None`` (in-process, the default), ``True`` (one worker
        per core), an int worker count, or a dict of
        :class:`repro.parallel.ParallelExecutor` knobs (``workers``,
        ``start_method``, ``block_size``).
        """
        if parallel is None or parallel is False:
            return None
        if parallel is True:
            config = {}
        elif isinstance(parallel, int):
            config = {"workers": parallel}
        elif isinstance(parallel, dict):
            allowed = {"workers", "start_method", "block_size"}
            unknown = set(parallel) - allowed
            if unknown:
                raise ValueError(
                    f"unknown parallel option(s) {sorted(unknown)}; "
                    f"allowed: {sorted(allowed)}"
                )
            config = dict(parallel)
        else:
            raise TypeError(
                "parallel must be None, True, an int worker count, or a "
                f"dict of executor options, got {type(parallel).__name__}"
            )
        if ENGINE_REGISTRY[self.engine_name].needs != "index":
            raise ValueError(
                "parallel execution supports index-family engines only; "
                f"{self.engine_name!r} needs "
                f"{ENGINE_REGISTRY[self.engine_name].needs!r}"
            )
        return config

    def _parallel_executor(self):
        """The lazily built executor behind the ``parallel=`` knob."""
        if self._closed:
            raise RuntimeError("cannot query a closed Service in parallel")
        if self._parallel is None:
            from repro.parallel import ParallelExecutor

            self._parallel = ParallelExecutor(self, **self._parallel_config)
        return self._parallel

    # ------------------------------------------------------------------
    # Lifecycle: attached resources
    # ------------------------------------------------------------------
    def register_closeable(self, resource) -> None:
        """Attach a resource whose ``close()`` composes with :meth:`close`.

        The serving layer uses this (a :class:`repro.serving.QueryCoalescer`
        registers itself on construction) so one ``service.close()`` —
        or leaving the ``with`` block — tears down dispatcher threads,
        the parallel worker pool, and every shared-memory segment.
        """
        self._closeables.append(resource)

    def close(self) -> None:
        """Tear down attached resources (idempotent).

        Closes registered closeables (coalescers first, so no dispatcher
        keeps querying a dead pool), then the parallel executor — worker
        pool joined, shared-memory segments unlinked.  In-process
        queries keep working on a closed service; parallel-routed ones
        raise.
        """
        if self._closed:
            return
        self._closed = True
        for resource in self._closeables:
            try:
                resource.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._closeables = []
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def metric(self):
        return self.index.metric

    @property
    def dim(self) -> int:
        return self.index.dim

    @property
    def size(self) -> int:
        return self.index.size

    @property
    def epoch(self) -> int:
        """The currently published epoch (the backend's data version)."""
        return self._head.epoch

    def __len__(self) -> int:
        return self.index.size

    def active_ids(self) -> np.ndarray:
        return self.index.active_ids()

    def __repr__(self) -> str:
        return (
            f"Service(engine={self.engine_name!r}, "
            f"backend={self.backend_name!r}, n={self.size}, dim={self.dim}, "
            f"metric={self.metric.name}, defaults={self.defaults!r})"
        )

    # ------------------------------------------------------------------
    # Read path: pin a published (epoch, snapshot, engine) state
    # ------------------------------------------------------------------
    @contextmanager
    def _read_guard(self):
        """Reader side of the drain gate; a no-op on stable backends."""
        if self._gate is None:
            yield
        else:
            with self._gate.read():
                yield

    def engine(self, spec: QuerySpec | None = None):
        """The active engine, (re)built lazily for the given spec."""
        spec = self.defaults if spec is None else spec
        with self._read_guard():
            return self._pin_state(spec).engine

    def _pin_state(self, spec: QuerySpec) -> _ReadState:
        """The lock-free read path: the latest published state, or a rebuild.

        The fast path is two attribute reads and an integer compare.  On
        a miss, the rebuild lock is tried *non-blocking*: if another
        thread is already rebuilding and the last published state still
        answers this spec, that stale-but-consistent older epoch is
        served instead of waiting (MVCC semantics — never torn data, at
        worst a recently superseded version).  Non-snapshot-stable
        backends skip the fallback: their old snapshots share structure
        the next mutation may corrupt, so reads always move forward.
        """
        head = self._head
        state = self._published
        if (
            state is not None
            and state.epoch == head.epoch
            and self._state_serves(state, spec)
        ):
            return state
        if not self._rebuild_lock.acquire(blocking=False):
            if (
                state is not None
                and self.index.snapshot_stable
                and self._state_serves(state, spec)
            ):
                return state
            self._rebuild_lock.acquire()
        try:
            head = self._head
            state = self._published
            if (
                state is not None
                and state.epoch == head.epoch
                and self._state_serves(state, spec)
            ):
                return state
            state = self._build_state(head, spec)
            self._published = state
            return state
        finally:
            self._rebuild_lock.release()

    def _state_serves(self, state: _ReadState, spec: QuerySpec) -> bool:
        """Whether a published state can answer the given spec."""
        if self._merged_engine_kwargs(spec) != state.built_kwargs:
            return False
        if self.engine_name == "rdnn" and spec.k != state.built_k:
            # Rebuilding for the new k only helps when the k was ours to
            # choose; a user-pinned k would survive the rebuild and fail
            # identically, so refuse up front instead of churning O(n^2)
            # tree builds per query.
            self._check_k_pin("k", spec.k, self._engine_kwargs.get("k"))
            return False
        if self.engine_name == "mrknncop" and spec.k > state.engine.k_max:
            self._check_k_pin("k_max", spec.k, self._engine_kwargs.get("k_max"))
            return False
        return True

    @staticmethod
    def _check_k_pin(name: str, wanted_k: int, pinned) -> None:
        if pinned is not None and (
            wanted_k > pinned if name == "k_max" else wanted_k != pinned
        ):
            raise ValueError(
                f"k={wanted_k} conflicts with {name}={pinned} pinned in "
                f"engine_kwargs; drop the pin (the Service derives {name} "
                "from the spec) or query within it"
            )

    def _merged_engine_kwargs(self, spec: QuerySpec) -> dict:
        merged = dict(self._engine_kwargs)
        for name in _ENGINE_STRATEGY_KNOBS.get(self.engine_name, ()):
            value = getattr(spec, name)
            if value is not None:
                merged[name] = value
        return merged

    def _build_state(self, head: _Head, spec: QuerySpec) -> _ReadState:
        """Build an engine over the head's snapshot (never the live index).

        Every engine family reads the frozen snapshot, so a rebuild
        racing the write path still derives all of its state from one
        epoch.  Snapshot-id engines get the id translation table from the
        same snapshot.
        """
        entry = ENGINE_REGISTRY[self.engine_name]
        merged = self._merged_engine_kwargs(spec)
        # The factory call may inject spec-derived defaults (k, k_max);
        # the rebuild comparison must see the *user-provided* kwargs only,
        # or every later spec would look like a config change.
        kwargs = dict(merged)
        snap = head.snapshot
        id_map: np.ndarray | None = None
        if entry.needs == "index":
            engine = entry.factory(
                snap, metric=None, backend=None, backend_kwargs=None,
                **kwargs,
            )
        elif entry.needs == "rstar-index":
            if isinstance(self.index, RStarTreeIndex):
                tree = snap
            else:
                # A dedicated R*-tree replica in the same id space: build
                # over the snapshot's full matrix, replay its removals.
                tree = RStarTreeIndex(snap.points, metric=self.metric)
                mask = np.zeros(snap.points.shape[0], dtype=bool)
                mask[snap.active_ids()] = True
                for point_id in np.flatnonzero(~mask):
                    tree.remove(int(point_id))
            engine = entry.factory(
                tree, metric=None, backend=None, backend_kwargs=None, **kwargs
            )
        elif entry.needs == "data":
            active = snap.active_ids()
            if active.shape[0] == snap.points.shape[0]:
                points = snap.points
            else:
                points = snap.points[active]
                id_map = active
            for knob, value in kwargs_for_k(self.engine_name, spec.k).items():
                kwargs.setdefault(knob, value)
            engine = entry.factory(
                points, metric=self.metric, backend=None, backend_kwargs=None,
                **kwargs,
            )
        else:  # pragma: no cover - guarded in __init__
            raise ValueError(f"unsupported engine family {entry.needs!r}")
        if engine.built_at_version is None:
            # Data-snapshot engines cannot bind a version themselves —
            # stamp the epoch so is_stale(live_index) works uniformly.
            engine.built_at_version = head.epoch
        return _ReadState(
            epoch=head.epoch,
            snapshot=snap,
            engine=engine,
            built_kwargs=merged,
            built_k=spec.k,
            id_map=id_map,
        )

    def _active_mask(self) -> np.ndarray:
        mask = np.zeros(self.index.points.shape[0], dtype=bool)
        mask[self.index.active_ids()] = True
        return mask

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve_spec(self, spec: QuerySpec | None = None, **overrides) -> QuerySpec:
        """The effective (validated) spec for one call."""
        base = self.defaults if spec is None else spec
        if not isinstance(base, QuerySpec):
            raise TypeError(f"spec must be a QuerySpec, got {type(base).__name__}")
        resolved = base.replace(**overrides) if overrides else base
        stored = self.index.points.dtype.name
        if resolved.dtype is not None and resolved.dtype != stored:
            raise ValueError(
                f"spec expects dtype {resolved.dtype!r} but this service "
                f"stores {stored!r} points"
            )
        return resolved

    def query(
        self,
        query=None,
        *,
        query_index: int | None = None,
        spec: QuerySpec | None = None,
        **overrides,
    ) -> RkNNResult:
        """One reverse-kNN query under the resolved spec.

        Exactly one of ``query`` (raw point) or ``query_index`` (member
        id) must be given; keyword overrides (``k=5``, ``t=4.0``, ...)
        patch the default spec for this call only.
        """
        return self.query_versioned(
            query, query_index=query_index, spec=spec, **overrides
        )[1]

    def query_versioned(
        self,
        query=None,
        *,
        query_index: int | None = None,
        spec: QuerySpec | None = None,
        **overrides,
    ) -> tuple[int, RkNNResult]:
        """Like :meth:`query`, returning ``(epoch, result)``.

        The epoch names the published snapshot the answer is exact
        against — the currency for cache invalidation
        (:class:`repro.serving.ResultCache`) and for the linearizability
        checks in the threaded test harness.
        """
        spec = self.resolve_spec(spec, **overrides)
        with self._read_guard():
            state = self._pin_state(spec)
            engine = state.engine
            if query_index is not None:
                query_index = state.to_engine_index(query_index)
            result = engine.query(
                query, query_index=query_index, k=spec.k,
                **spec.knobs_for(engine),
            )
        return state.epoch, state.map_result(result)

    def query_batch(
        self,
        queries=None,
        *,
        query_indices=None,
        spec: QuerySpec | None = None,
        **overrides,
    ) -> list[RkNNResult]:
        """Many queries in one engine pass (vectorized where the engine
        supports it), one :class:`RkNNResult` per input row/id."""
        return self.query_batch_versioned(
            queries, query_indices=query_indices, spec=spec, **overrides
        )[1]

    def query_batch_versioned(
        self,
        queries=None,
        *,
        query_indices=None,
        spec: QuerySpec | None = None,
        **overrides,
    ) -> tuple[int, list[RkNNResult]]:
        """Like :meth:`query_batch`, returning ``(epoch, results)``."""
        spec = self.resolve_spec(spec, **overrides)
        if self._parallel_config is not None:
            return self._parallel_executor().query_batch_versioned(
                queries, query_indices=query_indices, spec=spec
            )
        with self._read_guard():
            state = self._pin_state(spec)
            engine = state.engine
            if query_indices is not None:
                query_indices = [
                    state.to_engine_index(int(qi)) for qi in query_indices
                ]
            results = engine.query_batch(
                queries,
                query_indices=query_indices,
                k=spec.k,
                **spec.knobs_for(engine, batch=True),
            )
        return state.epoch, [state.map_result(result) for result in results]

    def query_all(
        self, *, spec: QuerySpec | None = None, **overrides
    ) -> dict[int, RkNNResult]:
        """The RkNN self-join: ``{point_id: result}`` over all members."""
        return self.query_all_versioned(spec=spec, **overrides)[1]

    def query_all_versioned(
        self, *, spec: QuerySpec | None = None, **overrides
    ) -> tuple[int, dict[int, RkNNResult]]:
        """Like :meth:`query_all`, returning ``(epoch, results)``.

        With the ``parallel=`` knob set, the join fans out across the
        worker pool (:class:`repro.parallel.ParallelExecutor`) — same
        per-epoch answers, computed on every core.
        """
        spec = self.resolve_spec(spec, **overrides)
        if self._parallel_config is not None:
            return self._parallel_executor().query_all_versioned(spec=spec)
        with self._read_guard():
            state = self._pin_state(spec)
            engine = state.engine
            results = engine.query_all(
                k=spec.k, **spec.knobs_for(engine, batch=True)
            )
        if state.id_map is None:
            return state.epoch, results
        return state.epoch, {
            int(state.id_map[local]): state.map_result(result)
            for local, result in results.items()
        }

    # ------------------------------------------------------------------
    # Bichromatic routing
    # ------------------------------------------------------------------
    def bichromatic(self, clients):
        """A bichromatic engine with this service's members as *services*.

        ``clients`` is an ``(m, dim)`` array (indexed with this
        service's backend) or a prebuilt client index.  Build once and
        reuse when issuing many query rounds against the same client set.
        """
        from repro.core.bichromatic import BichromaticRDT

        if isinstance(clients, Index):
            client_index = clients
        else:
            client_index = create_index(
                self.backend_name, clients, metric=self.metric,
                **self._backend_kwargs,
            )
        return BichromaticRDT(client_index, self.index)

    def query_bichromatic(
        self,
        queries,
        clients,
        *,
        spec: QuerySpec | None = None,
        **overrides,
    ):
        """Bichromatic RkNN at prospective service locations.

        ``queries`` is one point (returns one result) or ``(m, dim)``
        rows (returns a list); answers are ids into ``clients``.
        """
        spec = self.resolve_spec(spec, **overrides)
        engine = self.bichromatic(clients)
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            return engine.query(queries, k=spec.k, t=spec.t)
        return engine.query_batch(queries, k=spec.k, t=spec.t)

    # ------------------------------------------------------------------
    # Write path: churn, compaction
    # ------------------------------------------------------------------
    @contextmanager
    def _write_guard(self):
        """Writer side of the drain gate; a no-op on stable backends."""
        if self._gate is None:
            yield
        else:
            with self._gate.write():
                yield

    def _publish(self) -> None:
        """Atomically publish the post-mutation ``(epoch, snapshot)`` head.

        One attribute assignment — readers observe either the previous
        head or this one, never a mixture.  Engine invalidation is
        deferred: the next query sees the epoch moved and rebuilds off
        the read path.
        """
        self._head = _Head(self.index.version, self.index.snapshot())

    def insert(self, point) -> int:
        """Insert a member point; returns its id.

        Serialized with other mutations on the writer lock; concurrent
        queries keep serving the previously published epoch until the
        new head lands.
        """
        with self._writer_lock:
            with self._write_guard():
                point_id = self.index.insert(point)
            self._publish()
        return point_id

    def remove(self, point_id: int) -> None:
        """Remove a member point by id (same publication as insert)."""
        with self._writer_lock:
            with self._write_guard():
                self.index.remove(int(point_id))
            self._publish()

    def compact(self) -> bool:
        """Pass through to the backend's tombstone compaction, if any.

        Returns ``True`` when the backend compacted, ``False`` when it
        has nothing to compact (no tombstone mechanism).
        """
        compact = getattr(self.index, "compact", None)
        if compact is None:
            return False
        with self._writer_lock:
            with self._write_guard():
                compact()
            self._publish()
        return True

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> pathlib.Path:
        """Persist the service to one ``.npz`` payload.

        Stores the full point matrix (removed rows included, so ids
        survive), the active mask, and a JSON header with metric,
        backend/engine names, kwargs, and the default spec.  The backend
        tree itself is *not* serialized — :meth:`load` rebuilds it with
        the deterministic bulk build and replays the removals, which
        round-trips ``query_all`` bit-identically.

        An ``approx-graph`` service additionally stores the strategy's
        base-layer adjacency (format version 3): rebuilding the graph is
        the expensive part of that engine, so :meth:`load` adopts the
        stored arrays instead of re-deriving them when the knobs match,
        and falls back to the deterministic rebuild otherwise.
        """
        from repro import __version__

        metric_meta = {"name": self.metric.name}
        if hasattr(self.metric, "p"):
            metric_meta["p"] = float(self.metric.p)
        metric_meta["dtype"] = self.metric.dtype.name
        meta = {
            "format_version": SERVICE_FORMAT_VERSION,
            "dtype": self.index.points.dtype.name,
            "library_version": __version__,
            "backend": self.backend_name,
            "engine": self.engine_name,
            "metric": metric_meta,
            "defaults": asdict(self.defaults),
            "backend_kwargs": self._backend_kwargs,
            "engine_kwargs": self._engine_kwargs,
        }
        graph_arrays: dict[str, np.ndarray] = {}
        if self.engine_name == "approx-graph":
            strategy = self.engine().strategy
            strategy.ensure_current()
            graph_arrays = strategy.serialized_graph()
            meta["graph"] = {
                "graph_m": int(strategy.graph_m),
                "seed": int(strategy.seed),
            }
        try:
            header = json.dumps(meta, sort_keys=True)
        except TypeError as exc:
            raise TypeError(
                "backend_kwargs/engine_kwargs must be JSON-serializable "
                f"to save a Service: {exc}"
            ) from None
        path = pathlib.Path(path)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                points=self.index.points,
                active=self._active_mask(),
                meta=np.asarray(header),
                **graph_arrays,
            )
        return path

    @classmethod
    def load(cls, path) -> "Service":
        """Rebuild a service saved by :meth:`save` (see there).

        Replaying removals requires the backend to support ``remove``
        when the payload contains inactive points.  Header keys this
        build does not know (such as an ``"extra"`` block) are ignored,
        and payloads from older versions keep loading: a retired spec
        field is dropped, while a retired engine raises a ``ValueError``
        naming its replacement.
        """
        path = pathlib.Path(path)
        graph_arrays: dict[str, np.ndarray] = {}
        with np.load(path, allow_pickle=False) as payload:
            points = np.array(payload["points"])
            active = np.array(payload["active"], dtype=bool)
            meta = json.loads(str(payload["meta"][()]))
            if all(key in payload.files for key in _GRAPH_PAYLOAD_KEYS):
                graph_arrays = {
                    key: np.array(payload[key]) for key in _GRAPH_PAYLOAD_KEYS
                }
        version = meta.get("format_version")
        if version not in _READABLE_FORMAT_VERSIONS:
            raise ValueError(
                f"cannot load Service payload {str(path)!r}: found "
                f"format_version {version!r}, readable: "
                f"{_READABLE_FORMAT_VERSIONS} (re-save with a matching "
                "library version)"
            )
        if version < 2:
            # Version 1 predates the dtype knob: payloads were always
            # written from float64 services, so coerce defensively and
            # leave the metric's (float64) default alone.
            points = points.astype(np.float64, copy=False)
        else:
            stored = _check_dtype_name(meta["dtype"])
            if points.dtype.name != stored:
                raise ValueError(
                    f"corrupt Service payload {str(path)!r}: header "
                    f"declares dtype {stored!r} but the point matrix is "
                    f"{points.dtype.name!r}"
                )
        retired = _RETIRED_ENGINES.get(meta["engine"])
        if retired is not None:
            raise ValueError(
                f"cannot load Service payload {str(path)!r}: engine "
                f"{meta['engine']!r} has been removed from the library; "
                f"re-build the service with engine={retired!r}"
            )
        defaults = {
            name: value
            for name, value in meta["defaults"].items()
            if name not in _RETIRED_SPEC_FIELDS
        }
        metric_meta = dict(meta["metric"])
        metric = get_metric(metric_meta.pop("name"), **metric_meta)
        service = cls(
            points,
            backend=meta["backend"],
            engine=meta["engine"],
            metric=metric,
            defaults=QuerySpec(**defaults),
            backend_kwargs=meta["backend_kwargs"],
            engine_kwargs=meta["engine_kwargs"],
        )
        for point_id in np.flatnonzero(~active):
            service.remove(int(point_id))
        if graph_arrays and service.engine_name == "approx-graph":
            # Adopt the stored adjacency only when the payload was built
            # with the same knobs the loaded engine will use; any mismatch
            # (including a missing/legacy header) keeps the deterministic
            # rebuild path, which is always correct, just slower.
            strategy = service.engine().strategy
            stored = meta.get("graph", {})
            if (
                stored.get("graph_m") == strategy.graph_m
                and stored.get("seed") == strategy.seed
            ):
                strategy.adopt_graph(
                    graph_arrays["graph_node_ids"],
                    graph_arrays["graph_levels"],
                    graph_arrays["graph_neighbors"],
                    graph_arrays["graph_neighbor_dists"],
                )
        return service
