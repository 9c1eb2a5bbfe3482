"""The engine registry: every RkNN method constructible by name.

Mirrors the index registry (:func:`repro.indexes.create_index`) on the
algorithm side: :func:`create_engine` resolves a string to a fully built
:class:`~repro.core.protocol.RkNNEngine`, hiding the fact that the
families want different substrates (an incremental-NN index for RDT and
the approximate strategies, a raw data snapshot for the precomputation
baselines, an R*-tree for TPL, two indexes for the bichromatic engine).

>>> engine = repro.create_engine("rdt+", data, backend="kd")
>>> engine.query_all(k=10, t=8.0)

This is what the evaluation runner, the mining joins, the conformance
oracle, and the :class:`repro.Service` facade enumerate instead of
hard-coding classes; adding an engine here makes it reachable from every
driver at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.approx.engine import ApproxRkNN
from repro.baselines.mrknncop import MRkNNCoP
from repro.baselines.naive import NaiveRkNN
from repro.baselines.rdnn import RdNN
from repro.baselines.sft import SFT
from repro.baselines.tpl import TPL
from repro.core.adaptive import AdaptiveRDT
from repro.core.bichromatic import BichromaticRDT
from repro.core.rdt import RDT
from repro.indexes import RStarTreeIndex, RdNNTreeIndex, create_index
from repro.indexes.base import Index
from repro.utils.validation import as_dataset

__all__ = [
    "DEFAULT_BACKEND",
    "ENGINE_REGISTRY",
    "EngineSpec",
    "create_engine",
    "kwargs_for_k",
]

#: Backend built when an engine needs an index but was handed raw data.
DEFAULT_BACKEND = "kd-tree"


@dataclass(frozen=True)
class EngineSpec:
    """One registry entry: how to build an engine and what it promises."""

    name: str
    cls: type
    #: what the factory consumes: ``"index"`` (any backend), ``"data"``
    #: (a raw snapshot), ``"rstar-index"``, or ``"two-colors"``
    needs: str
    summary: str
    factory: Callable[..., object]


def _as_index(data, metric, backend, backend_kwargs) -> Index:
    """An Index over ``data``, building ``backend`` when given raw rows."""
    if isinstance(data, Index):
        if metric is not None:
            raise ValueError(
                "metric only applies when building from raw data; the "
                "given index already carries one"
            )
        if backend_kwargs:
            raise ValueError(
                "backend_kwargs only apply when building from raw data"
            )
        return data
    return create_index(
        backend or DEFAULT_BACKEND, data, metric=metric, **(backend_kwargs or {})
    )


def _as_data(data) -> tuple[np.ndarray, object]:
    """A raw point matrix (and its metric) for snapshot-based engines.

    Accepts an :class:`Index` only while its id space still equals row
    order (no removals): snapshot engines answer in dense row ids, and a
    silently shifted id space would corrupt every downstream comparison.
    The :class:`repro.Service` facade owns the id translation for the
    post-removal case.
    """
    if isinstance(data, Index):
        if data.active_ids().shape[0] != data.points.shape[0]:
            raise ValueError(
                "cannot build a data-snapshot engine from an index with "
                "removed points: its dense row ids no longer match the "
                "index id space.  Pass the raw data (or use repro.Service, "
                "which translates ids)"
            )
        return data.points, data.metric
    return as_dataset(data), None


def _make_rdt(variant):
    def build(data, *, metric, backend, backend_kwargs, **kwargs):
        index = _as_index(data, metric, backend, backend_kwargs)
        return RDT(index, variant=variant, **kwargs)

    return build


def _make_approx(strategy):
    def build(data, *, metric, backend, backend_kwargs, **kwargs):
        index = _as_index(data, metric, backend, backend_kwargs)
        return ApproxRkNN(index, strategy, **kwargs)

    return build


def _build_adaptive(data, *, metric, backend, backend_kwargs, **kwargs):
    index = _as_index(data, metric, backend, backend_kwargs)
    return AdaptiveRDT(index, **kwargs)


def _build_sft(data, *, metric, backend, backend_kwargs, **kwargs):
    index = _as_index(data, metric, backend, backend_kwargs)
    return SFT(index, **kwargs)


def _build_naive(data, *, metric, backend, backend_kwargs, k: int = 10, **kwargs):
    points, index_metric = _as_data(data)
    return NaiveRkNN(points, k, metric=metric or index_metric, **kwargs)


def _build_mrknncop(data, *, metric, backend, backend_kwargs, **kwargs):
    points, index_metric = _as_data(data)
    return MRkNNCoP(points, metric=metric or index_metric, **kwargs)


def _build_rdnn(data, *, metric, backend, backend_kwargs, k: int = 10, **kwargs):
    if isinstance(data, RdNNTreeIndex):
        if kwargs or metric is not None or k != data.k:
            raise ValueError(
                "an RdNN-tree is already built for one fixed k; pass raw "
                "data to build a tree with different parameters"
            )
        return RdNN(data)
    points, index_metric = _as_data(data)
    return RdNN(RdNNTreeIndex(points, k=k, metric=metric or index_metric, **kwargs))


def _build_tpl(data, *, metric, backend, backend_kwargs, trim_size=None):
    if isinstance(data, Index):
        if not isinstance(data, RStarTreeIndex):
            raise ValueError(
                "TPL is defined on MBR hierarchies: pass an RStarTreeIndex "
                f"or raw data, got {type(data).__name__}"
            )
        index = _as_index(data, metric, backend, backend_kwargs)
    else:
        index = RStarTreeIndex(
            as_dataset(data), metric=metric, **(backend_kwargs or {})
        )
    return TPL(index, trim_size=trim_size)


def _build_bichromatic(
    data, *, metric, backend, backend_kwargs, clients=None, **kwargs
):
    if clients is None:
        raise ValueError(
            "the bichromatic engine needs both colors: pass the client "
            "points (or a prebuilt client index) as clients=..., with "
            "`data` holding the services"
        )
    services = _as_index(data, metric, backend, backend_kwargs)
    if isinstance(clients, Index):
        client_index = clients
    else:
        client_index = create_index(
            backend or DEFAULT_BACKEND,
            clients,
            metric=metric if not isinstance(data, Index) else services.metric,
            **(backend_kwargs or {}),
        )
    return BichromaticRDT(client_index, services, **kwargs)


ENGINE_REGISTRY: dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            "rdt", RDT, "index",
            "the paper's Algorithm 1 (exact given t >= max GED)",
            _make_rdt("rdt"),
        ),
        EngineSpec(
            "rdt+", RDT, "index",
            "RDT with Section 4.3 candidate-set reduction",
            _make_rdt("rdt+"),
        ),
        EngineSpec(
            "adaptive", AdaptiveRDT, "index",
            "RDT with per-query mid-search re-estimation of t (heuristic)",
            _build_adaptive,
        ),
        EngineSpec(
            "bichromatic", BichromaticRDT, "two-colors",
            "two-color (client/service) dimensional testing",
            _build_bichromatic,
        ),
        EngineSpec(
            "approx-sampled", ApproxRkNN, "index",
            "sampled-kNN upper-bound shortlist (recall 1 by construction)",
            _make_approx("sampled"),
        ),
        EngineSpec(
            "approx-graph", ApproxRkNN, "index",
            "HRNN-style navigable graph shortlist, verified (precision 1)",
            _make_approx("graph"),
        ),
        EngineSpec(
            "naive", NaiveRkNN, "data",
            "brute force over a precomputed kNN-distance table (reference)",
            _build_naive,
        ),
        EngineSpec(
            "sft", SFT, "index",
            "alpha-scaled forward-kNN candidates (Singh et al., CIKM 2003)",
            _build_sft,
        ),
        EngineSpec(
            "mrknncop", MRkNNCoP, "data",
            "log-log kNN-distance bounds over an M-tree (Achtert et al.)",
            _build_mrknncop,
        ),
        EngineSpec(
            "rdnn", RdNN, "data",
            "kNN-distance-augmented R*-tree, one fixed k (Yang & Lin)",
            _build_rdnn,
        ),
        EngineSpec(
            "tpl", TPL, "rstar-index",
            "bisector pruning over an R*-tree (Tao et al., VLDB 2004)",
            _build_tpl,
        ),
    )
}


def kwargs_for_k(name: str, k: int) -> dict:
    """Engine-construction kwargs implied by the neighborhood size.

    Fixed-k engines (``naive``, ``rdnn``) and k_max-bounded ones
    (``mrknncop``) must be told the queried ``k`` at build time; drivers
    that construct by registry name for a known workload k (the
    :class:`repro.Service` facade, :func:`repro.run_engine`) merge these
    under any explicitly given kwargs.
    """
    if name in ("naive", "rdnn"):
        return {"k": int(k)}
    if name == "mrknncop":
        return {"k_max": int(k)}
    return {}


def create_engine(
    name: str,
    data,
    *,
    metric=None,
    backend: str | None = None,
    backend_kwargs: dict | None = None,
    parallel=None,
    **kwargs,
):
    """Construct a registered RkNN engine by name (the front door).

    Parameters
    ----------
    name:
        A registry name: ``"rdt"``, ``"rdt+"``, ``"adaptive"``,
        ``"bichromatic"``, ``"approx-sampled"``, ``"approx-graph"``,
        ``"naive"``, ``"sft"``, ``"mrknncop"``, ``"rdnn"``, ``"tpl"``.
    data:
        The member points — an ``(n, dim)`` array or a prebuilt
        :class:`~repro.indexes.Index` (for the bichromatic engine these
        are the *services*).  Engines that consume a raw snapshot
        (``naive``, ``mrknncop``, ``rdnn``) accept an index only while
        no point has been removed from it; TPL requires an R*-tree.
    metric:
        Metric name or instance, applied when building from raw data.
    backend:
        Index backend name/alias built when the engine needs an index
        and ``data`` is raw (default ``"kd-tree"``; TPL and RdNN build
        their own specialized trees).
    backend_kwargs:
        Forwarded to the backend constructor (``leaf_size``, ...).
    parallel:
        When set (``True``, an int worker count, or a dict of
        :class:`repro.parallel.ParallelExecutor` knobs), returns a
        :class:`~repro.parallel.ParallelExecutor` fanning
        ``query_batch``/``query_all`` across a worker-process pool
        instead of the bare engine.  Index-family engines only.
    kwargs:
        Engine-specific knobs: ``k`` (``naive``/``rdnn``), ``k_max``
        (``mrknncop``), ``sample_size``/``margin``/``ef``/``graph_m``/
        ``seed`` (approx strategies), ``trim_size``
        (TPL), ``clients`` (the bichromatic engine's second color), ...

    Returns an object implementing :class:`repro.RkNNEngine`.
    """
    try:
        spec = ENGINE_REGISTRY[str(name).lower()]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; known: {sorted(ENGINE_REGISTRY)}"
        ) from None
    if parallel is not None and parallel is not False:
        from repro.parallel import ParallelExecutor

        if parallel is True:
            pool_kwargs = {}
        elif isinstance(parallel, int):
            pool_kwargs = {"workers": parallel}
        elif isinstance(parallel, dict):
            pool_kwargs = dict(parallel)
        else:
            raise TypeError(
                "parallel must be None, True, an int worker count, or a "
                f"dict of executor options, got {type(parallel).__name__}"
            )
        return ParallelExecutor(
            data,
            spec.name,
            metric=metric,
            backend=backend or DEFAULT_BACKEND,
            backend_kwargs=backend_kwargs,
            engine_kwargs=kwargs,
            **pool_kwargs,
        )
    engine = spec.factory(
        data,
        metric=metric,
        backend=backend,
        backend_kwargs=backend_kwargs,
        **kwargs,
    )
    if engine.built_at_version is None and isinstance(data, Index):
        # Data-snapshot engines (naive/mrknncop) read rows out of the
        # index but never hold it, so their constructors cannot bind the
        # version; stamp it here so is_stale(index) works for them too.
        engine.built_at_version = data.version
    return engine
