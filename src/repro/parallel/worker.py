"""Worker-process side of the parallel execution layer.

A worker is one process in the persistent pool of a
:class:`repro.parallel.executor.ParallelExecutor`.  Its lifecycle:

1. **Initializer** (:func:`init_worker`): pin the kernel-dispatch
   environment — the parent's ``REPRO_JIT`` decision is re-applied and
   :func:`repro.kernels.refresh` re-resolves the dispatch table, so a
   parent running jit kernels never hands workers a stale table.  This
   matters under both start methods: ``fork`` children inherit a table
   resolved in the parent (possibly against an environment the parent
   mutated afterwards), ``spawn`` children re-import from scratch
   against whatever environment they were handed.
2. **Task dispatch** (:func:`run_task`): every task carries a
   :class:`BoundContext` naming the published epoch (shared-memory pack)
   and the engine configuration.  The first task for a context attaches
   the shared arrays, rebuilds the backend index over them (the same
   deterministic bulk-build + removal-replay recipe
   :meth:`repro.Service.load` uses, so answers bit-match the parent),
   builds the engine, and caches everything keyed by the context
   fingerprint.  Later tasks for the same context reuse the cache;
   tasks for a *new* fingerprint evict stale entries (the parent moved
   to a newer epoch — old attachments close, which is when an unlinked
   segment's memory is actually returned).

Engines answering here are restricted to the ``needs == "index"``
registry families (rdt / rdt+ / adaptive / sft / approx-*): they answer
in index ids directly, so no id translation crosses the process
boundary.  The parent enforces this before dispatching.

Everything in this module must stay importable under the ``spawn`` start
method: top-level functions only, no closures in task payloads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.distances import get_metric
from repro.engines import ENGINE_REGISTRY
from repro.indexes import create_index
from repro.parallel.shared import PackMeta, SharedAttachment, attach_arrays

__all__ = ["BoundContext", "WorkerInit", "init_worker", "run_task"]


@dataclass(frozen=True)
class WorkerInit:
    """Environment the pool initializer pins in every worker.

    ``jit_env`` is the parent's ``REPRO_JIT`` value at pool creation
    (``None`` = unset): re-applied before :func:`repro.kernels.refresh`
    so the worker resolves the same dispatch table the parent runs.
    """

    jit_env: str | None = None


@dataclass(frozen=True)
class BoundContext:
    """One published (epoch, engine configuration) a task executes against.

    Picklable and tiny: the heavy arrays travel through the shared
    segments named by ``pack``; this object only carries coordinates.
    """

    #: shared-memory coordinates of the epoch's arrays ("points", "active")
    pack: PackMeta
    #: the parent epoch the pack was published from (for result stamping)
    epoch: int
    backend: str
    engine: str
    #: metric reconstruction meta: {"name", optional "p", "dtype"}
    metric: dict
    backend_kwargs: dict = field(default_factory=dict)
    engine_kwargs: dict = field(default_factory=dict)
    #: optional flat-layout pack ("kd"/"ball" SoA arrays, see
    #: :func:`repro.indexes.soa.layout_to_arrays`) published when the
    #: parent tree is pure-bulk-built (version 0) and therefore
    #: reproduced structurally by the worker's rebuild
    layout_kind: str | None = None
    layout: PackMeta | None = None

    @property
    def fingerprint(self) -> tuple:
        return (
            self.pack.fingerprint,
            self.engine,
            tuple(sorted(self.engine_kwargs.items())),
        )


# ----------------------------------------------------------------------
# Per-process caches (one worker = one process = one module instance)
# ----------------------------------------------------------------------
#: fingerprint -> dict(attachment, index, engine, layout_attachment)
_STATE: dict = {}


def init_worker(config: WorkerInit) -> None:
    """Pool initializer: pin ``REPRO_JIT`` and re-resolve kernel dispatch."""
    if config.jit_env is None:
        os.environ.pop("REPRO_JIT", None)
    else:
        os.environ["REPRO_JIT"] = config.jit_env
    kernels.refresh()


def _evict_other_fingerprints(fingerprint: tuple) -> None:
    """Drop cached state for retired publications (close their mappings)."""
    for key in [k for k in _STATE if k != fingerprint]:
        state = _STATE.pop(key)
        for handle in ("attachment", "layout_attachment"):
            attachment = state.get(handle)
            if isinstance(attachment, SharedAttachment):
                attachment.close()


def _rebuild_index(ctx: BoundContext, points: np.ndarray, active: np.ndarray):
    """The worker replica of the parent index, in the parent id space.

    Deterministic bulk build over the *full* matrix (removed rows
    included) followed by a removal replay — exactly the
    :meth:`repro.Service.load` recipe, whose ``query_all`` round-trip is
    pinned bit-identical by the persistence tests.
    """
    metric_meta = dict(ctx.metric)
    metric = get_metric(metric_meta.pop("name"), **metric_meta)
    index = create_index(ctx.backend, points, metric=metric, **ctx.backend_kwargs)
    for point_id in np.flatnonzero(~active):
        index.remove(int(point_id))
    return index


def _adopt_layout(ctx: BoundContext, index, state: dict) -> None:
    """Attach the parent's published SoA layout instead of re-flattening."""
    if ctx.layout is None or ctx.layout_kind is None:
        return
    from repro.indexes.soa import layout_from_arrays

    attachment = attach_arrays(ctx.layout)
    layout = layout_from_arrays(ctx.layout_kind, attachment.arrays)
    adopt = getattr(index, "adopt_flat_layout", None)
    if adopt is None:  # pragma: no cover - parent only ships kd/ball layouts
        attachment.close()
        return
    adopt(layout)
    state["layout_attachment"] = attachment


def _ensure_state(ctx: BoundContext) -> dict:
    state = _STATE.get(ctx.fingerprint)
    if state is not None:
        return state
    _evict_other_fingerprints(ctx.fingerprint)
    attachment = attach_arrays(ctx.pack)
    points = attachment.arrays["points"]
    active = attachment.arrays["active"]
    state = {"attachment": attachment}
    index = _rebuild_index(ctx, points, active)
    _adopt_layout(ctx, index, state)
    entry = ENGINE_REGISTRY[ctx.engine]
    if entry.needs != "index":  # pragma: no cover - parent validates first
        raise ValueError(
            f"parallel workers only run index-family engines, got "
            f"{ctx.engine!r} (needs={entry.needs!r})"
        )
    state["index"] = index
    state["engine"] = entry.factory(
        index, metric=None, backend=None, backend_kwargs=None,
        **ctx.engine_kwargs,
    )
    _STATE[ctx.fingerprint] = state
    return state


# ----------------------------------------------------------------------
# Task handlers
# ----------------------------------------------------------------------
def _query_block(ctx: BoundContext, kind: str, payload, k: int, knobs: dict):
    """One query block: full results in engine id space."""
    engine = _ensure_state(ctx)["engine"]
    if kind == "member":
        return engine.query_batch(query_indices=payload, k=k, **knobs)
    return engine.query_batch(queries=payload, k=k, **knobs)


def _probe() -> dict:
    """Kernel-dispatch introspection for the spawn/fork regression tests."""
    return {
        "pid": os.getpid(),
        "backend": kernels.active_backend(),
        "jit_available": kernels.jit_available(),
        "jit_enabled": kernels.jit_enabled(),
        "repro_jit": os.environ.get("REPRO_JIT"),
    }


def run_task(task: tuple):
    """The pool's single entry point; dispatches on the task kind."""
    kind = task[0]
    if kind in ("member", "raw"):
        _, ctx, payload, k, knobs = task
        return _query_block(ctx, kind, payload, k, knobs)
    if kind == "probe":
        return _probe()
    raise ValueError(f"unknown worker task kind {kind!r}")
