"""Spans around the layers' public entry points, from outside ``src/``.

A :class:`Tracer` wraps the entry points :func:`targets` lists (and
the dispatched kernels in ``repro.kernels``) while it is installed.  Each
call records one span: ``(id, name, start, end, parent id, request id,
count)``; a span opened with no span active starts a new request, and
its children share that request id.  Wrappers on classes are set on the
class, so they also cover the frozen snapshots engines read (snapshots
are shallow copies of the backend).  Kernel wrappers are set on the
module, because every call site reaches a kernel through the module
attribute; they count calls, results and bytes with the same formulas as
``repro.utils.profiling``, so comparing the two counts catches a call
site that bypasses the module attribute.
"""

from __future__ import annotations

import contextvars
import itertools
import time

import numpy as np

#: Kernel entry points of ``repro.kernels``, with the counter they feed
#: (the ``_stats`` variant computes the same matrix and is profiled under
#: ``euclidean_pairwise`` by the library too).
KERNELS = {
    "euclidean_pairwise": "euclidean_pairwise",
    "euclidean_pairwise_stats": "euclidean_pairwise",
    "euclidean_to_point_many": "euclidean_to_point_many",
    "keeper_update": "keeper_update",
}

#: The service-layer methods whose self time is ``service.self_s``.
SERVICE_CALLS = (
    "service.query", "service.query_batch", "service.query_all",
    "service.insert", "service.remove",
)


def _rows(args, kwargs, result) -> int:
    return len(args[1]) if len(args) > 1 else len(kwargs["query_points"])


def _kernel_counts(name, args, out):
    """(results, bytes) of one kernel call, as ``repro.kernels`` records them."""
    if name == "keeper_update":
        cand = args[3]
        return cand.shape[0], cand.nbytes
    return out.size, args[0].nbytes + args[1].nbytes + out.nbytes


class Tracer:
    """In-memory span recorder; install it, run, uninstall, then read."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.kernel_counts: dict[str, list[int]] = {}
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one span per call; ``count(args, kwargs, result)``
        gives the span's count on success."""
        ix = self._intern(name)
        current, ids, requests = self._current, self._ids, self._requests
        spans, clock = self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            pid, req = (-1, next(requests)) if parent is None else parent
            token = current.set((sid, req))
            n = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                return result
            finally:
                end = clock()
                current.reset(token)
                spans.append((sid, ix, start, end, pid, req, n))

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, fn, name: str):
        """Generator ``fn`` recording one span per ``next``."""
        tracer = self

        def traced(*args, **kwargs):
            step = tracer.wrap(fn(*args, **kwargs).__next__, name,
                               count=lambda a, k, r: 1)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_kernel(self, fn, counter: str):
        counts = self.kernel_counts.setdefault(counter, [0, 0, 0])

        def count(args, kwargs, out):
            results, nbytes = _kernel_counts(counter, args, out)
            counts[0] += 1
            counts[1] += int(results)
            counts[2] += int(nbytes)
            return int(results)

        return self.wrap(fn, f"kernels.{counter}", count=count)

    # -- installation ------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        own = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, wrapper)

    def install(self, backend_cls) -> None:
        """Wrap every entry point :func:`targets` lists, and the kernels."""
        from repro import kernels

        for owner, attr, name, kind in targets(backend_cls):
            fn = getattr(owner, attr)
            if kind == "iter":
                wrapper = self.wrap_iter(fn, name)
            elif kind == "rows":
                wrapper = self.wrap(fn, name, count=_rows)
            else:
                wrapper = self.wrap(fn, name)
            self._patch(owner, attr, wrapper)
        for attr, counter in KERNELS.items():
            self._patch(kernels, attr, self.wrap_kernel(getattr(kernels, attr), counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- reading -----------------------------------------------------
    def table(self) -> dict[str, np.ndarray]:
        """Spans as columns, plus each span's self time."""
        rec = np.asarray(self.spans, dtype=np.float64).reshape(-1, 7)
        sid = rec[:, 0].astype(np.int64)
        parent = rec[:, 4].astype(np.int64)
        dur = rec[:, 3] - rec[:, 2]
        pos = np.full(int(sid.max()) + 2 if sid.size else 1, -1, dtype=np.int64)
        pos[sid] = np.arange(sid.shape[0])
        child = np.zeros(sid.shape[0])
        has = parent >= 0
        np.add.at(child, pos[parent[has]], dur[has])
        parent_name = np.full(sid.shape[0], -1, dtype=np.int64)
        parent_name[has] = rec[pos[parent[has]], 1].astype(np.int64)
        return {
            "id": sid, "name": rec[:, 1].astype(np.int64), "start": rec[:, 2],
            "end": rec[:, 3], "parent": parent, "request": rec[:, 5].astype(np.int64),
            "count": rec[:, 6].astype(np.int64), "dur": dur, "self": dur - child,
            "parent_name": parent_name,
        }

    def save(self, path) -> None:
        cols = self.table()
        np.savez_compressed(
            path, names=np.asarray(self.names),
            **{k: cols[k] for k in ("id", "name", "start", "end", "parent", "request", "count")},
        )


def targets(backend_cls):
    """``(owner, attribute, span name, kind)`` for every wrapped entry point."""
    import repro
    from repro.approx.engine import ApproxRkNN
    from repro.approx.graph import GraphRkNNStrategy

    return [
        (repro.Service, "query_versioned", "service.query", "call"),
        (repro.Service, "query_batch_versioned", "service.query_batch", "call"),
        (repro.Service, "query_all_versioned", "service.query_all", "call"),
        (repro.Service, "insert", "service.insert", "call"),
        (repro.Service, "remove", "service.remove", "call"),
        (repro.RDT, "__init__", "service.engine_build", "call"),
        (ApproxRkNN, "__init__", "service.engine_build", "call"),
        (repro.RDT, "query", "core.query", "call"),
        (repro.RDT, "query_batch", "core.query_batch", "call"),
        (ApproxRkNN, "query_batch", "approx.query_batch", "call"),
        (GraphRkNNStrategy, "ensure_current", "approx.ensure_current", "call"),
        (GraphRkNNStrategy, "decide_batch", "approx.decide_batch", "call"),
        (backend_cls, "__init__", "indexes.build", "call"),
        (backend_cls, "iter_neighbors", "indexes.iter_neighbors", "iter"),
        (backend_cls, "knn_distances", "indexes.knn_distances", "rows"),
        (backend_cls, "insert", "indexes.insert", "call"),
        (backend_cls, "snapshot", "indexes.snapshot", "call"),
    ]


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Span-derived per-layer metrics (times in seconds)."""
    cols = tracer.table()
    ix = {name: i for i, name in enumerate(tracer.names)}

    def sel(*names):
        wanted = [ix[n] for n in names if n in ix]
        return np.isin(cols["name"], wanted)

    def under(name, *parents):
        wanted = [ix[p] for p in parents if p in ix]
        return sel(name) & np.isin(cols["parent_name"], wanted)

    dur, own, count = cols["dur"], cols["self"], cols["count"]
    out = {
        "service.self_s": own[sel(*SERVICE_CALLS)].sum(),
        "service.engine_builds": int(sel("service.engine_build").sum()),
        "service.engine_build_s": dur[sel("service.engine_build")].sum(),
        "service.publish_s": dur[under("indexes.snapshot", "service.insert", "service.remove")].sum(),
        "core.self_s": own[sel("core.query", "core.query_batch")].sum(),
        "indexes.build_s": dur[sel("indexes.build")].sum(),
        "indexes.iter_neighbors_s": dur[sel("indexes.iter_neighbors")].sum(),
        "indexes.neighbors_yielded": int(count[sel("indexes.iter_neighbors")].sum()),
        "indexes.knn_distances_s": dur[sel("indexes.knn_distances")].sum(),
        "indexes.knn_distances_calls": int(sel("indexes.knn_distances").sum()),
        "indexes.knn_distances_rows": int(count[sel("indexes.knn_distances")].sum()),
        "indexes.insert_s": dur[sel("indexes.insert")].sum(),
        "indexes.snapshot_s": dur[sel("indexes.snapshot")].sum(),
        "approx.build_s": dur[sel("approx.ensure_current")].sum(),
        "approx.decide_s": own[sel("approx.decide_batch")].sum(),
        "approx.verify_rows": int(count[under("indexes.knn_distances", "approx.query_batch")].sum()),
    }
    for counter in sorted(set(KERNELS.values())):
        calls, results, nbytes = tracer.kernel_counts.get(counter, [0, 0, 0])
        out[f"kernels.{counter}.calls"] = calls
        out[f"kernels.{counter}.results"] = results
        out[f"kernels.{counter}.bytes"] = nbytes
        out[f"kernels.{counter}.s"] = dur[sel(f"kernels.{counter}")].sum()
    return {k: (float(v) if isinstance(v, np.floating) else v) for k, v in out.items()}
