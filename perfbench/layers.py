"""Per-layer metrics of a traced run (README.md has what each one moves)."""

from __future__ import annotations

import numpy as np

from perfbench.tracing import KERNELS, span_metrics

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = [
    ("service.self_s", "s", "lower"),
    ("service.engine_builds", "count", "lower"),
    ("service.engine_build_s", "s", "lower"),
    ("service.publish_s", "s", "lower"),
    ("service.epochs", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.filter_s", "s", "lower"),
    ("core.refine_s", "s", "lower"),
    ("core.retrieved", "count", "lower"),
    ("core.candidates", "count", "lower"),
    ("core.excluded", "count", "higher"),
    ("core.lazy_accepts", "count", "higher"),
    ("core.lazy_rejects", "count", "higher"),
    ("core.verified", "count", "lower"),
    ("core.verified_hits", "count", "higher"),
    ("core.verify_yield", "ratio", "higher"),
    ("indexes.build_s", "s", "lower"),
    ("indexes.iter_neighbors_s", "s", "lower"),
    ("indexes.neighbors_yielded", "count", "lower"),
    ("indexes.knn_distances_s", "s", "lower"),
    ("indexes.knn_distances_calls", "count", "lower"),
    ("indexes.knn_distances_rows", "count", "lower"),
    ("indexes.insert_s", "s", "lower"),
    ("indexes.snapshot_s", "s", "lower"),
    *[
        (f"kernels.{kernel}.{field}", unit, "lower")
        for kernel in sorted(set(KERNELS.values()))
        for field, unit in (("calls", "count"), ("results", "count"),
                            ("bytes", "bytes"), ("s", "s"))
    ],
    ("approx.build_s", "s", "lower"),
    ("approx.decide_s", "s", "lower"),
    ("approx.pending", "count", "lower"),
    ("approx.verify_rows", "count", "lower"),
    ("distances.calls", "count", "lower"),
    ("loadgen.late_p50_ms", "ms", "lower"),
    ("loadgen.reads", "count", "higher"),
    ("loadgen.writes", "count", "higher"),
    ("loadgen.read_p50_ms", "ms", "lower"),
    ("loadgen.read_p90_ms", "ms", "lower"),
]

_STATS = {
    "core.retrieved": "num_retrieved",
    "core.candidates": "num_candidates",
    "core.excluded": "num_excluded",
    "core.lazy_accepts": "num_lazy_accepts",
    "core.lazy_rejects": "num_lazy_rejects",
    "core.verified": "num_verified",
    "core.verified_hits": "num_verified_hits",
}


def kernel_mismatches(tracer, profile) -> list[str]:
    """Kernels whose wrapper counts differ from ``profile_kernels()``.

    The two count the same calls along independent paths, so a call site
    that reaches a kernel without going through ``repro.kernels`` makes
    them differ.
    """
    library = profile.as_dict()
    messages = []
    for counter in sorted(set(KERNELS.values())):
        ours = dict(zip(("calls", "results", "bytes"),
                        tracer.kernel_counts.get(counter, [0, 0, 0])))
        theirs = library.get(counter, {"calls": 0, "results": 0, "bytes": 0})
        if ours != theirs:
            messages.append(f"kernel {counter}: wrappers counted {ours}, "
                            f"profile_kernels() counted {theirs}")
    return messages


def layer_metrics(wl, session, tracer, profile, distance_calls, svc, report) -> dict:
    """Every per-layer metric; kernel-count mismatches fail the run."""
    values = span_metrics(tracer)
    stats = [a.result.stats for a in session.answers]
    exact = wl.engine in ("rdt", "rdt+")
    for name, field in _STATS.items():
        values[name] = sum(getattr(s, field) for s in stats) if exact else 0
    values["core.filter_s"] = sum(s.filter_seconds for s in stats) if exact else 0.0
    values["core.refine_s"] = sum(s.refine_seconds for s in stats) if exact else 0.0
    verified = values["core.verified"]
    values["core.verify_yield"] = values["core.verified_hits"] / verified if verified else 0.0
    values["approx.pending"] = 0 if exact else sum(s.num_verified for s in stats)
    values["service.epochs"] = svc.epoch
    values["distances.calls"] = distance_calls
    values["loadgen.reads"] = session.reads
    values["loadgen.writes"] = session.writes
    for name, samples, q in (
        ("loadgen.late_p50_ms", session.late_ms, 50),
        ("loadgen.read_p50_ms", session.read_ms, 50),
        ("loadgen.read_p90_ms", session.read_ms, 90),
    ):
        values[name] = float(np.percentile(samples, q)) if samples else 0.0

    for message in kernel_mismatches(tracer, profile):
        report.fail(message)
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
