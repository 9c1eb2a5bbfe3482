"""Multi-core scaling benchmark — ``query_all`` throughput by worker count.

One member-query block per worker count (workers 1/2/4/8) dispatched
through :class:`repro.parallel.ParallelExecutor`'s block fan-out — the
exact path ``query_all`` takes — over the shared-memory point matrix,
at n=1e5 and n=1e6 (kd-tree + rdt+).  Throughput is recorded as
queries/second plus the extrapolated full ``query_all`` wall time
(``n / qps``); the sweep uses a fixed m-query block per size so it stays
tractable on a shared 1-core runner.  Every parallel answer is asserted
bit-identical to the in-process Service.

Gate (same warn/hard-floor idiom as ``test_kernels.py``): best-of-3
speedup at 4 workers vs 1 on the n=1e5 workload must clear the 1.5x
hard floor, with a warning under the 2.5x target.  The gate skips with a
logged reason when ``os.cpu_count() < 4`` (speedup is not measurable)
or POSIX shared memory is unavailable; the throughput rows are still
recorded to the repo-root ``BENCH_scaling.json`` trajectory file.
"""

from __future__ import annotations

import os
import pathlib
import time
import warnings

import numpy as np
import pytest

from benchmarks.figure_driver import record
from repro import kernels
from repro.evaluation import write_bench_json
from repro.parallel import (
    ParallelExecutor,
    resolve_start_method,
    shared_memory_available,
)
from repro.service import QuerySpec, Service

pytestmark = pytest.mark.slow

BENCH_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_scaling.json"

DIM = 8
K = 10
T = 4.0
WORKERS = (1, 2, 4, 8)
REPS = 3

#: Per-size query-block shape.  The block is dispatched through the same
#: fan-out ``query_all`` uses, so q/s extrapolates to full ``query_all``
#: wall time; the n=1e6 leg keeps one rep so the whole sweep stays
#: bounded on a 1-core runner (it is recorded, never gated).
SIZES = (
    {"n": 100_000, "m": 64, "reps": REPS},
    {"n": 1_000_000, "m": 16, "reps": 1},
)

#: Gate tiers on the n=1e5 leg at 4 workers vs 1 (applied only when the
#: machine can actually show a speedup, i.e. ``os.cpu_count() >= 4``).
SPEEDUP_TARGET = 2.5
SPEEDUP_FLOOR = 1.5


def _measure(executor, query_ids, reps):
    """Best-of-``reps`` wall time for one member-query block."""
    best, ids = np.inf, None
    for _ in range(reps):
        start = time.perf_counter()
        _, results = executor.query_batch_versioned(query_indices=query_ids)
        best = min(best, time.perf_counter() - start)
        ids = [result.ids for result in results]
    return best, ids


def test_parallel_scaling_recorded():
    if not shared_memory_available():
        pytest.skip("POSIX shared memory is unavailable on this runner")
    cpu = os.cpu_count() or 1
    rng = np.random.default_rng(42)
    rows = []
    gate_speedup = None
    lines = [
        f"Multi-core scaling — member-query blocks through "
        f"ParallelExecutor (d={DIM}, k={K}, t={T}, kd-tree + rdt+, "
        f"start_method={resolve_start_method()}, cpu_count={cpu}, "
        f"backend={kernels.active_backend()})",
        f"{'n':>9s} {'workers':>7s} {'reps':>4s} {'seconds':>9s} "
        f"{'q/s':>8s} {'speedup':>8s} {'query_all (est s)':>18s}",
    ]

    for size in SIZES:
        n, m, reps = size["n"], size["m"], size["reps"]
        points = rng.normal(size=(n, DIM))
        service = Service(
            points, backend="kd", engine="rdt+", defaults=QuerySpec(k=K, t=T)
        )
        query_ids = rng.choice(n, size=m, replace=False)
        _, expected = service.query_batch_versioned(query_indices=query_ids)
        base = None
        for workers in WORKERS:
            with ParallelExecutor(service, workers=workers) as executor:
                # warm-up dispatch: worker attach + layout adoption
                executor.query_batch_versioned(query_indices=query_ids[:4])
                seconds, ids = _measure(executor, query_ids, reps)
            for want, got in zip(expected, ids):
                np.testing.assert_array_equal(want.ids, got)
            if workers == 1:
                base = seconds
            speedup = base / seconds
            qps = m / seconds
            rows.append(
                {
                    "n": n,
                    "m": m,
                    "reps": reps,
                    "workers": workers,
                    "seconds": seconds,
                    "queries_per_second": qps,
                    "speedup_vs_one_worker": speedup,
                    "extrapolated_query_all_seconds": n / qps,
                }
            )
            lines.append(
                f"{n:9d} {workers:7d} {reps:4d} {seconds:9.3f} "
                f"{qps:8.1f} {speedup:7.2f}x {n / qps:18.0f}"
            )
            if n == 100_000 and workers == 4:
                gate_speedup = speedup
        del service, points

    gate_applies = cpu >= 4
    if gate_applies:
        gate_reason = f"applied (cpu_count={cpu})"
    else:
        gate_reason = (
            f"skipped: os.cpu_count()={cpu} < 4 — a speedup cannot "
            "materialize without spare cores; throughput rows recorded"
        )
    lines.append(
        f"gate (n=1e5, 4 workers vs 1, target {SPEEDUP_TARGET}x, floor "
        f"{SPEEDUP_FLOOR}x): {gate_reason}"
        + (f", measured {gate_speedup:.2f}x" if gate_speedup else "")
    )

    payload = {
        "benchmark": "scaling",
        "dim": DIM,
        "k": K,
        "t": T,
        "backend": "kd-tree",
        "engine": "rdt+",
        "workers": list(WORKERS),
        "cpu_count": cpu,
        "start_method": resolve_start_method(),
        "kernel_backend": kernels.active_backend(),
        "rows": rows,
        "parallel_ids_bit_match": True,
        "gate": {
            "target": SPEEDUP_TARGET,
            "floor": SPEEDUP_FLOOR,
            "applied": gate_applies,
            "reason": gate_reason,
            "speedup_at_4_workers": gate_speedup,
        },
    }
    record("scaling", "\n".join(lines), data=payload)
    write_bench_json(BENCH_PATH, payload)

    if not gate_applies:
        warnings.warn(
            f"scaling speedup gate {gate_reason}", stacklevel=2
        )
        return
    assert gate_speedup is not None
    assert gate_speedup > SPEEDUP_FLOOR, (
        f"4-worker scaling decisively below the floor "
        f"({gate_speedup:.2f}x < {SPEEDUP_FLOOR}x)"
    )
    if gate_speedup < SPEEDUP_TARGET:
        warnings.warn(
            f"4-worker scaling landed under the {SPEEDUP_TARGET}x target "
            f"this run ({gate_speedup:.2f}x) — expected on a loaded "
            "machine, investigate if it persists",
            stacklevel=2,
        )
