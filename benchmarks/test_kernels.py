"""Kernel-layer benchmark — the batched member-query trajectory.

The Fig-8-style end-to-end measurement behind the dtype/SoA work: one
member-query batch (n=100k, d=8, m=2000, k=10, t=4.0) through the
kd-tree's flat descent and the fused batched filter, best-of-3, at
float64 and float32.  ``optimized_seconds`` (float64) is an absolute
trajectory, gated against the value the previous ``BENCH_kernels.json``
recorded for the same workload.  The float64 answer is pinned across
runs by ``ids_sha256``, a digest of every query's sorted result ids.
Results go to ``benchmarks/results/kernels.txt`` (+ ``.json`` twin), the
repo-root ``BENCH_kernels.json`` trajectory file, and a per-kernel
call/byte profile of the float64 run to
``benchmarks/results/kernel_profile.*``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
import warnings

import numpy as np
import pytest

from benchmarks.figure_driver import RESULTS_DIR, record
from repro import kernels
from repro.core.rdt import RDT
from repro.distances import EuclideanMetric
from repro.evaluation import write_bench_json
from repro.indexes import create_index
from repro.utils.profiling import profile_kernels

pytestmark = pytest.mark.slow

BENCH_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_kernels.json"

N = 100_000
DIM = 8
M = 2000
K = 10
T = 4.0
REPS = 3
BACKEND = "kd-tree"

#: Payload fields that identify the workload: a previous file's time and
#: id digest are only comparable when all of them match.
WORKLOAD_KEYS = ("n", "dim", "m", "k", "t", "backend")

#: Wall-clock gates against the previous file's ``optimized_seconds`` on
#: a shared runner (same idiom as test_serving.py): warn when a run is
#: more than 1.25x slower, fail only on a decisive loss a real
#: regression would produce anywhere.
SLOWDOWN_WARN = 1.25
SLOWDOWN_FLOOR = 2.0


def _run_batch(index, query_ids, *, profile=None):
    """Best-of-REPS wall time for one full member-query batch."""
    engine = RDT(index)
    best, ids = np.inf, None
    for _ in range(REPS):
        start = time.perf_counter()
        if profile is not None:
            with profile_kernels() as prof:
                results = engine.query_batch(query_indices=query_ids, k=K, t=T)
            profile.append(prof)
        else:
            results = engine.query_batch(query_indices=query_ids, k=K, t=T)
        best = min(best, time.perf_counter() - start)
        ids = [sorted(r.ids) for r in results]
    return best, ids


def _ids_digest(id_lists) -> str:
    """sha256 over every query's sorted result ids, in query order."""
    digest = hashlib.sha256()
    for ids in id_lists:
        arr = np.asarray(ids, dtype=np.int64)
        digest.update(np.int64(arr.shape[0]).tobytes())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def test_kernel_trajectory_and_float32_memory_recorded():
    # Read the previous trajectory point before this run overwrites it.
    previous = (
        json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    )
    rng = np.random.default_rng(42)
    points = rng.normal(size=(N, DIM))
    query_ids = rng.choice(N, size=M, replace=False)

    # --- float64: the gated trajectory ---------------------------------
    f64 = create_index(BACKEND, points)
    profiles: list = []
    opt_s, opt_ids = _run_batch(f64, query_ids, profile=profiles)
    digest = _ids_digest(opt_ids)

    # --- float32: storage halving + runtime ----------------------------
    f32 = create_index(
        BACKEND, points, metric=EuclideanMetric(dtype=np.float32)
    )
    assert f32.points.dtype == np.float32
    matrix_ratio = f64.points.nbytes / f32.points.nbytes
    layout_ratio = (
        (f64.points.nbytes + f64._flat_layout().nbytes)
        / (f32.points.nbytes + f32._flat_layout().nbytes)
    )
    f32_s, f32_ids = _run_batch(f32, query_ids)
    overlap = np.mean(
        [
            len(set(a) & set(b)) / max(len(set(a) | set(b)), 1)
            for a, b in zip(opt_ids, f32_ids)
        ]
    )

    payload = {
        "benchmark": "kernels",
        "n": N,
        "dim": DIM,
        "m": M,
        "k": K,
        "t": T,
        "reps": REPS,
        "backend": BACKEND,
        "kernel_backend": kernels.active_backend(),
        "jit_available": kernels.jit_available(),
        "optimized_seconds": opt_s,
        "float32_seconds": f32_s,
        "float32_matrix_memory_ratio": matrix_ratio,
        "float32_total_memory_ratio": layout_ratio,
        "float32_id_jaccard": overlap,
        "ids_sha256": digest,
    }
    same_workload = all(
        previous.get(key) == payload[key] for key in WORKLOAD_KEYS
    )
    # Times only compare on the same kernel backend; ids on any.
    same_timing = same_workload and (
        previous.get("kernel_backend") == payload["kernel_backend"]
    )
    previous_digest = previous.get("ids_sha256") if same_workload else None
    previous_s = previous.get("optimized_seconds") if same_timing else None
    slowdown = opt_s / previous_s if previous_s else None

    lines = [
        f"Kernel layer — end-to-end member-query batch "
        f"(n={N}, d={DIM}, m={M}, k={K}, t={T}, {BACKEND}, best of {REPS}, "
        f"backend={kernels.active_backend()})",
        f"{'path':28s} {'dtype':>8s} {'seconds':>9s} {'q/s':>8s}",
        f"{'SoA + fused filter':28s} {'float64':>8s} {opt_s:9.2f} "
        f"{M / opt_s:8.0f}",
        f"{'SoA + fused filter':28s} {'float32':>8s} {f32_s:9.2f} "
        f"{M / f32_s:8.0f}",
        "previous float64 run: "
        + (
            f"{previous_s:.2f} s (this run takes {slowdown:.2f}x that)"
            if slowdown is not None
            else "none recorded for this workload"
        ),
        f"float64 result ids sha256: {digest}",
        f"float32 point-matrix memory: {matrix_ratio:.2f}x smaller "
        f"({layout_ratio:.2f}x with flat layouts)",
        f"float32 vs float64 result-id Jaccard: {overlap:.4f}",
    ]
    record("kernels", "\n".join(lines), data=payload)

    # The answer pin: a changed digest must fail before it can replace
    # the recorded one.
    if previous_digest is not None:
        assert digest == previous_digest, (
            "float64 result ids changed against the previous "
            "BENCH_kernels.json for the same workload"
        )
    assert slowdown is None or slowdown <= SLOWDOWN_FLOOR, (
        f"float64 batch decisively slower than the previous recorded run "
        f"({opt_s:.2f} s vs {previous_s:.2f} s, {slowdown:.2f}x > "
        f"{SLOWDOWN_FLOOR}x)"
    )
    write_bench_json(BENCH_PATH, payload)

    # Per-kernel profile of the last float64 rep (checked-in artifact;
    # see repro/utils/profiling.py).
    prof = profiles[-1]
    (RESULTS_DIR / "kernel_profile.json").write_text(prof.to_json() + "\n")
    (RESULTS_DIR / "kernel_profile.txt").write_text(
        "Per-kernel counters, one float64 member-query batch "
        f"(n={N}, d={DIM}, m={M}, k={K}, t={T})\n" + prof.summary() + "\n"
    )
    assert prof.counters["euclidean_pairwise"].calls > 0
    assert prof.counters["keeper_update"].calls > 0

    # The float32 matrix is exactly half; flat layouts add int arrays
    # shared by both dtypes, so the combined ratio sits a little lower.
    assert matrix_ratio == 2.0
    assert layout_ratio > 1.6
    assert overlap > 0.99

    if slowdown is not None and slowdown > SLOWDOWN_WARN:
        warnings.warn(
            f"float64 batch ran {slowdown:.2f}x the previous recorded time "
            f"(warn above {SLOWDOWN_WARN}x) — expected on a loaded "
            "machine, investigate if it persists",
            stacklevel=2,
        )
