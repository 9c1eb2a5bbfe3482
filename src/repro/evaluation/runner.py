"""Experiment runner: drive any RkNN method over a query workload.

All methods in this library answer through ``query(query_index=..., k=...)``
returning an :class:`~repro.core.result.RkNNResult` (or a bare id array for
the brute-force reference).  The runner times each query, scores it against
ground truth, and aggregates into a :class:`MethodRun`; a parameter sweep
produces a :class:`TradeoffCurve` — one point per parameter value — which
is the exact shape of the paper's Figures 3–6 and 8.

Methods with a batched entry point (``RDT.query_batch``) are driven through
:func:`run_method_batched` / :func:`run_tradeoff_batched` instead: the
whole workload is answered in one engine call, and per-query seconds are
taken from the engine's own :class:`~repro.core.result.QueryStats` (which
attribute the shared vectorized work to each query) rather than from a
wall clock around each interpreter-level call.

The runner also drives the *preprocessing* side of the experiments:
:func:`run_precompute_suite` times a whole roster of method/backend
builders (see :func:`repro.evaluation.precompute.index_builders`)
uniformly, which is how Figure 8/9 budgets and the build-trajectory
benchmark (``benchmarks/test_build_backends.py`` → ``BENCH_build.json``)
are produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.result import RkNNResult
from repro.evaluation.ground_truth import GroundTruth
from repro.evaluation.metrics import precision, recall, speedup
from repro.evaluation.precompute import PrecomputeReport, measure_precompute

__all__ = [
    "QueryRecord",
    "MethodRun",
    "TradeoffCurve",
    "ApproxRun",
    "ApproxTradeoff",
    "run_approx_tradeoff",
    "run_engine",
    "run_engine_suite",
    "run_method",
    "run_method_batched",
    "run_bichromatic_batched",
    "run_precompute_suite",
    "run_tradeoff",
    "run_tradeoff_batched",
]


@dataclass
class QueryRecord:
    """Outcome of one query: quality, time, and method-reported stats."""

    query_index: int
    recall: float
    precision: float
    seconds: float
    result: RkNNResult | None = None


@dataclass
class MethodRun:
    """Aggregated outcome of one method at one parameter setting."""

    method: str
    k: int
    parameter: float
    records: list[QueryRecord] = field(default_factory=list)

    @property
    def mean_recall(self) -> float:
        return float(np.mean([r.recall for r in self.records])) if self.records else 0.0

    @property
    def mean_precision(self) -> float:
        return (
            float(np.mean([r.precision for r in self.records])) if self.records else 1.0
        )

    @property
    def mean_seconds(self) -> float:
        return float(np.mean([r.seconds for r in self.records])) if self.records else 0.0

    @property
    def total_seconds(self) -> float:
        return float(np.sum([r.seconds for r in self.records])) if self.records else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "recall": self.mean_recall,
            "precision": self.mean_precision,
            "mean_seconds": self.mean_seconds,
        }


@dataclass
class TradeoffCurve:
    """One method's recall-vs-time curve across a parameter sweep."""

    method: str
    k: int
    runs: list[MethodRun] = field(default_factory=list)

    def parameters(self) -> list[float]:
        return [run.parameter for run in self.runs]

    def recalls(self) -> list[float]:
        return [run.mean_recall for run in self.runs]

    def times(self) -> list[float]:
        return [run.mean_seconds for run in self.runs]


def _result_ids(result) -> np.ndarray:
    if isinstance(result, RkNNResult):
        return result.ids
    return np.asarray(result, dtype=np.intp)


def run_method(
    name: str,
    query_fn: Callable[[int], RkNNResult],
    query_indices: Sequence[int],
    truth: GroundTruth,
    k: int,
    parameter: float = float("nan"),
    keep_results: bool = False,
) -> MethodRun:
    """Evaluate ``query_fn`` over the workload against exact ground truth.

    ``query_fn`` maps a query index to an :class:`RkNNResult` (or raw ids).
    Timing covers only the method call; ground truth is precomputed
    outside the timed region.
    """
    answers = truth.answers(query_indices, k)
    run = MethodRun(method=name, k=k, parameter=parameter)
    for query_index in query_indices:
        started = time.perf_counter()
        result = query_fn(int(query_index))
        elapsed = time.perf_counter() - started
        ids = _result_ids(result)
        expected = answers[int(query_index)]
        run.records.append(
            QueryRecord(
                query_index=int(query_index),
                recall=recall(expected, ids),
                precision=precision(expected, ids),
                seconds=elapsed,
                result=result if keep_results and isinstance(result, RkNNResult) else None,
            )
        )
    return run


def run_method_batched(
    name: str,
    batch_fn: Callable[[Sequence[int]], Sequence[RkNNResult]],
    query_indices: Sequence[int],
    truth: GroundTruth,
    k: int,
    parameter: float = float("nan"),
    keep_results: bool = False,
) -> MethodRun:
    """Evaluate a batched method over the workload against ground truth.

    ``batch_fn`` maps the whole sequence of query indices to one
    :class:`RkNNResult` per index (e.g. a bound ``RDT.query_batch``).  The
    whole workload is timed as one call; each record's ``seconds`` is the
    engine's per-query attribution (``stats.total_seconds``), so aggregate
    totals reflect the true batched cost while per-query numbers stay
    comparable across methods.
    """
    answers = truth.answers(query_indices, k)
    run = MethodRun(method=name, k=k, parameter=parameter)
    results = batch_fn(query_indices)
    if len(results) != len(query_indices):
        raise ValueError(
            f"batch_fn returned {len(results)} results for "
            f"{len(query_indices)} queries"
        )
    for query_index, result in zip(query_indices, results):
        ids = _result_ids(result)
        expected = answers[int(query_index)]
        is_full_result = isinstance(result, RkNNResult)
        run.records.append(
            QueryRecord(
                query_index=int(query_index),
                recall=recall(expected, ids),
                precision=precision(expected, ids),
                # Raw-id returns carry no timing; record them as 0 rather
                # than crashing (mirrors run_method's _result_ids tolerance).
                seconds=result.stats.total_seconds if is_full_result else 0.0,
                result=result if keep_results and is_full_result else None,
            )
        )
    return run


def run_engine(
    engine,
    query_indices: Sequence[int],
    truth: GroundTruth,
    k: int,
    *,
    data=None,
    spec=None,
    name: str | None = None,
    parameter: float = float("nan"),
    keep_results: bool = False,
    engine_kwargs: Mapping | None = None,
) -> MethodRun:
    """Evaluate one engine — by registry name or instance — over a workload.

    The protocol's capability flags pick the execution strategy: engines
    with a native batch path (``supports_batch``) answer the workload in
    one :meth:`~repro.core.protocol.RkNNEngine.query_batch` call scored
    through :func:`run_method_batched`; the rest loop through
    :func:`run_method`.  Query-time knobs come from ``spec`` (a
    :class:`repro.QuerySpec`; its ``k`` is overridden by the explicit
    ``k`` argument), filtered down to what the engine understands.

    ``engine`` may be a registry name — then ``data`` (raw points or a
    prebuilt index, see :func:`repro.create_engine`) is required and
    ``engine_kwargs`` are forwarded to the factory — or a ready
    :class:`~repro.core.protocol.RkNNEngine`.
    """
    from repro.engines import create_engine, kwargs_for_k
    from repro.service import QuerySpec

    if isinstance(engine, str):
        if data is None:
            raise ValueError(
                "building an engine by registry name needs `data` "
                "(raw points or a prebuilt index)"
            )
        kwargs = {**kwargs_for_k(engine, k), **dict(engine_kwargs or {})}
        engine = create_engine(engine, data, **kwargs)
    elif engine_kwargs:
        raise ValueError(
            "engine_kwargs only apply when `engine` is a registry name"
        )
    if spec is None:
        spec = QuerySpec(k=k)
    if name is None:
        name = getattr(engine, "engine_name", type(engine).__name__)
    if getattr(engine, "supports_batch", False):
        knobs = spec.knobs_for(engine, batch=True)
        return run_method_batched(
            name,
            lambda qis: engine.query_batch(query_indices=qis, k=k, **knobs),
            query_indices,
            truth,
            k,
            parameter=parameter,
            keep_results=keep_results,
        )
    knobs = spec.knobs_for(engine)
    return run_method(
        name,
        lambda qi: engine.query(query_index=qi, k=k, **knobs),
        query_indices,
        truth,
        k,
        parameter=parameter,
        keep_results=keep_results,
    )


def run_engine_suite(
    engines: Sequence[str] | Mapping[str, object],
    query_indices: Sequence[int],
    truth: GroundTruth,
    k: int,
    *,
    data=None,
    spec=None,
    engine_kwargs: Mapping[str, Mapping] | None = None,
) -> list[MethodRun]:
    """Evaluate a whole roster of engines uniformly (one :class:`MethodRun`
    each, in roster order).

    ``engines`` is a sequence of registry names (each built over ``data``
    with the per-name ``engine_kwargs``) or a mapping of display name to
    prebuilt engine instance.  This is the enumeration the figure
    benchmarks and the conformance harness drive instead of hard-coding
    engine classes.
    """
    runs: list[MethodRun] = []
    if isinstance(engines, Mapping):
        for name, engine in engines.items():
            runs.append(
                run_engine(engine, query_indices, truth, k, spec=spec, name=name)
            )
        return runs
    for name in engines:
        runs.append(
            run_engine(
                name,
                query_indices,
                truth,
                k,
                data=data,
                spec=spec,
                engine_kwargs=(engine_kwargs or {}).get(name),
            )
        )
    return runs


def run_bichromatic_batched(
    name: str,
    batch_fn: Callable[[np.ndarray], Sequence[RkNNResult]],
    query_points: np.ndarray,
    truth_fn: Callable[[np.ndarray], np.ndarray],
    k: int,
    parameter: float = float("nan"),
    keep_results: bool = False,
) -> MethodRun:
    """Evaluate a batched bichromatic method over raw query points.

    Bichromatic queries are prospective service locations, not members of
    either color, so the workload is an ``(m, dim)`` array of points
    rather than member ids; records carry the query's row number.
    ``batch_fn`` maps the whole array to one result per row (e.g. a bound
    :meth:`~repro.core.BichromaticRDT.query_batch`) and ``truth_fn`` maps
    one query point to its exact BRkNN ids (e.g. a partial of
    :func:`~repro.core.bichromatic_brute_force`).  Timing follows
    :func:`run_method_batched`: per-record seconds come from the engine's
    own per-query attribution of the shared batched work.
    """
    query_points = np.asarray(query_points, dtype=np.float64)
    run = MethodRun(method=name, k=k, parameter=parameter)
    results = batch_fn(query_points)
    if len(results) != query_points.shape[0]:
        raise ValueError(
            f"batch_fn returned {len(results)} results for "
            f"{query_points.shape[0]} queries"
        )
    for row, result in enumerate(results):
        ids = _result_ids(result)
        expected = truth_fn(query_points[row])
        is_full_result = isinstance(result, RkNNResult)
        run.records.append(
            QueryRecord(
                query_index=row,
                recall=recall(expected, ids),
                precision=precision(expected, ids),
                seconds=result.stats.total_seconds if is_full_result else 0.0,
                result=result if keep_results and is_full_result else None,
            )
        )
    return run


def run_precompute_suite(
    builders: Mapping[str, Callable[[], object]],
    keep_artifacts: bool = False,
) -> list[PrecomputeReport]:
    """Time every builder in a method/backend roster uniformly.

    ``builders`` maps a display name to a zero-argument callable that
    performs the method's full preprocessing and returns its artifact —
    typically :func:`repro.evaluation.precompute.index_builders` for the
    index backends, extended with entries for precomputation-heavy
    baselines (RdNN-tree kNN tables, MRkNNCoP fits).  Reports come back in
    roster order.  Artifacts are dropped by default so a sweep over large
    ``n`` does not hold every built index alive at once.
    """
    reports: list[PrecomputeReport] = []
    for name, build in builders.items():
        report = measure_precompute(name, build)
        if not keep_artifacts:
            report.artifact = None
        reports.append(report)
    return reports


@dataclass
class ApproxRun:
    """One approximate configuration measured against the exact engine.

    Unlike :class:`MethodRun` (whose per-query seconds come from engine
    stats attribution), the approximate sweep times the *whole batched
    call* with a wall clock on both sides: the quantity being traded is
    end-to-end workload time, and the exact/approximate engines must be
    measured with the same instrument for the speedup to mean anything.
    """

    method: str
    k: int
    parameter: float
    recall: float
    precision: float
    seconds: float
    speedup: float


@dataclass
class ApproxTradeoff:
    """An approximate method's recall/precision-vs-speedup sweep."""

    method: str
    k: int
    #: wall-clock seconds of the exact engine on the same workload
    exact_seconds: float
    runs: list[ApproxRun] = field(default_factory=list)

    def parameters(self) -> list[float]:
        return [run.parameter for run in self.runs]

    def recalls(self) -> list[float]:
        return [run.recall for run in self.runs]

    def speedups(self) -> list[float]:
        return [run.speedup for run in self.runs]

    def best_gated(
        self, min_recall: float
    ) -> ApproxRun | None:
        """The fastest run meeting a recall floor (the gate the benchmark
        asserts), or ``None`` if no setting clears it."""
        eligible = [run for run in self.runs if run.recall >= min_recall]
        if not eligible:
            return None
        return max(eligible, key=lambda run: run.speedup)


def run_approx_tradeoff(
    name: str,
    batch_fn_for_parameter: Callable[
        [float], Callable[[Sequence[int]], Sequence[RkNNResult]]
    ],
    parameters: Sequence[float],
    query_indices: Sequence[int],
    truth: GroundTruth,
    k: int,
    *,
    exact_batch_fn: Callable[[Sequence[int]], Sequence[RkNNResult]] | None = None,
    exact_seconds: float | None = None,
) -> ApproxTradeoff:
    """Sweep an approximate method's knob against the exact engine.

    ``batch_fn_for_parameter(p)`` returns the whole-workload batch
    function for one setting of the strategy knob (``sample_size`` for
    the sampled estimator, ``ef`` for the graph, ...).  The exact
    baseline is either timed here (``exact_batch_fn``, e.g. a bound
    ``RDT.query_batch``) or passed in as ``exact_seconds`` so several
    strategies can share one measured baseline.  Ground truth is
    precomputed outside every timed region.
    """
    if (exact_batch_fn is None) == (exact_seconds is None):
        raise ValueError(
            "provide exactly one of `exact_batch_fn` or `exact_seconds`"
        )
    answers = truth.answers(query_indices, k)
    if exact_batch_fn is not None:
        started = time.perf_counter()
        exact_batch_fn(query_indices)
        exact_seconds = time.perf_counter() - started
    tradeoff = ApproxTradeoff(method=name, k=k, exact_seconds=float(exact_seconds))
    for parameter in parameters:
        batch_fn = batch_fn_for_parameter(float(parameter))
        started = time.perf_counter()
        results = batch_fn(query_indices)
        elapsed = time.perf_counter() - started
        if len(results) != len(query_indices):
            raise ValueError(
                f"batch_fn returned {len(results)} results for "
                f"{len(query_indices)} queries"
            )
        recalls, precisions = [], []
        for query_index, result in zip(query_indices, results):
            ids = _result_ids(result)
            expected = answers[int(query_index)]
            recalls.append(recall(expected, ids))
            precisions.append(precision(expected, ids))
        tradeoff.runs.append(
            ApproxRun(
                method=name,
                k=k,
                parameter=float(parameter),
                recall=float(np.mean(recalls)) if recalls else 1.0,
                precision=float(np.mean(precisions)) if precisions else 1.0,
                seconds=elapsed,
                speedup=speedup(tradeoff.exact_seconds, elapsed),
            )
        )
    return tradeoff


def run_tradeoff(
    name: str,
    query_fn_for_parameter: Callable[[float], Callable[[int], RkNNResult]],
    parameters: Sequence[float],
    query_indices: Sequence[int],
    truth: GroundTruth,
    k: int,
) -> TradeoffCurve:
    """Sweep a method's accuracy knob and collect the tradeoff curve.

    ``query_fn_for_parameter(p)`` returns the single-query function for one
    setting of the knob (``t`` for RDT/RDT+, ``alpha`` for SFT).
    """
    curve = TradeoffCurve(method=name, k=k)
    for parameter in parameters:
        query_fn = query_fn_for_parameter(float(parameter))
        curve.runs.append(
            run_method(
                name, query_fn, query_indices, truth, k, parameter=float(parameter)
            )
        )
    return curve


def run_tradeoff_batched(
    name: str,
    batch_fn_for_parameter: Callable[
        [float], Callable[[Sequence[int]], Sequence[RkNNResult]]
    ],
    parameters: Sequence[float],
    query_indices: Sequence[int],
    truth: GroundTruth,
    k: int,
) -> TradeoffCurve:
    """Sweep an accuracy knob of a batched method (see :func:`run_method_batched`).

    ``batch_fn_for_parameter(p)`` returns the whole-workload batch function
    for one setting of the knob.
    """
    curve = TradeoffCurve(method=name, k=k)
    for parameter in parameters:
        batch_fn = batch_fn_for_parameter(float(parameter))
        curve.runs.append(
            run_method_batched(
                name, batch_fn, query_indices, truth, k, parameter=float(parameter)
            )
        )
    return curve
