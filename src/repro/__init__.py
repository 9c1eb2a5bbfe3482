"""repro — Dimensional Testing for Reverse k-Nearest Neighbor Search.

A production-quality reproduction of Casanova et al., "Dimensional Testing
for Reverse k-Nearest Neighbor Search", PVLDB 10(7), 2017.

The top-level namespace re-exports the public API:

* the **front door**: :class:`~repro.service.Service` /
  :class:`~repro.service.QuerySpec`, and the registries
  :func:`~repro.engines.create_engine` / :func:`~repro.indexes.create_index`
  that construct any engine or index backend by name;
* the engine protocol every method implements
  (:class:`~repro.core.protocol.RkNNEngine`);
* :class:`~repro.core.RDT` — the paper's algorithm (RDT and RDT+ variants);
* the index substrates (:mod:`repro.indexes`);
* the competing methods (:mod:`repro.baselines`);
* intrinsic-dimensionality estimators (:mod:`repro.lid`);
* dataset generators and paper stand-ins (:mod:`repro.datasets`);
* the evaluation harness (:mod:`repro.evaluation`);
* the concurrent serving layer (:mod:`repro.serving`): a micro-batching
  :class:`~repro.serving.QueryCoalescer`, an epoch-keyed
  :class:`~repro.serving.ResultCache`, and the open-loop load generator
  :func:`~repro.serving.run_open_loop`;
* the multi-core execution layer (:mod:`repro.parallel`): a
  query-parallel :class:`~repro.parallel.ParallelExecutor` over
  shared-memory point matrices (also reachable as
  ``Service(..., parallel=N)``).

Quickstart::

    import numpy as np
    import repro

    rng = np.random.default_rng(0)
    data = rng.normal(size=(2000, 16))
    svc = repro.Service(data, backend="kd", engine="rdt+",
                        defaults=repro.QuerySpec(k=10, t=8.0))
    result = svc.query(query_index=7)
    print(result.ids, result.stats.num_candidates)

The classes behind the registry names remain importable directly
(``repro.RDT``, ``repro.CoverTreeIndex``, ...) and keep their historical
constructors.
"""

from repro.distances import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    Metric,
    MinkowskiMetric,
    get_metric,
)
from repro.indexes import (
    INDEX_ALIASES,
    INDEX_REGISTRY,
    BallTreeIndex,
    CoverTreeIndex,
    Index,
    IndexCapabilityError,
    KDTreeIndex,
    LinearScanIndex,
    MTreeIndex,
    RdNNTreeIndex,
    RStarTreeIndex,
    VPTreeIndex,
    build_index,
    bulk_knn,
    bulk_knn_distances,
    create_index,
)
from repro.core import (
    GUARANTEES,
    RDT,
    AdaptiveRDT,
    BichromaticRDT,
    EngineBase,
    EngineCapabilityError,
    QueryStats,
    RkNNEngine,
    RkNNResult,
    bichromatic_brute_force,
    suggest_scale,
)
from repro.engines import ENGINE_REGISTRY, create_engine
from repro.service import QuerySpec, Service
from repro.approx import (
    APPROX_STRATEGIES,
    ApproxRkNN,
    SampledKNNEstimator,
    build_strategy,
)
from repro.baselines import SFT, TPL, MRkNNCoP, NaiveRkNN, RdNN, rknn_brute_force
from repro.lid import (
    estimate_id,
    estimate_id_gp,
    estimate_id_mle,
    estimate_id_takens,
    ged,
    max_ged,
)
from repro.datasets import load_standin
from repro.evaluation import (
    GroundTruth,
    index_builders,
    measure_precompute,
    run_approx_tradeoff,
    run_bichromatic_batched,
    run_engine,
    run_engine_suite,
    run_method,
    run_method_batched,
    run_precompute_suite,
    run_tradeoff,
    run_tradeoff_batched,
)
from repro.serving import QueryCoalescer, ResultCache, run_open_loop
from repro.parallel import ParallelExecutor
from repro.mining import (
    hubness_counts,
    hubness_skewness,
    influence_set,
    knn_digraph,
    odin_outliers,
    odin_scores,
    rknn_self_join,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # the front door: facade + registries + protocol
    "Service",
    "QuerySpec",
    "create_engine",
    "create_index",
    "ENGINE_REGISTRY",
    "INDEX_REGISTRY",
    "INDEX_ALIASES",
    "RkNNEngine",
    "EngineBase",
    "EngineCapabilityError",
    "GUARANTEES",
    # distances
    "Metric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "MinkowskiMetric",
    "get_metric",
    # indexes
    "Index",
    "IndexCapabilityError",
    "LinearScanIndex",
    "KDTreeIndex",
    "CoverTreeIndex",
    "VPTreeIndex",
    "BallTreeIndex",
    "MTreeIndex",
    "RStarTreeIndex",
    "RdNNTreeIndex",
    "build_index",
    "bulk_knn",
    "bulk_knn_distances",
    # core algorithm
    "RDT",
    "AdaptiveRDT",
    "BichromaticRDT",
    "bichromatic_brute_force",
    "RkNNResult",
    "QueryStats",
    "suggest_scale",
    # approximate engine
    "ApproxRkNN",
    "APPROX_STRATEGIES",
    "SampledKNNEstimator",
    "build_strategy",
    # baselines
    "NaiveRkNN",
    "rknn_brute_force",
    "SFT",
    "MRkNNCoP",
    "RdNN",
    "TPL",
    # intrinsic dimensionality
    "estimate_id",
    "estimate_id_mle",
    "estimate_id_gp",
    "estimate_id_takens",
    "ged",
    "max_ged",
    # datasets & evaluation
    "load_standin",
    "GroundTruth",
    "run_engine",
    "run_engine_suite",
    "run_method",
    "run_method_batched",
    "run_approx_tradeoff",
    "run_bichromatic_batched",
    "run_precompute_suite",
    "run_tradeoff",
    "run_tradeoff_batched",
    "index_builders",
    "measure_precompute",
    # serving
    "QueryCoalescer",
    "ResultCache",
    "run_open_loop",
    # parallel execution
    "ParallelExecutor",
    # mining applications
    "rknn_self_join",
    "odin_scores",
    "odin_outliers",
    "influence_set",
    "hubness_counts",
    "hubness_skewness",
    "knn_digraph",
]
