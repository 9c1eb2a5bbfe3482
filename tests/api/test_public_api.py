"""Public-API stability check (runs in the fast tier).

Two invariants the CI gate pins:

1. ``repro.__all__`` matches the documented surface below, verbatim.  A
   new export is an API decision — make it deliberately: update
   DESIGN.md ("The public surface") and this list in the same change.
2. Every registry name actually works: each engine constructs through
   :func:`repro.create_engine` and answers a tiny query with a valid
   :class:`repro.RkNNResult`; each index name and alias constructs
   through :func:`repro.create_index` and answers a kNN probe.
"""

import numpy as np
import pytest

import repro

#: The documented public surface (DESIGN.md "The public surface").
DOCUMENTED_SURFACE = [
    "__version__",
    # front door
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

#: Names create_engine must resolve (the acceptance floor is 8; the
#: registry carries all eleven engine families).
REQUIRED_ENGINE_NAMES = {
    "rdt", "rdt+", "adaptive", "bichromatic", "approx-sampled",
    "approx-graph", "naive", "sft", "mrknncop", "rdnn", "tpl",
}


@pytest.fixture(scope="module")
def tiny():
    return np.random.default_rng(0).normal(size=(40, 3))


def test_all_matches_documented_surface():
    assert sorted(repro.__all__) == sorted(DOCUMENTED_SURFACE)
    assert len(set(repro.__all__)) == len(repro.__all__), "duplicate exports"


def test_every_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_engine_registry_covers_required_names():
    assert REQUIRED_ENGINE_NAMES == set(repro.ENGINE_REGISTRY)


#: per-engine construction kwargs for the tiny probe (fixed-k and
#: k_max-bounded engines must be told the probed k up front)
ENGINE_PROBE_KWARGS = {"rdnn": {"k": 2}, "mrknncop": {"k_max": 4}}


@pytest.mark.parametrize("name", sorted(REQUIRED_ENGINE_NAMES))
def test_every_engine_name_constructs_and_answers(name, tiny):
    if name == "bichromatic":
        engine = repro.create_engine(name, tiny[:30], clients=tiny[30:])
        result = engine.query(tiny[0] + 0.01, k=2, t=4.0)
    else:
        engine = repro.create_engine(
            name, tiny, **ENGINE_PROBE_KWARGS.get(name, {})
        )
        knobs = {"t": 4.0} if "t" in engine.query_knobs else {}
        result = engine.query(query_index=1, k=2, **knobs)
    assert isinstance(engine, repro.RkNNEngine)
    assert isinstance(result, repro.RkNNResult)
    assert result.ids.dtype == np.intp


@pytest.mark.parametrize(
    "name", sorted(set(repro.INDEX_REGISTRY) | set(repro.INDEX_ALIASES))
)
def test_every_index_name_constructs_and_answers(name, tiny):
    kwargs = {"k": 2} if repro.INDEX_ALIASES.get(name, name) == "rdnn-tree" else {}
    index = repro.create_index(name, tiny, **kwargs)
    ids, dists = index.knn(tiny[0], 3, exclude_index=0)
    assert ids.shape == (3,)
    assert np.all(np.diff(dists) >= 0)
