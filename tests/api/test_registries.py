"""The engine/index registries and the protocol surface behind them."""

import numpy as np
import pytest

import repro
from repro.core import EngineCapabilityError
from repro.core.protocol import EngineBase
from repro.engines import ENGINE_REGISTRY, create_engine
from repro.indexes import (
    INDEX_ALIASES,
    INDEX_REGISTRY,
    KDTreeIndex,
    RdNNTreeIndex,
    create_index,
    resolve_index_name,
)


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(3).normal(size=(120, 3))


class TestIndexRegistry:
    def test_aliases_resolve_to_canonical_names(self):
        for alias, canonical in INDEX_ALIASES.items():
            assert resolve_index_name(alias) == canonical

    def test_create_index_accepts_aliases(self, points):
        kd = create_index("kd", points)
        assert isinstance(kd, KDTreeIndex)
        assert np.array_equal(
            kd.knn(points[0], 4, exclude_index=0)[0],
            create_index("kd-tree", points).knn(points[0], 4, exclude_index=0)[0],
        )

    def test_create_index_builds_rdnn_tree(self, points):
        tree = create_index("rdnn", points, k=4)
        assert isinstance(tree, RdNNTreeIndex)
        assert tree.k == 4

    def test_unknown_name_lists_known_and_aliases(self, points):
        with pytest.raises(ValueError, match="aliases"):
            create_index("quadtree", points)

    def test_registry_names_all_construct(self, points):
        for name in INDEX_REGISTRY:
            index = create_index(name, points)
            assert index.size == points.shape[0]


class TestEngineRegistry:
    def test_unknown_engine(self, points):
        with pytest.raises(ValueError, match="unknown engine"):
            create_engine("simplex", points)

    def test_every_entry_reports_identity_flags(self, points):
        for name, spec in ENGINE_REGISTRY.items():
            assert spec.name == name
            assert spec.summary
            assert spec.needs in ("index", "data", "rstar-index", "two-colors")

    def test_engines_share_the_index_they_are_given(self, points):
        index = create_index("vp", points)
        engine = create_engine("rdt+", index)
        assert engine.index is index

    def test_metric_rejected_alongside_prebuilt_index(self, points):
        index = create_index("kd", points)
        with pytest.raises(ValueError, match="already carries one"):
            create_engine("rdt", index, metric="manhattan")

    def test_backend_kwargs_reach_the_built_backend(self, points):
        engine = create_engine(
            "rdt", points, backend="kd", backend_kwargs={"leaf_size": 4}
        )
        assert engine.index.leaf_size == 4

    def test_snapshot_engine_refuses_index_with_removals(self, points):
        index = create_index("kd", points)
        index.remove(5)
        with pytest.raises(ValueError, match="removed points"):
            create_engine("naive", index, k=4)

    def test_snapshot_engine_adopts_clean_index_points_and_metric(self, points):
        index = create_index("kd", points, metric="manhattan")
        engine = create_engine("naive", index, k=4)
        assert engine.metric.name == "manhattan"
        assert engine.points is index.points

    def test_tpl_requires_rstar(self, points):
        with pytest.raises(ValueError, match="RStarTreeIndex"):
            create_engine("tpl", create_index("kd", points))
        engine = create_engine("tpl", create_index("rstar", points))
        assert engine.index.name == "r-star-tree"

    def test_rdnn_wraps_prebuilt_tree_with_matching_k(self, points):
        tree = create_index("rdnn", points, k=4)
        engine = create_engine("rdnn", tree, k=4)
        assert engine.index is tree
        with pytest.raises(ValueError, match="fixed k"):
            create_engine("rdnn", tree, k=7)

    def test_bichromatic_requires_clients(self, points):
        with pytest.raises(ValueError, match="clients"):
            create_engine("bichromatic", points)


class TestEngineProtocolDefaults:
    class _OneHit(EngineBase):
        """A minimal engine: answers {0} for every query."""

        engine_name = "one-hit"

        def __init__(self, index):
            self.index = index

        def query(self, query=None, *, query_index=None, k=None):
            return repro.RkNNResult(
                ids=np.asarray([0], dtype=np.intp), k=k, t=float("nan")
            )

    def test_looped_batch_and_query_all(self, points):
        engine = self._OneHit(create_index("linear", points[:10]))
        results = engine.query_batch(query_indices=[1, 2, 3], k=2)
        assert [r.ids.tolist() for r in results] == [[0], [0], [0]]
        results = engine.query_batch(points[:2], k=2)
        assert len(results) == 2
        allres = engine.query_all(k=2)
        assert set(allres) == set(range(10))

    def test_batch_argument_validation(self, points):
        engine = self._OneHit(create_index("linear", points[:10]))
        with pytest.raises(ValueError, match="exactly one"):
            engine.query_batch(k=2)
        with pytest.raises(ValueError, match="exactly one"):
            engine.query_batch(points[:2], query_indices=[0], k=2)
        with pytest.raises(ValueError, match="2-D"):
            engine.query_batch(points[0], k=2)

    def test_member_ids_requires_an_index(self):
        class Bare(EngineBase):
            pass

        with pytest.raises(EngineCapabilityError, match="member_ids"):
            Bare().query_all(k=2)

    def test_bichromatic_rejects_member_query_forms(self, points):
        engine = create_engine(
            "bichromatic", points[:80], clients=points[80:]
        )
        with pytest.raises(EngineCapabilityError, match="never members"):
            engine.query(query_index=3, k=2, t=4.0)
        with pytest.raises(EngineCapabilityError, match="never members"):
            engine.query_batch(query_indices=[1, 2], k=2, t=4.0)
        with pytest.raises(EngineCapabilityError, match="self-join"):
            engine.query_all(k=2)

    def test_runtime_checkable_protocol(self, points):
        for name in ("rdt", "naive", "approx-graph"):
            engine = create_engine(name, points)
            assert isinstance(engine, repro.RkNNEngine)

    def test_guarantees_vocabulary_covers_every_engine(self, points):
        from repro.core import GUARANTEES

        for name in sorted(ENGINE_REGISTRY):
            kwargs = {"clients": points[:20]} if name == "bichromatic" else {}
            engine = create_engine(name, points, **kwargs)
            assert engine.guarantee in GUARANTEES, name


class TestRunEngine:
    def test_run_engine_by_name_and_instance(self, points):
        from repro.evaluation import GroundTruth, run_engine

        truth = GroundTruth(points)
        queries = np.arange(0, 120, 30)
        by_name = run_engine("rdt", queries, truth, 4, data=points,
                             spec=repro.QuerySpec(k=4, t=1e30))
        assert by_name.method == "rdt"
        assert by_name.mean_recall == 1.0 and by_name.mean_precision == 1.0
        engine = create_engine("naive", points, k=4)
        by_instance = run_engine(engine, queries, truth, 4)
        assert by_instance.mean_recall == 1.0

    def test_run_engine_argument_validation(self, points):
        from repro.evaluation import GroundTruth, run_engine

        truth = GroundTruth(points)
        with pytest.raises(ValueError, match="needs `data`"):
            run_engine("rdt", [0], truth, 4)
        engine = create_engine("naive", points, k=4)
        with pytest.raises(ValueError, match="registry name"):
            run_engine(engine, [0], truth, 4, engine_kwargs={"k_max": 5})

    def test_run_engine_injects_k_for_fixed_k_engines(self, points):
        # by-name construction must honor the harness k: rdnn builds its
        # tree for exactly that k, mrknncop fits up to it
        from repro.evaluation import GroundTruth, run_engine

        truth = GroundTruth(points)
        queries = np.arange(0, 120, 40)
        for name in ("rdnn", "mrknncop"):
            run = run_engine(name, queries, truth, 5, data=points)
            assert run.mean_recall == 1.0 and run.mean_precision == 1.0, name

    def test_run_engine_suite_enumerates_names_and_instances(self, points):
        from repro.evaluation import GroundTruth, run_engine_suite

        truth = GroundTruth(points)
        queries = np.arange(0, 120, 40)
        runs = run_engine_suite(
            ["rdt", "naive", "sft"],
            queries,
            truth,
            4,
            data=points,
            spec=repro.QuerySpec(k=4, t=1e30),
            engine_kwargs={"naive": {"k": 4}},
        )
        assert [run.method for run in runs] == ["rdt", "naive", "sft"]
        assert runs[0].mean_recall == 1.0 and runs[1].mean_recall == 1.0
        named = run_engine_suite(
            {"reference": create_engine("naive", points, k=4)},
            queries,
            truth,
            4,
        )
        assert named[0].method == "reference"


class TestMiningThroughRegistry:
    def test_self_join_accepts_engine_names(self, points):
        from repro.mining import rknn_self_join

        index = create_index("kd", points)
        exact = rknn_self_join(index, k=4, t=1e30)
        approx = rknn_self_join(index, k=4, t=1e30, engine="approx-sampled")
        assert exact.neighborhoods.keys() == approx.neighborhoods.keys()
        for pid, ids in exact.neighborhoods.items():
            # sampled strategy: recall 1 by construction
            assert set(ids.tolist()) <= set(approx.neighborhoods[pid].tolist())

    def test_self_join_rejects_conflicting_selectors(self, points):
        from repro.mining import rknn_self_join

        index = create_index("kd", points)
        with pytest.raises(ValueError, match="at most one"):
            rknn_self_join(index, k=4, t=8.0, variant="rdt", engine="rdt+")

    def test_self_join_rejects_bichromatic(self, points):
        from repro.mining import rknn_self_join

        index = create_index("kd", points[:80])
        engine = create_engine("bichromatic", index, clients=points[80:])
        with pytest.raises(ValueError, match="member queries"):
            rknn_self_join(index, k=4, t=8.0, engine=engine)

    def test_mining_forwards_k_to_fixed_k_engines(self, points):
        from repro.mining import odin_scores, rknn_self_join

        index = create_index("kd", points)
        # rdnn is built for exactly the join's k — no k=10 default clash
        join = rknn_self_join(index, k=5, t=1e30, engine="rdnn")
        exact = rknn_self_join(index, k=5, t=1e30)
        for pid in exact.neighborhoods:
            assert np.array_equal(
                join.neighborhoods[pid], exact.neighborhoods[pid]
            )
        scores = odin_scores(index, k=5, t=1e30, engine="rdnn")
        assert scores.shape[0] == points.shape[0]

    def test_influence_set_through_engine(self, points):
        from repro.mining import influence_set

        index = create_index("kd", points)
        via_variant = influence_set(index, 7, k=4, t=1e30)
        via_engine = influence_set(index, 7, k=4, t=1e30, engine="naive")
        assert np.array_equal(via_variant, via_engine)
        with pytest.raises(ValueError, match="at most one"):
            influence_set(index, 7, k=4, t=8.0, variant="rdt", engine="naive")
