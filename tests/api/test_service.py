"""The Service facade: spec routing, lifecycle, persistence, shims."""

import numpy as np
import pytest

import repro
from repro.service import QuerySpec, Service


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(9).normal(size=(150, 3))


@pytest.fixture()
def svc(points):
    return Service(points, backend="kd", engine="rdt+",
                   defaults=QuerySpec(k=5, t=1e30))


class TestQuerySpec:
    def test_defaults_validate(self):
        spec = QuerySpec()
        assert spec.k == 10 and spec.t == 8.0 and spec.filter_mode == "auto"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"t": 0.0},
            {"filter_mode": "eager"},
            {"alpha": 0.5},
            {"margin": 1.5},
            {"sample_size": 0},
            {"ef": 0},
            {"graph_m": -2},
        ],
    )
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(ValueError):
            QuerySpec(**kwargs)

    def test_replace_revalidates(self):
        spec = QuerySpec(k=5)
        assert spec.replace(t=2.0).t == 2.0
        with pytest.raises(ValueError):
            spec.replace(k=-1)

    def test_replace_rejects_unknown_knobs(self):
        # Regression: unknown overrides used to surface as a raw
        # dataclasses.replace TypeError naming QuerySpec.__init__.
        spec = QuerySpec(k=5)
        with pytest.raises(TypeError, match="unknown query knob 'kk'"):
            spec.replace(kk=3)
        with pytest.raises(TypeError, match="pass query_index"):
            spec.replace(member=3)

    def test_knobs_route_by_engine_capability(self, points):
        spec = QuerySpec(k=5, t=4.0, alpha=2.0, filter_mode="sequential")
        rdt = repro.create_engine("rdt", points)
        sft = repro.create_engine("sft", points)
        approx = repro.create_engine("approx-graph", points)
        assert spec.knobs_for(rdt) == {"t": 4.0}
        assert spec.knobs_for(rdt, batch=True) == {
            "t": 4.0, "filter_mode": "sequential"
        }
        assert spec.knobs_for(sft) == {"alpha": 2.0}
        assert spec.knobs_for(approx) == {}

    def test_strategy_kwargs_subset(self):
        spec = QuerySpec(margin=0.5, ef=6)
        assert spec.strategy_kwargs() == {"margin": 0.5, "ef": 6}


class TestConstruction:
    def test_unknown_engine_and_backend(self, points):
        with pytest.raises(ValueError, match="unknown engine"):
            Service(points, engine="simplex")
        with pytest.raises(ValueError, match="unknown index"):
            Service(points, backend="quadtree")

    def test_bichromatic_not_a_primary_engine(self, points):
        with pytest.raises(ValueError, match="query_bichromatic"):
            Service(points, engine="bichromatic")

    def test_defaults_must_be_a_spec(self, points):
        with pytest.raises(TypeError, match="QuerySpec"):
            Service(points, defaults={"k": 5})

    def test_adopts_prebuilt_index(self, points):
        index = repro.create_index("vp", points)
        svc = Service(index, engine="rdt")
        assert svc.index is index
        assert svc.backend_name == "vp-tree"
        with pytest.raises(ValueError, match="already carries one"):
            Service(index, metric="manhattan")

    def test_introspection(self, svc, points):
        assert len(svc) == svc.size == points.shape[0]
        assert svc.dim == 3
        assert svc.metric.name == "euclidean"
        assert np.array_equal(svc.active_ids(), np.arange(points.shape[0]))


class TestQueryRouting:
    def test_matches_direct_engine(self, svc, points):
        direct = repro.RDT(svc.index, variant="rdt+")
        expected = direct.query(query_index=3, k=5, t=1e30)
        got = svc.query(query_index=3)
        assert np.array_equal(got.ids, expected.ids)
        raw = svc.query(points[3] + 0.01)
        assert raw.k == 5

    def test_per_call_overrides(self, svc):
        tight = svc.query(query_index=3, k=2, t=2.0)
        assert tight.k == 2 and tight.t == 2.0
        with pytest.raises(ValueError):
            svc.query(query_index=3, k=-2)
        with pytest.raises(TypeError, match="QuerySpec"):
            svc.query(query_index=3, spec={"k": 2})

    def test_batch_and_all_match_loop(self, svc):
        ids = [0, 7, 40]
        batch = svc.query_batch(query_indices=ids)
        for qi, result in zip(ids, batch):
            assert np.array_equal(result.ids, svc.query(query_index=qi).ids)
        everything = svc.query_all()
        assert set(everything) == set(svc.active_ids().tolist())
        assert np.array_equal(everything[7].ids, batch[1].ids)

    def test_alpha_reaches_sft(self, points):
        svc = Service(points, engine="sft", defaults=QuerySpec(k=5, alpha=16.0))
        direct = repro.create_engine("sft", svc.index)
        expected = direct.query(query_index=2, k=5, alpha=16.0)
        assert np.array_equal(svc.query(query_index=2).ids, expected.ids)

    def test_strategy_knobs_never_reach_other_engine_constructors(self, points):
        # QuerySpec's contract: knobs an engine does not understand are
        # carried but never forwarded — margin on rdt must not rebuild
        # (or crash) the engine, and graph must not receive sample_size
        svc = Service(points, engine="rdt",
                      defaults=QuerySpec(k=4, t=1e30, margin=0.5, ef=3))
        baseline = Service(points, engine="rdt", defaults=QuerySpec(k=4, t=1e30))
        assert np.array_equal(
            svc.query(query_index=1).ids, baseline.query(query_index=1).ids
        )
        graph = Service(points, engine="approx-graph",
                        defaults=QuerySpec(k=4, ef=3, sample_size=99))
        assert graph.engine().strategy.ef == 3
        sampled = Service(points, engine="approx-sampled",
                          defaults=QuerySpec(k=4, sample_size=32, ef=99))
        assert sampled.engine().strategy.sample_size == 32

    def test_strategy_knob_change_rebuilds_engine(self, points):
        svc = Service(points, engine="approx-sampled",
                      defaults=QuerySpec(k=5, sample_size=32))
        first = svc.engine()
        assert first.strategy.sample_size == 32
        # an override rebuilds for the overridden spec...
        svc.query(query_index=0, sample_size=64)
        assert svc.engine(QuerySpec(k=5, sample_size=64)).strategy.sample_size == 64
        # ...and the defaults rebuild back on the next default call
        assert svc.engine().strategy.sample_size == 32
        assert svc.engine() is not first

    def test_rdnn_rebuilds_for_new_k(self, points):
        svc = Service(points, engine="rdnn", defaults=QuerySpec(k=5))
        assert svc.engine().index.k == 5
        result = svc.query(query_index=0, k=3)
        assert result.k == 3
        assert svc.engine(QuerySpec(k=3)).index.k == 3

    def test_mrknncop_rebuilds_when_k_exceeds_kmax(self, points):
        svc = Service(points, engine="mrknncop", defaults=QuerySpec(k=3))
        assert svc.engine().k_max == 3
        svc.query(query_index=0, k=6)
        assert svc.engine(QuerySpec(k=6)).k_max >= 6

    def test_user_pinned_k_conflicts_fail_instead_of_rebuild_looping(self, points):
        # a pinned k/k_max would survive any rebuild, so an out-of-range
        # spec must fail with a clear message, not churn O(n^2) rebuilds
        svc = Service(points, engine="mrknncop",
                      engine_kwargs={"k_max": 5}, defaults=QuerySpec(k=5))
        svc.query(query_index=0)
        first = svc.engine()
        with pytest.raises(ValueError, match="pinned in engine_kwargs"):
            svc.query(query_index=0, k=10)
        assert svc.engine() is first  # no rebuild happened
        assert len(svc.query(query_index=0)) >= 0  # still serviceable
        rdnn = Service(points, engine="rdnn",
                       engine_kwargs={"k": 5}, defaults=QuerySpec(k=5))
        rdnn.query(query_index=0)
        with pytest.raises(ValueError, match="pinned in engine_kwargs"):
            rdnn.query(query_index=0, k=4)


class TestChurnAndTranslation:
    @pytest.mark.parametrize("engine", ["naive", "rdnn", "mrknncop", "tpl"])
    def test_snapshot_engines_follow_churn(self, points, engine):
        svc = Service(points, backend="kd", engine=engine,
                      defaults=QuerySpec(k=4, t=1e30))
        svc.query(query_index=0)  # build once
        for pid in (2, 3, 50):
            svc.remove(pid)
        new_id = svc.insert(np.zeros(3))
        assert new_id == points.shape[0]
        live = svc.active_ids()
        reference = repro.create_engine("naive", svc.index.points[live], k=4)
        for qi in (0, int(new_id)):
            got = svc.query(query_index=qi)
            local = int(np.searchsorted(live, qi))
            expected = live[reference.query_ids(query_index=local)]
            assert np.array_equal(np.sort(got.ids), expected), engine
        results = svc.query_all()
        assert set(results) == set(live.tolist())

    def test_removed_member_query_raises(self, points):
        svc = Service(points, engine="naive", defaults=QuerySpec(k=4))
        svc.remove(5)
        with pytest.raises(KeyError, match="removed"):
            svc.query(query_index=5)
        # live engines hit the index's own guard
        svc_live = Service(points, engine="rdt", defaults=QuerySpec(k=4))
        svc_live.remove(5)
        with pytest.raises(KeyError, match="removed"):
            svc_live.query(query_index=5)

    def test_compact_pass_through(self, points):
        assert Service(points, backend="kd").compact() is True
        assert Service(points, backend="linear").compact() is False

    def test_compact_survives_emptying_the_index(self, points):
        svc = Service(points[:5], backend="kd", defaults=QuerySpec(k=2))
        for pid in range(5):
            svc.remove(pid)
        assert svc.compact() is True  # no-op rebuild, must not crash
        assert svc.size == 0


class TestBichromatic:
    def test_matches_direct_engine(self, points):
        services, clients = points[:90], points[90:]
        svc = Service(services, backend="kd", defaults=QuerySpec(k=3, t=1e30))
        queries = points[:4] + 0.05
        got = svc.query_bichromatic(queries, clients)
        direct = svc.bichromatic(clients)
        expected = direct.query_batch(queries, k=3, t=1e30)
        for g, e in zip(got, expected):
            assert np.array_equal(g.ids, e.ids)
        single = svc.query_bichromatic(queries[0], clients, k=2)
        assert single.k == 2

    def test_accepts_prebuilt_client_index(self, points):
        svc = Service(points[:90], defaults=QuerySpec(k=3))
        clients = repro.create_index("ball", points[90:])
        engine = svc.bichromatic(clients)
        assert engine.clients is clients
        assert engine.services is svc.index


class TestPersistence:
    def test_round_trip_is_bit_identical(self, points, tmp_path):
        svc = Service(points, backend="kd", engine="rdt+",
                      defaults=QuerySpec(k=5, t=1e30),
                      backend_kwargs={"leaf_size": 8})
        for pid in (1, 17, 60):
            svc.remove(pid)
        svc.insert(np.full(3, 0.25))
        path = svc.save(tmp_path / "svc.npz")
        loaded = Service.load(path)
        assert loaded.backend_name == "kd-tree"
        assert loaded.engine_name == "rdt+"
        assert loaded.defaults == svc.defaults
        assert loaded.index.leaf_size == 8
        assert np.array_equal(loaded.active_ids(), svc.active_ids())
        before = svc.query_all()
        after = loaded.query_all()
        assert before.keys() == after.keys()
        for pid in before:
            assert np.array_equal(before[pid].ids, after[pid].ids)

    def test_round_trip_preserves_metric(self, points, tmp_path):
        svc = Service(points, engine="naive", metric="minkowski",
                      backend="linear", defaults=QuerySpec(k=4),
                      backend_kwargs=None)
        path = svc.save(tmp_path / "svc.npz")
        loaded = Service.load(path)
        assert loaded.metric.name == "minkowski"
        assert loaded.metric.p == 2.0
        assert np.array_equal(
            loaded.query(query_index=3).ids, svc.query(query_index=3).ids
        )

    def test_version_guard(self, points, tmp_path):
        import json

        svc = Service(points)
        path = svc.save(tmp_path / "svc.npz")
        with np.load(path) as payload:
            meta = json.loads(str(payload["meta"][()]))
            arrays = {k: payload[k] for k in payload.files if k != "meta"}
        meta["format_version"] = 99
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.asarray(json.dumps(meta)), **arrays)
        with pytest.raises(ValueError, match="version"):
            Service.load(path)

    def test_unserializable_kwargs_fail_loudly(self, points, tmp_path):
        svc = Service(points, engine_kwargs={"seed": object()})
        with pytest.raises(TypeError, match="JSON-serializable"):
            svc.save(tmp_path / "svc.npz")

    def test_adopted_index_knobs_survive_round_trip(self, points, tmp_path):
        # an adopted tree's recoverable constructor knobs are captured at
        # adoption, so load() can rebuild an equivalent backend — the
        # RdNN-tree's required k included
        tree = repro.RdNNTreeIndex(points, k=4, capacity=8)
        svc = Service(tree, engine="rdnn", defaults=QuerySpec(k=4))
        loaded = Service.load(svc.save(tmp_path / "rdnn.npz"))
        assert loaded.index.k == 4 and loaded.index.capacity == 8
        assert np.array_equal(
            loaded.query(query_index=3).ids, svc.query(query_index=3).ids
        )
        kd = repro.KDTreeIndex(points, leaf_size=4)
        svc_kd = Service(kd, engine="rdt", defaults=QuerySpec(k=4))
        loaded_kd = Service.load(svc_kd.save(tmp_path / "kd.npz"))
        assert loaded_kd.index.leaf_size == 4

    def test_graph_round_trip_adopts_stored_adjacency(self, points, tmp_path):
        svc = Service(points, backend="kd", engine="approx-graph",
                      defaults=QuerySpec(k=5, ef=32, graph_m=10))
        svc.remove(7)
        before = svc.query_all()
        path = svc.save(tmp_path / "graph.npz")
        with np.load(path, allow_pickle=False) as payload:
            assert {"graph_node_ids", "graph_levels", "graph_neighbors",
                    "graph_neighbor_dists"} <= set(payload.files)
        loaded = Service.load(path)
        strategy = loaded.engine().strategy
        # Adoption happened at load time: the graph is already current,
        # with no lazy rebuild pending.
        assert strategy._built_version == loaded.index.version
        after = loaded.query_all()
        assert before.keys() == after.keys()
        for pid in before:
            assert np.array_equal(before[pid].ids, after[pid].ids)

    def test_graph_legacy_payload_falls_back_to_rebuild(
        self, points, tmp_path
    ):
        import json

        svc = Service(points, backend="kd", engine="approx-graph",
                      defaults=QuerySpec(k=5, ef=32, graph_m=10))
        before = svc.query_all()
        path = svc.save(tmp_path / "graph.npz")
        # Rewrite as a version-2 payload without the adjacency arrays —
        # what a pre-graph library version would have produced.
        with np.load(path, allow_pickle=False) as payload:
            meta = json.loads(str(payload["meta"][()]))
            pts = np.array(payload["points"])
            active = np.array(payload["active"])
        meta["format_version"] = 2
        meta.pop("graph")
        with open(path, "wb") as fh:
            np.savez(fh, points=pts, active=active,
                     meta=np.asarray(json.dumps(meta, sort_keys=True)))
        loaded = Service.load(path)
        after = loaded.query_all()
        for pid in before:
            assert np.array_equal(before[pid].ids, after[pid].ids)

    def test_graph_knob_mismatch_skips_adoption(self, points, tmp_path):
        import json

        svc = Service(points, backend="kd", engine="approx-graph",
                      defaults=QuerySpec(k=5, graph_m=10))
        before = svc.query_all()
        path = svc.save(tmp_path / "graph.npz")
        # Corrupt the stored knob header: adoption must be refused and
        # the deterministic rebuild must still answer identically.
        with np.load(path, allow_pickle=False) as payload:
            meta = json.loads(str(payload["meta"][()]))
            arrays = {k: np.array(payload[k])
                      for k in payload.files if k != "meta"}
        meta["graph"]["seed"] = 999
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.asarray(json.dumps(meta, sort_keys=True)),
                     **arrays)
        loaded = Service.load(path)
        after = loaded.query_all()
        for pid in before:
            assert np.array_equal(before[pid].ids, after[pid].ids)


def _edit_header(path, edit):
    """Rewrite a saved payload's JSON header in place via ``edit(meta)``."""
    import json

    with np.load(path, allow_pickle=False) as payload:
        meta = json.loads(str(payload["meta"][()]))
        arrays = {k: np.array(payload[k]) for k in payload.files if k != "meta"}
    edit(meta)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.asarray(json.dumps(meta, sort_keys=True)),
                 **arrays)


class TestOlderPayloads:
    """Payloads written before the LSH strategy and the sharded tier were
    removed: every header carried ``defaults.n_tables`` (usually null),
    and a sharded service wrote its configuration under ``extra``."""

    def _saved(self, points, tmp_path, engine="rdt+"):
        svc = Service(points, backend="kd", engine=engine,
                      defaults=QuerySpec(k=5, t=1e30))
        svc.remove(11)
        return svc, svc.save(tmp_path / "svc.npz")

    @pytest.mark.parametrize("value", [None, 6])
    def test_retired_spec_field_is_dropped(self, points, tmp_path, value):
        svc, path = self._saved(points, tmp_path)
        _edit_header(path, lambda meta: meta["defaults"].update(n_tables=value))
        loaded = Service.load(path)
        assert loaded.defaults == svc.defaults
        before, after = svc.query_all(), loaded.query_all()
        assert before.keys() == after.keys()
        for pid in before:
            assert np.array_equal(before[pid].ids, after[pid].ids)

    def test_retired_engine_names_its_replacement(self, points, tmp_path):
        _, path = self._saved(points, tmp_path, engine="approx-graph")

        def to_lsh(meta):
            meta["engine"] = "approx-lsh"
            meta["defaults"]["n_tables"] = 8
            meta.pop("graph")

        _edit_header(path, to_lsh)
        with pytest.raises(ValueError, match="approx-lsh") as info:
            Service.load(path)
        assert str(path) in str(info.value)
        assert "approx-graph" in str(info.value)

    def test_sharded_payload_loads_as_plain_service(self, points, tmp_path):
        svc, path = self._saved(points, tmp_path, engine="rdt")

        def add_sharding(meta):
            meta["defaults"]["n_tables"] = None
            meta["extra"] = {"sharded": {"shards": 2, "strategy":
                             "round-robin", "prune": True,
                             "sample_size": 512}}

        _edit_header(path, add_sharding)
        loaded = Service.load(path)
        assert type(loaded) is Service and loaded.engine_name == "rdt"
        before, after = svc.query_all(), loaded.query_all()
        assert before.keys() == after.keys()
        for pid in before:
            assert np.array_equal(before[pid].ids, after[pid].ids)


class TestShims:
    """Old constructors keep working and agree with their registry twins."""

    def test_rdt_constructor_shim(self, points):
        index = repro.LinearScanIndex(points)
        old = repro.RDT(index, variant="rdt+")
        new = repro.create_engine("rdt+", index)
        a = old.query(query_index=4, k=5, t=8.0)
        b = new.query(query_index=4, k=5, t=8.0)
        assert np.array_equal(a.ids, b.ids)

    def test_approx_constructor_shim(self, points):
        index = repro.LinearScanIndex(points)
        old = repro.ApproxRkNN(index, "sampled", sample_size=32, seed=1)
        new = repro.create_engine(
            "approx-sampled", index, sample_size=32, seed=1
        )
        a = old.query(query_index=4, k=5)
        b = new.query(query_index=4, k=5)
        assert np.array_equal(a.ids, b.ids)
        assert old.engine_name == new.engine_name == "approx-sampled"

    def test_baseline_constructor_shims(self, points):
        naive = repro.NaiveRkNN(points, k=5)
        assert np.array_equal(
            naive.query(query_index=2).ids,
            repro.create_engine("naive", points, k=5).query(query_index=2).ids,
        )
        sft = repro.SFT(repro.LinearScanIndex(points))
        assert sft.query(query_index=2, k=5).k == 5

    def test_mining_variant_shim(self, points):
        from repro.mining import rknn_self_join

        index = repro.KDTreeIndex(points)
        via_variant = rknn_self_join(index, k=4, t=1e30, variant="rdt+")
        via_engine = rknn_self_join(index, k=4, t=1e30, engine="rdt+")
        for pid in via_variant.neighborhoods:
            assert np.array_equal(
                via_variant.neighborhoods[pid], via_engine.neighborhoods[pid]
            )
