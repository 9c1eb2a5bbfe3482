"""Engine-level tests: RDT parity of shape/semantics for ApproxRkNN.

``ApproxRkNN.query_batch`` must honor the exact engine's calling
convention — same argument validation, same result containers, same
input-order/shape guarantees — so harness code can swap engines freely.
"""

import numpy as np
import pytest

from repro.approx import ApproxRkNN, SampledKNNEstimator
from repro.core import RDT, RkNNResult
from repro.indexes import LinearScanIndex


@pytest.fixture(scope="module")
def index(medium_mixture):
    return LinearScanIndex(medium_mixture)


@pytest.fixture(scope="module")
def engine(index):
    return ApproxRkNN(index, "sampled", sample_size=128, seed=1)


class TestCallingConvention:
    def test_both_query_forms_raise(self, engine):
        with pytest.raises(ValueError, match="exactly one"):
            engine.query(np.zeros(6), query_index=3, k=4)
        with pytest.raises(ValueError, match="exactly one"):
            engine.query(k=4)

    def test_batch_both_forms_raise(self, engine):
        with pytest.raises(ValueError, match="exactly one"):
            engine.query_batch(np.zeros((2, 6)), query_indices=[0, 1], k=4)
        with pytest.raises(ValueError, match="exactly one"):
            engine.query_batch(k=4)

    def test_out_of_range_indices_raise(self, engine):
        with pytest.raises(IndexError, match="out of range"):
            engine.query_batch(query_indices=[10**6], k=4)

    def test_removed_index_raises(self, medium_mixture):
        index = LinearScanIndex(medium_mixture[:50])
        index.remove(3)
        eng = ApproxRkNN(index, "sampled", seed=0)
        with pytest.raises(KeyError, match="removed"):
            eng.query_batch(query_indices=[3], k=4)

    def test_wrong_dim_raises(self, engine):
        with pytest.raises(ValueError, match="shape"):
            engine.query_batch(np.zeros((2, 3)), k=4)

    def test_empty_batches(self, engine):
        assert engine.query_batch(query_indices=[], k=4) == []
        assert engine.query_batch(np.empty((0, 6)), k=4) == []

    def test_bad_k_raises(self, engine):
        with pytest.raises(ValueError, match="k"):
            engine.query_batch(query_indices=[0], k=0)

    def test_strategy_instance_with_kwargs_raises(self, index):
        strategy = SampledKNNEstimator(index, seed=0)
        with pytest.raises(ValueError, match="strategy_kwargs"):
            ApproxRkNN(index, strategy, sample_size=32)

    def test_strategy_bound_to_other_index_raises(self, index, small_gaussian):
        other = LinearScanIndex(small_gaussian)
        strategy = SampledKNNEstimator(other, seed=0)
        with pytest.raises(ValueError, match="different index"):
            ApproxRkNN(index, strategy)


class TestResultShape:
    def test_results_in_input_order(self, engine):
        qis = np.array([40, 3, 77, 3], dtype=np.intp)
        results = engine.query_batch(query_indices=qis, k=5)
        assert len(results) == 4
        # Duplicate query indices get identical answers.
        assert np.array_equal(results[1].ids, results[3].ids)
        for result in results:
            assert isinstance(result, RkNNResult)
            assert result.k == 5
            assert np.isnan(result.t)
            assert np.all(np.diff(result.ids) > 0)  # sorted, unique

    def test_single_query_equals_batch_row(self, engine):
        single = engine.query(query_index=11, k=5)
        batch = engine.query_batch(query_indices=[11, 12], k=5)[0]
        assert np.array_equal(single.ids, batch.ids)

    def test_raw_point_query(self, engine, medium_mixture):
        """A raw query equal to a member must include that member (no
        self-exclusion for non-member queries)."""
        result = engine.query(medium_mixture[5], k=5)
        member = engine.query(query_index=5, k=5)
        assert 5 not in member
        got = set(result.ids.tolist())
        assert got >= set(member.ids.tolist())

    def test_query_all_covers_active_points(self, medium_mixture):
        index = LinearScanIndex(medium_mixture[:60])
        index.remove(7)
        eng = ApproxRkNN(index, "sampled", sample_size=59, seed=0)
        results = eng.query_all(k=4)
        assert set(results) == set(index.active_ids().tolist())
        assert all(7 not in r.ids for r in results.values())

    def test_shape_matches_rdt_batch(self, engine, index):
        """Same workload through RDT and ApproxRkNN: same container shapes."""
        qis = np.arange(0, 100, 9, dtype=np.intp)
        exact = RDT(index).query_batch(query_indices=qis, k=4, t=8.0)
        approx = engine.query_batch(query_indices=qis, k=4)
        assert len(exact) == len(approx)
        for e, a in zip(exact, approx):
            assert type(e) is type(a)
            assert e.ids.dtype == a.ids.dtype


class TestUnderfullActiveSet:
    @pytest.mark.parametrize("name", ["sampled", "graph"])
    def test_query_never_its_own_reverse_neighbor(self, name, small_gaussian):
        """Regression: with fewer than k other active points every kNN
        distance is inf, so every member (tolerantly) contains every
        query — including, formerly, the query itself in the sampled
        path (inf <= inf passed the candidate test on the masked own
        column)."""
        index = LinearScanIndex(small_gaussian[:20])
        for i in range(15):
            index.remove(i)
        engine = ApproxRkNN(index, name, seed=0)
        for qi in index.active_ids():
            result = engine.query(query_index=int(qi), k=6)
            assert int(qi) not in result.ids
        # Parity with the exact engine in the same regime.
        rdt = RDT(index)
        approx = engine.query_batch(query_indices=index.active_ids(), k=6)
        exact = rdt.query_batch(query_indices=index.active_ids(), k=6, t=1e30)
        for a, e in zip(approx, exact):
            if name == "sampled":
                assert np.array_equal(a.ids, e.ids)
            else:
                assert set(a.ids.tolist()) <= set(e.ids.tolist())


class TestStats:
    def test_counter_identities(self, engine):
        results = engine.query_batch(query_indices=np.arange(60), k=6)
        for result in results:
            stats = result.stats
            assert stats.terminated_by == "approx-sampled"
            assert (
                stats.num_lazy_accepts + stats.num_verified
                == stats.num_candidates
            )
            assert stats.num_verified_hits <= stats.num_verified
            assert len(result) == stats.num_lazy_accepts + stats.num_verified_hits
            assert stats.num_retrieved == engine.index.size
            assert stats.filter_seconds >= 0.0
            assert stats.total_seconds >= stats.refine_seconds

    def test_distance_calls_attributed(self, engine):
        metric = engine.index.metric
        before = metric.num_calls
        results = engine.query_batch(query_indices=np.arange(40), k=6)
        spent = metric.num_calls - before
        attributed = sum(r.stats.num_distance_calls for r in results)
        # Even per-query attribution of shared kernels, up to rounding.
        assert attributed == pytest.approx(spent, rel=0.01, abs=len(results))


class TestKthReuse:
    def test_member_batch_skips_index_verification(self, medium_mixture):
        """In an all-members batch, every pending candidate is a query row
        whose exact kNN distance fell out of the strategy scan — the engine
        must not issue per-candidate knn_distances work on the index."""
        index = LinearScanIndex(medium_mixture[:200])
        eng = ApproxRkNN(index, "sampled", sample_size=64, seed=2)
        eng.strategy.ensure_current()
        eng.strategy._table(5)

        calls = {"n": 0}
        original = index.knn_distances

        def counting(points, k, exclude_indices=None):
            calls["n"] += 1
            return original(points, k, exclude_indices=exclude_indices)

        index.knn_distances = counting
        try:
            results = eng.query_batch(
                query_indices=index.active_ids(), k=5
            )
        finally:
            del index.knn_distances
        assert len(results) == 200
        assert calls["n"] == 0

    def test_reused_kth_matches_fresh_verification(self, medium_mixture):
        """Raw-point batches (no reuse possible) and member batches must
        agree on the members' neighborhoods."""
        index = LinearScanIndex(medium_mixture[:150])
        eng = ApproxRkNN(index, "sampled", sample_size=64, seed=2)
        member = eng.query_batch(query_indices=np.arange(150), k=5)
        raw = eng.query_batch(medium_mixture[:150], k=5)
        for qi, (mem, r) in enumerate(zip(member, raw)):
            raw_ids = set(r.ids.tolist()) - {qi}
            assert raw_ids == set(mem.ids.tolist())
