"""Unit tests for the approximate-search strategies.

The deterministic halves of each strategy's contract are asserted exactly
(they are guarantees, not statistics): the sampled estimator's shortlist
is a superset of the true result set (its sampled table is a provable
upper bound).  The graph strategy's own contract lives in
``test_graph.py``.  The statistical halves (recall of the graph,
precision of the sampled accept path) are exercised on seeded data in the
oracle harness (``tests/oracle``) and the evaluation benchmark.
"""

import numpy as np
import pytest

from repro.approx import (
    APPROX_STRATEGIES,
    ApproxRkNN,
    GraphRkNNStrategy,
    SampledKNNEstimator,
    build_strategy,
)
from repro.baselines import NaiveRkNN
from repro.indexes import LinearScanIndex


@pytest.fixture(scope="module")
def index(medium_mixture):
    return LinearScanIndex(medium_mixture)


@pytest.fixture(scope="module")
def naive(medium_mixture):
    return NaiveRkNN(medium_mixture, k=7)


class TestRegistry:
    def test_build_by_name(self, index):
        assert isinstance(build_strategy("graph", index), GraphRkNNStrategy)
        assert isinstance(build_strategy("sampled", index), SampledKNNEstimator)

    def test_unknown_name_raises(self, index):
        with pytest.raises(ValueError, match="unknown approximate strategy"):
            build_strategy("annoy", index)

    def test_registry_names_match_classes(self):
        for name, cls in APPROX_STRATEGIES.items():
            assert cls.name == name


class TestSampledEstimator:
    def test_upper_bound_dominates_exact(self, index, medium_mixture):
        """The sampled table must upper-bound the true kNN distance
        everywhere — this is the recall guarantee."""
        strategy = SampledKNNEstimator(index, sample_size=100, seed=5)
        strategy.ensure_current()
        upper, _ = strategy._table(7)
        exact = index.knn_distances(
            medium_mixture, 7, exclude_indices=np.arange(len(medium_mixture))
        )
        assert np.all(upper >= exact - 1e-9 * np.abs(exact))

    def test_full_sample_degenerates_to_exact(self, index, naive, medium_mixture):
        """sample_size >= n makes the upper bound exact, so with the accept
        path disabled the strategy answers exactly."""
        engine = ApproxRkNN(
            index, "sampled", sample_size=len(medium_mixture), margin=1.0, seed=0
        )
        for qi in range(0, len(medium_mixture), 97):
            got = engine.query(query_index=qi, k=7)
            assert np.array_equal(got.ids, naive.query_ids(query_index=qi))

    def test_shortlist_is_superset_of_truth(self, index, naive, medium_mixture):
        engine = ApproxRkNN(index, "sampled", sample_size=64, seed=3)
        results = engine.query_batch(
            query_indices=np.arange(0, len(medium_mixture), 13), k=7
        )
        for qi, result in zip(range(0, len(medium_mixture), 13), results):
            truth = set(naive.query_ids(query_index=qi).tolist())
            assert truth <= set(result.ids.tolist())

    def test_margin_one_never_accepts(self, index):
        engine = ApproxRkNN(index, "sampled", sample_size=64, margin=1.0, seed=3)
        results = engine.query_batch(query_indices=np.arange(40), k=7)
        assert all(r.stats.num_lazy_accepts == 0 for r in results)
        assert all(r.lazy_accepted_ids.shape[0] == 0 for r in results)

    def test_margin_validation(self, index):
        with pytest.raises(ValueError, match="margin"):
            SampledKNNEstimator(index, margin=1.5)
        with pytest.raises(ValueError, match="margin"):
            SampledKNNEstimator(index, margin=-0.1)

    def test_correction_factor_is_contractive(self, index):
        """The sampled bound over-estimates, so calibration must measure a
        correction at most ~1."""
        strategy = SampledKNNEstimator(index, sample_size=100, seed=5)
        strategy.ensure_current()
        strategy._table(7)
        assert 0.0 < strategy.corrections[7] <= 1.0 + 1e-9

    def test_tables_cached_per_k(self, index):
        strategy = SampledKNNEstimator(index, sample_size=64, seed=5)
        strategy.ensure_current()
        first = strategy._table(5)
        assert strategy._table(5) is first
        assert strategy._table(6) is not first

    def test_deterministic_given_seed(self, medium_mixture):
        a = ApproxRkNN(LinearScanIndex(medium_mixture), "sampled", seed=9)
        b = ApproxRkNN(LinearScanIndex(medium_mixture), "sampled", seed=9)
        ra = a.query_batch(query_indices=np.arange(30), k=5)
        rb = b.query_batch(query_indices=np.arange(30), k=5)
        for x, y in zip(ra, rb):
            assert np.array_equal(x.ids, y.ids)


class TestCacheInvalidation:
    @pytest.mark.parametrize("name", sorted(APPROX_STRATEGIES))
    def test_rebuild_after_insert_and_remove(self, name, small_gaussian):
        index = LinearScanIndex(small_gaussian[:100])
        engine = ApproxRkNN(index, name, seed=6)
        before = engine.query(query_index=0, k=4)
        assert 7 in before or 7 not in before  # materialize
        new_id = index.insert(small_gaussian[150])
        index.remove(1)
        after = engine.query(query_index=0, k=4)
        # The fresh structure must know about the new point and must have
        # dropped the removed one.
        naive_after = NaiveRkNN(
            index.points[index.active_ids()], k=4
        )
        active = index.active_ids()
        expected = active[naive_after.query_ids(
            query_index=int(np.searchsorted(active, 0))
        )]
        assert 1 not in after.ids
        # sampled guarantees the full truth; graph at least never reports
        # the removed id and stays a subset of the active set.
        assert set(after.ids.tolist()) <= set(active.tolist())
        if name == "sampled":
            assert set(expected.tolist()) <= set(after.ids.tolist())
        assert new_id in {int(i) for i in active}
