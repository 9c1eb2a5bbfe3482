"""ParallelExecutor: cross-process answers bit-match in-process ones."""

import numpy as np
import pytest

import repro
from repro.baselines import NaiveRkNN
from repro.engines import ENGINE_REGISTRY
from repro.indexes import INDEX_REGISTRY
from repro.parallel import ParallelExecutor
from repro.service import QuerySpec, Service

SPEC = QuerySpec(k=4, t=8.0)

#: Every registry engine the pool can run (the index family).
INDEX_ENGINES = sorted(
    name for name, entry in ENGINE_REGISTRY.items() if entry.needs == "index"
)


def _assert_same_results(expected, got):
    assert set(expected) == set(got)
    for qid in expected:
        np.testing.assert_array_equal(expected[qid].ids, got[qid].ids)


@pytest.fixture(scope="module")
def service(dataset):
    return Service(dataset, backend="kd", engine="rdt+", defaults=SPEC)


def test_query_all_bit_matches_service(service):
    epoch_in, expected = service.query_all_versioned()
    with ParallelExecutor(service, workers=2) as executor:
        epoch_out, got = executor.query_all_versioned()
    assert epoch_out == epoch_in
    _assert_same_results(expected, got)


def test_query_batch_member_and_raw_paths(service, dataset):
    qids = np.arange(0, 160, 13)
    _, expected = service.query_batch_versioned(query_indices=qids)
    with ParallelExecutor(service, workers=2, block_size=5) as executor:
        _, got_member = executor.query_batch_versioned(query_indices=qids)
        _, got_raw = executor.query_batch_versioned(dataset[qids] + 0.01)
    _, expected_raw = service.query_batch_versioned(dataset[qids] + 0.01)
    for want, got in zip(expected, got_member):
        np.testing.assert_array_equal(want.ids, got.ids)
    for want, got in zip(expected_raw, got_raw):
        np.testing.assert_array_equal(want.ids, got.ids)


def test_owned_service_from_raw_data(dataset):
    with ParallelExecutor(
        dataset, "rdt", workers=2, defaults=SPEC
    ) as executor:
        _, got = executor.query_all_versioned()
        expected = executor.service.query_all()
    _assert_same_results(expected, got)


def test_single_query_stays_in_process(service, dataset):
    with ParallelExecutor(service, workers=1) as executor:
        result = executor.query(query_index=3)
    np.testing.assert_array_equal(
        result.ids, service.query(query_index=3).ids
    )


def test_non_index_engines_are_rejected(dataset):
    with pytest.raises(ValueError, match="index-family"):
        ParallelExecutor(dataset, "naive", workers=1)


def test_closed_executor_refuses_dispatch(dataset):
    executor = ParallelExecutor(dataset, "rdt+", workers=1, defaults=SPEC)
    executor.close()
    with pytest.raises(RuntimeError, match="closed"):
        executor.query_all_versioned()
    executor.close()  # idempotent


def test_service_parallel_knob_routes_batches(dataset):
    reference = Service(dataset, backend="kd", engine="rdt+", defaults=SPEC)
    expected = reference.query_all()
    with Service(
        dataset, backend="kd", engine="rdt+", defaults=SPEC,
        parallel={"workers": 2},
    ) as svc:
        _assert_same_results(expected, svc.query_all())
        # single queries stay on the in-process path even with the knob
        np.testing.assert_array_equal(
            svc.query(query_index=5).ids,
            reference.query(query_index=5).ids,
        )
    with pytest.raises(RuntimeError, match="closed"):
        svc.query_all()


def test_create_engine_parallel_passthrough(dataset):
    expected = repro.create_engine("rdt+", dataset).query_all(k=4, t=8.0)
    with repro.create_engine("rdt+", dataset, parallel=2) as executor:
        assert isinstance(executor, ParallelExecutor)
        _, got = executor.query_all_versioned(k=4, t=8.0)
    _assert_same_results(expected, got)


def test_invalid_worker_and_block_counts(dataset):
    with pytest.raises(ValueError, match="workers"):
        ParallelExecutor(dataset, "rdt+", workers=0)
    with pytest.raises(ValueError, match="block_size"):
        ParallelExecutor(dataset, "rdt+", workers=1, block_size=0)


def test_engine_sweep_covers_index_family():
    # The sweep below must not silently shrink when engines change.
    assert {"rdt", "rdt+", "approx-graph", "approx-sampled"} <= set(
        INDEX_ENGINES
    )


@pytest.mark.parametrize("engine", INDEX_ENGINES)
def test_every_index_engine_bit_matches_service(dataset, engine):
    """Workers rebuild each engine from the shared arrays; whatever the
    engine (exact, scale-recall or approximate), the pool's answers are
    the in-process Service's, for the self-join and for raw queries."""
    service = Service(dataset, backend="kd", engine=engine, defaults=SPEC)
    raw = dataset[::17] + 0.01
    expected = service.query_all()
    _, expected_raw = service.query_batch_versioned(raw)
    with ParallelExecutor(service, workers=2) as executor:
        _assert_same_results(expected, executor.query_all())
        _, got_raw = executor.query_batch_versioned(raw)
    assert len(got_raw) == len(expected_raw)
    for want, got in zip(expected_raw, got_raw):
        np.testing.assert_array_equal(want.ids, got.ids)


@pytest.mark.parametrize("backend", sorted(INDEX_REGISTRY))
def test_every_backend_bit_matches_service(dataset, backend):
    """Each index backend answers identically through the pool: at the
    bulk-built epoch (kd and ball workers adopt the parent's flat
    layout) and after whatever writes the backend supports (every
    worker rebuilds the epoch's index from the published points and
    active mask)."""
    cls = INDEX_REGISTRY[backend]
    service = Service(dataset, backend=backend, engine="rdt+", defaults=SPEC)
    with ParallelExecutor(service, workers=2) as executor:
        _assert_same_results(service.query_all(), executor.query_all())
        if cls.supports_remove:
            service.remove(7)
            service.remove(90)
        if cls.supports_insert:
            inserted = service.insert(dataset[4] + 1e-9)
        epoch, got = executor.query_all_versioned()
        assert epoch == service.epoch
        assert (7 in got) != cls.supports_remove
        if cls.supports_insert:
            assert inserted in got
        _assert_same_results(service.query_all(), got)


def test_more_workers_than_queries():
    """Fewer members than workers: the blocks shrink to one query each
    and the join is still the brute-force membership."""
    data = np.random.default_rng(0).normal(size=(5, 3))
    naive = NaiveRkNN(data, k=2)
    with ParallelExecutor(
        data, "rdt", workers=3, defaults=QuerySpec(k=2, t=1e30)
    ) as executor:
        got = executor.query_all()
        one = executor.query_batch(query_indices=[3])
    assert set(got) == set(range(5))
    for qid in range(5):
        np.testing.assert_array_equal(
            naive.query_ids(query_index=qid), got[qid].ids
        )
    np.testing.assert_array_equal(naive.query_ids(query_index=3), one[0].ids)


@pytest.mark.parametrize(
    "parallel, error, match",
    [
        ({"workers": 2, "shards": 2}, ValueError, "unknown parallel option"),
        ("2", TypeError, "parallel must be"),
        (2.0, TypeError, "parallel must be"),
    ],
    ids=["unknown-option", "string", "float"],
)
def test_service_parallel_knob_rejects_bad_values(dataset, parallel, error,
                                                  match):
    with pytest.raises(error, match=match):
        Service(dataset, backend="kd", engine="rdt", parallel=parallel)


def test_service_parallel_knob_rejects_non_index_engines(dataset):
    with pytest.raises(ValueError, match="index-family engines only"):
        Service(dataset, engine="naive", parallel=2)
