"""The structure-of-arrays flat layouts and their batched descent.

The flat int-cursor descent is the kd and ball trees' only batched
``knn_distances`` path, so it is checked against a brute-force reference
(every pairwise distance in float64, removed and excluded ids masked) —
on ties, under exclusions, pruning caps, removals (active-mask path), a
non-Euclidean metric, and float32 storage.  Snapshots share the frozen
arrays zero-copy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import EuclideanMetric
from repro.indexes import create_index
from repro.indexes.soa import FlatBallLayout, FlatKDLayout, flatten_kd
from repro.utils.tolerance import tolerances_for

BACKENDS = ("kd-tree", "ball-tree")

#: float64 tolerance of the reference comparison (the descent's expansion
#: kernel and the reference's difference kernel differ by round-off).
RTOL = ATOL = 1e-12


def _make(backend, points, dtype=None):
    metric = EuclideanMetric(dtype=dtype) if dtype is not None else None
    return create_index(backend, points, metric=metric)


def _brute_force_kth(index, queries, k, exclude_indices=None, order=2):
    """k-th NN distance of each query row over the index's live points."""
    points = index.points.astype(np.float64)
    diff = np.asarray(queries, dtype=np.float64)[:, None, :] - points[None]
    dists = np.linalg.norm(diff, ord=order, axis=2)
    live = np.zeros(points.shape[0], dtype=bool)
    live[index.active_ids()] = True
    dists[:, ~live] = np.inf
    if exclude_indices is not None:
        rows = np.arange(dists.shape[0])
        dists[rows, np.asarray(exclude_indices)] = np.inf
    return np.sort(dists, axis=1)[:, k - 1]


def _assert_matches_reference(index, queries, k, order=2, **kwargs):
    queries = np.asarray(queries, dtype=index.points.dtype)
    got = index.knn_distances(queries, k, **kwargs)
    want = _brute_force_kth(
        index, queries, k, kwargs.get("exclude_indices"), order=order
    )
    if index.points.dtype == np.float32:
        rtol, atol = tolerances_for(np.float32)
    else:
        rtol, atol = RTOL, ATOL
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)
    return got


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", [None, np.float32])
def test_flat_descent_matches_brute_force(backend, dtype, rng):
    points = rng.normal(size=(700, 5))
    queries = rng.normal(size=(40, 5))
    index = _make(backend, points, dtype=dtype)
    _assert_matches_reference(index, queries, k=4)


@pytest.mark.parametrize("backend", BACKENDS)
def test_flat_descent_matches_brute_force_low_dim(backend, rng):
    # Many queries over dense 2-d data put plenty of subtrees right at a
    # row's pruning radius: an over-eager prune shows up here first.
    points = rng.normal(size=(1500, 2))
    queries = rng.normal(size=(300, 2))
    _assert_matches_reference(_make(backend, points), queries, k=10)


@pytest.mark.parametrize("backend", BACKENDS)
def test_flat_descent_matches_on_ties(backend):
    rng = np.random.default_rng(41)
    points = np.round(rng.normal(size=(500, 3)), 1)
    queries = np.round(rng.normal(size=(25, 3)), 1)
    index = _make(backend, points)
    _assert_matches_reference(index, queries, k=5)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", [None, np.float32])
def test_flat_descent_respects_exclusions(backend, dtype, rng):
    points = rng.normal(size=(400, 4))
    m = 30
    queries = points[:m] + 1e-3
    exclude = np.arange(m)
    index = _make(backend, points, dtype=dtype)
    _assert_matches_reference(index, queries, k=3, exclude_indices=exclude)
    # Excluding a point's nearest copy must change its 1-NN distance.
    queries = queries.astype(index.points.dtype)
    none = index.knn_distances(queries, 1)
    some = index.knn_distances(queries, 1, exclude_indices=exclude)
    assert (some >= none).all() and (some > none).any()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", [None, np.float32])
def test_flat_descent_after_removals_uses_active_mask(backend, dtype, rng):
    points = rng.normal(size=(300, 4))
    index = _make(backend, points, dtype=dtype)
    for point_id in (3, 77, 150, 299):
        index.remove(point_id)
    queries = rng.normal(size=(20, 4))
    _assert_matches_reference(index, queries, k=4)
    # The same removals seen through a frozen snapshot's mask.
    _assert_matches_reference(index.snapshot(), queries, k=4)


@pytest.mark.parametrize("backend", BACKENDS)
def test_flat_descent_with_prune_caps_matches(backend, rng):
    points = rng.normal(size=(600, 5))
    queries = rng.normal(size=(30, 5))
    index = _make(backend, points)
    caps = np.asarray(index.knn_distances(queries, 3), dtype=float)
    # Caps strictly above the true k-th distance (the refinement inflates
    # its caps the same way) only prune; they never change the answer.
    for factor in (1.0 + 1e-9, 1.5):
        _assert_matches_reference(
            index, queries, k=3, prune_caps=caps * factor
        )


def test_snapshot_shares_layout_zero_copy(rng):
    points = rng.normal(size=(350, 4))
    index = _make("kd-tree", points)
    layout = index._flat_layout()
    snap = index.snapshot()
    assert snap._flat_layout() is layout
    queries = rng.normal(size=(10, 4))
    assert np.array_equal(
        snap.knn_distances(queries, 3), index.knn_distances(queries, 3)
    )


def test_insert_invalidates_layout(rng):
    points = rng.normal(size=(200, 3))
    index = _make("kd-tree", points)
    first = index._flat_layout()
    index.insert(rng.normal(size=3))
    second = index._flat_layout()
    assert second is not first
    queries = rng.normal(size=(8, 3))
    _assert_matches_reference(index, queries, k=2)


def test_layout_invariants(rng):
    points = rng.normal(size=(300, 4))
    index = _make("kd-tree", points)
    lay = index._flat_layout()
    assert isinstance(lay, FlatKDLayout)
    n = lay.left.shape[0]
    leaves = lay.left < 0
    assert np.array_equal(leaves, lay.right < 0)
    # Every point id is stored in exactly one leaf slot.
    assert np.array_equal(np.sort(lay.leaf_ids), np.arange(300))
    # id_slot inverts leaf_ids.
    assert np.array_equal(lay.leaf_ids[lay.id_slot], np.arange(300))
    # Pre-stacked child boxes equal the children's own boxes.
    internal = np.flatnonzero(~leaves)
    assert np.array_equal(lay.child_lo[internal, 0], lay.lo[lay.left[internal]])
    assert np.array_equal(lay.child_hi[internal, 1], lay.hi[lay.right[internal]])
    assert lay.nbytes > 0
    assert n == lay.lo.shape[0]


def test_leaf_stats_replicate_pairwise_bits(rng):
    points = rng.normal(size=(400, 5)) + 1e6  # forces per-leaf centering
    index = _make("kd-tree", points)
    lay = index._flat_layout()
    assert lay.leaf_pts is not None
    assert bool(lay.leaf_centered.any())
    from repro.kernels import numpy_impl

    queries = (rng.normal(size=(12, 5)) + 1e6).astype(points.dtype)
    for idx in np.flatnonzero(lay.left < 0)[:10]:
        s, e = lay.leaf_start[idx], lay.leaf_end[idx]
        if e <= s:
            continue
        ids = lay.leaf_ids[s:e]
        direct = numpy_impl.euclidean_pairwise(queries, points[ids])
        via = numpy_impl.euclidean_pairwise_stats(
            queries,
            lay.leaf_pts[s:e],
            lay.leaf_yy[s:e],
            lay.leaf_mu[idx] if lay.leaf_centered[idx] else None,
        )
        assert np.array_equal(direct, via)


def test_leaf_stats_absent_for_non_euclidean():
    from repro.distances import get_metric

    rng = np.random.default_rng(77)
    points = rng.normal(size=(150, 3))
    index = create_index("kd-tree", points, metric=get_metric("manhattan"))
    lay = index._flat_layout()
    assert lay.leaf_pts is None
    queries = rng.normal(size=(6, 3))
    _assert_matches_reference(index, queries, k=2, order=1)


def test_flatten_without_points_still_descends(rng):
    points = rng.normal(size=(120, 3))
    index = _make("kd-tree", points)
    lay = flatten_kd(index._root, index.dim, points.dtype)
    assert lay.leaf_pts is None and lay.id_slot is not None
    index._layout = lay
    queries = rng.normal(size=(5, 3))
    _assert_matches_reference(index, queries, k=2)


def test_ball_layout_types(rng):
    points = rng.normal(size=(200, 4))
    index = _make("ball-tree", points)
    lay = index._flat_layout()
    assert isinstance(lay, FlatBallLayout)
    assert np.array_equal(lay.leaf_ids[lay.id_slot], np.arange(200))
    assert lay.nbytes > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_float32_layout_keeps_storage_dtype(backend, rng):
    points = rng.normal(size=(250, 4))
    index = _make(backend, points, dtype=np.float32)
    lay = index._flat_layout()
    coords = lay.lo if hasattr(lay, "lo") else lay.centroids
    assert coords.dtype == np.float32
    if lay.leaf_pts is not None:
        assert lay.leaf_pts.dtype == np.float32
        assert lay.leaf_yy.dtype == np.float32
