"""Structure-of-arrays layouts: the kd and ball trees' batched descent.

The object trees (``_Node`` dataclasses) stay the structure of record for
construction, incremental search, and the dynamic operations; batched
``knn_distances`` runs only here.  A descent over Python node objects
would pay one attribute lookup, one ``np.clip`` on tiny arrays, and one
recursive call per node, which dominates the traversal once the per-node
kernels are fast.  This module flattens a built tree into contiguous
arrays (split dims, split values, bounds, child offsets, concatenated
leaf ids) so the descent iterates an integer cursor over flat arrays.

Layouts are derived data: each tree rebuilds its layout lazily whenever
its structure changed (:attr:`~repro.indexes.kd_tree.KDTreeIndex.insert`
grows boxes in place and may split leaves; compaction rebuilds the tree),
and ``snapshot()`` materializes the layout *before* freezing so the
snapshot shares the arrays zero-copy — a thousand snapshots of a stable
index hold one copy of the node arrays.

The descent is a pruned block traversal: bounds are computed for both
children of an expanded node in one stacked kernel, children are pushed
far-side-first so the near side (the side most query rows fall on) is
processed first and pruning radii shrink before the far side is tried,
and every pop re-checks the node's bound against the current radii.
Every metric is covered: Euclidean takes inlined kernels and frozen
per-leaf stats, any other metric the generic ``metric.pairwise`` /
``boxes_lower_bounds`` / ``to_point_many`` paths.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro import kernels
from repro.distances import EuclideanMetric, Metric
from repro.kernels import numpy_impl
from repro.indexes.batch_tools import KSmallestKeeper, box_lower_bounds, mask_excluded

__all__ = [
    "FlatBallLayout",
    "FlatKDLayout",
    "ball_flat_descent",
    "flatten_ball",
    "flatten_kd",
    "kd_flat_descent",
    "layout_from_arrays",
    "layout_to_arrays",
]


def _preorder(root) -> list:
    """Object nodes in depth-first preorder (left pushed last, popped first)."""
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    return nodes


@dataclass
class FlatKDLayout:
    """Contiguous node arrays for a KD-tree; node 0 is the root.

    ``left``/``right`` hold child node indices (``-1`` marks a leaf);
    leaves own the ``leaf_ids[leaf_start[i]:leaf_end[i]]`` slice.  All
    coordinate arrays carry the tree's storage dtype.
    """

    lo: np.ndarray  # (N, dim)
    hi: np.ndarray  # (N, dim)
    axis: np.ndarray  # (N,) int32, -1 on leaves
    split: np.ndarray  # (N,) storage dtype
    left: np.ndarray  # (N,) int64, -1 on leaves
    right: np.ndarray  # (N,) int64, -1 on leaves
    leaf_start: np.ndarray  # (N,) int64
    leaf_end: np.ndarray  # (N,) int64
    leaf_ids: np.ndarray  # (total leaf slots,) intp
    #: Both children's boxes pre-stacked per internal node, ``(N, 2, dim)``
    #: — the descent's bound kernel reads one slice instead of stacking
    #: two fancy-indexed rows per node.
    child_lo: np.ndarray | None = None
    child_hi: np.ndarray | None = None
    #: Optional per-leaf expansion-kernel stats (see ``_leaf_stats``):
    #: leaf point rows in ``leaf_ids`` order (centered when their leaf's
    #: flag is set), their squared norms, per-node centering means/flags.
    leaf_pts: np.ndarray | None = None
    leaf_yy: np.ndarray | None = None
    leaf_mu: np.ndarray | None = None
    leaf_centered: np.ndarray | None = None
    #: Inverse of ``leaf_ids``: the slot each point id occupies (every
    #: stored id lives in exactly one leaf), for O(rows) exclusion masks.
    id_slot: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        return sum(
            arr.nbytes
            for f in (
                "lo",
                "hi",
                "axis",
                "split",
                "left",
                "right",
                "leaf_start",
                "leaf_end",
                "leaf_ids",
                "child_lo",
                "child_hi",
                "leaf_pts",
                "leaf_yy",
                "leaf_mu",
                "leaf_centered",
                "id_slot",
            )
            if (arr := getattr(self, f)) is not None
        )


@dataclass
class FlatBallLayout:
    """Contiguous node arrays for a ball tree; node 0 is the root."""

    centroids: np.ndarray  # (N, dim)
    radii: np.ndarray  # (N,) storage dtype
    left: np.ndarray  # (N,) int64, -1 on leaves
    right: np.ndarray  # (N,) int64, -1 on leaves
    leaf_start: np.ndarray  # (N,) int64
    leaf_end: np.ndarray  # (N,) int64
    leaf_ids: np.ndarray  # (total leaf slots,) intp
    #: Optional per-leaf expansion-kernel stats (see ``_leaf_stats``).
    leaf_pts: np.ndarray | None = None
    leaf_yy: np.ndarray | None = None
    leaf_mu: np.ndarray | None = None
    leaf_centered: np.ndarray | None = None
    #: Inverse of ``leaf_ids`` (see :class:`FlatKDLayout`).
    id_slot: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        return sum(
            arr.nbytes
            for f in (
                "centroids",
                "radii",
                "left",
                "right",
                "leaf_start",
                "leaf_end",
                "leaf_ids",
                "leaf_pts",
                "leaf_yy",
                "leaf_mu",
                "leaf_centered",
                "id_slot",
            )
            if (arr := getattr(self, f)) is not None
        )


#: kind tag -> layout dataclass, for :func:`layout_from_arrays`.
_LAYOUT_CLASSES = {"kd": FlatKDLayout, "ball": FlatBallLayout}

#: boolean layout fields, re-cast on reconstruction (array transports
#: that round-trip through raw buffers carry them as uint8-compatible)
_BOOL_FIELDS = ("leaf_centered",)


def layout_to_arrays(layout) -> dict:
    """A layout's populated fields as one flat ``{name: ndarray}`` dict.

    The inverse of :func:`layout_from_arrays`; used to publish a layout
    through array transports (``.npz`` files, shared-memory packs) that
    carry named arrays but not dataclasses.  ``None`` fields are simply
    absent from the dict.
    """
    return {
        f.name: arr
        for f in fields(layout)
        if (arr := getattr(layout, f.name)) is not None
    }


def layout_from_arrays(kind: str, arrays: dict):
    """Rebuild a :class:`FlatKDLayout`/:class:`FlatBallLayout` from arrays.

    ``kind`` is ``"kd"`` or ``"ball"``; ``arrays`` maps field names to
    ndarrays (extra keys are ignored, optional fields may be missing).
    The arrays are adopted as-is — read-only views (e.g. shared-memory
    attachments) stay zero-copy, which is the point: every worker
    process descends one physical copy of the node arrays.
    """
    try:
        cls = _LAYOUT_CLASSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown layout kind {kind!r}; known: {sorted(_LAYOUT_CLASSES)}"
        ) from None
    known = {f.name for f in cls.__dataclass_fields__.values()}
    kwargs = {name: arr for name, arr in arrays.items() if name in known}
    for name in _BOOL_FIELDS:
        if kwargs.get(name) is not None and kwargs[name].dtype != np.bool_:
            kwargs[name] = kwargs[name].astype(bool)
    return cls(**kwargs)


def _leaf_arrays(nodes: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate leaf id lists into one array plus per-node slice offsets."""
    n = len(nodes)
    leaf_start = np.zeros(n, dtype=np.int64)
    leaf_end = np.zeros(n, dtype=np.int64)
    chunks: list[np.ndarray] = []
    cursor = 0
    for i, node in enumerate(nodes):
        if node.is_leaf:
            ids = np.asarray(node.point_ids, dtype=np.intp)
            leaf_start[i] = cursor
            cursor += ids.shape[0]
            leaf_end[i] = cursor
            chunks.append(ids)
    leaf_ids = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)
    )
    return leaf_start, leaf_end, leaf_ids


def _id_slots(leaf_ids: np.ndarray) -> np.ndarray:
    """Inverse of ``leaf_ids``: the slot holding each point id.

    Every stored id appears in exactly one leaf, so the exclusion mask of
    a leaf visit reduces to one slot-range check per query row instead of
    a broadcast id comparison over the whole candidate block.
    """
    size = int(leaf_ids.max()) + 1 if leaf_ids.shape[0] else 0
    id_slot = np.full(size, -1, dtype=np.int64)
    id_slot[leaf_ids] = np.arange(leaf_ids.shape[0], dtype=np.int64)
    return id_slot


def _leaf_stats(
    leaf_start: np.ndarray,
    leaf_end: np.ndarray,
    leaf_ids: np.ndarray,
    points: np.ndarray,
    metric: Metric | None,
) -> dict:
    """Per-leaf expansion-kernel stats frozen at flatten time.

    For each leaf, replicates exactly the Y-side work of
    :func:`repro.kernels.numpy_impl.euclidean_pairwise` — squared norms,
    mean, and the Y-only centering decision — and stores the leaf's point
    rows (centered when the decision fired) contiguously in ``leaf_ids``
    order.  :func:`_leaf_update` then feeds these to the stats variant of
    the kernel, producing the same bits without the per-call Y passes.
    Only built for the Euclidean metric; other metrics get no stats and
    keep the generic ``metric.pairwise`` path.
    """
    none = {
        "leaf_pts": None,
        "leaf_yy": None,
        "leaf_mu": None,
        "leaf_centered": None,
    }
    if points is None or not isinstance(metric, EuclideanMetric):
        return none
    n = leaf_start.shape[0]
    dim = points.shape[1]
    dtype = points.dtype
    leaf_pts = points[leaf_ids].copy()
    leaf_yy = np.empty(leaf_ids.shape[0], dtype=dtype)
    leaf_mu = np.zeros((n, dim), dtype=dtype)
    leaf_centered = np.zeros(n, dtype=bool)
    for i in range(n):
        s, e = leaf_start[i], leaf_end[i]
        if e <= s:
            continue
        Yc, yy, mu = numpy_impl.euclidean_y_stats(leaf_pts[s:e])
        if mu is not None:
            leaf_pts[s:e] = Yc
            leaf_mu[i] = mu
            leaf_centered[i] = True
        leaf_yy[s:e] = yy
    return {
        "leaf_pts": leaf_pts,
        "leaf_yy": leaf_yy,
        "leaf_mu": leaf_mu,
        "leaf_centered": leaf_centered,
    }


def flatten_kd(root, dim: int, dtype, points=None, metric=None) -> FlatKDLayout:
    """Flatten a KD-tree object graph into a :class:`FlatKDLayout`."""
    nodes = _preorder(root)
    pos = {id(node): i for i, node in enumerate(nodes)}
    n = len(nodes)
    lo = np.empty((n, dim), dtype=dtype)
    hi = np.empty((n, dim), dtype=dtype)
    axis = np.full(n, -1, dtype=np.int32)
    split = np.zeros(n, dtype=dtype)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    for i, node in enumerate(nodes):
        # Box copies (not views): the live tree grows boxes in place on
        # insert, and the layout must stay the frozen build-time bounds.
        lo[i] = node.lo
        hi[i] = node.hi
        if not node.is_leaf:
            axis[i] = node.axis
            split[i] = node.split
            left[i] = pos[id(node.left)]
            right[i] = pos[id(node.right)]
    leaf_start, leaf_end, leaf_ids = _leaf_arrays(nodes)
    internal = np.flatnonzero(left >= 0)
    child_lo = np.zeros((n, 2, dim), dtype=dtype)
    child_hi = np.zeros((n, 2, dim), dtype=dtype)
    child_lo[internal, 0] = lo[left[internal]]
    child_lo[internal, 1] = lo[right[internal]]
    child_hi[internal, 0] = hi[left[internal]]
    child_hi[internal, 1] = hi[right[internal]]
    return FlatKDLayout(
        lo=lo,
        hi=hi,
        axis=axis,
        split=split,
        left=left,
        right=right,
        leaf_start=leaf_start,
        leaf_end=leaf_end,
        leaf_ids=leaf_ids,
        child_lo=child_lo,
        child_hi=child_hi,
        id_slot=_id_slots(leaf_ids),
        **_leaf_stats(leaf_start, leaf_end, leaf_ids, points, metric),
    )


def flatten_ball(root, dim: int, dtype, points=None, metric=None) -> FlatBallLayout:
    """Flatten a ball-tree object graph into a :class:`FlatBallLayout`."""
    nodes = _preorder(root)
    pos = {id(node): i for i, node in enumerate(nodes)}
    n = len(nodes)
    centroids = np.empty((n, dim), dtype=dtype)
    radii = np.empty(n, dtype=dtype)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    for i, node in enumerate(nodes):
        centroids[i] = node.centroid
        radii[i] = node.radius
        if not node.is_leaf:
            left[i] = pos[id(node.left)]
            right[i] = pos[id(node.right)]
    leaf_start, leaf_end, leaf_ids = _leaf_arrays(nodes)
    return FlatBallLayout(
        centroids=centroids,
        radii=radii,
        left=left,
        right=right,
        leaf_start=leaf_start,
        leaf_end=leaf_end,
        leaf_ids=leaf_ids,
        id_slot=_id_slots(leaf_ids),
        **_leaf_stats(leaf_start, leaf_end, leaf_ids, points, metric),
    )


def _leaf_update(
    lay,
    idx: int,
    rows: np.ndarray,
    queries: np.ndarray,
    points: np.ndarray,
    active: np.ndarray | None,
    exclude: np.ndarray,
    keeper: KSmallestKeeper,
    metric: Metric,
) -> None:
    s = lay.leaf_start[idx]
    e = lay.leaf_end[idx]
    ids = lay.leaf_ids[s:e]
    if active is None:
        if ids.shape[0] == 0:
            return
        if lay.leaf_yy is not None and kernels.active_backend() == "numpy":
            # Expansion against the stats frozen at flatten time: the same
            # bits as metric.pairwise on this leaf, minus the per-call
            # Y-side passes that dominate narrow leaf blocks.  The
            # compiled backend's fused loop needs no stats and is faster
            # still, so it keeps the dispatched path below.
            cand = kernels.euclidean_pairwise_stats(
                queries[rows],
                lay.leaf_pts[s:e],
                lay.leaf_yy[s:e],
                lay.leaf_mu[idx] if lay.leaf_centered[idx] else None,
            )
            metric.num_calls += rows.shape[0] * ids.shape[0]
        else:
            # The dispatched expansion kernel; for wide row blocks
            # against narrow leaves it moves an order of magnitude less
            # memory than the difference kernel.
            cand = metric.pairwise(queries[rows], points[ids])
        id_slot = lay.id_slot
        if id_slot is not None:
            # Slot-range check per row instead of the broadcast id
            # compare: an id's one slot is in this leaf iff it falls in
            # [s, e), and its column is the slot offset.  Same infs as
            # mask_excluded (leaf slots hold each id exactly once).
            ex = exclude[rows]
            valid = (ex >= 0) & (ex < id_slot.shape[0])
            slot = id_slot[np.where(valid, ex, 0)]
            hit = valid & (slot >= s) & (slot < e)
            if hit.any():
                cand[np.flatnonzero(hit), slot[hit] - s] = np.inf
        else:
            mask_excluded(cand, ids, exclude[rows])
        keeper.update(rows, cand)
        return
    ids = ids[active[ids]]
    if ids.shape[0] == 0:
        return
    cand = metric.pairwise(queries[rows], points[ids])
    mask_excluded(cand, ids, exclude[rows])
    keeper.update(rows, cand)


def kd_flat_descent(
    lay: FlatKDLayout,
    metric: Metric,
    points: np.ndarray,
    active: np.ndarray | None,
    queries: np.ndarray,
    exclude: np.ndarray,
    keeper: KSmallestKeeper,
) -> None:
    """Iterative pruned block traversal over a flat KD layout.

    ``active`` is the live mask (``None`` when every stored id is live and
    the leaf lists can be trusted).  Each leaf feeds one pairwise block
    into the shared keeper (see the module docstring for the visit order).
    """
    m = queries.shape[0]
    rows0 = np.arange(m, dtype=np.intp)
    kth = keeper.kth
    root_bounds = box_lower_bounds(metric, queries, lay.lo[0], lay.hi[0])
    stack: list[tuple[int, np.ndarray, np.ndarray]] = [(0, rows0, root_bounds)]
    left, right, axis_arr, split_arr = lay.left, lay.right, lay.axis, lay.split
    child_lo, child_hi = lay.child_lo, lay.child_hi
    # Inline the Euclidean difference kernel for the per-node child
    # bounds: same subtraction and einsum as metric.boxes_lower_bounds,
    # minus its per-call coercion/accounting overhead (which at ~2 leaves
    # per microsecond of work is a measurable slice of the descent).
    fast_bounds = isinstance(metric, EuclideanMetric)
    bound_calls = 0
    while stack:
        idx, rows, bounds = stack.pop()
        rows = rows[bounds < kth[rows]]
        if rows.shape[0] == 0:
            continue
        li = left[idx]
        if li < 0:
            _leaf_update(
                lay, idx, rows, queries, points, active, exclude, keeper, metric
            )
            continue
        ri = right[idx]
        q = queries[rows]
        # Same values as np.clip against each child box (clip is exactly
        # minimum-of-maximum), reading the boxes pre-stacked at flatten
        # time instead of assembling them per node.
        clipped = np.minimum(
            np.maximum(q[:, None, :], child_lo[idx][None, :, :]),
            child_hi[idx][None, :, :],
        )
        if fast_bounds:
            diff = q[:, None, :] - clipped
            both = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            bound_calls += 2 * rows.shape[0]
        else:
            both = metric.boxes_lower_bounds(q, clipped)
        left_votes = np.count_nonzero(q[:, axis_arr[idx]] <= split_arr[idx])
        if 2 * left_votes >= rows.shape[0]:
            near, near_b, far, far_b = li, both[:, 0], ri, both[:, 1]
        else:
            near, near_b, far, far_b = ri, both[:, 1], li, both[:, 0]
        stack.append((int(far), rows, far_b))
        stack.append((int(near), rows, near_b))
    metric.num_calls += bound_calls


def ball_flat_descent(
    lay: FlatBallLayout,
    metric: Metric,
    points: np.ndarray,
    active: np.ndarray | None,
    queries: np.ndarray,
    exclude: np.ndarray,
    keeper: KSmallestKeeper,
) -> None:
    """Iterative pruned block traversal over a flat ball-tree layout."""
    m = queries.shape[0]
    rows0 = np.arange(m, dtype=np.intp)
    kth = keeper.kth
    stack: list[tuple[int, np.ndarray, np.ndarray]] = [
        (0, rows0, np.zeros(m, dtype=queries.dtype))
    ]
    left, right, centroids, radii = lay.left, lay.right, lay.centroids, lay.radii
    while stack:
        idx, rows, bounds = stack.pop()
        rows = rows[bounds < kth[rows]]
        if rows.shape[0] == 0:
            continue
        li = left[idx]
        if li < 0:
            _leaf_update(
                lay, idx, rows, queries, points, active, exclude, keeper, metric
            )
            continue
        ri = right[idx]
        q = queries[rows]
        to_centroid = metric.to_point_many(q, centroids[(int(li), int(ri)), :])
        left_bounds = np.maximum(0.0, to_centroid[:, 0] - radii[li])
        right_bounds = np.maximum(0.0, to_centroid[:, 1] - radii[ri])
        left_votes = np.count_nonzero(to_centroid[:, 0] <= to_centroid[:, 1])
        if 2 * left_votes >= rows.shape[0]:
            near, near_b, far, far_b = li, left_bounds, ri, right_bounds
        else:
            near, near_b, far, far_b = ri, right_bounds, li, left_bounds
        stack.append((int(far), rows, far_b))
        stack.append((int(near), rows, near_b))
