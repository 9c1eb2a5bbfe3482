"""Randomized brute-force oracle: the library-wide conformance backstop.

Every engine path — each registry backend, looped and batched execution,
bulk- and insert-built trees — must agree with the brute-force reference
(:mod:`repro.baselines.naive`) on RkNN membership, on seeded *adversarial*
workloads: tie-rich grids, exact duplicates, post-removal churn, far-from-
origin offsets, one-dimensional and near-degenerate data.  Feature tests
pin kernel-level details (bit-identical ties, stats attribution); this
module pins the one thing every past and future execution strategy must
preserve — the answer — in a single parametrized sweep, so a new backend
or engine is conformance-tested by adding one entry, not a test file.

Exactness argument for the RDT side: the scale parameter is set to
``T_EXACT = 1e30``, for which ``(s/k')^(1/t)`` rounds to exactly 1.0 in
float64, so the omega bound never tightens and the rank cap equals ``n``
(``DimensionalTest`` treats t > 60 that way) — the filter provably
retrieves *every* active point and the refinement decides membership
exactly.  This holds on any data, including near-degenerate sets whose
generalized expansion dimension exceeds any practical ``t`` (where merely
"large" values like t=100 do miss members — that is a property of the
algorithm, not a bug, which is why the oracle pins the exhaustive
regime).

The same workloads serve as the recall/precision oracle for the
approximate subsystem (:mod:`repro.approx`): the sampled estimator's
shortlist bound makes ``recall == 1`` a *deterministic* guarantee, and
the graph strategy's verify-everything design makes ``precision == 1``
one; both are asserted exactly here, per workload.

They also pin the batched execution strategy against the looped one:
``query_batch`` must make exactly the decisions a loop of ``query()``
calls makes, counters included, at float64 and float32.
"""

import numpy as np
import pytest

from repro.approx import ApproxRkNN
from repro.baselines import NaiveRkNN
from repro.core import RDT, RkNNEngine
from repro.core.result import RkNNResult
from repro.distances import EuclideanMetric
from repro.engines import ENGINE_REGISTRY
from repro.evaluation.metrics import precision as precision_metric
from repro.evaluation.metrics import recall as recall_metric
from repro.evaluation.precompute import INSERT_PATH_FLAGS
from repro.indexes import INDEX_REGISTRY, build_index
from repro.service import QuerySpec, Service

#: Scale parameter in the provably exhaustive regime (see module docstring).
T_EXACT = 1e30
K = 5
#: Every N-th active point is additionally queried through the looped path.
LOOP_STRIDE = 17


def _gaussian(rng):
    return rng.normal(size=(120, 4)), []


def _tie_rich(rng):
    """Integer grid: almost every distance is shared by many pairs."""
    return rng.integers(0, 3, size=(110, 3)).astype(np.float64), []


def _exact_duplicates(rng):
    """Every point appears 2-4 times; duplicate groups straddle answers."""
    base = rng.normal(size=(40, 3))
    reps = rng.integers(2, 5, size=40)
    return np.repeat(base, reps, axis=0), []


def _post_removal_churn(rng):
    """Duplicates + scattered removals, including partial duplicate groups."""
    base = rng.normal(size=(50, 3))
    data = np.repeat(base, 3, axis=0)
    remove = rng.choice(data.shape[0], size=45, replace=False)
    return data, remove.tolist()


def _offset_1e6(rng):
    """Small spread far from the origin: kernel-cancellation territory."""
    return rng.normal(size=(120, 4)) + 1e6, []


def _d1(rng):
    """One-dimensional data with repeats — degenerate split geometry."""
    values = rng.normal(size=(90, 1))
    values[::7] = values[0]
    return values, []


def _near_degenerate(rng):
    """A 1e-5-wide cluster plus far outliers: the expansion-dimension
    blow-up shape that defeats any merely 'large' t (see docstring).

    The cluster scale stays above the tolerance slack (1e-9 relative) on
    purpose: below it, *true* distance gaps fall inside the tolerance
    band and the strict witness rules provably diverge from the tolerant
    brute-force boundary — outside the library's stated domain
    (DESIGN.md tolerance policy)."""
    cluster = rng.normal(scale=1e-5, size=(100, 3))
    outliers = rng.normal(size=(8, 3)) + 2.0
    return np.vstack([cluster, outliers]), []


WORKLOADS = {
    "gaussian": _gaussian,
    "tie-rich": _tie_rich,
    "exact-duplicates": _exact_duplicates,
    "post-removal-churn": _post_removal_churn,
    "offset-1e6": _offset_1e6,
    "d1": _d1,
    "near-degenerate": _near_degenerate,
}

#: (backend, constructor flags) — the bulk default plus every retained
#: insert-loop construction path.
BUILD_PATHS = [(name, {}) for name in sorted(INDEX_REGISTRY)] + [
    (name, dict(flags)) for name, flags in sorted(INSERT_PATH_FLAGS.items())
]

_truth_cache: dict[str, tuple] = {}


def _workload(name):
    """Deterministic (data, remove_ids, active, truth) per workload."""
    if name not in _truth_cache:
        # Seed derived from the workload name only — stable across runs
        # and interpreter sessions (unlike built-in hash()).
        rng = np.random.default_rng(
            np.frombuffer(name.encode().ljust(8, b"x")[:8], dtype=np.uint32)
        )
        data, remove_ids = WORKLOADS[name](rng)
        mask = np.ones(data.shape[0], dtype=bool)
        mask[np.asarray(remove_ids, dtype=np.intp)] = False
        active = np.flatnonzero(mask)
        naive = NaiveRkNN(data[active], k=K)
        truth = {
            int(active[local]): set(
                active[naive.query_ids(query_index=local)].tolist()
            )
            for local in range(active.shape[0])
        }
        _truth_cache[name] = (data, remove_ids, active, truth)
    return _truth_cache[name]


def _build(backend, flags, name):
    data, remove_ids, active, truth = _workload(name)
    index = build_index(backend, data, **flags)
    if remove_ids and not index.supports_remove:
        pytest.skip(f"{backend} does not support remove")
    for point_id in remove_ids:
        index.remove(int(point_id))
    return index, active, truth


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize(
    "backend,flags",
    BUILD_PATHS,
    ids=[
        name + ("[insert]" if flags else "")
        for name, flags in BUILD_PATHS
    ],
)
def test_backend_agrees_with_brute_force(backend, flags, workload_name):
    index, active, truth = _build(backend, flags, workload_name)
    rdt = RDT(index)

    batched = rdt.query_all(k=K, t=T_EXACT)
    assert set(batched) == {int(i) for i in active}
    for point_id, result in batched.items():
        assert set(result.ids.tolist()) == truth[point_id], (
            f"batched {backend}{'[insert]' if flags else ''} disagrees with "
            f"brute force on workload {workload_name!r}, query {point_id}"
        )

    # Looped single-query path on a stride of the same workload.
    for point_id in active[::LOOP_STRIDE]:
        result = rdt.query(query_index=int(point_id), k=K, t=T_EXACT)
        assert set(result.ids.tolist()) == truth[int(point_id)], (
            f"looped {backend} disagrees with brute force on workload "
            f"{workload_name!r}, query {int(point_id)}"
        )


#: Scale for the batch-vs-loop comparison: small enough that the omega
#: bound ends searches early and the lazy witness rules decide most
#: candidates, so every decision counter is exercised.
T_DECISIONS = 4.0


def _decisions(result):
    stats = result.stats
    return (
        result.ids.tolist(),
        stats.num_retrieved,
        stats.num_candidates,
        stats.terminated_by,
        stats.num_lazy_accepts,
        stats.num_lazy_rejects,
        stats.num_verified,
        stats.num_verified_hits,
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("backend", ["kd-tree", "linear-scan", "ball-tree"])
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_batched_decisions_match_looped_queries(workload_name, backend, dtype):
    """The closed-form batched filter and the shared refinement make the
    looped path's decisions exactly: ids, retrieval and candidate counts,
    termination reason, lazy accepts/rejects and verifications — for
    member queries and for raw queries sitting exactly on members.  At
    float32 the batched witness tensor repairs every entry near its
    decision boundary back to exact arithmetic; this is what pins it."""
    data, remove_ids, active, _ = _workload(workload_name)
    index = build_index(backend, data, metric=EuclideanMetric(dtype=dtype))
    for point_id in remove_ids:
        index.remove(int(point_id))
    rdt = RDT(index)

    batched = rdt.query_batch(query_indices=active, k=K, t=T_DECISIONS)
    for point_id, result in zip(active, batched):
        looped = rdt.query(query_index=int(point_id), k=K, t=T_DECISIONS)
        assert _decisions(result) == _decisions(looped), (
            f"member query {int(point_id)} on {backend}/{dtype.__name__}, "
            f"workload {workload_name!r}"
        )

    raw = index.points[active[::LOOP_STRIDE]]
    for row, result in enumerate(rdt.query_batch(raw, k=K, t=T_DECISIONS)):
        looped = rdt.query(raw[row], k=K, t=T_DECISIONS)
        assert _decisions(result) == _decisions(looped), (
            f"raw query {row} on {backend}/{dtype.__name__}, "
            f"workload {workload_name!r}"
        )


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_rdt_plus_never_loses_members(workload_name):
    """RDT+ may lose precision (Section 4.3), never recall, in the
    exhaustive regime: the excluded candidates are provable non-members."""
    index, active, truth = _build("linear-scan", {}, workload_name)
    rdt_plus = RDT(index, variant="rdt+")
    for point_id, result in rdt_plus.query_all(k=K, t=T_EXACT).items():
        assert truth[point_id] <= set(result.ids.tolist())


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_sampled_strategy_has_exact_recall(workload_name):
    """The tentpole's recall oracle: the sampled estimator's upper-bound
    shortlist makes full recall deterministic on every workload shape."""
    index, active, truth = _build("linear-scan", {}, workload_name)
    engine = ApproxRkNN(index, "sampled", sample_size=48, seed=7)
    results = engine.query_all(k=K)
    for point_id, result in results.items():
        assert recall_metric(truth[point_id], result.ids) == 1.0


# ----------------------------------------------------------------------
# Registry-wide engine conformance, driven through the Service facade
# ----------------------------------------------------------------------

#: What each guarantee flag lets the oracle assert against the exact
#: reference set (every comparison in the exhaustive-t regime).
_GUARANTEE_CHECKS = {
    "exact": "equal",
    "scale-exact": "equal",      # t = T_EXACT dominates any expansion dim
    "scale-recall": "superset",  # RDT+ may lose precision, never recall
    "recall": "superset",
    "precision": "subset",
    "heuristic": "contract-only",
}

#: Every monochromatic registry engine is swept; the bichromatic engine
#: has no member self-join and gets its own contract test below.
ENGINE_ROSTER = sorted(name for name in ENGINE_REGISTRY if name != "bichromatic")

#: Workloads for the engine sweep: the plain shape, the tie-heavy shape,
#: and the churn shape (which additionally exercises the Service's id
#: translation for snapshot engines).
ENGINE_WORKLOADS = ("gaussian", "exact-duplicates", "post-removal-churn")


def _service_for(engine_name, workload_name):
    data, remove_ids, active, truth = _workload(workload_name)
    service = Service(
        data,
        backend="kd",
        engine=engine_name,
        defaults=QuerySpec(k=K, t=T_EXACT),
    )
    for point_id in remove_ids:
        service.remove(int(point_id))
    return service, active, truth


def _assert_result_contract(result, query_id, k):
    """The protocol's result contract, engine-independent."""
    assert isinstance(result, RkNNResult)
    ids = result.ids
    assert ids.dtype == np.intp
    assert np.all(np.diff(ids) > 0), "ids must be strictly ascending"
    assert query_id not in ids.tolist(), "a member is never its own answer"
    assert result.k == k
    assert result.stats.terminated_by != "unknown"


@pytest.mark.parametrize("workload_name", ENGINE_WORKLOADS)
@pytest.mark.parametrize("engine_name", ENGINE_ROSTER)
def test_engine_registry_conforms_to_oracle(engine_name, workload_name):
    """Every registry engine, built and queried through the Service
    facade, must honor both the protocol's result contract and whatever
    set relation its ``guarantee`` flag claims against brute force."""
    service, active, truth = _service_for(engine_name, workload_name)
    engine = service.engine()
    assert isinstance(engine, RkNNEngine)
    assert engine.engine_name == engine_name
    check = _GUARANTEE_CHECKS[engine.guarantee]

    results = service.query_all()
    assert set(results) == {int(i) for i in active}
    for point_id, result in results.items():
        _assert_result_contract(result, point_id, K)
        got = set(result.ids.tolist())
        assert got <= {int(i) for i in active}, "answers must be live ids"
        label = (
            f"{engine_name} ({check}) vs brute force, workload "
            f"{workload_name!r}, query {point_id}"
        )
        if check == "equal":
            assert got == truth[point_id], label
        elif check == "superset":
            assert truth[point_id] <= got, label
        elif check == "subset":
            assert got <= truth[point_id], label


def test_bichromatic_contract_through_service():
    """The bichromatic engine answers raw service locations only, through
    Service.query_bichromatic, and matches its brute-force reference."""
    from repro.core import bichromatic_brute_force

    rng = np.random.default_rng(11)
    services = rng.normal(size=(80, 3))
    clients = rng.normal(size=(60, 3))
    queries = rng.normal(size=(5, 3))
    service = Service(
        services, backend="kd", defaults=QuerySpec(k=3, t=T_EXACT)
    )
    results = service.query_bichromatic(queries, clients)
    assert len(results) == queries.shape[0]
    for row, result in enumerate(results):
        assert isinstance(result, RkNNResult)
        expected = bichromatic_brute_force(clients, services, queries[row], k=3)
        assert np.array_equal(result.ids, expected)
    single = service.query_bichromatic(queries[0], clients)
    assert np.array_equal(single.ids, results[0].ids)


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_graph_strategy_has_exact_precision(workload_name):
    """The graph strategy verifies every shortlisted candidate —
    precision is exactly 1 on every workload shape.  For k <= graph_m the
    reverse adjacency is additionally a *complete* shortlist up to
    k-th-distance ties, so on the tie-free workloads recall is 1 too."""
    index, active, truth = _build("linear-scan", {}, workload_name)
    engine = ApproxRkNN(index, "graph", graph_m=8, ef=32, seed=7)
    results = engine.query_all(k=K)
    for point_id, result in results.items():
        assert precision_metric(truth[point_id], result.ids) == 1.0
    if workload_name in ("gaussian", "offset-1e6", "near-degenerate"):
        for point_id, result in results.items():
            assert recall_metric(truth[point_id], result.ids) == 1.0


# ----------------------------------------------------------------------
# Multi-core execution conformance (repro.parallel)
# ----------------------------------------------------------------------
# Cross-process answers go through worker-side index rebuilds over
# shared-memory arrays; these sweeps pin that no adversarial shape and
# no worker configuration can change a single id.

from repro.parallel import ParallelExecutor  # noqa: E402

#: The adversarial subset of the workloads the parallel sweeps run
#: (the full matrix × pool setups would dominate the tier's runtime;
#: these four cover ties, duplicates, churn and kernel cancellation).
PARALLEL_WORKLOADS = (
    "tie-rich", "exact-duplicates", "post-removal-churn", "offset-1e6"
)


def _parallel_service(workload_name, engine_name):
    data, remove_ids, active, truth = _workload(workload_name)
    service = Service(
        data, backend="kd", engine=engine_name,
        defaults=QuerySpec(k=K, t=T_EXACT),
    )
    for point_id in remove_ids:
        service.remove(int(point_id))
    return service, active, truth


@pytest.mark.parametrize("workers", (1, 2, 4))
@pytest.mark.parametrize("workload_name", PARALLEL_WORKLOADS)
def test_parallel_executor_bit_matches_service(workload_name, workers):
    """Query-parallel fan-out: worker answers are the *same engine's*
    answers — fan-out must be invisible, bit for bit."""
    service, active, truth = _parallel_service(workload_name, "rdt+")
    expected = service.query_all()
    with ParallelExecutor(service, workers=workers) as executor:
        _, results = executor.query_all_versioned()
    assert set(results) == set(expected)
    for point_id, want in expected.items():
        assert np.array_equal(want.ids, results[point_id].ids), (
            f"workload {workload_name!r}, workers={workers}, "
            f"query {point_id}"
        )


@pytest.mark.parametrize("workload_name", PARALLEL_WORKLOADS)
def test_parallel_executor_matches_brute_force(workload_name):
    """Exactness survives the fan-out: the exact-guarantee engine's pooled
    self-join is the brute-force membership on every adversarial shape,
    removed members included."""
    service, active, truth = _parallel_service(workload_name, "rdt")
    with ParallelExecutor(service, workers=2) as executor:
        results = executor.query_all()
    assert set(results) == {int(i) for i in active}
    for point_id, result in results.items():
        assert set(result.ids.tolist()) == truth[point_id], (
            f"workload {workload_name!r}, query {point_id}"
        )
