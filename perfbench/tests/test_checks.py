"""The checker must fail on each planted fault and pass clean answers.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from perfbench import reference
from perfbench.checks import Answer, Report, check_answers, check_exact, count_recall
from perfbench.layers import kernel_mismatches
from perfbench.tracing import Tracer
from repro.utils.profiling import profile_kernels
from repro.utils.tolerance import DIST_ATOL, DIST_RTOL

K = 5
TOL = {"rtol": DIST_RTOL, "atol": DIST_ATOL}


@pytest.fixture(scope="module")
def setting():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((400, 4))
    knn_ids, knn_dists = reference.dense_knn(points, K + 1)
    tied = knn_dists[:, K] <= knn_dists[:, K - 1] * (1 + DIST_RTOL) + DIST_ATOL
    svc = repro.Service(points, backend="kd", engine="rdt",
                        defaults=repro.QuerySpec(k=K, t=50.0))
    members = np.arange(0, 400, 7)
    answers = [Answer(points[q], int(q), r, 0, True)
               for q, r in zip(members, svc.query_batch(query_indices=members))]
    return points, (reference.reverse_lists(knn_ids[:, :K]), tied), knn_dists[:, K - 1], answers


def _check(points, answers, kth, **kwargs):
    report = Report()
    check_answers(report, points, answers, lambda e, ids: kth[ids],
                  lazy_may_be_false=False, **TOL, **kwargs)
    return report


def _reach(kth):
    return kth * (1 + DIST_RTOL) + DIST_ATOL


def _recall(points, answers):
    report = Report()
    truths = reference.reverse_neighbours(
        points, [a.point for a in answers], [a.own for a in answers], K, _reach)
    count_recall(report, answers, truths)
    return report


def _with_ids(answer, ids, **stats):
    result = answer.result
    new_stats = type(result.stats)(**{**vars(result.stats), **stats})
    new = repro.RkNNResult(ids=np.asarray(ids, dtype=np.intp), k=result.k,
                           t=result.t, lazy_accepted_ids=result.lazy_accepted_ids,
                           stats=new_stats)
    return Answer(answer.point, answer.own, new, answer.epoch, answer.first_round)


def test_reference_matches_naive(setting):
    points, knn_ids, kth, _ = setting
    d = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    naive = np.sort(d, axis=1)[:, K - 1]
    np.testing.assert_allclose(kth, naive, rtol=1e-12)
    np.testing.assert_allclose(reference.kth_distances(points, np.arange(400), K),
                               naive, rtol=1e-12)
    active = np.ones(400, dtype=bool)
    active[::3] = False
    d_live = d[:, active]
    np.testing.assert_allclose(
        reference.kth_distances(points, np.arange(400), K, active=active),
        np.sort(d_live, axis=1)[:, K - 1], rtol=1e-12)


def test_reverse_neighbours_match_brute_force(setting):
    points, _, kth, _ = setting
    rng = np.random.default_rng(3)
    owns = np.concatenate([np.arange(0, 400, 9), np.full(20, -1)])
    queries = np.concatenate([points[owns[owns >= 0]],
                              rng.standard_normal((20, points.shape[1]))])
    got = reference.reverse_neighbours(points, queries, owns, K, _reach)
    for q, own, ids in zip(queries, owns, got):
        d = np.sqrt(((points - q) ** 2).sum(1))
        want = np.flatnonzero(d <= _reach(kth))
        np.testing.assert_array_equal(ids, want[want != own])


def test_clustered_knn_matches_dense_knn():
    rng = np.random.default_rng(5)
    centres = np.array([[0.0, 0.0], [30.0, 0.0], [1.0, 1.0], [60.0, 60.0]])
    labels = np.concatenate([rng.integers(3, size=300), [3] * 4])
    points = centres[labels] + rng.standard_normal((labels.shape[0], 2))
    for got, want in zip(reference.clustered_knn(points, labels, K + 1),
                         reference.dense_knn(points, K + 1)):
        np.testing.assert_array_equal(got, want)


def test_clean_answers_pass(setting):
    points, knn_ids, kth, answers = setting
    report = _check(points, answers, kth)
    check_exact(report, answers, *knn_ids)
    assert report.correct, report.messages
    recall = _recall(points, answers)
    assert recall.found_pairs == recall.true_pairs == sum(len(a.result.ids) for a in answers)
    assert recall.recall == 1.0


def test_false_id_in_rdt_answer_fails(setting):
    points, _, kth, answers = setting
    victim = next(a for a in answers if len(a.result.ids))
    d = np.sqrt(((points - victim.point) ** 2).sum(1))
    false_id = int(np.flatnonzero((d > 1.5 * kth) & (np.arange(400) != victim.own))[0])
    ids = np.sort(np.append(victim.result.ids, false_id))
    planted = _with_ids(victim, ids,
                        num_verified_hits=victim.result.stats.num_verified_hits + 1,
                        num_verified=victim.result.stats.num_verified + 1,
                        num_candidates=victim.result.stats.num_candidates + 1)
    report = _check(points, [planted], kth)
    assert not report.correct
    assert "no reverse neighbour" in report.messages[0]


def test_false_lazy_accept_allowed_only_for_rdtplus(setting):
    points, _, kth, answers = setting
    victim = next(a for a in answers if len(a.result.ids))
    d = np.sqrt(((points - victim.point) ** 2).sum(1))
    false_id = int(np.flatnonzero((d > 1.5 * kth) & (np.arange(400) != victim.own))[0])
    result = victim.result
    planted = Answer(victim.point, victim.own, repro.RkNNResult(
        ids=np.sort(np.append(result.ids, false_id)), k=K, t=result.t,
        lazy_accepted_ids=np.asarray([false_id]), stats=result.stats), 0, True)
    for rdtplus, expect_ok in ((True, True), (False, False)):
        report = Report()
        check_answers(report, points, [planted], lambda e, ids: kth[ids],
                      lazy_may_be_false=rdtplus, **TOL)
        failures = [m for m in report.messages if "no reverse neighbour" in m]
        assert (not failures) == expect_ok


def test_dropped_true_pair_lowers_recall(setting):
    points, knn_ids, kth, answers = setting
    clean = _recall(points, answers)
    i = next(i for i, a in enumerate(answers) if len(a.result.ids))
    victim = answers[i]
    planted = _with_ids(victim, victim.result.ids[1:],
                        num_verified_hits=victim.result.stats.num_verified_hits - 1,
                        num_verified=victim.result.stats.num_verified)
    if victim.result.stats.num_verified_hits == 0:
        planted = _with_ids(victim, victim.result.ids[1:],
                            num_lazy_accepts=victim.result.stats.num_lazy_accepts - 1,
                            num_lazy_rejects=victim.result.stats.num_lazy_rejects + 1)
    dropped = answers[:i] + [planted] + answers[i + 1:]
    lowered = _recall(points, dropped)
    assert lowered.true_pairs == clean.true_pairs
    assert lowered.found_pairs == clean.found_pairs - 1
    assert lowered.recall < clean.recall == 1.0
    report = _check(points, dropped, kth)
    check_exact(report, dropped, *knn_ids)
    assert not report.correct


def test_id_removed_before_reported_epoch_fails(setting):
    points, _, kth, answers = setting
    victim = next(a for a in answers if len(a.result.ids))
    removed = int(victim.result.ids[0])
    log = [(1, "remove", removed)]

    def active_of(epoch):
        mask = np.ones(points.shape[0], dtype=bool)
        for e, kind, pid in log:
            if e <= epoch:
                mask[pid] = kind == "insert"
        return mask

    at_removal = Answer(victim.point, victim.own, victim.result, 1, True)
    before = Answer(victim.point, victim.own, victim.result, 0, True)
    assert not _check(points, [at_removal], kth, active_of=active_of).correct
    report = _check(points, [before], kth, active_of=active_of)
    assert not any("not live" in m for m in report.messages)


def test_broken_conservation_sum_fails(setting):
    points, _, kth, answers = setting
    victim = answers[0]
    planted = _with_ids(victim, victim.result.ids,
                        num_lazy_rejects=victim.result.stats.num_lazy_rejects + 1)
    report = _check(points, [planted], kth)
    assert not report.correct
    assert "candidates" in report.messages[0]


def test_kernel_call_the_wrappers_miss_fails():
    from repro import kernels

    bypass = kernels.euclidean_pairwise
    x = np.random.default_rng(0).standard_normal((5, 3))
    tracer = Tracer()
    tracer.install(repro.KDTreeIndex)
    try:
        with profile_kernels() as profile:
            kernels.euclidean_pairwise(x, x)
            assert kernel_mismatches(tracer, profile) == []
            bypass(x, x)
    finally:
        tracer.uninstall()
    assert kernels.euclidean_pairwise is bypass
    assert kernel_mismatches(tracer, profile)
