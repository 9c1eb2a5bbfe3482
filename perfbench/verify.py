"""Runs the checks of one session against its reference."""

from __future__ import annotations

import numpy as np

from perfbench import reference
from perfbench.checks import Report, band, check_answers, check_exact, count_recall

#: First-round member and raw answers whose recall a d = 8 run counts.
RECALL_QUERIES = 16


def verify(inputs, svc, session) -> Report:
    """Check every answer of ``session`` and the service's final epoch."""
    from repro.utils.tolerance import DIST_ATOL, DIST_RTOL

    from perfbench.harness import K as k

    wl = inputs.wl
    report = Report()
    points = inputs.data
    if session.inserted_points:
        points = np.vstack([points, np.asarray(session.inserted_points)])
    base = np.zeros(points.shape[0], dtype=bool)
    base[: wl.n] = True

    def active_of(epoch: int) -> np.ndarray:
        mask = base.copy()
        for write_epoch, kind, point_id in session.write_log:
            if write_epoch <= epoch:
                mask[point_id] = kind == "insert"
        return mask

    def reach(kth):
        return kth + band(kth, DIST_RTOL, DIST_ATOL)

    first = [a for a in session.answers if a.first_round]
    if any(a.epoch != 0 for a in first):
        report.fail("a first-round answer is not at epoch 0")
    # Epoch 0, before any write, holds exactly the generated points.
    if wl.data == "mixture":
        knn_ids, knn_dists = reference.clustered_knn(inputs.data, inputs.labels, k + 1)
        kth0 = knn_dists[:, k - 1]
        tied = knn_dists[:, k] <= reach(kth0)
        reverse = reference.reverse_lists(knn_ids[:, :k])

        def kth_of(epoch, ids):
            return kth0[ids]

        counted, truths = first, []
        for a in first:
            if a.own >= 0:
                truths.append(reverse[a.own][~tied[reverse[a.own]]])
            else:
                d = np.sqrt(((inputs.data - a.point) ** 2).sum(axis=1))
                truths.append(np.flatnonzero(d <= reach(kth0)))
    else:
        def kth_of(epoch, ids):
            return reference.kth_distances(points, ids, k, active=active_of(epoch))

        # The filter in reverse_neighbours costs about 0.1 s per query at
        # n = 100 000, so recall counts the first answers of each kind.
        counted = ([a for a in first if a.own >= 0][:RECALL_QUERIES]
                   + [a for a in first if a.own < 0][:RECALL_QUERIES])
        truths = reference.reverse_neighbours(
            inputs.data, [a.point for a in counted], [a.own for a in counted], k, reach
        )

    check_answers(
        report, points, session.answers, kth_of,
        lazy_may_be_false=wl.engine == "rdt+", active_of=active_of,
        rtol=DIST_RTOL, atol=DIST_ATOL,
    )
    count_recall(report, counted, truths)
    if not report.true_pairs:
        report.fail("the counted answers hold no true pair to measure recall on")
    if wl.member_block == 0:
        members = [a for a in first if a.own >= 0]
        check_exact(report, members, reverse, tied)
        if len(members) != wl.n:
            report.fail(f"member self-join answered {len(members)} of {wl.n} ids")
    if session.repeat_mismatches:
        report.fail(f"{session.repeat_mismatches} repeated answers differ from "
                    "their block's first answers")
    writes = len(session.write_log)
    if svc.epoch != writes:
        report.fail(f"service epoch {svc.epoch} != {writes} completed writes")
    return report
