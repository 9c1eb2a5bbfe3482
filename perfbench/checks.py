"""Checks every answer of a run against the reference.

An answer is one :class:`repro.RkNNResult` together with the point it
answered, the member id it must exclude (``-1`` for a raw point), and the
epoch it was computed against.  The checks are the ones README.md lists;
each failure is recorded as a message, and the run is correct only when
there are none.  Pairs whose margin lies inside the library's tolerance
band (``repro.utils.tolerance``) never count as disagreements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from perfbench.reference import pair_distances

#: Failure messages kept per run (the count is always exact).
_MAX_MESSAGES = 20

#: Pairs checked per distance block (bounds the gathered coordinates).
_PAIR_BLOCK = 50_000


@dataclass
class Answer:
    """One query's answer as the benchmark received it."""

    point: np.ndarray
    own: int
    result: object
    epoch: int = 0
    #: first answer of a block of the run's fixed query set, at epoch 0
    first_round: bool = False


@dataclass
class Report:
    """Outcome of checking one run's answers."""

    failures: int = 0
    messages: list[str] = field(default_factory=list)
    #: true (query, point) pairs of the counted answers, and those found
    true_pairs: int = 0
    found_pairs: int = 0

    def fail(self, message: str) -> None:
        self.failures += 1
        if len(self.messages) < _MAX_MESSAGES:
            self.messages.append(message)

    @property
    def correct(self) -> bool:
        return self.failures == 0

    @property
    def recall(self) -> float:
        return self.found_pairs / self.true_pairs if self.true_pairs else 0.0


def band(kth: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    """Half-width of the tolerance band around a k-th NN distance."""
    return rtol * np.abs(kth) + atol


def check_shape(report: Report, answer: Answer, where: str) -> None:
    """Ids strictly ascending (sorted, no duplicates), own id absent."""
    ids = np.asarray(answer.result.ids)
    if ids.shape[0] > 1 and not bool(np.all(np.diff(ids) > 0)):
        report.fail(f"{where}: ids not sorted and unique")
    if answer.own >= 0 and bool(np.any(ids == answer.own)):
        report.fail(f"{where}: answer contains its own member query {answer.own}")


def check_conservation(report: Report, answer: Answer, where: str) -> None:
    """The two ``QueryStats`` sums every engine must keep."""
    s = answer.result.stats
    decided = s.num_lazy_accepts + s.num_lazy_rejects + s.num_verified
    if decided != s.num_candidates + s.num_excluded:
        report.fail(
            f"{where}: accepts {s.num_lazy_accepts} + rejects "
            f"{s.num_lazy_rejects} + verified {s.num_verified} != candidates "
            f"{s.num_candidates} + excluded {s.num_excluded}"
        )
    if len(answer.result.ids) != s.num_lazy_accepts + s.num_verified_hits:
        report.fail(
            f"{where}: {len(answer.result.ids)} ids != lazy accepts "
            f"{s.num_lazy_accepts} + verified hits {s.num_verified_hits}"
        )


def check_answers(
    report: Report,
    points: np.ndarray,
    answers: list[Answer],
    kth_of,
    *,
    lazy_may_be_false: bool,
    active_of=None,
    rtol: float,
    atol: float,
) -> None:
    """Shape, conservation, liveness and precision of every answer.

    ``kth_of(epoch, ids)`` returns the reference k-th NN distances of the
    given ids at that epoch.  ``active_of(epoch)`` returns the live mask
    at that epoch (``None``: every row of ``points`` is live).  With
    ``lazy_may_be_false`` (RDT+, Section 4.3) lazily accepted ids are
    exempt from precision; every other returned id must be a true reverse
    neighbour.
    """
    by_epoch: dict[int, list[int]] = {}
    for i, answer in enumerate(answers):
        where = f"answer {i} (own {answer.own}, epoch {answer.epoch})"
        check_shape(report, answer, where)
        check_conservation(report, answer, where)
        by_epoch.setdefault(answer.epoch, []).append(i)
    for epoch, rows in by_epoch.items():
        results = [answers[i].result for i in rows]
        owner = np.repeat(np.asarray(rows, dtype=np.intp), [len(r.ids) for r in results])
        if owner.shape[0] == 0:
            continue
        ids = np.concatenate([np.asarray(r.ids, dtype=np.intp) for r in results])
        lazy = np.concatenate([np.isin(r.ids, r.lazy_accepted_ids) for r in results])
        if active_of is not None:
            live = active_of(epoch)
            dead = (ids >= live.shape[0]) | ~live[np.minimum(ids, live.shape[0] - 1)]
            for j in np.flatnonzero(dead):
                report.fail(
                    f"answer {owner[j]}: id {ids[j]} is not live at epoch {epoch}"
                )
            owner, ids, lazy = owner[~dead], ids[~dead], lazy[~dead]
        unique, inverse = np.unique(ids, return_inverse=True)
        kth = np.asarray(kth_of(epoch, unique))[inverse]
        dist = np.empty(ids.shape[0])
        for s in range(0, ids.shape[0], _PAIR_BLOCK):
            sl = slice(s, s + _PAIR_BLOCK)
            queries = np.stack([answers[o].point for o in owner[sl]])
            dist[sl] = pair_distances(points, queries, ids[sl])
        confirmed = dist <= kth + band(kth, rtol, atol)
        wrong = ~confirmed & ~lazy if lazy_may_be_false else ~confirmed
        for j in np.flatnonzero(wrong):
            report.fail(
                f"answer {owner[j]}: id {ids[j]} is no reverse neighbour "
                f"(d = {dist[j]!r} > d_k = {kth[j]!r})"
            )


def count_recall(report: Report, answers: list[Answer], truths: list[np.ndarray]) -> None:
    """Count the true pairs of ``answers``, and those the answers hold.

    ``truths[i]`` holds the reference's true reverse neighbours of
    ``answers[i]``.
    """
    for answer, truth in zip(answers, truths):
        report.true_pairs += truth.shape[0]
        report.found_pairs += int(np.count_nonzero(np.isin(truth, answer.result.ids)))


def check_exact(
    report: Report,
    answers: list[Answer],
    reverse: list[np.ndarray],
    tied: np.ndarray,
) -> None:
    """Member answers hold every true reverse neighbour.

    ``reverse[q]`` lists the ids whose reference kNN contains member
    ``q``.  Such an id may be missing only when it is ``tied``: its
    (k+1)-th neighbour lies inside the tolerance band of its k-th, so
    which of the tied points the kNN list holds is arbitrary.  (The pair
    of a member and the point whose k-th neighbour it is sits exactly on
    the boundary ``d(q, x) = d_k(x)``; it is no tie and must be found.)
    """
    for answer in answers:
        truth = reverse[answer.own]
        missing = truth[~np.isin(truth, answer.result.ids) & ~tied[truth]]
        for x in missing:
            report.fail(f"member {answer.own}: true reverse neighbour {x} missing")
