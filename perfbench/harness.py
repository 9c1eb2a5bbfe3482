"""The four workloads and the timed session every run drives.

A run builds one ``repro.Service`` from seeded inputs (``setup_s``), then
spends ``seconds`` in a batch phase and, on serve-churn, a churn phase:

* **batch** -- a fixed set of member blocks
  (``query_batch_versioned(query_indices=...)``, or ``query_all_versioned``
  on graph-d64) and a fixed set of blocks of fresh points
  (``query_batch_versioned(points)``), each block sent again and again;
  then the join workloads' and graph-d64's inserts;
* **churn** (serve-churn) -- one reader thread sends fresh points
  open-loop through ``query_versioned`` while one writer thread alternates
  ``insert`` and ``remove`` at fixed rates.

``join_qps`` and ``raw_qps`` are the kind's queries divided by the sum,
over its blocks, of each block's fastest call; ``insert_ms`` is the
fastest insert.  On a shared host, load from elsewhere only ever adds
time, so the fastest of several calls doing the same work is the
program's own cost as far as the run can see it, and it moves less than
a median with how much of the run the machine was busy (README.md, "Why
the fastest call").  Member ids and fresh points sit at fixed quantiles
of their distance from their centre (README.md, "Seeds and inputs").
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

#: Neighbourhood size and RDT scale of every workload (README: why t = 4).
K = 10
T = 4.0
#: Clusters of the graph-d64 mixture and the spread of their centres.
CLUSTERS = 8
CENTRE_SCALE = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    dim: int
    backend: str
    engine: str
    #: "gauss" (i.i.d. N(0, I)) or "mixture" (CLUSTERS unit Gaussians)
    data: str
    #: member ids per block; 0 answers the whole set with query_all
    member_block: int
    #: blocks in the run's fixed member set
    member_blocks: int
    raw_block: int
    raw_blocks: int
    #: shares of the run's seconds for the member and raw calls
    member_share: float
    raw_share: float
    #: inserts after the last query (joins, graph-d64)
    inserts: int = 0
    #: open-loop churn phase (serve-churn): reads/s and writes/s
    read_rate: float = 0.0
    write_rate: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("join-rdtplus", 100_000, 8, "kd", "rdt+", "gauss",
                 member_block=8, member_blocks=2, raw_block=8, raw_blocks=2,
                 member_share=0.5, raw_share=0.35, inserts=8),
        Workload("join-rdt", 100_000, 8, "kd", "rdt", "gauss",
                 member_block=64, member_blocks=2, raw_block=64, raw_blocks=2,
                 member_share=0.5, raw_share=0.35, inserts=8),
        Workload("serve-churn", 20_000, 8, "kd", "rdt+", "gauss",
                 member_block=4, member_blocks=2, raw_block=4, raw_blocks=2,
                 member_share=0.2, raw_share=0.2, read_rate=4.0, write_rate=2.0),
        Workload("graph-d64", 20_000, 64, "linear", "approx-graph", "mixture",
                 member_block=0, member_blocks=1, raw_block=100, raw_blocks=1,
                 member_share=0.3, raw_share=0.65, inserts=40),
    )
}


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
class Inputs:
    """Everything a run feeds the program, derived from the seed alone."""

    def __init__(self, wl: Workload, seed: int) -> None:
        from scipy.special import gammaincinv

        self.wl, self.seed = wl, seed
        self._gammaincinv = gammaincinv
        rng = np.random.default_rng([seed, 0])
        if wl.data == "gauss":
            self.centres = np.zeros((1, wl.dim))
            labels = np.zeros(wl.n, dtype=np.intp)
        else:
            self.centres = rng.normal(scale=CENTRE_SCALE, size=(CLUSTERS, wl.dim))
            labels = rng.integers(CLUSTERS, size=wl.n)
        self.data = self.centres[labels] + rng.standard_normal((wl.n, wl.dim))
        #: the cluster each point was drawn from (the d = 64 reference uses it)
        self.labels = labels
        self.warm_id = int(rng.integers(wl.n))
        # Member strata: ids ordered by distance from their own centre.
        self._by_radius = np.argsort(
            np.linalg.norm(self.data - self.centres[labels], axis=1), kind="stable"
        )

    def member_blocks(self) -> list:
        """The fixed member blocks; ``[None]`` stands for ``query_all``.

        The ids, ordered by radius, are cut into ``member_block *
        member_blocks`` equal strata, and each block takes the middle id
        of every ``member_blocks``-th stratum: every block spans the whole
        range of radii, from the dense centre to the sparse rim.
        """
        wl = self.wl
        if wl.member_block == 0:
            return [None] * wl.member_blocks
        strata = np.array_split(self._by_radius, wl.member_block * wl.member_blocks)
        middle = np.asarray([s[s.shape[0] // 2] for s in strata])
        rng = np.random.default_rng([self.seed, 1])
        return [rng.permutation(middle[b::wl.member_blocks])
                for b in range(wl.member_blocks)]

    def raw_blocks(self) -> list:
        """The fixed blocks of fresh points, interleaved by radius quantile."""
        wl = self.wl
        total = wl.raw_block * wl.raw_blocks
        rng = np.random.default_rng([self.seed, 2])
        return [
            self._at_quantiles(rng, (np.arange(b, total, wl.raw_blocks) + 0.5) / total)
            for b in range(wl.raw_blocks)
        ]

    def fresh_points(self, tag: int, count: int) -> np.ndarray:
        """``count`` fresh points at the radius quantiles ``(i + 0.5) / count``."""
        rng = np.random.default_rng([self.seed, tag])
        return self._at_quantiles(rng, (rng.permutation(count) + 0.5) / count)

    def _at_quantiles(self, rng, u: np.ndarray) -> np.ndarray:
        """One point per radius quantile ``u`` of the χ_d distribution.

        The direction is uniform; for the mixture, each centre gets an
        equal share.  Fixed quantiles rather than random radii keep the
        seed from deciding how many costly central queries a block holds:
        a raw rdt+ query at the 0.1 % quantile costs five times one at the
        median.
        """
        count = u.shape[0]
        radius = np.sqrt(2.0 * self._gammaincinv(self.wl.dim / 2.0, u))
        direction = rng.standard_normal((count, self.wl.dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        labels = rng.permutation(np.arange(count) % self.centres.shape[0])
        return self.centres[labels] + radius[:, None] * direction


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
@dataclass
class Session:
    """What one run did, for the checks and the metrics."""

    answers: list = field(default_factory=list)
    #: queries per second of each kind: queries / sum of fastest block calls
    qps: dict = field(default_factory=dict)
    #: the same, from each block's median call (stderr only)
    median_qps: dict = field(default_factory=dict)
    #: calls per block of each kind
    calls: dict = field(default_factory=dict)
    #: wall times of every call, per kind and block (stderr only)
    call_s: dict = field(default_factory=dict)
    #: repeated calls whose ids differ from the block's first answers
    repeat_mismatches: int = 0
    attempted: int = 0
    failed: int = 0
    insert_ms: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    reads: int = 0
    writes: int = 0
    #: (epoch after the write, "insert" | "remove", id) in write order
    write_log: list = field(default_factory=list)
    inserted_points: list = field(default_factory=list)


def _note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _record(answers, points, owns, results, epoch, first_round):
    from perfbench.checks import Answer

    for point, own, result in zip(points, owns, results):
        answers.append(Answer(point, int(own), result, epoch, first_round))


#: Pause before each insert, so the inserts sample a stretch of time
#: rather than one instant of the machine's load.
_INSERT_GAP = 0.025


@dataclass
class _Kind:
    """One kind of batch call and the fixed blocks it sends in turn."""

    name: str
    blocks: list
    budget: float
    sizes: list
    times: list = None
    #: ids of each block's first answers, which repeats must equal
    first: list = None
    spent: float = 0.0
    sent: int = 0

    def __post_init__(self) -> None:
        self.times = [[] for _ in self.blocks]
        self.first = [None] * len(self.blocks)

    def rate(self, stat) -> float:
        """Queries / sum over the blocks of ``stat`` of their call times."""
        timed = [(size, stat(t)) for size, t in zip(self.sizes, self.times) if t]
        total = sum(s for s, _ in timed)
        return total / sum(t for _, t in timed) if timed else 0.0


def batch_phase(svc, inputs: Inputs, session: Session, seconds: float) -> None:
    """Send the fixed member and raw blocks in turn, then insert.

    The kind furthest behind its share of ``seconds`` sends next, its
    blocks in a fixed cycle, so both kinds sample the whole window.  Every
    block is sent once whatever the time; after that a call starts only if
    the kind's mean call time still fits its share.  The inserts come
    after the last query, so every answer of this phase is at epoch 0,
    and a write cannot make the graph strategy rebuild (seconds) inside
    the timed window.
    """
    wl = inputs.wl
    members = inputs.member_blocks()
    raws = inputs.raw_blocks()
    kinds = [
        _Kind("member", members, wl.member_share * seconds,
              [wl.n if b is None else len(b) for b in members]),
        _Kind("raw", raws, wl.raw_share * seconds, [len(b) for b in raws]),
    ]
    pending = list(kinds)
    while pending:
        kind = min(pending, key=lambda k: k.spent / k.budget)
        if kind.sent >= len(kind.blocks) and (
            kind.spent + kind.spent / kind.sent > kind.budget
        ):
            pending.remove(kind)
            continue
        kind.spent += _send(svc, inputs, session, kind, kind.sent % len(kind.blocks))
        kind.sent += 1
    for kind in kinds:
        session.qps[kind.name] = kind.rate(min)
        session.median_qps[kind.name] = kind.rate(np.median)
        session.calls[kind.name] = kind.sent / len(kind.blocks)
        session.call_s[kind.name] = kind.times
    for point in inputs.fresh_points(3, wl.inserts):
        time.sleep(_INSERT_GAP)
        _insert(svc, session, point)


def _send(svc, inputs, session, kind: _Kind, b: int) -> float:
    """One call of block ``b`` of ``kind``; returns its wall time."""
    clock = time.perf_counter
    block = kind.blocks[b]
    count = kind.sizes[b]
    session.attempted += count
    t0 = clock()
    try:
        if block is None:
            epoch, results = svc.query_all_versioned()
        elif kind.name == "member":
            epoch, results = svc.query_batch_versioned(query_indices=block)
        else:
            epoch, results = svc.query_batch_versioned(block)
    except Exception as exc:  # noqa: BLE001 - counted as failed
        session.failed += count
        _note(f"{kind.name} call failed: {exc!r}")
        return clock() - t0
    elapsed = clock() - t0
    kind.times[b].append(elapsed)
    if block is None:
        owns = np.fromiter(results, dtype=np.intp, count=len(results))
        results = [results[i] for i in owns]
        points = inputs.data[owns]
    elif kind.name == "member":
        owns, points = block, inputs.data[block]
    else:
        owns, points = np.full(len(block), -1), block
    ids = [np.asarray(r.ids) for r in results]
    if kind.first[b] is None:
        kind.first[b] = (owns, ids)
        _record(session.answers, points, owns, results, epoch, True)
    else:
        first_owns, first_ids = kind.first[b]
        if not np.array_equal(owns, first_owns):
            session.repeat_mismatches += len(owns)
        else:
            session.repeat_mismatches += sum(
                not np.array_equal(a, f) for a, f in zip(ids, first_ids)
            )
    return elapsed


def _insert(svc, session, point) -> None:
    session.attempted += 1
    t0 = time.perf_counter()
    try:
        new_id = svc.insert(point)
    except Exception as exc:  # noqa: BLE001 - counted as failed
        session.failed += 1
        _note(f"insert failed: {exc!r}")
        return
    session.insert_ms.append(1000.0 * (time.perf_counter() - t0))
    session.write_log.append((svc.epoch, "insert", int(new_id)))
    session.inserted_points.append(point)


def churn_phase(svc, inputs: Inputs, session: Session, duration: float) -> None:
    """Open-loop reads beside a writer, both on fixed schedules."""
    wl = inputs.wl
    n_reads = int(wl.read_rate * duration)
    n_writes = int(wl.write_rate * duration)
    reads = inputs.fresh_points(4, n_reads)
    inserts = inputs.fresh_points(5, (n_writes + 1) // 2)
    rng = np.random.default_rng([inputs.seed, 6])
    clock = time.perf_counter
    start = clock() + 0.05
    lock = threading.Lock()

    def reader():
        for i in range(n_reads):
            due = start + i / wl.read_rate
            time.sleep(max(0.0, due - clock()))
            sent = clock()
            try:
                epoch, result = svc.query_versioned(reads[i])
            except Exception as exc:  # noqa: BLE001 - counted as failed
                with lock:
                    session.failed += 1
                _note(f"read failed: {exc!r}")
                continue
            done = clock()
            session.read_ms.append(1000.0 * (done - due))
            session.late_ms.append(1000.0 * (sent - due))
            _record(session.answers, reads[i:i + 1], [-1], [result], epoch, False)

    def writer():
        live = list(range(wl.n))
        for j in range(n_writes):
            # Midway between two reads: an insert that collided with a
            # read's start would time the interpreter lock's hand-offs.
            due = start + j / wl.write_rate + 0.5 / wl.read_rate
            time.sleep(max(0.0, due - clock()))
            try:
                if j % 2 == 0:
                    t0 = clock()
                    new_id = svc.insert(inserts[j // 2])
                    elapsed = clock() - t0
                    session.insert_ms.append(1000.0 * elapsed)
                    session.inserted_points.append(inserts[j // 2])
                    live.append(int(new_id))
                    session.write_log.append((svc.epoch, "insert", int(new_id)))
                else:
                    victim = live.pop(int(rng.integers(len(live))))
                    svc.remove(victim)
                    session.write_log.append((svc.epoch, "remove", victim))
                session.writes += 1
            except Exception as exc:  # noqa: BLE001 - counted as failed
                with lock:
                    session.failed += 1
                _note(f"write failed: {exc!r}")

    threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    session.attempted += n_reads + n_writes
    session.reads = len(session.read_ms)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; ``nan`` for an empty list."""
    return float(np.percentile(values, q)) if len(values) else float("nan")


def run(wl: Workload, seed: int, seconds: float, trace: bool, t_start: float) -> dict:
    """One run; returns the result object the command prints.

    ``t_start`` is the process's first clock reading: ``setup_s`` counts
    from it, less the time spent generating the inputs.
    """
    import repro
    from repro.indexes import INDEX_REGISTRY, resolve_index_name

    t_gen = time.perf_counter()
    inputs = Inputs(wl, seed)
    gen_s = time.perf_counter() - t_gen

    tracer = profile = profile_cm = None
    if trace:
        from perfbench.tracing import Tracer
        from repro.utils.profiling import profile_kernels

        tracer = Tracer()
        tracer.install(INDEX_REGISTRY[resolve_index_name(wl.backend)])
        profile_cm = profile_kernels()
        profile = profile_cm.__enter__()
    try:
        svc = repro.Service(
            inputs.data, backend=wl.backend, engine=wl.engine,
            defaults=repro.QuerySpec(k=K, t=T),
        )
        svc.query(query_index=inputs.warm_id)
        setup_s = time.perf_counter() - t_start - gen_s

        session = Session()
        calls_before = svc.metric.num_calls
        batch_phase(svc, inputs, session, seconds)
        if wl.read_rate:
            churn_phase(svc, inputs, session,
                        (1.0 - wl.member_share - wl.raw_share) * seconds)
        distance_calls = svc.metric.num_calls - calls_before
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if trace:
            profile_cm.__exit__(None, None, None)
            tracer.uninstall()

    from perfbench.verify import verify

    t_check = time.perf_counter()
    report = verify(inputs, svc, session)
    check_s = time.perf_counter() - t_check
    metrics = {
        "setup_s": (setup_s, "s"),
        "join_qps": (session.qps["member"], "queries/s"),
        "raw_qps": (session.qps["raw"], "queries/s"),
        "insert_ms": (min(session.insert_ms, default=0.0), "ms"),
        "recall": (report.recall, "ratio"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    _note(
        f"{wl.name} seed={seed} trace={int(trace)}: join_qps "
        f"{session.qps['member']:.4g} (median calls {session.median_qps['member']:.4g}, "
        f"{session.calls['member']:.3g} calls per block), raw_qps "
        f"{session.qps['raw']:.4g} (median calls {session.median_qps['raw']:.4g}, "
        f"{session.calls['raw']:.3g} calls per block), insert_ms "
        f"{metrics['insert_ms'][0]:.4g} (median "
        f"{percentile(session.insert_ms, 50):.4g} over {len(session.insert_ms)}), "
        f"recall {report.found_pairs}/{report.true_pairs}, reads {session.reads} (p50 "
        f"{percentile(session.read_ms, 50):.1f} ms, p90 "
        f"{percentile(session.read_ms, 90):.1f} ms), writes {session.writes}, "
        f"checks {check_s:.1f} s"
    )
    _note("call times: " + json.dumps({
        **{k: [[round(t, 5) for t in ts] for ts in v] for k, v in session.call_s.items()},
        "insert": [round(t, 4) for t in session.insert_ms],
    }))
    for message in report.messages:
        _note(f"CHECK FAILED: {message}")
    if trace:
        from perfbench.layers import layer_metrics

        metrics = layer_metrics(wl, session, tracer, profile, distance_calls,
                                svc, report)
        from perfbench import out_dir

        tracer.save(out_dir() / f"trace-{wl.name}-s{seed}.npz")
    return {
        "correct": report.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def scaled(name: str, **overrides) -> Workload:
    """A workload with some sizes overridden (the tests' small runs)."""
    return replace(WORKLOADS[name], **overrides)
