"""Approximate RkNN: trading measured recall for another speed multiplier.

The batched exact engine already answers whole workloads vectorized; this
walkthrough shows the next gear — the approximate subsystem
(`repro.approx`) — and how to *measure* what it trades away.  Both
strategies answer through the same API as `RDT`:

* ``sampled``: never loses a true reverse neighbor (its sampled kNN
  table is a provable upper bound); the knob is the sample size.
* ``graph``: never reports a false one (every candidate is verified) —
  an HRNN-style navigable kNN graph whose reverse adjacency is the
  shortlist; the knob is the beam width ``ef``.  Built for high
  dimensions, where it wins big.

The sweep below scores each knob setting against brute-force ground
truth and reports recall / precision / speedup over the exact engine —
the workflow behind `BENCH_approx.json`.

Run:  python examples/approximate_search.py [--n 4000] [--dim 8] [--k 10]
"""

import argparse

from repro import RDT, ApproxRkNN, LinearScanIndex
from repro.datasets import gaussian_mixture
from repro.evaluation import (
    GroundTruth,
    render_approx_tradeoffs,
    run_approx_tradeoff,
    sample_query_indices,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4000, help="dataset size")
    parser.add_argument("--dim", type=int, default=8, help="dimensions")
    parser.add_argument("--k", type=int, default=10, help="neighborhood size")
    parser.add_argument(
        "--queries", type=int, default=0,
        help="query sample size (0 = all points)",
    )
    args = parser.parse_args()

    data = gaussian_mixture(
        args.n, dim=args.dim, n_clusters=6, separation=5.0, seed=42
    )
    index = LinearScanIndex(data)
    truth = GroundTruth(data)
    queries = (
        index.active_ids()
        if args.queries <= 0
        else sample_query_indices(args.n, args.queries, seed=7)
    )
    rdt = RDT(index)

    def sampled_for(sample_size):
        engine = ApproxRkNN(index, "sampled", sample_size=int(sample_size), seed=1)
        return lambda qis: engine.query_batch(query_indices=qis, k=args.k)

    def graph_for(ef):
        engine = ApproxRkNN(index, "graph", ef=int(ef), graph_m=16, seed=1)
        return lambda qis: engine.query_batch(query_indices=qis, k=args.k)

    sampled = run_approx_tradeoff(
        "sampled",
        sampled_for,
        (max(64, args.n // 16), max(128, args.n // 8)),
        queries,
        truth,
        args.k,
        exact_batch_fn=lambda qis: rdt.query_batch(
            query_indices=qis, k=args.k, t=4.0
        ),
    )
    graph = run_approx_tradeoff(
        "graph",
        graph_for,
        (32, 64),
        queries,
        truth,
        args.k,
        exact_seconds=sampled.exact_seconds,
    )

    print(
        render_approx_tradeoffs(
            f"Approximate RkNN sweep (n={args.n}, d={args.dim}, "
            f"k={args.k}, {len(queries)} queries)",
            [sampled, graph],
        )
    )
    best = sampled.best_gated(0.95)
    print(
        "\nsampled strategy at recall "
        f"{best.recall:.2f}: {best.speedup:.1f}x the exact batched engine"
    )
    print(
        "note the asymmetry: 'sampled' keeps recall=1 by construction and\n"
        "spends its error budget on unverified accepts; 'graph' keeps\n"
        "precision=1 and spends it on candidates it never saw."
    )


if __name__ == "__main__":
    main()
