"""Approximate RkNN: tunable-recall strategies behind the exact engines' API.

The exact engines (RDT/RDT+ and the baselines) verify every candidate
exactly, which caps throughput at high query volume.  This package trades
bounded, *measurable* error for speed: :class:`ApproxRkNN` answers the
same queries as :class:`repro.core.RDT` through an interchangeable
:class:`~repro.approx.base.ApproxStrategy`:

``"sampled"`` (:class:`~repro.approx.sampled.SampledKNNEstimator`)
    A subsampled kNN-distance table upper-bounds every member's true
    kNN distance (provably — no recall loss), a calibrated correction
    turns it into an estimate, and candidates decisively inside the
    estimate skip verification.  Recall 1, precision is the knob
    (``margin``).

``"graph"`` (:class:`~repro.approx.graph.GraphRkNNStrategy`)
    An HRNN-style layered forward/reverse kNN graph: member queries
    read their reverse adjacency directly (with the exact d_k cache the
    build produced as a by-product), raw points navigate by greedy
    descent plus beam search.  Precision 1, recall is the knob
    (``ef``/``graph_m``) — the strategy built for the d >= 64 regime
    where tree pruning collapses.  Verifying every shortlisted candidate
    is what makes precision exact, the design Arthur & Oudot
    (arXiv:1011.4955) use for their LSH-filtered reverse kNN.

The evaluation harness measures each against the brute-force oracle with
:func:`repro.evaluation.run_approx_tradeoff`; `benchmarks/test_approx_engine.py`
records the recall/speedup trajectory to ``BENCH_approx.json``.
"""

from repro.approx.base import ApproxStrategy, StrategyDecision
from repro.approx.engine import ApproxRkNN
from repro.approx.graph import GraphRkNNStrategy
from repro.approx.sampled import SampledKNNEstimator

__all__ = [
    "ApproxRkNN",
    "ApproxStrategy",
    "StrategyDecision",
    "GraphRkNNStrategy",
    "SampledKNNEstimator",
    "APPROX_STRATEGIES",
    "build_strategy",
]

APPROX_STRATEGIES = {
    "graph": GraphRkNNStrategy,
    "sampled": SampledKNNEstimator,
}


def build_strategy(name: str, index, **kwargs) -> ApproxStrategy:
    """Construct a registered approximate strategy by name."""
    try:
        cls = APPROX_STRATEGIES[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown approximate strategy {name!r}; "
            f"known: {sorted(APPROX_STRATEGIES)}"
        ) from None
    return cls(index, **kwargs)
