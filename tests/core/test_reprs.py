"""Informative ``__repr__``s: class, n, dim, metric, and key knobs.

Reprs are part of the operator surface — a Service (or any engine) pasted
into a log or a debugger must identify its configuration without digging.
"""

import numpy as np
import pytest

import repro
from repro.indexes import INDEX_REGISTRY, create_index


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(2).normal(size=(60, 4))


#: constructor knobs each backend's repr must surface
BACKEND_KNOBS = {
    "linear-scan": (),
    "kd-tree": ("leaf_size=16",),
    "ball-tree": ("leaf_size=16",),
    "vp-tree": ("leaf_size=16", "n_candidates=5"),
    "cover-tree": ("root_level=",),
    "m-tree": ("capacity=32",),
    "r-star-tree": ("capacity=32",),
}


@pytest.mark.parametrize("name", sorted(INDEX_REGISTRY))
def test_index_backend_reprs(name, points):
    index = create_index(name, points)
    text = repr(index)
    assert type(index).__name__ in text
    assert "n=60" in text and "dim=4" in text and "metric=euclidean" in text
    for knob in BACKEND_KNOBS[name]:
        assert knob in text, f"{name} repr should mention {knob!r}: {text}"


def test_rdnn_tree_repr(points):
    text = repr(create_index("rdnn", points, k=3))
    assert "RdNNTreeIndex" in text and "k=3" in text and "capacity=32" in text


def test_rdt_repr(points):
    index = repro.LinearScanIndex(points)
    plain = repr(repro.RDT(index))
    assert plain.startswith("RDT(variant='rdt'") and "n=60" in plain
    tuned = repr(repro.RDT(index, conservative=False, use_witnesses=False))
    assert "conservative=False" in tuned and "use_witnesses=False" in tuned
    adaptive = repr(repro.AdaptiveRDT(index, t_min=2.0, t_max=16.0))
    assert adaptive.startswith("AdaptiveRDT(") and "t_min=2.0" in adaptive


def test_bichromatic_repr(points):
    engine = repro.create_engine(
        "bichromatic", points[:40], clients=points[40:]
    )
    text = repr(engine)
    assert text.startswith("BichromaticRDT(clients=")
    assert "n=20" in text and "n=40" in text


def test_approx_repr(points):
    engine = repro.ApproxRkNN(repro.LinearScanIndex(points), "graph", ef=8)
    text = repr(engine)
    assert text.startswith("ApproxRkNN(strategy='graph'") and "n=60" in text


def test_baseline_reprs(points):
    assert "k=5" in repr(repro.NaiveRkNN(points, k=5))
    assert "k_max=4" in repr(repro.MRkNNCoP(points, k_max=4))
    assert "k=3" in repr(repro.create_engine("rdnn", points, k=3))
    assert "trim_size=None" in repr(repro.create_engine("tpl", points))
    assert repr(repro.create_engine("sft", points)).startswith("SFT(index=")


def test_service_repr(points):
    svc = repro.Service(points, backend="kd", engine="rdt+",
                        defaults=repro.QuerySpec(k=7, t=4.0))
    text = repr(svc)
    assert text.startswith("Service(engine='rdt+'")
    assert "backend='kd-tree'" in text
    assert "n=60" in text and "dim=4" in text
    assert "QuerySpec(k=7, t=4.0" in text
