"""Engine staleness via the version protocol (layer 2 of the design).

Every engine records the index version it was built against
(``built_at_version``) and answers ``is_stale()`` by comparing against
the live version — replacing the ad-hoc "did the active set change?"
array comparisons that predated the protocol.
"""

import numpy as np
import pytest

import repro
from repro.core.bichromatic import BichromaticRDT


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(5).normal(size=(150, 4))


def test_rdt_binds_build_version_and_goes_stale(points):
    index = repro.create_index("kd", points)
    engine = repro.RDT(index, variant="rdt+")
    assert engine.built_at_version == 0
    assert not engine.is_stale()
    index.insert(points[0] + 0.1)
    assert engine.is_stale()
    fresh = repro.RDT(index)
    assert fresh.built_at_version == 1
    assert not fresh.is_stale()
    assert fresh.is_stale(repro.create_index("kd", points))  # wrong build


@pytest.mark.parametrize("name", ["rdt", "rdt+", "adaptive", "approx-sampled",
                                  "approx-graph", "sft"])
def test_index_engines_from_registry_track_their_index(name, points):
    index = repro.create_index("kd", points)
    engine = repro.create_engine(name, index)
    assert engine.built_at_version == index.version
    assert not engine.is_stale()
    index.remove(7)
    assert engine.is_stale()


def test_data_snapshot_engines_are_stamped_by_create_engine(points):
    index = repro.create_index("kd", points)
    index.insert(points[1] + 0.2)
    engine = repro.create_engine("naive", index, k=5)
    assert engine.built_at_version == 1
    assert not engine.is_stale(index)
    index.remove(0)
    assert engine.is_stale(index)


def test_engines_built_from_raw_data_never_report_stale(points):
    engine = repro.create_engine("naive", points, k=5)
    assert engine.built_at_version is None
    assert not engine.is_stale()
    # Without a bound version there is nothing to compare against.
    assert not engine.is_stale(repro.create_index("kd", points))


def test_bichromatic_tracks_both_colors(points):
    clients = repro.create_index("kd", points[:100])
    services = repro.create_index("kd", points[100:])
    engine = BichromaticRDT(clients, services)
    assert not engine.is_stale()
    services.insert(points[0] + 0.3)
    assert engine.is_stale()
    rebuilt = BichromaticRDT(clients, services)
    assert not rebuilt.is_stale()
    clients.remove(2)
    assert rebuilt.is_stale()


def test_approx_strategy_rebuilds_on_version_change_only(points):
    index = repro.create_index("kd", points)
    engine = repro.create_engine("approx-sampled", index, sample_size=32, seed=0)
    first = engine.query(query_index=3, k=5)
    strategy = engine.strategy
    built = strategy._built_version
    engine.query(query_index=4, k=5)
    assert strategy._built_version == built  # no spurious rebuild
    index.insert(points[2] + 0.05)
    engine.query(query_index=3, k=5)
    assert strategy._built_version == index.version
    assert isinstance(first, repro.RkNNResult)
