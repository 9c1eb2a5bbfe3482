"""A small-size run of every workload, and BENCHMARK.json's consistency."""

from __future__ import annotations

import json
import time

import pytest

from perfbench import ROOT
from perfbench.harness import WORKLOADS, run, scaled
from perfbench.layers import PER_LAYER

SMALL = {
    "join-rdtplus": dict(n=2_000, member_blocks=2, raw_blocks=2, inserts=2),
    "join-rdt": dict(n=2_000, member_blocks=2, raw_blocks=2, inserts=2),
    "serve-churn": dict(n=1_500, member_blocks=2, raw_blocks=2, read_rate=20.0,
                        write_rate=10.0),
    "graph-d64": dict(n=1_500, raw_block=10, raw_blocks=2, inserts=4),
}


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_is_correct(name, trace, spec):
    result = run(scaled(name, **SMALL[name]), 0, 1.0, trace, time.perf_counter())
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_harness(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert spec["paths"] == ["perfbench"]
