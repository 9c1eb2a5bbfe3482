"""End-to-end coverage for the runnable examples.

All examples are compiled; the quickstart runs at its published size (it
is the one a new user will copy-paste first), and every example exposing
CLI size knobs additionally runs end-to-end at a tiny scale, asserting
the output artifacts its docstring promises.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

pytestmark = pytest.mark.slow

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def _run_example(name, *args, timeout=300):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_examples_directory_populated():
    names = {path.stem for path in ALL_EXAMPLES}
    assert {
        "quickstart",
        "service_quickstart",
        "outlier_detection",
        "hubness_analysis",
        "streaming_updates",
        "bichromatic_services",
        "scale_parameter_study",
        "approximate_search",
        "concurrent_serving",
    } <= names


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.stem)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


def test_quickstart_runs():
    stdout = _run_example("quickstart.py")
    assert "RDT+" in stdout
    assert "recall=1.00" in stdout


def test_service_quickstart_runs_tiny():
    stdout = _run_example(
        "service_quickstart.py", "--n", "400", "--dim", "4", "--k", "5",
    )
    # The documented walkthrough: facade repr, the three query modes, the
    # engine swap's recall guarantee, churn, and the save/load invariant.
    assert "Service(engine='rdt+', backend='kd-tree'" in stdout
    assert "query(42):" in stdout
    assert "query_batch(64 queries" in stdout
    assert "query_all: self-join over 400 points" in stdout
    assert "misses none by construction: True" in stdout
    assert "inserted id 400" in stdout
    assert "round-trip identical over" in stdout and ": True" in stdout


def test_streaming_updates_runs_tiny():
    stdout = _run_example(
        "streaming_updates.py",
        "--window", "80", "--batch", "8", "--rounds", "2", "--k", "4",
    )
    # The documented per-round report and the closing invariant line.
    assert "sliding window of 80 points" in stdout
    assert stdout.count("round ") == 2
    assert "neighborhood changed by arrivals" in stdout
    assert "no precomputed" in stdout


def test_scale_parameter_study_runs_tiny():
    stdout = _run_example("scale_parameter_study.py", "--n", "300", "--k", "5")
    # The documented landscape table: manual sweep, all three estimators,
    # and the Theorem 1 bound, with the table header intact.
    assert "configuration" in stdout and "recall" in stdout
    for row in ("manual t=1.0", "estimator mle", "estimator gp",
                "estimator takens", "MaxGED (Theorem 1 bound)"):
        assert row in stdout, f"missing row {row!r}"


def test_concurrent_serving_runs_tiny():
    stdout = _run_example(
        "concurrent_serving.py", "--n", "400", "--dim", "4", "--k", "5",
        "--readers", "3", "--queries", "15", "--writes", "10",
    )
    # The documented walkthrough: epoch churn, coalescer/cache counters,
    # and the closing exactness verification over recorded epochs.
    assert "serving 400 points" in stdout
    assert "final epoch 10" in stdout
    assert "batched dispatches" in stdout and "cache:" in stdout
    assert "exact for their epoch: True" in stdout


def test_approximate_search_runs_tiny():
    stdout = _run_example(
        "approximate_search.py", "--n", "600", "--dim", "6", "--k", "5",
        "--queries", "120",
    )
    assert "Approximate RkNN sweep" in stdout
    assert "[sampled, k=5]" in stdout and "[graph, k=5]" in stdout
    assert "speedup" in stdout
    assert "sampled strategy at recall" in stdout
