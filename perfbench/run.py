"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload join-rdt --seed 1 --seconds 20 --trace 0

Builds the library from ``src/`` of the checkout this file sits in (the
package is pure Python, so building is putting ``src`` on the path), runs
the workload for ``--seconds``, checks every answer against a brute-force
reference and prints one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics, or with
``--trace 1`` the per-layer ones.  Exits 2 when the library is missing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, set before NumPy loads OpenBLAS: its idle worker threads
# spin after every call and take the second core from the interpreter
# thread, serve-churn's reader and writer, and the rest of the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[0:1] = [str(SRC), str(ROOT)]

from perfbench import out_dir  # noqa: E402
from perfbench.harness import WORKLOADS, run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in pathlib.Path(repro.__file__).resolve().parents:
        print(f"imported repro from {repro.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), T_START)
    line = json.dumps(result)
    (out_dir() / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        line + "\n"
    )
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
