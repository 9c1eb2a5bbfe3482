"""Multi-core execution: query-parallel fan-out over shared memory.

:class:`ParallelExecutor` keeps one full engine replica per worker
process over the zero-copy shared point matrix and fans query blocks
across the pool (DESIGN.md "Parallel execution").  Bit-identical to the
in-process Service per pinned epoch.
"""

from repro.parallel.executor import ParallelExecutor, resolve_start_method
from repro.parallel.shared import (
    SharedArrayPack,
    SharedAttachment,
    attach_arrays,
    publish_arrays,
    shared_memory_available,
)

__all__ = [
    "ParallelExecutor",
    "SharedArrayPack",
    "SharedAttachment",
    "attach_arrays",
    "publish_arrays",
    "resolve_start_method",
    "shared_memory_available",
]
