"""Zero-copy dataset publication over ``multiprocessing.shared_memory``.

The parallel execution layer (:mod:`repro.parallel.executor`) fans
query work out to worker *processes*.
Shipping the point matrix to every worker through pickling would copy
~100 MB per dispatch at the scales the scaling benchmark runs; instead
the parent publishes each epoch's arrays **once** into named shared
memory segments and sends workers only a tiny picklable
:class:`PackMeta` (segment names, shapes, dtypes).  Workers attach the
segments and wrap them in numpy views — zero copies, page-cache-shared
across every worker on the host.

Lifecycle contract (DESIGN.md "Parallel execution"):

* the **owner** (the process that called :func:`publish_arrays`) is the
  only one that ever ``unlink``\\ s; :meth:`SharedArrayPack.close`
  closes the mappings and removes the ``/dev/shm`` names.
* **attachments** (:func:`attach_arrays` in workers) close their local
  mapping only.  On POSIX an unlinked-but-mapped segment stays valid, so
  the owner may retire an epoch while a worker still holds the previous
  mapping.
* Python's ``resource_tracker`` (before 3.13) registers *attached*
  segments as if the attaching process owned them and would unlink them
  at worker exit, yanking memory out from under the parent; attachments
  therefore suppress the registration while constructing the mapping
  (cpython#82300).  Suppression — rather than unregistering *after* —
  matters under ``fork``: workers share the parent's tracker process,
  so a worker-side unregister would erase the owner's registration and
  the owner's eventual ``unlink`` would crash the tracker's bookkeeping
  with a noisy ``KeyError`` at exit.

Views handed out by :func:`attach_arrays` are **read-only**: an epoch's
published arrays are immutable by the MVCC contract, and a stray
in-place write in a worker must fail loudly instead of corrupting every
sibling's data.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "ArrayMeta",
    "PackMeta",
    "SharedArrayPack",
    "SharedAttachment",
    "attach_arrays",
    "publish_arrays",
    "shared_memory_available",
]


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without registering it as ours.

    Attach-side tracker registration is the cpython#82300 bug: the
    tracker would unlink the segment when *this* process exits even
    though the publishing process still owns it.  Python 3.13 grew a
    ``track=False`` parameter; on earlier versions the registration is
    suppressed by patching it out for the duration of the constructor
    (worker task execution is single-threaded, so the patch window
    races nothing).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class ArrayMeta:
    """Shape/dtype/segment coordinates of one published array."""

    segment: str
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class PackMeta:
    """The picklable description of one published array pack.

    ``fingerprint`` names the publication uniquely (workers key their
    attachment/engine caches on it); ``arrays`` maps logical array names
    to their segment coordinates.
    """

    fingerprint: str
    arrays: dict  # name -> ArrayMeta

    def names(self) -> tuple:
        return tuple(sorted(self.arrays))


class SharedArrayPack:
    """Owner-side handle for a set of published arrays (one segment each)."""

    def __init__(self, meta: PackMeta, segments: list) -> None:
        self.meta = meta
        self._segments = segments
        self._closed = False

    @property
    def segment_names(self) -> tuple:
        return tuple(shm.name for shm in self._segments)

    def close(self) -> None:
        """Close the owner mappings and unlink every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shm in self._segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._segments = []

    def __del__(self):  # pragma: no cover - gc-order dependent
        self.close()


class SharedAttachment:
    """Worker-side handle: attached segments plus their read-only views."""

    def __init__(self, meta: PackMeta) -> None:
        self.meta = meta
        self._segments = []
        self.arrays: dict[str, np.ndarray] = {}
        try:
            for name in meta.names():
                spec = meta.arrays[name]
                shm = _attach_segment(spec.segment)
                self._segments.append(shm)
                view = np.ndarray(
                    spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
                )
                view.flags.writeable = False
                self.arrays[name] = view
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Drop the views and close the local mappings (never unlinks)."""
        # Views must die before the mappings: closing a SharedMemory with
        # live ndarray exports raises BufferError on CPython.
        self.arrays = {}
        segments, self._segments = self._segments, []
        for shm in segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass

    def __del__(self):  # pragma: no cover - gc-order dependent
        self.close()


def publish_arrays(arrays: dict, *, tag: str = "pack") -> SharedArrayPack:
    """Publish named numpy arrays into fresh shared-memory segments.

    Each array is copied once into its own segment (C-contiguous); the
    returned pack owns the segments until :meth:`SharedArrayPack.close`.
    Zero-size arrays are carried in the metadata only (``SharedMemory``
    refuses empty segments).
    """
    token = secrets.token_hex(8)
    fingerprint = f"repro-{tag}-{token}"
    metas: dict[str, ArrayMeta] = {}
    segments: list = []
    try:
        for index, name in enumerate(sorted(arrays)):
            arr = np.ascontiguousarray(arrays[name])
            if arr.nbytes == 0:
                metas[name] = ArrayMeta("", arr.shape, arr.dtype.str)
                continue
            shm = shared_memory.SharedMemory(
                create=True, size=arr.nbytes, name=f"{fingerprint}-{index}"
            )
            segments.append(shm)
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[...] = arr
            metas[name] = ArrayMeta(shm.name, arr.shape, arr.dtype.str)
    except BaseException:
        for shm in segments:
            try:
                shm.close()
                shm.unlink()
            except Exception:
                pass
        raise
    return SharedArrayPack(PackMeta(fingerprint, metas), segments)


def attach_arrays(meta: PackMeta) -> SharedAttachment:
    """Attach a published pack; empty arrays are materialized locally."""
    attachment = SharedAttachment(
        PackMeta(meta.fingerprint, {
            name: spec for name, spec in meta.arrays.items() if spec.segment
        })
    )
    for name, spec in meta.arrays.items():
        if not spec.segment:
            empty = np.empty(spec.shape, dtype=np.dtype(spec.dtype))
            empty.flags.writeable = False
            attachment.arrays[name] = empty
    return attachment


def shared_memory_available() -> bool:
    """Whether shared-memory segments can actually be created here.

    Probes with a tiny segment: containers occasionally run without a
    usable ``/dev/shm`` mount, and the scaling benchmark skips (with a
    logged reason) rather than erroring in that environment.
    """
    try:
        shm = shared_memory.SharedMemory(create=True, size=16)
    except Exception:
        return False
    try:
        shm.close()
        shm.unlink()
    except Exception:  # pragma: no cover - probe cleanup best effort
        pass
    return True
