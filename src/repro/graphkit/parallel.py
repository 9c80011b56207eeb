"""The shared-memory data plane under the compute service's pool.

The scan and pipeline workloads are Python-loop-bound, so concurrent
cloud sessions need to escape the GIL entirely. The one process pool is
owned by :class:`~repro.graphkit.service.ComputeService`; this module
holds what travels to it. Frozen input arrays (condensed distance
matrices, trajectory coordinates) are placed in
:mod:`multiprocessing.shared_memory` **once** as a
:class:`SharedDataset`, workers attach zero-copy by segment name through
the :func:`_run_shard` trampoline, and shard payloads/results travel
through the (small) pickle channel. A serial (``workers=0``) service
skips placement and runs the *same* shard functions on the *same*
arrays, which is what makes sharded results bit-identical to serial
ones. :class:`SharedCancelFlag` is the cross-process analog of the async
pipeline's generation counter: one shared byte the parent raises and
in-flight workers poll. :func:`chunk_ranges` is the deterministic block
decomposition the scan shards use.

The in-process shortest-path sweeps (closeness, betweenness, APSP) run
serially over cache-sized source blocks (see
:data:`~repro.graphkit.kernels.CACHE_BLOCK_ENTRIES`); they have no thread
layer.
"""

from __future__ import annotations

import os
import weakref
from multiprocessing import shared_memory
from typing import Any

import numpy as np

__all__ = [
    "chunk_ranges",
    "effective_workers",
    "SharedDataset",
    "SharedCancelFlag",
]


def chunk_ranges(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``chunks`` contiguous [start, stop) spans.

    Uses the balanced block decomposition (first ``total % chunks`` spans get
    one extra element) — identical maths to the classic MPI block
    distribution, so chunk boundaries are deterministic for any input.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    chunks = min(chunks, max(total, 1))
    base, extra = divmod(total, chunks)
    spans = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


# ----------------------------------------------------------------------
# process-pool execution subsystem
# ----------------------------------------------------------------------
def effective_workers() -> int:
    """Default process-pool width: ``REPRO_WORKERS`` env var, else cores.

    A value that is not a non-negative integer raises :class:`ValueError`
    naming the variable instead of silently falling back to the core
    count or to a serial service.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        if workers < 0:
            raise ValueError(f"REPRO_WORKERS must be >= 0, got {workers}")
        return workers
    return max(1, os.cpu_count() or 1)


# Per-worker-process cache of attached shared-memory segments, keyed by
# segment name. Attaching is a namespace lookup + mmap; caching it makes
# repeated shards over the same frozen dataset genuinely zero-copy.
# Bounded LRU: a long-lived worker sees a fresh segment per scan, so the
# cache would otherwise grow one mapping (plus one fd) per dataset for
# the life of the pool. Entries past the cap are evicted
# least-recently-used. Eviction only drops the *cache's* reference: each
# mapping's lifetime is tied to its numpy view by a finalizer (closing
# an attached ``SharedMemory`` unmaps the pages immediately — numpy does
# not keep the buffer exported, so an eager close under an in-flight
# shard would be a use-after-unmap). The mapping and its fd are released
# the moment the last view reference dies — whether that is the cache
# entry or a shard mid-job.
_ATTACH_CACHE_CAP = 32
_ATTACHED: dict[str, np.ndarray] = {}


def _attached_view(name: str, shape: tuple, dtype: str) -> np.ndarray:
    cached = _ATTACHED.get(name)
    if cached is not None:
        # LRU touch: pop + reinsert moves the entry to the young end.
        _ATTACHED[name] = _ATTACHED.pop(name)
        return cached
    shm = shared_memory.SharedMemory(name=name)
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    view.flags.writeable = False
    weakref.finalize(view, _close_attached, shm)
    while len(_ATTACHED) >= _ATTACH_CACHE_CAP:
        _ATTACHED.pop(next(iter(_ATTACHED)))
    _ATTACHED[name] = view
    return view


class SharedDataset:
    """Named read-only numpy arrays placed in shared memory once.

    Created by :meth:`ServiceExecutor.share
    <repro.graphkit.service.ServiceExecutor.share>`. The parent keeps the
    original arrays (a serial lease reads them directly — same memory,
    same results); worker processes resolve the pickled ``(name, shape,
    dtype)`` specs to zero-copy views of the same physical pages.
    """

    __slots__ = ("_arrays", "_segments", "_specs", "_closed", "__weakref__")

    def __init__(self, arrays: dict[str, np.ndarray], *, place: bool = True):
        self._arrays = {k: np.ascontiguousarray(v) for k, v in arrays.items()}
        self._segments: list[shared_memory.SharedMemory] = []
        self._specs: dict[str, tuple[str, tuple, str]] = {}
        self._closed = False
        if place:
            for key, arr in self._arrays.items():
                seg = shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes)
                )
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                view[...] = arr
                view.flags.writeable = False
                self._segments.append(seg)
                self._specs[key] = (seg.name, arr.shape, arr.dtype.str)
                # Workers read the placed copy; the parent does too, so
                # inline and pooled shards see identical bytes.
                self._arrays[key] = view
        weakref.finalize(self, _release_segments, self._segments)

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """The in-process (parent-side) arrays, keyed by name."""
        return self._arrays

    @property
    def specs(self) -> dict[str, tuple[str, tuple, str]]:
        """Picklable ``{key: (segment_name, shape, dtype)}`` resolution map."""
        return self._specs

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (owner may prune the dataset)."""
        return self._closed

    def close(self) -> None:
        """Unlink the shared segments (idempotent)."""
        self._closed = True
        self._arrays = {}
        _release_segments(self._segments)
        self._segments = []


def _release_segments(segments: list[shared_memory.SharedMemory]) -> None:
    for seg in segments:
        try:
            seg.close()
            seg.unlink()
        except (FileNotFoundError, OSError):  # already gone
            pass


def _close_attached(shm: shared_memory.SharedMemory) -> None:
    """Close (never unlink) a mapping attached in a receiving process."""
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - exiting anyway
        pass


class SharedCancelFlag:
    """One shared byte: the cross-process cancellation token.

    The owner (parent) raises/clears it; pickled copies attach to the
    same segment, so an out-of-process solver can poll it at iteration
    granularity exactly like an in-process ``cancel_check`` callable —
    the flag object itself is callable for drop-in use.
    """

    def __init__(self):
        self._shm = shared_memory.SharedMemory(create=True, size=1)
        self._shm.buf[0] = 0
        self._owner = True
        self._closed = False
        weakref.finalize(self, _release_segments, [self._shm])

    # pickling attaches (never re-creates) in the receiving process
    def __getstate__(self) -> str:
        return self._shm.name

    def __setstate__(self, name: str) -> None:
        self._shm = shared_memory.SharedMemory(name=name)
        self._owner = False
        self._closed = False
        # Every unpickle maps the segment anew: without a finalizer a
        # long-lived worker would accumulate one mapping per received job
        # for the life of the pool. Close-only — unlinking is the owner's.
        weakref.finalize(self, _close_attached, self._shm)

    def set(self) -> None:
        """Raise the flag (cancel in-flight shards)."""
        self._shm.buf[0] = 1

    def clear(self) -> None:
        """Lower the flag before dispatching new work."""
        self._shm.buf[0] = 0

    def is_set(self) -> bool:
        """Whether cancellation was requested."""
        return self._shm.buf[0] != 0

    __call__ = is_set

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (owner may prune the flag)."""
        return self._closed

    def close(self) -> None:
        """Release the segment (owner unlinks it)."""
        self._closed = True
        if self._owner:
            _release_segments([self._shm])
        else:
            try:
                self._shm.close()
            except OSError:  # pragma: no cover - already closed
                pass


def _run_shard(task: tuple) -> Any:
    """Worker-side trampoline: attach the dataset, run the shard function.

    ``fn`` must be a module-level callable (pickled by reference);
    it receives ``(payload, arrays)`` where ``arrays`` maps dataset keys
    to zero-copy views of the shared segments.
    """
    fn, payload, specs = task
    arrays = {
        key: _attached_view(name, tuple(shape), dtype)
        for key, (name, shape, dtype) in specs.items()
    }
    return fn(payload, arrays)
