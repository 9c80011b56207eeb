"""Process-pool execution subsystem over a shared-memory data plane.

The scan and pipeline workloads are Python-loop-bound, so concurrent
cloud sessions need to escape the GIL entirely. :class:`ShardedExecutor`
owns a process pool plus a shared-memory data plane: frozen input arrays
(CSR arc arrays, condensed distance matrices, trajectory coordinates)
are placed in :mod:`multiprocessing.shared_memory` **once** via
:meth:`share <ShardedExecutor.share>`, workers attach zero-copy by
segment name, and shard payloads/results travel through the (small)
pickle channel. ``workers=0`` is the serial in-process fallback
executing the *same* shard functions on the *same* arrays, which is what
makes sharded results bit-identical to serial ones.
:class:`SharedCancelFlag` is the cross-process analog of the async
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
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import get_context, shared_memory
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "chunk_ranges",
    "effective_workers",
    "SharedDataset",
    "SharedCancelFlag",
    "ShardedExecutor",
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

    A value that is not an integer raises :class:`ValueError` naming the
    variable instead of silently falling back to the core count.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
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


def _attach_cache_cap() -> int:
    env = os.environ.get("REPRO_ATTACH_CACHE")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, _ATTACH_CACHE_CAP)


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
    cap = _attach_cache_cap()
    while len(_ATTACHED) >= cap:
        _ATTACHED.pop(next(iter(_ATTACHED)))
    _ATTACHED[name] = view
    return view


class SharedDataset:
    """Named read-only numpy arrays placed in shared memory once.

    Created by :meth:`ShardedExecutor.share`. The parent keeps the
    original arrays (serial fallback reads them directly — same memory,
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
                # Workers read the placed copy; the parent does too, so the
                # serial fallback and the pool see identical bytes.
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


def _close_resources(resources: list) -> None:
    """Close every tracked dataset/flag; one failure never strands the rest."""
    pending, resources[:] = list(resources), []
    for res in pending:
        try:
            res.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


def _reap_executor_state(state: dict) -> None:
    """Finalizer for an executor dropped without close(): free everything."""
    pool, state["pool"] = state["pool"], None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)
    _close_resources(state["resources"])


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


class ShardedExecutor:
    """Deterministic shard→merge execution over a shared-memory pool.

    Parameters
    ----------
    workers:
        Pool width. ``0`` (default) never spawns processes: shards run
        serially in-process over the exact same arrays, so results are
        bit-identical to any ``workers > 0`` run — the correctness anchor
        every sharded workload is tested against. ``None`` resolves via
        :func:`effective_workers` (``REPRO_WORKERS`` env var, else cores).
    start_method:
        Forced multiprocessing start method; default prefers ``fork``
        (cheap, inherits the attach cache) and falls back to ``spawn``.

    The **shard→merge contract**: ``run(fn, payloads, dataset)`` executes
    ``fn(payload, arrays)`` for every payload and returns the results in
    payload order, regardless of which worker finished first — merging is
    a deterministic, order-preserving concatenation done by the caller.
    Shard functions must be pure functions of ``(payload, arrays)``; they
    must not rely on cross-shard mutable state.
    """

    def __init__(self, workers: int | None = 0, *, start_method: str | None = None):
        self._workers = effective_workers() if workers is None else int(workers)
        if self._workers < 0:
            raise ValueError(f"workers must be >= 0, got {self._workers}")
        self._start_method = start_method
        # Pool + tracked resources live in one mutable state dict shared
        # with a weakref finalizer: an executor that is dropped without
        # close() (or dies with the process) still shuts its pool down and
        # unlinks every segment it shared — the no-leak backstop for
        # sessions that never reach their close().
        self._state: dict = {"pool": None, "resources": []}
        self._closed = False
        self._finalizer = weakref.finalize(self, _reap_executor_state, self._state)

    @property
    def _pool(self) -> ProcessPoolExecutor | None:
        return self._state["pool"]

    @property
    def _datasets(self) -> list:
        return self._state["resources"]

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Configured pool width (0 = serial in-process fallback)."""
        return self._workers

    @property
    def serial(self) -> bool:
        """True when shards run in-process (no pool)."""
        return self._workers == 0

    @property
    def started(self) -> bool:
        """Whether a live worker pool currently exists."""
        return self._state["pool"] is not None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # fork is the cheap default on POSIX (microsecond task setup,
            # inherited attach cache); spawn is the portable fallback and
            # the safe choice for heavily-threaded hosts (forking while
            # other threads hold locks can deadlock the child) — force it
            # via start_method= or REPRO_START_METHOD=spawn. Call
            # :meth:`start` early, from the main thread, to pin the fork
            # point before threads exist.
            method = (
                self._start_method
                or os.environ.get("REPRO_START_METHOD")
                or ("fork" if os.name == "posix" else "spawn")
            )
            self._state["pool"] = ProcessPoolExecutor(
                max_workers=self._workers, mp_context=get_context(method)
            )
        return self._state["pool"]

    def start(self) -> "ShardedExecutor":
        """Create the worker pool now instead of on first use.

        Pools default to the cheap ``fork`` start method, and forking is
        only guaranteed safe while the process is single-threaded — call
        this from the main thread during setup (the process-engine
        pipeline does, in its constructor) so the fork point never lands
        inside a threaded steady state. No-op for serial executors.
        """
        if not self.serial and not self._closed:
            self._ensure_pool()
        return self

    # ------------------------------------------------------------------
    def share(self, **arrays: np.ndarray) -> SharedDataset:
        """Place arrays in shared memory once (workers attach zero-copy).

        Serial executors skip placement entirely — the dataset simply
        wraps the caller's arrays, keeping ``workers=0`` allocation-free.
        The executor owns the dataset's lifetime: :meth:`close` unlinks
        every segment shared through it.
        """
        ds = SharedDataset(arrays, place=not self.serial)
        self._track(ds)
        return ds

    def cancel_flag(self) -> SharedCancelFlag:
        """A cancellation token workers can poll (owner: this executor)."""
        flag = SharedCancelFlag()
        self._track(flag)  # type: ignore[arg-type] # close()/closed duck-type
        return flag

    def _track(self, resource) -> None:
        # Prune resources the caller already closed so a warm executor
        # reused across thousands of scans keeps a bounded ledger. The
        # list object itself is stable (the finalizer holds it).
        resources = self._state["resources"]
        resources[:] = [d for d in resources if not d.closed]
        resources.append(resource)

    def run(
        self,
        fn: Callable[[Any, dict[str, np.ndarray]], Any],
        payloads: Sequence[Any],
        dataset: SharedDataset | None = None,
    ) -> list:
        """Run ``fn(payload, arrays)`` per payload; results in payload order.

        ``fn`` must be defined at module level (workers import it by
        reference). With ``workers=0`` the calls happen inline, in order,
        on the parent-side arrays.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if self.serial:
            arrays = dataset.arrays if dataset is not None else {}
            return [fn(payload, arrays) for payload in payloads]
        specs = dataset.specs if dataset is not None else {}
        pool = self._ensure_pool()
        tasks = [(fn, payload, specs) for payload in payloads]
        return list(pool.map(_run_shard, tasks))

    def submit(
        self,
        fn: Callable[[Any, dict[str, np.ndarray]], Any],
        payload: Any,
        dataset: SharedDataset | None = None,
    ) -> Future:
        """Dispatch one shard asynchronously; returns its ``Future``.

        The pipeline's process engine uses this to keep the parent thread
        free to poll its generation counter while the solve runs
        out-of-process. Serial executors run the shard inline and return
        an already-resolved future.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if self.serial:
            future: Future = Future()
            try:
                arrays = dataset.arrays if dataset is not None else {}
                future.set_result(fn(payload, arrays))
            except BaseException as exc:  # pragma: no cover - error funnel
                future.set_exception(exc)
            return future
        specs = dataset.specs if dataset is not None else {}
        return self._ensure_pool().submit(_run_shard, (fn, payload, specs))

    # ------------------------------------------------------------------
    def restart(self) -> None:
        """Replace a (possibly broken) pool with a fresh one.

        Called by crash-recovery paths (:class:`~repro.graphkit.service.
        ComputeService`) after a worker died: the broken pool is discarded
        without waiting and the next dispatch forks a new one. Shared
        datasets are untouched — segments outlive workers, and fresh
        workers re-attach by name.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        pool, self._state["pool"] = self._state["pool"], None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment.

        Idempotent and tolerant of partial failure: a dataset whose
        segment is already gone (worker died before detach, an earlier
        close interrupted mid-way) never strands the remaining resources
        or the pool shutdown.
        """
        self._closed = True
        pool, self._state["pool"] = self._state["pool"], None
        try:
            if pool is not None:
                pool.shutdown(wait=True)
        finally:
            _close_resources(self._state["resources"])

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardedExecutor(workers={self._workers})"
