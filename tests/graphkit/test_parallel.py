"""Unit tests for the parallel utilities and the lease executor contract."""

import numpy as np
import pytest

from repro.graphkit import parallel
from repro.graphkit.parallel import (
    SharedCancelFlag,
    SharedDataset,
    chunk_ranges,
    effective_workers,
)
from repro.graphkit.service import ComputeService


class TestChunkRanges:
    def test_even_split(self):
        assert chunk_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split_balanced(self):
        spans = chunk_ranges(10, 3)
        sizes = [b - a for a, b in spans]
        assert sizes == [4, 3, 3]
        assert spans[0][0] == 0 and spans[-1][1] == 10

    def test_more_chunks_than_items(self):
        spans = chunk_ranges(2, 8)
        assert len(spans) == 2
        assert spans == [(0, 1), (1, 2)]

    def test_zero_total(self):
        assert chunk_ranges(0, 4) == [(0, 0)]

    def test_contiguous_cover(self):
        spans = chunk_ranges(17, 5)
        flat = []
        for a, b in spans:
            flat.extend(range(a, b))
        assert flat == list(range(17))

    def test_invalid(self):
        with pytest.raises(ValueError):
            chunk_ranges(-1, 2)
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)


def _sum_shard(payload, arrays):
    lo, hi = payload
    return float(arrays["x"][lo:hi].sum())


def _echo_flag(payload, arrays):
    return payload()


def _spanned(payload, arrays):
    lo, hi = payload
    return arrays["x"][lo:hi] * 2.0


class TestServiceLease:
    """The executor contract, on leases of a serial and a pooled service."""

    def test_serial_fallback_runs_inline(self):
        with ComputeService(workers=0) as svc, svc.lease() as ex:
            assert ex.serial and ex.workers == 0
            ds = ex.share(x=np.arange(10.0))
            assert ex.run(_sum_shard, [(0, 5), (5, 10)], ds) == [10.0, 35.0]
            assert not svc.pool_started

    def test_serial_share_is_zero_copy(self):
        with ComputeService(workers=0) as svc, svc.lease() as ex:
            x = np.arange(4.0)
            ds = ex.share(x=x)
            assert ds.arrays["x"] is x  # the caller's array, untouched
            assert ds.specs == {}  # nothing placed in shared memory

    def test_pool_matches_serial(self):
        x = np.arange(100.0)
        payloads = [(0, 30), (30, 60), (60, 100)]
        with ComputeService(workers=0) as svc0, svc0.lease() as ex0:
            serial = ex0.run(_sum_shard, payloads, ex0.share(x=x))
        with ComputeService(workers=2) as svc2, svc2.lease() as ex2:
            pooled = ex2.run(_sum_shard, payloads, ex2.share(x=x))
            assert svc2.pool_started
        assert serial == pooled

    def test_merge_order_is_payload_order(self):
        x = np.arange(20.0)
        payloads = [(10, 20), (0, 10)]  # deliberately out of index order
        with ComputeService(workers=2) as svc, svc.lease() as ex:
            parts = ex.run(_spanned, payloads, ex.share(x=x))
        assert np.array_equal(parts[0], x[10:20] * 2)
        assert np.array_equal(parts[1], x[:10] * 2)

    def test_submit_future(self):
        with ComputeService(workers=2) as svc, svc.lease() as ex:
            fut = ex.submit(_sum_shard, (0, 3), ex.share(x=np.arange(4.0)))
            assert fut.result(timeout=30) == 3.0

    def test_submit_serial_resolved(self):
        with ComputeService(workers=0) as svc, svc.lease() as ex:
            fut = ex.submit(_sum_shard, (0, 3), ex.share(x=np.arange(4.0)))
            assert fut.done() and fut.result() == 3.0

    def test_closed_executor_rejects_work(self):
        with ComputeService(workers=0) as svc:
            ex = svc.lease()
            ex.close()
            with pytest.raises(RuntimeError):
                ex.run(_sum_shard, [(0, 1)])
            with pytest.raises(RuntimeError):
                ex.share(x=np.arange(2.0))

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ComputeService(workers=-1)
        with ComputeService(workers=0) as svc:
            with pytest.raises(ValueError, match="workers"):
                svc.lease(-2)

    def test_effective_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert effective_workers() == 5
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert effective_workers() == 0
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            effective_workers()
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            effective_workers()
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            ComputeService()


class TestAttachCache:
    def test_trampoline_attaches_by_name_with_lru_eviction(self, monkeypatch):
        """The worker-side path, run in this process: specs resolve to
        read-only views of the placed segments, and the cache keeps at
        most the cap, evicting the least recently used segment."""
        monkeypatch.setattr(parallel, "_ATTACHED", {})
        monkeypatch.setattr(parallel, "_ATTACH_CACHE_CAP", 2)
        datasets = [SharedDataset({"x": np.full(4, float(i))}) for i in range(3)]
        try:
            names = [ds.specs["x"][0] for ds in datasets]
            for i, ds in enumerate(datasets[:2]):
                task = (_sum_shard, (0, 4), ds.specs)
                assert parallel._run_shard(task) == 4.0 * i
            parallel._run_shard((_sum_shard, (0, 4), datasets[0].specs))
            assert list(parallel._ATTACHED) == [names[1], names[0]]  # touched
            assert parallel._run_shard((_sum_shard, (0, 4), datasets[2].specs)) == 8.0
            assert list(parallel._ATTACHED) == [names[0], names[2]]  # 1 evicted
            assert not parallel._ATTACHED[names[2]].flags.writeable
        finally:
            parallel._ATTACHED.clear()
            for ds in datasets:
                ds.close()


class TestSharedCancelFlag:
    def test_flag_round_trip_in_process(self):
        flag = SharedCancelFlag()
        try:
            assert not flag.is_set() and not flag()
            flag.set()
            assert flag() is True
            flag.clear()
            assert not flag.is_set()
        finally:
            flag.close()

    def test_flag_visible_across_processes(self):
        with ComputeService(workers=1) as svc, svc.lease() as ex:
            flag = ex.cancel_flag()
            assert ex.run(_echo_flag, [flag]) == [False]
            flag.set()
            assert ex.run(_echo_flag, [flag]) == [True]
