"""Unit tests for the parallel utilities."""

import numpy as np
import pytest

from repro.graphkit.parallel import (
    ShardedExecutor,
    SharedCancelFlag,
    chunk_ranges,
    effective_workers,
)


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


class TestShardedExecutor:
    def test_serial_fallback_runs_inline(self):
        with ShardedExecutor(workers=0) as ex:
            assert ex.serial
            ds = ex.share(x=np.arange(10.0))
            assert ex.run(_sum_shard, [(0, 5), (5, 10)], ds) == [10.0, 35.0]

    def test_serial_share_is_zero_copy(self):
        with ShardedExecutor(workers=0) as ex:
            x = np.arange(4.0)
            ds = ex.share(x=x)
            assert ds.arrays["x"] is x  # the caller's array, untouched
            assert ds.specs == {}  # nothing placed in shared memory

    def test_pool_matches_serial(self):
        x = np.arange(100.0)
        payloads = [(0, 30), (30, 60), (60, 100)]
        with ShardedExecutor(workers=0) as ex0:
            serial = ex0.run(_sum_shard, payloads, ex0.share(x=x))
        with ShardedExecutor(workers=2) as ex2:
            pooled = ex2.run(_sum_shard, payloads, ex2.share(x=x))
        assert serial == pooled

    def test_merge_order_is_payload_order(self):
        x = np.arange(20.0)
        payloads = [(10, 20), (0, 10)]  # deliberately out of index order
        with ShardedExecutor(workers=2) as ex:
            parts = ex.run(_spanned, payloads, ex.share(x=x))
        assert np.array_equal(parts[0], x[10:20] * 2)
        assert np.array_equal(parts[1], x[:10] * 2)

    def test_submit_future(self):
        with ShardedExecutor(workers=1) as ex:
            fut = ex.submit(_sum_shard, (0, 3), ex.share(x=np.arange(4.0)))
            assert fut.result(timeout=30) == 3.0

    def test_submit_serial_resolved(self):
        with ShardedExecutor(workers=0) as ex:
            fut = ex.submit(_sum_shard, (0, 3), ex.share(x=np.arange(4.0)))
            assert fut.done() and fut.result() == 3.0

    def test_closed_executor_rejects_work(self):
        ex = ShardedExecutor(workers=0)
        ex.close()
        with pytest.raises(RuntimeError):
            ex.run(_sum_shard, [(0, 1)])

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ShardedExecutor(workers=-1)

    def test_effective_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert effective_workers() == 5
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            effective_workers()


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
        with ShardedExecutor(workers=1) as ex:
            flag = ex.cancel_flag()
            assert ex.run(_echo_flag, [flag]) == [False]
            flag.set()
            assert ex.run(_echo_flag, [flag]) == [True]
