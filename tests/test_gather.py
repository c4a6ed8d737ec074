"""Tests for the gather/scatter kernel layer (repro.kernels.gather)."""

import numpy as np
import pytest

from repro.core.hicoo import HicooTensor
from repro.kernels.gather import (SCATTER_SMALL_N, build_row_reduction,
                                  build_task_gather, coalesce_runs,
                                  mttkrp_gather_chunk, runs_from_block_ids,
                                  scatter_add)
from tests.conftest import make_random_coo


def _reference_scatter(rows, idx, acc):
    out = (np.zeros(rows) if acc.ndim == 1
           else np.zeros((rows, acc.shape[1])))
    np.add.at(out, idx, acc)
    return out


class TestScatterAdd:
    @pytest.mark.parametrize("n,rows", [(10, 8), (500, 40), (500, 100_000),
                                        (2000, 2000)])
    @pytest.mark.parametrize("rank", [1, 7])
    @pytest.mark.parametrize("sort", [False, True])
    def test_matches_add_at(self, n, rows, rank, sort):
        rng = np.random.default_rng(n + rows + rank + sort)
        idx = rng.integers(0, rows, size=n)
        if sort:
            idx = np.sort(idx)
        acc = rng.normal(size=(n, rank)) if rank > 1 else rng.normal(size=n)
        out = np.zeros((rows, rank)) if rank > 1 else np.zeros(rows)
        backend = scatter_add(out, idx, acc)
        np.testing.assert_allclose(out, _reference_scatter(rows, idx, acc),
                                   atol=1e-12)
        assert backend in ("add_at", "reduceat", "bincount", "sort_reduceat")

    def test_backend_selection(self):
        rng = np.random.default_rng(0)
        # tiny input -> add_at
        out = np.zeros((10, 2))
        idx = rng.integers(0, 10, size=SCATTER_SMALL_N)
        assert scatter_add(out, idx, rng.normal(size=(len(idx), 2))) == "add_at"
        # sorted input -> reduceat
        out = np.zeros((50, 2))
        idx = np.sort(rng.integers(0, 50, size=400))
        assert scatter_add(out, idx, rng.normal(size=(400, 2))) == "reduceat"
        # unsorted, comparable output size -> bincount
        out = np.zeros((50, 2))
        idx = rng.permutation(np.repeat(np.arange(50), 8))
        assert scatter_add(out, idx, rng.normal(size=(400, 2))) == "bincount"
        # unsorted, output far larger than update count -> sort_reduceat
        out = np.zeros((100_000, 2))
        idx = rng.integers(0, 100_000, size=400)
        idx[::2] = idx[::-2]  # scramble so it is not sorted
        assert scatter_add(out, idx, rng.normal(size=(400, 2))) \
            == "sort_reduceat"

    def test_row_local_avoids_bincount(self):
        rng = np.random.default_rng(1)
        out = np.zeros((50, 2))
        idx = rng.permutation(np.repeat(np.arange(50), 8))
        acc = rng.normal(size=(400, 2))
        backend = scatter_add(out, idx, acc, row_local=True)
        assert backend == "sort_reduceat"
        np.testing.assert_allclose(out, _reference_scatter(50, idx, acc),
                                   atol=1e-12)

    def test_explicit_presorted_flag(self):
        rng = np.random.default_rng(2)
        idx = np.sort(rng.integers(0, 30, size=300))
        acc = rng.normal(size=(300, 3))
        out = np.zeros((30, 3))
        assert scatter_add(out, idx, acc, presorted=True) == "reduceat"
        np.testing.assert_allclose(out, _reference_scatter(30, idx, acc),
                                   atol=1e-12)

    def test_empty_and_int_accumulators(self):
        out = np.zeros((5, 2))
        assert scatter_add(out, np.empty(0, dtype=np.int64),
                           np.empty((0, 2))) == "noop"
        # int64 accumulators survive the reduceat path exactly
        up = np.zeros(4, dtype=np.int64)
        idx = np.sort(np.random.default_rng(3).integers(0, 4, size=200))
        counts = np.ones(200, dtype=np.int64)
        scatter_add(up, idx, counts, presorted=True)
        assert up.sum() == 200


class TestRunCoalescing:
    def test_coalesce_runs(self):
        assert coalesce_runs([(0, 3), (3, 5), (7, 9)]) == [(0, 5), (7, 9)]
        assert coalesce_runs([(2, 2), (4, 3)]) == []
        assert coalesce_runs([]) == []

    def test_runs_from_block_ids(self):
        assert runs_from_block_ids([0, 1, 2, 5, 6, 9]) == [(0, 3), (5, 7),
                                                           (9, 10)]
        assert runs_from_block_ids([]) == []
        assert runs_from_block_ids([4]) == [(4, 5)]


class TestTaskGather:
    @pytest.fixture
    def hic(self):
        return HicooTensor(make_random_coo((40, 30, 20), 500, seed=3),
                           block_bits=3)

    def test_full_tensor_matches_global_indices(self, hic):
        tg = build_task_gather(hic, [(0, hic.nblocks)])
        blk = np.repeat(np.arange(hic.nblocks), np.diff(hic.bptr))
        expect = (hic.binds[blk].astype(np.int64) << hic.block_bits) \
            + hic.einds.astype(np.int64)
        np.testing.assert_array_equal(tg.ginds, expect)
        np.testing.assert_array_equal(tg.values, hic.values)
        assert tg.nnz == hic.nnz
        assert tg.ginds.dtype == np.int64

    def test_sorted_modes_flags_are_true_claims(self, hic):
        tg = build_task_gather(hic, [(0, hic.nblocks)])
        for m in range(3):
            is_sorted = bool(np.all(np.diff(tg.ginds[:, m]) >= 0))
            assert bool(tg.sorted_modes[m]) == is_sorted

    def test_memoization(self, hic):
        a = hic.task_gather([0, 1, 2])
        b = hic.task_gather([(0, 3)])  # runs form of the same blocks
        assert a is b
        assert hic.gather_cache_bytes() > 0
        hic.clear_gather_cache()
        assert hic.gather_cache_bytes() == 0
        c = hic.task_gather([(0, 3)])
        assert c is not a
        np.testing.assert_array_equal(c.ginds, a.ginds)

    def test_partial_runs_concatenate(self, hic):
        full = hic.task_gather([(0, hic.nblocks)])
        mid = hic.nblocks // 2
        split = build_task_gather(hic, [(0, mid), (mid, hic.nblocks)])
        np.testing.assert_array_equal(split.ginds, full.ginds)

    def test_gather_chunk_matches_blocked_kernel(self, hic):
        rng = np.random.default_rng(5)
        factors = [rng.normal(size=(s, 6)) for s in hic.shape]
        for mode in range(3):
            ref = hic.mttkrp(factors, mode, kernel="blocked")
            out = np.zeros_like(ref)
            tg = hic.task_gather([(0, hic.nblocks)])
            backend = mttkrp_gather_chunk(tg, factors, mode, out)
            assert backend == "csr"
            np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_empty_task(self, hic):
        tg = hic.task_gather([])
        assert tg.nnz == 0
        out = np.zeros((hic.shape[0], 4))
        factors = [np.ones((s, 4)) for s in hic.shape]
        assert mttkrp_gather_chunk(tg, factors, 0, out) == "noop"
        assert not out.any()


class TestRowReduction:
    @pytest.mark.parametrize("sort", [False, True])
    def test_bitwise_add_at(self, sort):
        rng = np.random.default_rng(7 + sort)
        idx = rng.integers(0, 90, size=3000)
        if sort:
            idx = np.sort(idx)
        weights = rng.normal(size=3000)
        acc = rng.normal(size=(3000, 5))
        red = build_row_reduction(idx, weights, presorted=sort)
        out = np.zeros((90, 5))
        red.apply(out, acc)
        ref = _reference_scatter(90, idx, weights[:, None] * acc)
        assert np.array_equal(out, ref)
        np.testing.assert_array_equal(red.rows, np.unique(idx))

    def test_presorted_shares_weights_and_column_ids(self):
        idx = np.repeat(np.arange(0, 40, 2), 5)
        weights = np.linspace(1.0, 2.0, len(idx))
        red = build_row_reduction(idx, weights, presorted=True)
        assert np.shares_memory(red.op.data, weights)
        assert red.op.indices.dtype == np.int32
        assert red.owned_bytes == red.rows.nbytes + red.op.indptr.nbytes

    def test_unsorted_stores_int32_columns_and_permuted_weights(self):
        rng = np.random.default_rng(8)
        idx = rng.integers(0, 50, size=400)
        red = build_row_reduction(idx, rng.random(400))
        assert red.op.indices.dtype == np.int32
        assert red.owned_bytes == (red.op.indices.nbytes + red.op.data.nbytes
                                   + red.rows.nbytes + red.op.indptr.nbytes)

    def test_unit_weights(self):
        idx = np.array([3, 0, 3, 1])
        red = build_row_reduction(idx)
        out = np.zeros((4, 2))
        red.apply(out, np.arange(8.0).reshape(4, 2))
        np.testing.assert_array_equal(out[:, 0], [2.0, 6.0, 0.0, 4.0])

    def test_task_gather_memoizes_operators_in_cache_bytes(self):
        hic = HicooTensor(make_random_coo((40, 30, 20), 500, seed=4),
                          block_bits=3)
        tg = hic.task_gather([(0, hic.nblocks)])
        before = hic.gather_cache_bytes()
        red = tg.reduction(1)
        assert tg.reduction(1) is red
        assert red.owned_bytes > 0
        assert hic.gather_cache_bytes() == before + red.owned_bytes

    def test_gather_chunk_is_bitwise_add_at(self):
        hic = HicooTensor(make_random_coo((40, 30, 20), 500, seed=6),
                          block_bits=2)
        rng = np.random.default_rng(6)
        factors = [rng.random((s, 4)) for s in hic.shape]
        tg = hic.task_gather([(0, hic.nblocks)])
        for mode in range(3):
            prod = np.ones((tg.nnz, 4))
            for m in range(3):
                if m != mode:
                    prod *= factors[m][tg.ginds[:, m]]
            ref = _reference_scatter(hic.shape[mode], tg.ginds[:, mode],
                                     tg.values[:, None] * prod)
            out = np.zeros_like(ref)
            assert mttkrp_gather_chunk(tg, factors, mode, out) == "csr"
            assert np.array_equal(out, ref)


def test_concurrent_reduction_builds_are_consistent():
    """Threads racing to build and apply one task's operators (a resident
    tensor serving concurrent jobs) and to grow the shared column ids all
    get bitwise the sequential result; one operator per mode is kept."""
    import sys
    import threading

    hic = HicooTensor(make_random_coo((60, 50, 40), 3000, seed=12),
                      block_bits=2)
    rng = np.random.default_rng(12)
    factors = [rng.random((s, 3)) for s in hic.shape]
    expect = [hic.mttkrp(factors, mode) for mode in range(3)]
    tg = build_task_gather(hic, [(0, hic.nblocks)])  # fresh, unmemoized
    errors = []
    start = threading.Barrier(12)

    def work(tid):
        try:
            start.wait(timeout=10)
            for k in range(6):
                mode = (tid + k) % 3
                out = np.zeros_like(expect[mode])
                mttkrp_gather_chunk(tg, factors, mode, out)
                if not np.array_equal(out, expect[mode]):
                    errors.append(f"thread {tid} mode {mode} diverged")
                n = 1000 * (tid + 1) + k
                ids = build_row_reduction(np.arange(n), presorted=True)
                if not np.array_equal(ids.op.indices, np.arange(n)):
                    errors.append(f"thread {tid}: bad shared column ids")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(12)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors
    assert sorted(tg._reductions) == [0, 1, 2]
