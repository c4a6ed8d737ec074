"""Tests for parallel MTTKRP strategies (correctness + accounting)."""

import numpy as np
import pytest

from repro.core.hicoo import HicooTensor
from repro.formats.csf import CsfTensor
from repro.kernels.mttkrp import mttkrp, mttkrp_parallel


@pytest.fixture
def suite(small3d):
    return {
        "coo": small3d,
        "csf": CsfTensor(small3d),
        "hicoo": HicooTensor(small3d, block_bits=2),
    }


class TestCorrectness:
    @pytest.mark.parametrize("nthreads", [1, 2, 4, 9])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_all_formats_auto(self, suite, factors3d, nthreads, mode):
        ref = mttkrp(suite["coo"], factors3d, mode)
        for name, tensor in suite.items():
            run = mttkrp_parallel(tensor, factors3d, mode, nthreads)
            np.testing.assert_allclose(run.output, ref, atol=1e-10,
                                       err_msg=f"{name} nthreads={nthreads}")

    @pytest.mark.parametrize("strategy", ["privatize", "atomic"])
    def test_coo_strategies(self, suite, factors3d, strategy):
        ref = mttkrp(suite["coo"], factors3d, 1)
        run = mttkrp_parallel(suite["coo"], factors3d, 1, 4, strategy=strategy)
        np.testing.assert_allclose(run.output, ref, atol=1e-10)
        assert run.strategy == strategy

    @pytest.mark.parametrize("strategy", ["schedule", "privatize"])
    def test_hicoo_strategies(self, suite, factors3d, strategy):
        ref = mttkrp(suite["coo"], factors3d, 0)
        run = mttkrp_parallel(suite["hicoo"], factors3d, 0, 4, strategy=strategy)
        np.testing.assert_allclose(run.output, ref, atol=1e-10)
        assert run.strategy == strategy

    @pytest.mark.parametrize("strategy", ["subtree", "privatize"])
    def test_csf_strategies(self, suite, factors3d, strategy):
        for mode in range(3):
            ref = mttkrp(suite["coo"], factors3d, mode)
            run = mttkrp_parallel(suite["csf"], factors3d, mode, 3,
                                  strategy=strategy)
            np.testing.assert_allclose(run.output, ref, atol=1e-10)

    def test_more_threads_than_work(self, suite, factors3d):
        ref = mttkrp(suite["coo"], factors3d, 0)
        for tensor in suite.values():
            run = mttkrp_parallel(tensor, factors3d, 0, 64)
            np.testing.assert_allclose(run.output, ref, atol=1e-10)

    def test_4d_hicoo_schedule(self, small4d, factors4d):
        hic = HicooTensor(small4d, block_bits=2)
        for mode in range(4):
            ref = mttkrp(small4d, factors4d, mode)
            run = mttkrp_parallel(hic, factors4d, mode, 4, strategy="schedule")
            np.testing.assert_allclose(run.output, ref, atol=1e-10)


class TestAccounting:
    def test_work_conserved(self, suite, factors3d):
        for tensor in suite.values():
            run = mttkrp_parallel(tensor, factors3d, 0, 4)
            assert run.thread_nnz.sum() == tensor.nnz

    def test_atomic_counting(self, suite, factors3d):
        run = mttkrp_parallel(suite["coo"], factors3d, 0, 4, strategy="atomic")
        assert run.atomic_updates == suite["coo"].nnz
        run1 = mttkrp_parallel(suite["coo"], factors3d, 0, 1, strategy="atomic")
        assert run1.atomic_updates == 0  # no contention single-threaded

    def test_schedule_attached(self, suite, factors3d):
        run = mttkrp_parallel(suite["hicoo"], factors3d, 0, 4,
                              strategy="schedule")
        assert run.schedule is not None
        assert run.schedule.nthreads == 4

    def test_privatize_reduction_flops(self, suite, factors3d):
        run = mttkrp_parallel(suite["hicoo"], factors3d, 0, 4,
                              strategy="privatize")
        rows, rank = suite["hicoo"].shape[0], factors3d[0].shape[1]
        assert run.reduction_flops == 3 * rows * rank

    def test_report_populated(self, suite, factors3d):
        run = mttkrp_parallel(suite["hicoo"], factors3d, 0, 3)
        assert run.report.nthreads == 3
        assert run.report.makespan() >= 0
        assert run.load_imbalance() >= 1.0

    def test_bad_inputs(self, suite, factors3d):
        with pytest.raises(ValueError):
            mttkrp_parallel(suite["coo"], factors3d, 0, 0)
        with pytest.raises(ValueError):
            mttkrp_parallel(suite["coo"], factors3d, 0, 2, strategy="schedule")
        with pytest.raises(ValueError):
            mttkrp_parallel(suite["hicoo"], factors3d, 0, 2, strategy="atomic")


class TestRealThreads:
    def test_schedule_with_real_threads(self, factors3d, small3d):
        hic = HicooTensor(small3d, block_bits=2)
        ref = mttkrp(small3d, factors3d, 0)
        run = mttkrp_parallel(hic, factors3d, 0, 4, strategy="schedule",
                              backend="thread")
        np.testing.assert_allclose(run.output, ref, atol=1e-10)
        assert run.report.backend == "thread"
