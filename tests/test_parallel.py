"""Unit tests for the parallel substrate: partitioning, privatization,
executor, and the machine model."""

import numpy as np
import pytest

from repro.parallel.executor import run_tasks
from repro.parallel.machine import Machine
from repro.parallel.partition import balanced_ranges, lpt_assign, static_ranges
from repro.parallel.privatize import PrivateBuffers


class TestStaticRanges:
    def test_coverage_and_order(self):
        ranges = static_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_empty_parts(self):
        ranges = static_ranges(2, 4)
        sizes = [hi - lo for lo, hi in ranges]
        assert sum(sizes) == 2
        assert max(sizes) - min(sizes) <= 1

    def test_zero_items(self):
        assert static_ranges(0, 3) == [(0, 0)] * 3

    def test_bad_nparts(self):
        with pytest.raises(ValueError):
            static_ranges(10, 0)


class TestBalancedRanges:
    def test_uniform_weights(self):
        ranges = balanced_ranges(np.ones(12), 4)
        assert [hi - lo for lo, hi in ranges] == [3, 3, 3, 3]

    def test_skewed_weights(self):
        w = np.array([100, 1, 1, 1, 1, 1, 1, 1])
        ranges = balanced_ranges(w, 2)
        # the heavy item must sit alone-ish in the first part
        lo, hi = ranges[0]
        assert hi <= 2

    def test_coverage(self):
        rng = np.random.default_rng(0)
        w = rng.random(57)
        ranges = balanced_ranges(w, 7)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 57
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            balanced_ranges([-1.0, 2.0], 2)

    def test_empty(self):
        assert balanced_ranges([], 3) == [(0, 0)] * 3


class TestLptAssign:
    def test_covers_all_items(self):
        parts = lpt_assign([5, 3, 3, 2, 2, 2], 2)
        items = sorted(i for p in parts for i in p)
        assert items == list(range(6))

    def test_classic_instance(self):
        # weights 5,3,3,2,2,2 on 2 parts: LPT gives 5+2+2 vs 3+3+2 -> makespan 9?
        # LPT: 5->p0, 3->p1, 3->p1(6? no, least loaded p1=3 -> p1), ...
        parts = lpt_assign([5, 3, 3, 2, 2, 2], 2)
        loads = [sum([5, 3, 3, 2, 2, 2][i] for i in p) for p in parts]
        assert max(loads) <= 9  # within 4/3 of optimum 8.5 -> <= 11, LPT gives 9

    def test_single_part(self):
        parts = lpt_assign([1, 2, 3], 1)
        assert sorted(parts[0]) == [0, 1, 2]

    def test_bad_nparts(self):
        with pytest.raises(ValueError):
            lpt_assign([1], 0)


class TestPrivateBuffers:
    def test_views_are_independent(self):
        bufs = PrivateBuffers.allocate(3, 4, 2)
        bufs.view(0)[1, 1] = 5.0
        assert bufs.view(1)[1, 1] == 0.0

    def test_reduce(self):
        bufs = PrivateBuffers.allocate(2, 2, 2)
        bufs.view(0)[:] = 1.0
        bufs.view(1)[:] = 2.0
        np.testing.assert_allclose(bufs.reduce(), np.full((2, 2), 3.0))

    def test_accounting(self):
        bufs = PrivateBuffers.allocate(4, 10, 3)
        assert bufs.reduction_flops() == 3 * 10 * 3
        assert bufs.extra_bytes() == 3 * 10 * 3 * 8

    def test_bad_nthreads(self):
        with pytest.raises(ValueError):
            PrivateBuffers.allocate(0, 1, 1)


class TestRunTasks:
    def test_sequential_results_ordered(self):
        report = run_tasks([lambda i=i: i * i for i in range(4)])
        assert report.values() == [0, 1, 4, 9]
        assert report.nthreads == 4

    def test_makespan_vs_total(self):
        report = run_tasks([lambda: sum(range(10000)) for _ in range(3)])
        assert report.makespan() <= report.total_work_time() + 1e-12

    def test_real_threads(self):
        report = run_tasks([lambda i=i: i for i in range(3)], backend="thread")
        assert sorted(report.values()) == [0, 1, 2]
        assert report.backend == "thread"

    def test_empty(self):
        report = run_tasks([])
        assert report.makespan() == 0.0
        assert report.load_imbalance() == 1.0


class TestMachine:
    def test_validation(self):
        with pytest.raises(ValueError):
            Machine(cores=0)
        with pytest.raises(ValueError):
            Machine(socket_bandwidth=-1)

    def test_memory_bound_prediction(self):
        m = Machine(cores=4, flops_per_core=1e12,
                    core_bandwidth=1e9, socket_bandwidth=2e9)
        p = m.predict(flops=1e6, bytes_moved=2e9, nthreads=1)
        assert p.bound == "memory"
        assert np.isclose(p.memory_seconds, 2.0)

    def test_compute_bound_prediction(self):
        m = Machine(cores=4, flops_per_core=1e9,
                    core_bandwidth=1e12, socket_bandwidth=1e12)
        p = m.predict(flops=2e9, bytes_moved=1e3, nthreads=1)
        assert p.bound == "compute"
        assert np.isclose(p.compute_seconds, 2.0)

    def test_bandwidth_saturation(self):
        m = Machine(cores=32, flops_per_core=1e15,
                    core_bandwidth=1e9, socket_bandwidth=4e9)
        t4 = m.predict(0, 4e9, nthreads=4).seconds
        t32 = m.predict(0, 4e9, nthreads=32).seconds
        assert np.isclose(t4, t32)  # 4 cores already saturate the socket

    def test_atomic_penalty_only_parallel(self):
        m = Machine()
        p1 = m.predict(1e6, 1e6, nthreads=1, atomic_updates=1e6)
        p2 = m.predict(1e6, 1e6, nthreads=2, atomic_updates=1e6)
        assert p1.serial_seconds == 0.0
        assert p2.serial_seconds > 0.0

    def test_threads_capped_at_cores(self):
        m = Machine(cores=4, core_bandwidth=1e9, socket_bandwidth=1e12)
        t4 = m.predict(0, 1e9, nthreads=4).seconds
        t8 = m.predict(0, 1e9, nthreads=8).seconds
        assert np.isclose(t4, t8)

    def test_speedup_positive(self):
        m = Machine()
        assert m.speedup(1e9, 1e6, 8) >= 1.0

    def test_detect_returns_plausible(self):
        m = Machine.detect()
        assert m.cores >= 1
        assert m.flops_per_core > 1e6
        assert m.socket_bandwidth >= m.core_bandwidth

    def test_bad_nthreads(self):
        with pytest.raises(ValueError):
            Machine().predict(1, 1, nthreads=0)
