"""Tests for the dimension-tree CP-ALS sweep (repro.kernels.sweep)."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.hicoo import HicooTensor
from repro.cpd import cp_als as solver
from repro.cpd.cp_als import cp_als
from repro.data import registry
from repro.formats import as_format
from repro.formats.coo import CooTensor
from repro.kernels.mttkrp import mttkrp
from repro.kernels.sweep import Sweep, dimension_tree
from repro.obs import metrics
from tests.conftest import make_random_coo
from tests.test_backend_equivalence import MAX_ULP, _ulp_diff

SHAPES = {1: (400,), 2: (30, 20), 3: (30, 20, 10), 4: (12, 9, 17, 8),
          5: (7, 6, 9, 5, 8)}


@pytest.fixture
def counting():
    """Metrics on and zeroed; restores the previous enabled state."""
    was_enabled = metrics.enabled()
    metrics.enable()
    metrics.reset()
    yield
    if not was_enabled:
        metrics.disable()


def _formats(coo):
    return [coo, HicooTensor(coo, block_bits=2)]


def _gathers() -> int:
    return int(metrics.value("mttkrp.gathers"))


def _per_mode_solver(monkeypatch, tensor, rank, **kwargs):
    """``cp_als`` with every MTTKRP on the format's per-mode kernel."""
    with monkeypatch.context() as mp:
        mp.setattr(solver.Sweep, "of", classmethod(lambda cls, t: None))
        return cp_als(tensor, rank, **kwargs)


class TestTree:
    def test_three_modes(self):
        tree = dimension_tree(3)
        assert tree.final == ((1, 2), (0, 2), (0, 1))
        # G2 is kept from mode 0 to mode 1, G0' from mode 1 to mode 2
        assert tree.keep == (frozenset({(2,)}), frozenset({(0,)}),
                             frozenset())

    def test_four_modes(self):
        tree = dimension_tree(4)
        # P23 serves modes 0 and 1, P01' serves modes 2 and 3
        assert tree.ops[(1, 2, 3)] == ((2, 3), (1,))
        assert tree.ops[(0, 2, 3)] == ((2, 3), (0,))
        assert tree.ops[(0, 1, 3)] == ((0, 1), (3,))
        assert tree.ops[(0, 1, 2)] == ((0, 1), (2,))

    @pytest.mark.parametrize("nmodes", [1, 2, 3, 4, 5, 6, 7])
    def test_every_mode_multiplies_the_others(self, nmodes):
        tree = dimension_tree(nmodes)
        for mode, key in enumerate(tree.final):
            assert key == tuple(m for m in range(nmodes) if m != mode)
        for key, (a, b) in tree.ops.items():
            assert tuple(sorted(a + b)) == key and not set(a) & set(b)


class TestMatchesPerModeKernel:
    @pytest.mark.parametrize("nmodes", [1, 2, 3, 4, 5])
    def test_in_order_sweeps(self, nmodes):
        coo = make_random_coo(SHAPES[nmodes], 200, seed=nmodes,
                              values="positive")
        for tensor in _formats(coo):
            rng = np.random.default_rng(nmodes)
            factors = [rng.random((s, 6)) for s in tensor.shape]
            sweep = Sweep.of(tensor)
            for _ in range(3):
                for mode in range(nmodes):
                    got = sweep.mttkrp(factors, mode)
                    want = tensor.mttkrp(factors, mode)
                    if nmodes <= 3:
                        assert np.array_equal(got, want), (nmodes, mode)
                    else:
                        assert _ulp_diff(got, want) <= MAX_ULP
                    # a cold sweep associates identically
                    cold = Sweep.of(tensor).mttkrp(factors, mode)
                    assert np.array_equal(got, cold)
                    factors[mode] = rng.random(factors[mode].shape)

    @pytest.mark.parametrize("nmodes", [3, 4])
    def test_zero_nnz(self, nmodes):
        coo = CooTensor.empty(SHAPES[nmodes])
        for tensor in _formats(coo):
            sweep = Sweep.of(tensor)
            factors = [np.ones((s, 3)) for s in tensor.shape]
            for mode in range(nmodes):
                out = sweep.mttkrp(factors, mode)
                assert out.shape == (tensor.shape[mode], 3)
                assert not out.any()
            assert sweep.nbuffers == 0

    def test_other_formats_have_no_source(self):
        coo = make_random_coo(SHAPES[3], 100, seed=1)
        for fmt in ("csf", "alto"):
            assert Sweep.of(as_format(coo, fmt)) is None

    def test_rank_change_reallocates(self):
        coo = make_random_coo(SHAPES[4], 150, seed=2)
        sweep = Sweep.of(coo)
        rng = np.random.default_rng(0)
        for rank in (4, 7):
            factors = [rng.random((s, rank)) for s in coo.shape]
            for mode in range(4):
                assert np.array_equal(sweep.mttkrp(factors, mode),
                                      Sweep.of(coo).mttkrp(factors, mode))


class TestReuseRule:
    def _setup(self):
        coo = make_random_coo(SHAPES[4], 250, seed=11, values="positive")
        rng = np.random.default_rng(5)
        return coo, rng, [rng.random((s, 5)) for s in coo.shape]

    def test_unchanged_arrays_reuse_the_nodes(self, counting):
        coo, rng, factors = self._setup()
        sweep = Sweep.of(coo)
        first = sweep.mttkrp(factors, 0)
        assert _gathers() == 3  # G2, G3 -> P23; G1
        again = sweep.mttkrp(factors, 0)
        assert _gathers() == 3 and np.array_equal(first, again)
        # mode 1 reuses P23: one gather (G0)
        sweep.mttkrp(factors, 1)
        assert _gathers() == 4

    # after mode 0 the sweep holds P23 and G3 (mode 1 and mode 2 read
    # them); G2 and G1 were overwritten by the products that read them
    @pytest.mark.parametrize("replaced,gathers", [
        (0, 0),  # mode 0 reads nothing of factor 0
        (1, 1),  # G1 only: the held P23 does not read factor 1
        (2, 2),  # G2 for P23 (the held G3 is reused), and G1
        (3, 3),  # every held value reads factor 3
    ])
    def test_replaced_factor_recomputes_what_reads_it(self, counting,
                                                      replaced, gathers):
        coo, rng, factors = self._setup()
        sweep = Sweep.of(coo)
        sweep.mttkrp(factors, 0)
        before = _gathers()
        factors[replaced] = rng.random(factors[replaced].shape)
        warm = sweep.mttkrp(factors, 0)
        assert _gathers() - before == gathers
        cold = Sweep.of(coo).mttkrp(factors, 0)
        assert np.array_equal(warm, cold)

    def test_in_place_write_is_not_seen(self):
        """The rule is object identity: a factor written in place keeps
        its cached rows (which is why ``cp_als`` never does that)."""
        coo, rng, factors = self._setup()
        sweep = Sweep.of(coo)
        before = sweep.mttkrp(factors, 0)
        factors[1] *= 2.0
        assert np.array_equal(sweep.mttkrp(factors, 0), before)

    def test_cp_als_never_writes_a_factor_in_place(self, monkeypatch):
        coo = make_random_coo(SHAPES[4], 250, seed=3)
        seen = []

        def frozen(tensor, factors, mode, **kwargs):
            for f in factors:
                f.flags.writeable = False  # an in-place write would raise
            seen.append(list(factors))
            return mttkrp(tensor, factors, mode, **kwargs)

        monkeypatch.setattr(solver, "mttkrp", frozen)
        for tensor in _formats(coo) + [as_format(coo, "csf")]:
            seen.clear()
            cp_als(tensor, 3, maxiters=3, tol=0.0, seed=0)
            # each update stores a new array for the mode just computed
            for i in range(1, len(seen)):
                mode = (i - 1) % 4
                assert seen[i][mode] is not seen[i - 1][mode]


class TestGatherCounts:
    @pytest.mark.parametrize("name,scale,limit", [("uber", 0.3, 21),
                                                  ("deli", 0.2, 12)])
    @pytest.mark.parametrize("fmt", ["coo", "hicoo"])
    def test_three_iterations(self, counting, name, scale, limit, fmt):
        tensor = as_format(registry.load(name, scale=scale, seed=1), fmt)
        cp_als(tensor, 16, maxiters=3, tol=0.0, seed=2)
        got = _gathers()
        assert metrics.value("mttkrp.gathers",
                             labels={"format": fmt}) == got
        if tensor.nmodes == 3:
            assert got == limit  # 4 a sweep, against 6 per mode
        else:
            assert got <= limit  # at most 7 a sweep, against 12

    def test_per_mode_kernel_counts_n_minus_one(self, counting):
        coo = make_random_coo(SHAPES[4], 100, seed=4)
        factors = [np.ones((s, 2)) for s in coo.shape]
        for tensor in _formats(coo) + [as_format(coo, "alto")]:
            metrics.reset()
            mttkrp(tensor, factors, 2)
            assert metrics.value(
                "mttkrp.gathers",
                labels={"format": tensor.format_name}) == 3


class TestBoundary:
    def _hostile(self):
        coo = CooTensor((8, 8, 8), [[0, 1, 2], [3, 4, 5], [7, 7, 7]],
                        [1.0, 2.0, 3.0])
        hic = HicooTensor(coo, block_bits=2)
        binds = hic.binds.copy()
        binds[-1, 1] = 5  # the last nonzero's mode-1 coordinate becomes 23
        return HicooTensor.from_parts(hic.shape, 2, hic.bptr, binds,
                                      hic.einds, hic.values)

    def test_cp_als_raises_value_error(self):
        with pytest.raises(ValueError, match="index 23 out of range for "
                                             "mode 1 with size 8"):
            cp_als(self._hostile(), 2, maxiters=2, seed=0)

    def test_mttkrp_raises_index_error(self):
        bad = self._hostile()
        factors = [np.ones((8, 2))] * 3
        with pytest.raises(IndexError, match="index 23 is out of bounds "
                                             "for axis 0 with size 8"):
            mttkrp(bad, factors, 0)

    def test_building_a_sweep_checks_coordinates(self):
        bad = self._hostile()
        with pytest.raises(ValueError, match="index 23 out of range for "
                                             "mode 1 with size 8"):
            Sweep(bad.sweep_source(), bad.shape)
        with pytest.raises(ValueError, match="index 23 out of range"):
            Sweep.of(bad)


class TestSolver:
    @pytest.mark.parametrize("name", [n for n in registry.names()
                                      if len(registry.REGISTRY[n].shape)
                                      == 3])
    @pytest.mark.parametrize("fmt", ["coo", "hicoo"])
    def test_three_modes_bitwise(self, monkeypatch, name, fmt):
        tensor = as_format(registry.load(name, scale=0.1, seed=3), fmt)
        runs = []
        for patch in (False, True):
            outs = []

            def record(t, factors, mode, **kwargs):
                out = mttkrp(t, factors, mode, **kwargs)
                outs.append(out)
                return out

            monkeypatch.setattr(solver, "mttkrp", record)
            kwargs = dict(maxiters=3, tol=0.0, seed=4)
            res = (_per_mode_solver(monkeypatch, tensor, 8, **kwargs)
                   if patch else cp_als(tensor, 8, **kwargs))
            runs.append((res, outs))
        (swept, s_outs), (per_mode, p_outs) = runs
        assert swept.fits == per_mode.fits
        assert all(np.array_equal(a, b) for a, b in zip(s_outs, p_outs))
        for a, b in zip(swept.ktensor.factors, per_mode.ktensor.factors):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", [n for n in registry.names()
                                      if len(registry.REGISTRY[n].shape)
                                      == 4])
    @pytest.mark.parametrize("fmt", ["coo", "hicoo"])
    def test_four_modes_within_budget(self, monkeypatch, name, fmt):
        tensor = as_format(registry.load(name, scale=0.1, seed=3), fmt)
        # positive values and factors: the reassociated products stay
        # within the ULP budget of the per-mode kernel
        rng = np.random.default_rng(7)
        factors = [rng.random((s, 8)) for s in tensor.shape]
        sweep = Sweep.of(tensor)
        for _ in range(2):
            for mode in range(4):
                assert _ulp_diff(sweep.mttkrp(factors, mode),
                                 tensor.mttkrp(factors, mode)) <= MAX_ULP
                factors[mode] = rng.random(factors[mode].shape)
        # the solver's fits stay within the 1e-10 gate
        swept = cp_als(tensor, 8, maxiters=3, tol=0.0, seed=4)
        per_mode = _per_mode_solver(monkeypatch, tensor, 8, maxiters=3,
                                    tol=0.0, seed=4)
        np.testing.assert_allclose(swept.fits, per_mode.fits, rtol=0,
                                   atol=1e-10)

    def test_five_modes_fits(self, monkeypatch):
        coo = make_random_coo(SHAPES[5], 600, seed=9, values="positive")
        for tensor in _formats(coo):
            swept = cp_als(tensor, 4, maxiters=4, tol=0.0, seed=1)
            per_mode = _per_mode_solver(monkeypatch, tensor, 4, maxiters=4,
                                        tol=0.0, seed=1)
            np.testing.assert_allclose(swept.fits, per_mode.fits, rtol=0,
                                       atol=1e-10)

    def test_concurrent_solvers_match_sequential_runs(self):
        """Threads decompose one resident tensor at once (as daemon
        executors do): each call owns its sweep, so no state is shared."""
        coo = registry.load("uber", scale=0.2, seed=2)
        seeds = (5, 6, 7, 8)  # more threads than cores
        want = [cp_als(HicooTensor(coo, block_bits=4), 8, maxiters=3,
                       tol=0.0, seed=s) for s in seeds]
        # a fresh tensor, so the threads also race to build its gather
        # and reduction operators
        hic = HicooTensor(coo, block_bits=4)
        got = [None] * len(seeds)
        barrier = threading.Barrier(len(seeds))

        def run(i):
            barrier.wait(timeout=30)
            got[i] = cp_als(hic, 8, maxiters=3, tol=0.0, seed=seeds[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(seeds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for w, g in zip(want, got):
            assert w.fits == g.fits
            for a, b in zip(w.ktensor.factors, g.ktensor.factors):
                assert np.array_equal(a, b)


class TestAllocations:
    @pytest.mark.parametrize("fmt", ["coo", "hicoo", "alto"])
    def test_no_nnz_sized_array_after_the_first_iteration(self, fmt):
        """Iterations 2-3 allocate only I_mode-row arrays on the sweep
        path; the per-mode kernel (ALTO) allocates (nnz, R) temporaries."""
        coo = make_random_coo((30, 25, 20, 16), 6000, seed=8)
        tensor = as_format(coo, fmt)
        rank = 16
        peak = []

        def callback(it, fit):
            if it == 0:
                tracemalloc.start()
            elif it == 2:
                peak.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        try:
            cp_als(tensor, rank, maxiters=3, tol=0.0, seed=0,
                   callback=callback)
        finally:
            if tracemalloc.is_tracing():
                tracemalloc.stop()
        buffer_bytes = coo.nnz * rank * 8
        if fmt == "alto":
            assert peak[0] > buffer_bytes
        else:
            assert peak[0] < buffer_bytes / 2, peak
