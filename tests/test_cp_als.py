"""Tests for the CP-ALS solver."""

import numpy as np
import pytest

from repro.core.hicoo import HicooTensor
from repro.cpd.cp_als import cp_als
from repro.cpd.init import hosvd_init, initialize, random_init
from repro.cpd.ktensor import KruskalTensor
from repro.data import registry
from repro.formats import as_format
from repro.formats.coo import CooTensor
from repro.formats.csf import CsfTensor
from repro.data.synthetic import lowrank_tensor


class TestRecovery:
    def test_planted_dense_tensor(self):
        rng = np.random.default_rng(0)
        true = KruskalTensor(np.ones(3), [rng.random((s, 3)) for s in (20, 15, 10)])
        coo = CooTensor.from_dense(true.full())
        res = cp_als(coo, 3, maxiters=80, tol=1e-10, seed=1)
        assert res.final_fit > 0.95

    def test_planted_mostly_dense_sample(self):
        # sampling 80% of the cells keeps the tensor approximately low-rank
        # (a sparse sample of a low-rank tensor is NOT low-rank in general,
        # since the implicit zeros are real zeros)
        coo = lowrank_tensor((15, 12, 10), 1440, rank=2, seed=2)
        res = cp_als(coo, 4, maxiters=60, seed=3)
        assert res.final_fit > 0.6

    def test_fit_monotone(self):
        coo = lowrank_tensor((30, 30, 30), 1500, rank=3, seed=4)
        res = cp_als(coo, 3, maxiters=30, tol=0.0, seed=5)
        diffs = np.diff(res.fits)
        assert np.all(diffs > -1e-8), res.fits

    def test_convergence_flag(self):
        coo = lowrank_tensor((20, 20, 20), 800, rank=2, seed=6)
        res = cp_als(coo, 2, maxiters=200, tol=1e-4, seed=7)
        assert res.converged
        assert res.iterations < 200


class TestFormatAgreement:
    def test_identical_iterates_across_formats(self, small3d, rng):
        init = [rng.random((s, 3)) for s in small3d.shape]
        runs = [
            cp_als(t, 3, maxiters=4, tol=0.0, init=init)
            for t in (small3d, CsfTensor(small3d),
                      HicooTensor(small3d, block_bits=3))
        ]
        for other in runs[1:]:
            np.testing.assert_allclose(runs[0].fits, other.fits, atol=1e-10)

    def test_parallel_matches_sequential(self, small3d, rng):
        init = [rng.random((s, 3)) for s in small3d.shape]
        hic = HicooTensor(small3d, block_bits=2)
        seq = cp_als(hic, 3, maxiters=3, tol=0.0, init=init)
        par = cp_als(hic, 3, maxiters=3, tol=0.0, init=init, nthreads=4)
        np.testing.assert_allclose(seq.fits, par.fits, atol=1e-10)

    def test_4d(self, small4d, rng):
        init = [rng.random((s, 2)) for s in small4d.shape]
        a = cp_als(small4d, 2, maxiters=3, tol=0.0, init=init)
        b = cp_als(HicooTensor(small4d, block_bits=2), 2, maxiters=3,
                   tol=0.0, init=init)
        np.testing.assert_allclose(a.fits, b.fits, atol=1e-10)


def _fits_with_reference(monkeypatch, tensor, rank, **kwargs):
    """Run cp_als and pair every per-iteration fit with the reference
    fit of the same model: ``KruskalTensor.fit`` without the MTTKRP
    argument (a full pass over the nonzeros)."""
    original = KruskalTensor.fit
    pairs = []

    def spy(self, coo, tensor_norm=None, mttkrp=None, grams=None):
        assert mttkrp is not None, "cp_als must pass its last MTTKRP"
        got = original(self, coo, tensor_norm, mttkrp, grams)
        pairs.append((got, original(self, coo, tensor_norm)))
        return got

    monkeypatch.setattr(KruskalTensor, "fit", spy)
    res = cp_als(tensor, rank, **kwargs)
    monkeypatch.undo()
    assert [got for got, _ in pairs] == res.fits
    return pairs


class TestFitFromMttkrp:
    """The solver's fit comes from the last mode's MTTKRP (O(I_N R))."""

    @pytest.mark.parametrize("name", registry.names())
    @pytest.mark.parametrize("fmt", ["coo", "csf", "hicoo", "alto"])
    def test_matches_reference_on_registry(self, monkeypatch, name, fmt):
        coo = registry.load(name, scale=0.05)
        rng = np.random.default_rng(3)
        init = [rng.random((s, 4)) for s in coo.shape]
        pairs = _fits_with_reference(monkeypatch, as_format(coo, fmt), 4,
                                     maxiters=3, tol=0.0, init=init)
        assert len(pairs) == 3
        for got, ref in pairs:
            assert abs(got - ref) <= 1e-10 * abs(ref), (got, ref)

    def test_planted_exact_rank_near_one(self, monkeypatch):
        # both formulas cancel ||X||^2 against 2<X,M> - ||M||^2 as the fit
        # approaches 1; they must still agree far below the solver's tol
        rng = np.random.default_rng(0)
        true = KruskalTensor(np.ones(3),
                             [rng.random((s, 3)) for s in (12, 10, 8)])
        coo = CooTensor.from_dense(true.full())
        pairs = _fits_with_reference(monkeypatch, coo, 3, maxiters=40,
                                     tol=0.0, seed=1)
        assert pairs[-1][1] > 0.99
        for got, ref in pairs:
            assert abs(got - ref) <= 1e-12, (got, ref)

    @pytest.mark.parametrize("fmt", ["coo", "csf", "hicoo", "alto"])
    def test_zero_norm_tensor_gives_finite_fits(self, fmt):
        coo = CooTensor((6, 5, 4), [[0, 0, 0], [5, 4, 3], [2, 1, 0]],
                        np.zeros(3))
        res = cp_als(as_format(coo, fmt), 2, maxiters=3, tol=0.0, seed=0)
        assert res.fits and np.all(np.isfinite(res.fits)), res.fits


class TestInterface:
    def test_bad_rank(self, small3d):
        with pytest.raises(ValueError):
            cp_als(small3d, 0)

    def test_bad_maxiters(self, small3d):
        with pytest.raises(ValueError):
            cp_als(small3d, 2, maxiters=0)

    def test_bad_init_rank(self, small3d, rng):
        init = [rng.random((s, 5)) for s in small3d.shape]
        with pytest.raises(ValueError, match="rank"):
            cp_als(small3d, 3, init=init)

    def test_callback_invoked(self, small3d):
        calls = []
        cp_als(small3d, 2, maxiters=3, tol=0.0, seed=0,
               callback=lambda it, fit: calls.append((it, fit)))
        assert [c[0] for c in calls] == [0, 1, 2]

    def test_timers_populated(self, small3d):
        res = cp_als(small3d, 2, maxiters=2, tol=0.0, seed=0)
        assert res.mttkrp_seconds > 0
        assert res.total_seconds >= res.mttkrp_seconds
        assert res.seconds_per_iteration() > 0

    def test_result_is_arranged(self, small3d):
        res = cp_als(small3d, 3, maxiters=3, tol=0.0, seed=0)
        w = np.abs(res.ktensor.weights)
        assert np.all(np.diff(w) <= 1e-12)

    def test_seed_reproducibility(self, small3d):
        a = cp_als(small3d, 2, maxiters=3, tol=0.0, seed=42)
        b = cp_als(small3d, 2, maxiters=3, tol=0.0, seed=42)
        np.testing.assert_allclose(a.fits, b.fits)


class TestInit:
    def test_random_shapes(self):
        fs = random_init((3, 4, 5), 2, np.random.default_rng(0))
        assert [f.shape for f in fs] == [(3, 2), (4, 2), (5, 2)]

    def test_random_bad_rank(self):
        with pytest.raises(ValueError):
            random_init((3,), 0)

    def test_hosvd_shapes(self, small3d):
        fs = hosvd_init(small3d, 4, np.random.default_rng(0))
        assert [f.shape for f in fs] == [(s, 4) for s in small3d.shape]

    def test_hosvd_helps_convergence(self):
        coo = lowrank_tensor((40, 40, 40), 4000, rank=3, seed=8)
        rand = cp_als(coo, 3, maxiters=5, tol=0.0, init="random", seed=9)
        hosvd = cp_als(coo, 3, maxiters=5, tol=0.0, init="hosvd", seed=9)
        # HOSVD should be at least competitive after few iterations
        assert hosvd.final_fit > rand.final_fit - 0.05

    def test_dispatch(self, small3d):
        assert len(initialize(small3d, 2, "random")) == 3
        with pytest.raises(ValueError, match="unknown init"):
            initialize(small3d, 2, "bogus")
