"""Unit tests for Kruskal tensors."""

import numpy as np
import pytest

from repro.cpd.ktensor import KruskalTensor
from repro.formats.coo import CooTensor


def random_kt(shape, rank, seed=0):
    rng = np.random.default_rng(seed)
    return KruskalTensor(rng.random(rank) + 0.5,
                         [rng.normal(size=(s, rank)) for s in shape])


class TestConstruction:
    def test_properties(self):
        kt = random_kt((4, 5, 6), 3)
        assert kt.rank == 3
        assert kt.shape == (4, 5, 6)
        assert kt.nmodes == 3

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            KruskalTensor(np.ones(2), [np.ones((3, 2)), np.ones((4, 3))])

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            KruskalTensor(np.ones(3), [np.ones((3, 2)), np.ones((4, 2))])

    def test_no_factors(self):
        with pytest.raises(ValueError):
            KruskalTensor(np.ones(1), [])


class TestFull:
    def test_rank1_outer_product(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])
        kt = KruskalTensor(np.array([2.0]), [a[:, None], b[:, None]])
        np.testing.assert_allclose(kt.full(), 2.0 * np.outer(a, b))

    def test_sum_of_components(self):
        kt = random_kt((3, 4), 2, seed=1)
        full = kt.full()
        ref = sum(
            kt.weights[r] * np.outer(kt.factors[0][:, r], kt.factors[1][:, r])
            for r in range(2)
        )
        np.testing.assert_allclose(full, ref)

    def test_memory_guard(self):
        kt = KruskalTensor(np.ones(1), [np.ones((10**4, 1))] * 3)
        with pytest.raises(MemoryError):
            kt.full()


class TestNormAndInner:
    def test_norm_matches_dense(self):
        kt = random_kt((4, 5, 6), 3, seed=2)
        assert np.isclose(kt.norm(), np.linalg.norm(kt.full()))

    def test_innerprod_matches_dense(self, small3d):
        kt = random_kt(small3d.shape, 4, seed=3)
        ref = float(np.sum(small3d.to_dense() * kt.full()))
        assert np.isclose(kt.innerprod(small3d), ref)

    def test_fit_perfect_recovery(self):
        kt = random_kt((5, 6, 7), 2, seed=4)
        coo = CooTensor.from_dense(kt.full())
        assert kt.fit(coo) > 1 - 1e-9

    def test_fit_zero_tensor(self):
        kt = KruskalTensor(np.zeros(1), [np.zeros((2, 1)), np.zeros((3, 1))])
        assert kt.fit(CooTensor.empty((2, 3))) == 1.0

    def test_fit_from_last_mttkrp_matches_reference(self, small3d):
        kt = random_kt(small3d.shape, 4, seed=15)
        last = small3d.nmodes - 1
        m = small3d.mttkrp(kt.factors, last)
        grams = [f.T @ f for f in kt.factors]
        ref = kt.fit(small3d)
        assert np.isclose(kt.fit(small3d, mttkrp=m), ref, rtol=1e-12)
        assert np.isclose(kt.fit(small3d, mttkrp=m, grams=grams), ref,
                          rtol=1e-12)

    def test_fit_zero_norm_with_mttkrp(self):
        coo = CooTensor((2, 3), [[0, 1]], [0.0])
        zero = KruskalTensor(np.ones(1), [np.zeros((2, 1)), np.zeros((3, 1))])
        assert zero.fit(coo, mttkrp=np.zeros((3, 1))) == 1.0
        kt = random_kt((2, 3), 1, seed=16)
        fit = kt.fit(coo, mttkrp=np.zeros((3, 1)))
        assert np.isfinite(fit) and fit == 0.0

    def test_fit_bounded(self, small3d):
        kt = random_kt(small3d.shape, 2, seed=5)
        assert kt.fit(small3d) <= 1.0


class TestNormalizeArrange:
    def test_normalize_preserves_tensor(self):
        kt = random_kt((3, 4, 5), 3, seed=6)
        np.testing.assert_allclose(kt.normalize().full(), kt.full(), atol=1e-10)

    def test_unit_columns(self):
        kt = random_kt((3, 4), 2, seed=7).normalize()
        for f in kt.factors:
            np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0)

    def test_arrange_sorts_weights(self):
        kt = random_kt((4, 4, 4), 4, seed=8).arrange()
        w = np.abs(kt.weights)
        assert np.all(np.diff(w) <= 1e-12)

    def test_arrange_preserves_tensor(self):
        kt = random_kt((3, 4, 5), 3, seed=9)
        np.testing.assert_allclose(kt.arrange().full(), kt.full(), atol=1e-10)


class TestCongruence:
    def test_self_congruence(self):
        kt = random_kt((4, 5, 6), 3, seed=10)
        assert np.isclose(kt.congruence(kt), 1.0)

    def test_permutation_invariance(self):
        kt = random_kt((4, 5, 6), 3, seed=11)
        perm = [2, 0, 1]
        kt2 = KruskalTensor(kt.weights[perm], [f[:, perm] for f in kt.factors])
        assert np.isclose(kt.congruence(kt2), 1.0)

    def test_sign_invariance(self):
        kt = random_kt((4, 5), 2, seed=12)
        kt2 = KruskalTensor(kt.weights,
                            [-kt.factors[0], -kt.factors[1]])
        assert np.isclose(kt.congruence(kt2), 1.0)

    def test_different_tensors_low_score(self):
        a = random_kt((30, 30, 30), 2, seed=13)
        b = random_kt((30, 30, 30), 2, seed=14)
        assert a.congruence(b) < 0.9

    def test_incomparable(self):
        a = random_kt((3, 4), 2)
        b = random_kt((3, 5), 2)
        with pytest.raises(ValueError):
            a.congruence(b)
