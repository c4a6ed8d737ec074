"""Unit tests for the COO format."""

import numpy as np
import pytest

from repro.formats.coo import CooTensor
from repro.formats.dense import DenseTensor


class TestConstruction:
    def test_basic(self):
        t = CooTensor((3, 4), [[0, 1], [2, 3]], [1.0, 2.0])
        assert t.shape == (3, 4)
        assert t.nnz == 2
        assert t.nmodes == 2

    def test_duplicate_summing(self):
        t = CooTensor((3, 3), [[0, 0], [0, 0], [1, 1]], [1.0, 2.0, 5.0])
        assert t.nnz == 2
        dense = t.to_dense()
        assert dense[0, 0] == 3.0
        assert dense[1, 1] == 5.0

    def test_duplicates_kept_when_disabled(self):
        t = CooTensor((3, 3), [[0, 0], [0, 0]], [1.0, 2.0], sum_duplicates=False)
        assert t.nnz == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="values"):
            CooTensor((3,), [[0], [1]], [1.0])

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            CooTensor((3, 3), [[0, 3]], [1.0])

    def test_empty(self):
        t = CooTensor.empty((5, 5, 5))
        assert t.nnz == 0
        assert t.norm() == 0.0

    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        dense = rng.normal(size=(4, 5, 3)) * (rng.random((4, 5, 3)) < 0.3)
        t = CooTensor.from_dense(dense)
        assert np.allclose(t.to_dense(), dense)
        assert t.nnz == np.count_nonzero(dense)


class TestSorting:
    def test_lexicographic_default(self, small3d):
        s = small3d.sort_lexicographic()
        keys = s.indices
        for i in range(1, len(keys)):
            assert tuple(keys[i - 1]) <= tuple(keys[i])

    def test_lexicographic_custom_order(self, small3d):
        s = small3d.sort_lexicographic([2, 0, 1])
        reordered = s.indices[:, [2, 0, 1]]
        for i in range(1, len(reordered)):
            assert tuple(reordered[i - 1]) <= tuple(reordered[i])

    def test_sort_preserves_content(self, small3d):
        s = small3d.sort_morton(block_bits=3)
        a = {tuple(i): v for i, v in zip(small3d.indices, small3d.values)}
        b = {tuple(i): v for i, v in zip(s.indices, s.values)}
        assert a == b

    def test_morton_blocks_contiguous(self, small3d):
        bits = 2
        s = small3d.sort_morton(block_bits=bits)
        blocks = s.indices >> bits
        seen = set()
        prev = None
        for row in blocks:
            key = tuple(row)
            if key != prev:
                assert key not in seen
                seen.add(key)
                prev = key

    def test_bad_mode_order(self, small3d):
        with pytest.raises(ValueError, match="permutation"):
            small3d.sort_lexicographic([0, 0, 1])


class TestMttkrp:
    def test_matches_dense(self, small3d, factors3d):
        dense = DenseTensor(small3d.to_dense())
        for mode in range(3):
            got = small3d.mttkrp(factors3d, mode)
            ref = dense.mttkrp(factors3d, mode)
            np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_4d(self, small4d, factors4d):
        dense = DenseTensor(small4d.to_dense())
        for mode in range(4):
            np.testing.assert_allclose(
                small4d.mttkrp(factors4d, mode),
                dense.mttkrp(factors4d, mode), atol=1e-10)

    def test_empty_tensor(self):
        t = CooTensor.empty((4, 5))
        out = t.mttkrp([np.ones((4, 3)), np.ones((5, 3))], 0)
        assert out.shape == (4, 3)
        assert np.all(out == 0)

    def test_gather_view_shares_indices_and_memoizes(self, small3d,
                                                     factors3d):
        view = small3d.gather_view()
        assert small3d.gather_view() is view
        assert view.ginds is small3d.indices
        assert view.values is small3d.values
        small3d.mttkrp(factors3d, 1)
        red = view.reduction(1)
        small3d.mttkrp(factors3d, 1)
        assert view.reduction(1) is red

    def test_negative_mode(self, small3d, factors3d):
        np.testing.assert_allclose(
            small3d.mttkrp(factors3d, -1), small3d.mttkrp(factors3d, 2))


class TestTtv:
    def test_matches_dense(self, small3d, rng):
        v = rng.normal(size=small3d.shape[1])
        got = small3d.ttv(v, 1).to_dense()
        ref = np.tensordot(small3d.to_dense(), v, axes=(1, 0))
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_wrong_length(self, small3d):
        with pytest.raises(ValueError, match="length"):
            small3d.ttv(np.ones(small3d.shape[1] + 1), 1)

    def test_single_mode_rejected(self):
        t = CooTensor((5,), [[1]], [2.0])
        with pytest.raises(ValueError, match="only mode"):
            t.ttv(np.ones(5), 0)


class TestUtilities:
    def test_norm(self, small3d):
        assert np.isclose(small3d.norm(), np.linalg.norm(small3d.to_dense()))

    def test_slice_counts(self, small3d):
        counts = small3d.slice_counts(0)
        assert counts.sum() == small3d.nnz
        assert len(counts) == small3d.shape[0]

    def test_remove_empty_slices(self):
        t = CooTensor((100, 100), [[5, 7], [90, 7]], [1.0, 2.0])
        squeezed = t.remove_empty_slices()
        assert squeezed.shape == (2, 1)
        assert squeezed.nnz == 2

    def test_storage_accounting(self, small3d):
        parts = small3d.storage_bytes()
        assert parts["indices"] == 4 * 3 * small3d.nnz
        assert parts["values"] == 4 * small3d.nnz
        assert small3d.total_bytes() == sum(parts.values())

    def test_innerprod_ktensor(self, small3d, factors3d):
        w = np.ones(6)
        got = small3d.innerprod_ktensor(w, factors3d)
        from repro.cpd.ktensor import KruskalTensor

        full = KruskalTensor(w, factors3d).full()
        ref = float(np.sum(small3d.to_dense() * full))
        assert np.isclose(got, ref)

    def test_density(self):
        t = CooTensor((10, 10), [[0, 0]], [1.0])
        assert np.isclose(t.density(), 0.01)

    def test_to_dense_guard(self):
        t = CooTensor((100_000, 100_000, 100_000), [[0, 0, 0]], [1.0])
        with pytest.raises(MemoryError):
            t.to_dense()


class TestSumDuplicatesInternal:
    def test_many_duplicates(self):
        inds = np.array([[1, 1]] * 10 + [[0, 0]] * 5)
        vals = np.ones(15)
        t = CooTensor((2, 2), inds, vals)
        assert t.nnz == 2
        dense = t.to_dense()
        assert dense[1, 1] == 10
        assert dense[0, 0] == 5
