"""ALTO format: adaptive bit allocation, construction, partitioning, and
data-driven format selection.

The encode/decode property tests cover the adaptive-allocation edge cases
the fixed Morton interleave cannot represent compactly: extents near and
over 2^20, non-power-of-two shapes, and strongly non-uniform mode widths
(keys spilling into a second 64-bit word).
"""

import numpy as np
import pytest

from repro.analysis.model import FormatStats, format_stats
from repro.core.hicoo import HicooTensor
from repro.core.tuner import choose_format
from repro.formats import FORMAT_NAMES, as_format
from repro.formats.alto import AltoTensor
from repro.formats.coo import CooTensor
from repro.formats.csf import CsfTensor
from repro.util.bitops import (alto_decode, alto_encode, alto_positions,
                               alto_widths, bits_for)
from tests.conftest import make_random_coo


# ----------------------------------------------------------------------
# adaptive bit allocation: widths, positions, round-trip
# ----------------------------------------------------------------------
def test_alto_widths_size_to_extents():
    assert alto_widths((8, 8, 8)) == (3, 3, 3)
    assert alto_widths((9, 8, 8)) == (4, 3, 3)  # 9 needs 4 bits (max idx 8)
    assert alto_widths((1, 1)) == (1, 1)  # degenerate modes keep one bit
    assert alto_widths((2 ** 20, 3, 1000)) == (20, 2, 10)
    assert alto_widths((2 ** 20 + 1, 2)) == (21, 1)
    with pytest.raises(ValueError):
        alto_widths((0, 4))


def test_alto_positions_round_robin_lsb_first():
    # widths (3, 1, 2): mode bits are dealt round-robin from the LSB,
    # skipping exhausted modes — the ALTO paper's allocation rule
    pos = alto_positions((3, 1, 2))
    assert pos == ((0, 3, 5), (1,), (2, 4))
    total = sorted(b for mode in pos for b in mode)
    assert total == list(range(6))  # a permutation: no gaps, no overlaps


@pytest.mark.parametrize("shape", [
    (25, 18, 12),                  # non-power-of-two, uniform-ish
    (2 ** 20 - 1, 37, 5),          # near 2^20
    (2 ** 20 + 3, 37, 5),          # over 2^20 (21-bit mode)
    (2 ** 25, 2 ** 25, 2 ** 25),   # 75 bits: two-word keys
    (11, 9, 14, 7, 3),             # 5-mode, tiny odd extents
    (1, 130, 9),                   # degenerate mode
])
def test_alto_encode_decode_round_trip(shape):
    rng = np.random.default_rng(hash(shape) % (2 ** 32))
    coords = np.stack(
        [rng.integers(0, s, 257, dtype=np.uint64) for s in shape])
    # force the extremes in: index 0 and the max index of every mode
    coords[:, 0] = 0
    coords[:, 1] = np.array([s - 1 for s in shape], dtype=np.uint64)
    widths = alto_widths(shape)
    words = alto_encode(coords, widths)
    assert words.shape == (-(-sum(widths) // 64), coords.shape[1])
    back = alto_decode(words, widths)
    assert np.array_equal(back, coords)


def test_alto_tensor_round_trips_indices_exactly():
    shape = (2 ** 20 + 3, 37, 5)
    coo = make_random_coo(shape, 500, seed=3)
    alto = AltoTensor(coo)
    back = alto.to_coo()
    # same (index, value) multiset; ALTO stores them key-sorted
    order = np.argsort(alto.source_order)
    assert np.array_equal(back.indices[order], coo.indices)
    assert np.array_equal(back.values[order], coo.values)


# ----------------------------------------------------------------------
# construction: shared sort with MortonContext, storage, caching
# ----------------------------------------------------------------------
def test_alto_shares_morton_sort_for_uniform_widths():
    from repro.obs import metrics

    coo = make_random_coo((32, 32, 32), 400, seed=5)  # uniform 5-bit widths
    coo.morton_context()  # the HiCOO-side sort, paid once
    was_enabled = metrics.enabled()
    metrics.enable()
    try:
        before = metrics.value("convert.alto_shared_sorts")
        AltoTensor(coo)
        assert metrics.value("convert.alto_shared_sorts") == before + 1
    finally:
        if not was_enabled:
            metrics.disable()


def test_alto_context_memoized_on_coo():
    coo = make_random_coo((25, 18, 12), 300, seed=6)
    assert coo.alto_context() is coo.alto_context()
    a1 = AltoTensor(coo)
    a2 = AltoTensor(coo)
    assert a1.keys is a2.keys  # both ride the same cached context


def test_alto_storage_and_cache_accounting():
    coo = make_random_coo((25, 18, 12), 300, seed=7)
    alto = AltoTensor(coo)
    storage = alto.storage_bytes()
    assert storage["keys"] == 8 * alto.keys.shape[0] * alto.nnz
    assert storage["values"] == 4 * alto.nnz
    assert alto.cache_nbytes() == 0  # nothing materialized yet
    alto.mode_view(0)
    assert alto.cache_nbytes() > 0
    alto.clear_cache()
    assert alto.cache_nbytes() == 0


@pytest.mark.parametrize("strategy", ["schedule", "privatize"])
def test_alto_parallel_tasks_and_operators_survive_between_calls(strategy):
    from repro.kernels.mttkrp import mttkrp_parallel
    from repro.obs import metrics

    coo = make_random_coo((40, 30, 20), 800, seed=9)
    alto = AltoTensor(coo)
    rng = np.random.default_rng(9)
    factors = [rng.random((s, 4)) for s in coo.shape]
    first = mttkrp_parallel(alto, factors, 1, 3, strategy=strategy).output
    tasks = alto.task_gathers(1, 3, strategy)
    assert alto.task_gathers(1, 3, strategy) is tasks
    cached = alto.cache_nbytes()
    was_enabled = metrics.enabled()
    metrics.enable()
    try:
        builds = metrics.value("gather.reduction_builds")
        csr = metrics.value("scatter.csr")
        again = mttkrp_parallel(alto, factors, 1, 3, strategy=strategy)
        assert metrics.value("gather.reduction_builds") == builds
        assert metrics.value("scatter.csr") == csr + sum(
            1 for tg in tasks if tg.nnz)
    finally:
        if not was_enabled:
            metrics.disable()
    assert np.array_equal(again.output, first)
    assert alto.cache_nbytes() == cached
    assert cached > sum(tg.nbytes() for tg in alto._mode_views.values())
    alto.clear_cache()
    assert alto.cache_nbytes() == 0


# ----------------------------------------------------------------------
# equal-nnz partitioning: row-disjoint, load-balanced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nthreads", [1, 2, 3, 7, 64])
def test_alto_schedule_row_disjoint_and_balanced(nthreads):
    coo = make_random_coo((40, 30, 20), 800, seed=8)
    alto = AltoTensor(coo)
    for mode in range(3):
        part = alto.schedule(mode, nthreads)
        rows = alto.mode_view(mode).ginds[:, mode]
        assert int(part.thread_nnz.sum()) == alto.nnz
        seen_hi = -1
        for lo, hi in part.ranges:
            if lo == hi:
                continue
            assert lo == 0 or rows[lo] != rows[lo - 1]  # cut at row boundary
            assert rows[lo] > seen_hi  # row-disjoint, ascending
            seen_hi = int(rows[hi - 1])


def test_alto_schedule_balances_skewed_rows():
    # one hot row holds half the nonzeros; equal-nnz splitting must still
    # spread the rest instead of handing one thread everything (the HiCOO
    # superblock schedule's worst case)
    rng = np.random.default_rng(9)
    nnz = 600
    r = np.where(rng.random(nnz) < 0.5, 0, rng.integers(1, 50, nnz))
    idx = np.stack([r, rng.integers(0, 40, nnz), rng.integers(0, 30, nnz)],
                   axis=1)
    coo = CooTensor((50, 40, 30), idx,
                    rng.standard_normal(nnz).astype(np.float32))
    alto = AltoTensor(coo)
    part = alto.schedule(0, 4)
    nz = part.thread_nnz[part.thread_nnz > 0]
    # the indivisible hot row caps balance at ~nnz/2 per thread
    assert nz.max() <= int(0.7 * alto.nnz)
    assert len(nz) >= 3


# ----------------------------------------------------------------------
# data-driven format selection
# ----------------------------------------------------------------------
def _blocked_coo(seed=10):
    """Nonzeros clustered into dense 16^3 blocks: HiCOO's regime."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(12):
        base = rng.integers(0, 4, 3) * 16
        pts.append(base + rng.integers(0, 16, (120, 3)))
    idx = np.unique(np.concatenate(pts), axis=0)
    return CooTensor((64, 64, 64), idx,
                     rng.standard_normal(len(idx)).astype(np.float32))


def _skewed_coo(seed=11):
    """Hyper-sparse with Zipf-skewed mode 0: ALTO's regime."""
    rng = np.random.default_rng(seed)
    nnz = 4000
    r = np.minimum((rng.zipf(1.3, nnz) - 1) % 100000, 99999)
    idx = np.stack([r, rng.integers(0, 5000, nnz),
                    rng.integers(0, 500, nnz)], axis=1)
    return CooTensor((100000, 5000, 500), idx,
                     rng.standard_normal(nnz).astype(np.float32))


def test_choose_format_on_fixtures():
    assert choose_format(_blocked_coo()) == "hicoo"
    assert choose_format(_skewed_coo()) == "alto"
    tiny = make_random_coo((6, 6, 6), 30, seed=12)
    assert choose_format(tiny) == "coo"


def test_choose_format_is_pure_and_deterministic():
    # same recorded stats -> same pick, no tensor needed
    stats = FormatStats(nnz=5000, nmodes=3, shape=(1000, 1000, 1000),
                        alpha_b=0.95, mode_skew=40.0, fiber_reuse=1.1)
    picks = {choose_format(stats=stats) for _ in range(5)}
    assert picks == {"alto"}
    csf_stats = FormatStats(nnz=5000, nmodes=3, shape=(100, 100, 100),
                            alpha_b=0.8, mode_skew=2.0, fiber_reuse=4.0)
    assert choose_format(stats=csf_stats) == "csf"
    # measured stats agree with themselves across calls
    coo = _skewed_coo()
    assert format_stats(coo) == format_stats(coo)
    with pytest.raises(ValueError):
        choose_format()


def test_format_stats_blocked_vs_skewed_separation():
    blocked = format_stats(_blocked_coo())
    skewed = format_stats(_skewed_coo())
    assert blocked.alpha_b < 0.5 < skewed.alpha_b
    assert skewed.mode_skew > 8.0 >= blocked.mode_skew


# ----------------------------------------------------------------------
# as_format / cp_als / CLI exposure
# ----------------------------------------------------------------------
def test_as_format_all_names():
    coo = make_random_coo((20, 15, 10), 200, seed=13)
    for name in FORMAT_NAMES:
        t = as_format(coo, name)
        assert t.format_name == name
        # conversion is value-preserving
        assert abs(t.to_coo().norm() - coo.norm()) < 1e-12
    assert as_format(coo, "coo") is coo  # already there: no copy
    alto = AltoTensor(coo)
    assert as_format(alto, "alto") is alto
    with pytest.raises(ValueError, match="unknown format"):
        as_format(coo, "dok")


def test_cp_als_format_kwarg():
    from repro.cpd.cp_als import cp_als

    coo = make_random_coo((15, 12, 10), 250, seed=14, values="uniform")
    base = cp_als(coo, 3, maxiters=3, seed=0)
    for fmt in ("alto", "auto"):
        res = cp_als(coo, 3, maxiters=3, seed=0, format=fmt)
        assert res.iterations == base.iterations
        assert res.fits[-1] == pytest.approx(base.fits[-1], abs=1e-8)


def test_cli_mttkrp_alto_and_info_formats(tmp_path, capsys):
    from repro.data.frostt import write_tns
    from repro.tools.cli import main

    path = tmp_path / "t.tns"
    write_tns(make_random_coo((30, 20, 10), 400, seed=15), path)
    assert main(["mttkrp", str(path), "-r", "4", "-m", "0",
                 "-f", "alto", "-t", "2"]) == 0
    out = capsys.readouterr().out
    assert "alto MTTKRP" in out

    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "storage formats: " + ", ".join(FORMAT_NAMES) in out
    assert "tuner would pick:" in out

    assert main(["info"]) == 0  # tensor stays optional
    out = capsys.readouterr().out
    assert "tuner would pick" not in out


# ----------------------------------------------------------------------
# analysis integration
# ----------------------------------------------------------------------
def test_alto_in_format_suite_and_work_model():
    from repro.analysis.model import build_format_suite
    from repro.analysis.traffic import mttkrp_work

    coo = make_random_coo((30, 20, 10), 300, seed=16)
    suite = build_format_suite(coo, block_bits=4)
    assert set(suite) == {"coo", "csf", "hicoo", "alto"}
    assert isinstance(suite["alto"], AltoTensor)
    w = mttkrp_work(suite["alto"], 0, 8)
    assert w.flops == 3 * 8 * coo.nnz
    assert w.atomic_updates == 0
    assert w.detail["index_bytes"] == 8 * coo.nnz + 4 * coo.nnz  # 1-word keys
