"""Differential fuzz suite: the parallel backends against the sequential
oracle.

Randomized tensors (orders 3-5; uniform, skewed, and hyper-sparse
patterns) x modes x block bits x thread/worker counts, plus the deli,
uber and nell1 registry analogs, checked as:

* every ``"schedule"`` run — HiCOO on ``sim``, ``thread`` and ``process``
  at 2, 3 and 5 threads, ALTO on every backend — is **bit-identical** to
  its format's sequential kernel: each task owns whole output rows and
  sums them through its memoized CSR reduction, left to right in task
  order, exactly as the sequential kernel does;
* the sequential COO and ALTO kernels are **bit-identical** to the
  ``np.add.at`` oracle in COO input order on every mode;
* ``"privatize"`` runs (one extra cross-worker sum) and the CSF tree
  kernel (its level sums group the terms differently) stay within a
  tight ULP budget of the oracle on positive-valued tensors;
* the ``process`` backend vs. the ``sim`` backend — bit-identical for
  both strategies (same partition, same per-task kernels).

The suite counts every (tensor, mode, backend, strategy) comparison it ran
and asserts the total is >= 200, so the coverage floor of the acceptance
criterion is enforced by the tests themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hicoo import HicooTensor
from repro.data import registry
from repro.formats.alto import AltoTensor
from repro.formats.coo import CooTensor
from repro.formats.csf import CsfTensor
from repro.kernels.backends import tier_available, tier_reason
from repro.kernels.mttkrp import mttkrp, mttkrp_parallel
from repro.kernels.plan import plan_mttkrp
from repro.parallel import procpool

#: the compiled tiers, each parametrized with a *visible* skip reason when
#: its dependency is absent (CI's default jobs show exactly why)
COMPILED_TIERS = [
    pytest.param(t, marks=pytest.mark.skipif(
        not tier_available(t), reason=tier_reason(t) or f"{t} unavailable"))
    for t in ("numba", "cupy")
]

#: ULP budget for the paths that reassociate row reductions: privatized
#: runs add one cross-worker sum, and the CSF tree sums each row's terms
#: grouped by fiber.  Reassociating a k-term all-positive sum perturbs the
#: result by O(k) ULP at worst; with <= ~100 contributions per row the
#: observed worst case across the seeds below is 7 ULP.  Every other path
#: is asserted bitwise.
MAX_ULP = 8.0

#: running count of executed comparisons (asserted >= 200 at the end)
CASES = {"count": 0}


def _random_coo(seed: int) -> CooTensor:
    """Random tensor with one of three structural regimes."""
    rng = np.random.default_rng(seed)
    order = int(rng.integers(3, 6))
    pattern = ("uniform", "skewed", "hypersparse")[seed % 3]
    if pattern == "hypersparse":
        shape = tuple(int(rng.integers(24, 64)) for _ in range(order))
        nnz = int(rng.integers(8, 40))
    else:
        shape = tuple(int(rng.integers(6, 28)) for _ in range(order))
        space = int(np.prod(shape))
        nnz = int(min(space // 2, rng.integers(60, 400)))
    if pattern == "skewed":
        # cluster mode-0 on a handful of hot slices (Zipf-ish skew)
        hot = rng.integers(0, shape[0], size=max(1, shape[0] // 6))
        cols = [rng.choice(hot, size=nnz)]
        cols += [rng.integers(0, s, size=nnz) for s in shape[1:]]
        inds = np.stack(cols, axis=1)
        inds = np.unique(inds, axis=0)
        nnz = len(inds)
    else:
        space = int(np.prod(shape))
        flat = rng.choice(space, size=nnz, replace=False)
        inds = np.stack(np.unravel_index(flat, shape), axis=1)
    # positive values: reassociation stays within the ULP budget
    vals = rng.random(nnz) + 0.5
    return CooTensor(shape, inds, vals, sum_duplicates=False)


def _ulp_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise |a-b| measured in ULPs of the larger magnitude."""
    scale = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    scale = np.where(scale > 0, scale, np.finfo(np.float64).tiny)
    return float((np.abs(a - b) / scale).max()) if a.size else 0.0


def _check_against_oracle(out: np.ndarray, oracle: np.ndarray, label: str):
    assert out.shape == oracle.shape, label
    ulp = _ulp_diff(out, oracle)
    assert ulp <= MAX_ULP, f"{label}: {ulp:.1f} ULP from the oracle"
    CASES["count"] += 1


def _check_bitwise(out: np.ndarray, oracle: np.ndarray, label: str):
    assert out.shape == oracle.shape, label
    assert np.array_equal(out, oracle), (
        f"{label}: diverged bitwise ({_ulp_diff(out, oracle):.1f} ULP)")
    CASES["count"] += 1


def _check_run(run, oracle: np.ndarray, label: str):
    """Schedule runs are bitwise; privatized runs get the ULP budget."""
    if run.strategy == "schedule":
        _check_bitwise(run.output, oracle, f"{label} {run.strategy}")
    else:
        _check_against_oracle(run.output, oracle, f"{label} {run.strategy}")


@pytest.fixture(scope="module", autouse=True)
def _procpool_teardown():
    yield
    procpool.shutdown_pools()


# ----------------------------------------------------------------------
# sim / thread backends vs the sequential oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(24))
def test_sim_and_thread_match_oracle(seed):
    coo = _random_coo(seed)
    block_bits = 2 + seed % 4
    hic = HicooTensor(coo, block_bits=block_bits)
    rng = np.random.default_rng(1000 + seed)
    rank = int(rng.integers(2, 9))
    factors = [rng.random((s, rank)) + 0.1 for s in coo.shape]
    nthreads = (2, 3, 5)[seed % 3]
    for mode in range(coo.nmodes):
        oracle = mttkrp(hic, factors, mode)
        for backend in ("sim", "thread"):
            for strategy in ("schedule", "privatize"):
                run = mttkrp_parallel(hic, factors, mode, nthreads,
                                      strategy=strategy, backend=backend)
                assert run.strategy == strategy
                _check_run(run, oracle, f"seed={seed} mode={mode} {backend}")


# ----------------------------------------------------------------------
# process backend: bit-identical to sim, ULP-close to the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_process_backend_equivalence(seed):
    coo = _random_coo(100 + seed)
    block_bits = 2 + seed % 3
    hic = HicooTensor(coo, block_bits=block_bits)
    rng = np.random.default_rng(2000 + seed)
    rank = int(rng.integers(2, 7))
    factors = [rng.random((s, rank)) + 0.1 for s in coo.shape]
    nworkers = 2 + seed % 2
    try:
        for strategy in ("schedule", "privatize"):
            plan = plan_mttkrp(hic, rank, nworkers, strategy=strategy)
            for mode in range(coo.nmodes):
                oracle = mttkrp(hic, factors, mode)
                sim = mttkrp_parallel(hic, factors, mode, nworkers,
                                      plan=plan, backend="sim")
                proc = mttkrp_parallel(hic, factors, mode, nworkers,
                                       plan=plan, backend="process")
                assert proc.strategy == sim.strategy == strategy
                # same partition, same per-task kernels => bit-identical
                assert np.array_equal(proc.output, sim.output), (
                    f"seed={seed} mode={mode} {strategy}: process backend "
                    "diverged bitwise from the sim backend")
                CASES["count"] += 1
                _check_run(proc, oracle, f"seed={seed} mode={mode} process")
                assert proc.report.backend == "process"
                assert proc.report.nthreads == nworkers
                assert int(proc.thread_nnz.sum()) == coo.nnz
    finally:
        procpool.release_shared(hic)


@pytest.mark.parametrize("seed", range(4))
def test_process_backend_auto_strategy_and_warm_calls(seed):
    """Unforced strategy + repeated warm calls (CP-ALS-style reuse)."""
    coo = _random_coo(200 + seed)
    hic = HicooTensor(coo, block_bits=3)
    rng = np.random.default_rng(3000 + seed)
    factors = [rng.random((s, 4)) + 0.1 for s in coo.shape]
    try:
        for mode in range(coo.nmodes):
            oracle = mttkrp(hic, factors, mode)
            for repeat in range(2):  # second call exercises warm caches
                run = mttkrp_parallel(hic, factors, mode, 2,
                                      backend="process")
                _check_run(run, oracle,
                           f"seed={seed} mode={mode} auto repeat={repeat}")
    finally:
        procpool.release_shared(hic)


def test_process_backend_empty_tensor():
    coo = CooTensor((8, 8, 8), np.empty((0, 3), dtype=np.int64),
                    np.empty(0), sum_duplicates=False)
    hic = HicooTensor(coo, block_bits=2)
    factors = [np.ones((8, 3)) for _ in range(3)]
    try:
        run = mttkrp_parallel(hic, factors, 0, 2, backend="process")
        assert np.array_equal(run.output, np.zeros((8, 3)))
        CASES["count"] += 1
    finally:
        procpool.release_shared(hic)


def test_process_backend_more_workers_than_blocks():
    coo = _random_coo(999)
    hic = HicooTensor(coo, block_bits=5)  # few, large blocks
    rng = np.random.default_rng(999)
    factors = [rng.random((s, 3)) + 0.1 for s in coo.shape]
    oracle = mttkrp(hic, factors, 0)
    try:
        run = mttkrp_parallel(hic, factors, 0, 6, backend="process")
        _check_run(run, oracle, "overprovisioned workers")
    finally:
        procpool.release_shared(hic)


@pytest.mark.parametrize("name", ["deli", "uber", "nell1"])
def test_hicoo_schedule_bitwise_on_registry_analogs(name):
    """The paper's regimes: power-law (deli, nell1) and clustered (uber)
    analogs, every mode, schedule on sim/thread/process at 2, 3 and 5
    threads — all bitwise equal to the sequential HiCOO kernel."""
    hic = HicooTensor(registry.load(name, scale=0.1))
    rng = np.random.default_rng(11)
    factors = [rng.random((s, 8)) + 0.1 for s in hic.shape]
    try:
        for nthreads in (2, 3, 5):
            plan = plan_mttkrp(hic, 8, nthreads, strategy="schedule")
            for mode in range(hic.nmodes):
                oracle = mttkrp(hic, factors, mode)
                for backend in ("sim", "thread", "process"):
                    run = mttkrp_parallel(hic, factors, mode, nthreads,
                                          plan=plan, backend=backend)
                    assert run.strategy == "schedule"
                    _check_bitwise(run.output, oracle,
                                   f"{name} mode={mode} {backend} "
                                   f"P={nthreads}")
    finally:
        procpool.release_shared(hic)


def test_process_backend_rejects_non_hicoo():
    coo = _random_coo(5)
    rng = np.random.default_rng(5)
    factors = [rng.random((s, 3)) for s in coo.shape]
    with pytest.raises(ValueError, match="process"):
        mttkrp_parallel(coo, factors, 0, 2, backend="process")


# ----------------------------------------------------------------------
# compiled tiers (numba / cupy): fuzz vs the sequential oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", COMPILED_TIERS)
@pytest.mark.parametrize("seed", range(12))
def test_compiled_tier_matches_oracle(tier, seed):
    """Differential fuzz of the compiled tiers: orders 3-5, uniform /
    skewed / hyper-sparse regimes, both strategies, 8-ULP budget."""
    coo = _random_coo(300 + seed)
    hic = HicooTensor(coo, block_bits=2 + seed % 3)
    rng = np.random.default_rng(4000 + seed)
    rank = int(rng.integers(2, 9))
    factors = [rng.random((s, rank)) + 0.1 for s in coo.shape]
    nthreads = 2 + seed % 3
    for strategy in ("schedule", "privatize"):
        plan = plan_mttkrp(hic, rank, nthreads, strategy=strategy)
        for mode in range(coo.nmodes):
            oracle = mttkrp(hic, factors, mode)
            for repeat in range(2):  # repeat 1 = warm fused/device caches
                run = mttkrp_parallel(hic, factors, mode, nthreads,
                                      plan=plan, backend=tier)
                assert run.report.backend == tier
                _check_against_oracle(
                    run.output, oracle,
                    f"seed={seed} mode={mode} {tier}/{strategy} "
                    f"repeat={repeat}")


@pytest.mark.parametrize("tier", COMPILED_TIERS)
def test_compiled_tier_unplanned_and_empty(tier):
    coo = _random_coo(777)
    hic = HicooTensor(coo, block_bits=3)
    rng = np.random.default_rng(777)
    factors = [rng.random((s, 4)) + 0.1 for s in coo.shape]
    oracle = mttkrp(hic, factors, 0)
    run = mttkrp_parallel(hic, factors, 0, 2, backend=tier)  # plan built ad hoc
    _check_against_oracle(run.output, oracle, f"{tier} unplanned")

    empty = HicooTensor(CooTensor((8, 8, 8), np.empty((0, 3), dtype=np.int64),
                                  np.empty(0), sum_duplicates=False),
                        block_bits=2)
    ones = [np.ones((8, 3)) for _ in range(3)]
    run = mttkrp_parallel(empty, ones, 0, 2, backend=tier)
    assert np.array_equal(run.output, np.zeros((8, 3)))
    CASES["count"] += 1


# ----------------------------------------------------------------------
# compiled-tier *requests* must be safe everywhere: when the dependency is
# absent these exercise the silent NumPy fallback (and always run)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("tier", ["numba", "cupy"])
def test_compiled_request_always_matches_oracle(tier, seed):
    coo = _random_coo(400 + seed)
    hic = HicooTensor(coo, block_bits=2 + seed % 3)
    rng = np.random.default_rng(5000 + seed)
    factors = [rng.random((s, 5)) + 0.1 for s in coo.shape]
    for mode in range(coo.nmodes):
        oracle = mttkrp(hic, factors, mode)
        run = mttkrp_parallel(hic, factors, mode, 2, backend=tier)
        _check_against_oracle(run.output, oracle,
                              f"seed={seed} mode={mode} request={tier}")
        expected = tier if tier_available(tier) else "sim"
        assert run.report.backend == expected


# ----------------------------------------------------------------------
# ALTO: every backend bit-identical to the sequential COO oracle
# ----------------------------------------------------------------------
def _coo_oracle(coo: CooTensor, factors, mode: int) -> np.ndarray:
    """The sequential COO oracle: ``np.add.at`` in original input order.

    This is the definitional MTTKRP semantics (each output row accumulates
    its contributions one at a time, left to right in COO order).  The COO
    and ALTO kernels reduce each row in that same order, so their output
    must match *bitwise* on every backend and thread count.
    """
    rank = factors[0].shape[1]
    prod = np.ones((coo.nnz, rank))
    for m, f in enumerate(factors):
        if m != mode:
            prod *= f[coo.indices[:, m]]
    out = np.zeros((coo.shape[mode], rank))
    np.add.at(out, coo.indices[:, mode], coo.values[:, None] * prod)
    return out


@pytest.mark.parametrize("seed", range(16))
def test_alto_sim_and_thread_bitwise(seed):
    coo = _random_coo(600 + seed)
    alto = AltoTensor(coo)
    rng = np.random.default_rng(6000 + seed)
    rank = int(rng.integers(2, 9))
    factors = [rng.random((s, rank)) + 0.1 for s in coo.shape]
    nthreads = (2, 3, 5)[seed % 3]
    csf = CsfTensor(coo)
    for mode in range(coo.nmodes):
        oracle = _coo_oracle(coo, factors, mode)
        _check_bitwise(alto.mttkrp(factors, mode), oracle,
                       f"seed={seed} mode={mode} sequential alto")
        _check_bitwise(coo.mttkrp(factors, mode), oracle,
                       f"seed={seed} mode={mode} sequential coo")
        _check_against_oracle(csf.mttkrp(factors, mode), oracle,
                              f"seed={seed} mode={mode} sequential csf")
        for backend in ("sim", "thread"):
            run = mttkrp_parallel(alto, factors, mode, nthreads,
                                  strategy="schedule", backend=backend)
            assert np.array_equal(run.output, oracle), (
                f"seed={seed} mode={mode} alto {backend}/schedule "
                "diverged bitwise from the COO oracle")
            CASES["count"] += 1
        priv = mttkrp_parallel(alto, factors, mode, nthreads,
                               strategy="privatize")
        _check_against_oracle(priv.output, oracle,
                              f"seed={seed} mode={mode} alto privatize")


@pytest.mark.parametrize("seed", range(6))
def test_alto_process_backend_bitwise(seed):
    coo = _random_coo(700 + seed)
    alto = AltoTensor(coo)
    rng = np.random.default_rng(7000 + seed)
    rank = int(rng.integers(2, 7))
    factors = [rng.random((s, rank)) + 0.1 for s in coo.shape]
    nworkers = 2 + seed % 2
    try:
        for mode in range(coo.nmodes):
            oracle = _coo_oracle(coo, factors, mode)
            for repeat in range(2):  # second call exercises warm sessions
                run = mttkrp_parallel(alto, factors, mode, nworkers,
                                      strategy="schedule", backend="process")
                assert run.report.backend == "process"
                assert np.array_equal(run.output, oracle), (
                    f"seed={seed} mode={mode} repeat={repeat}: alto process "
                    "backend diverged bitwise from the COO oracle")
                CASES["count"] += 1
            priv = mttkrp_parallel(alto, factors, mode, nworkers,
                                   strategy="privatize", backend="process")
            _check_against_oracle(priv.output, oracle,
                                  f"seed={seed} mode={mode} alto "
                                  "process/privatize")
            # one partition on every backend: the process run cuts the
            # same linear-view chunks as sim, so the bits match too
            sim = mttkrp_parallel(alto, factors, mode, nworkers,
                                  strategy="privatize", backend="sim")
            assert np.array_equal(priv.output, sim.output), (
                f"seed={seed} mode={mode}: alto process/privatize diverged "
                "bitwise from sim/privatize")
            assert np.array_equal(priv.thread_nnz, sim.thread_nnz)
            CASES["count"] += 1
    finally:
        procpool.release_shared(alto)


@pytest.mark.parametrize("tier", ["numba", "cupy"])
@pytest.mark.parametrize("seed", range(6))
def test_alto_compiled_request_bitwise(tier, seed):
    """Compiled-tier requests stay bitwise: the numba scatter is a
    sequential in-order loop (same summation order as the oracle) and an
    unavailable tier — or cupy, which has no ALTO kernels yet — silently
    runs the NumPy chunks."""
    coo = _random_coo(800 + seed)
    alto = AltoTensor(coo)
    rng = np.random.default_rng(8000 + seed)
    factors = [rng.random((s, 5)) + 0.1 for s in coo.shape]
    for mode in range(coo.nmodes):
        oracle = _coo_oracle(coo, factors, mode)
        run = mttkrp_parallel(alto, factors, mode, 2, strategy="schedule",
                              backend=tier)
        assert np.array_equal(run.output, oracle), (
            f"seed={seed} mode={mode} alto request={tier} diverged bitwise")
        CASES["count"] += 1
        expected = "numba" if tier == "numba" and tier_available("numba") \
            else "sim"
        assert run.report.backend == expected


def test_alto_empty_tensor_all_backends():
    coo = CooTensor((8, 8, 8), np.empty((0, 3), dtype=np.int64),
                    np.empty(0), sum_duplicates=False)
    alto = AltoTensor(coo)
    factors = [np.ones((8, 3)) for _ in range(3)]
    try:
        assert np.array_equal(alto.mttkrp(factors, 0), np.zeros((8, 3)))
        for backend in ("sim", "thread", "process"):
            run = mttkrp_parallel(alto, factors, 0, 2, backend=backend)
            assert np.array_equal(run.output, np.zeros((8, 3)))
            CASES["count"] += 1
    finally:
        procpool.release_shared(alto)


# ----------------------------------------------------------------------
# case-count floor (keep this test LAST in the file)
# ----------------------------------------------------------------------
def test_zz_case_floor():
    """The acceptance criterion demands >= 200 randomized comparisons."""
    assert CASES["count"] >= 200, (
        f"only {CASES['count']} equivalence cases executed")
