"""Equivalence matrix: every format x strategy x planned/unplanned MTTKRP
path must agree with the dense reference to 1e-10, including the new
scatter backends (this is the acceptance gate of the gather/scatter layer).
"""

import numpy as np
import pytest

from repro.core.hicoo import HicooTensor
from repro.formats.alto import AltoTensor
from repro.formats.csf import CsfTensor
from repro.formats.dense import DenseTensor
from repro.kernels.mttkrp import mttkrp_parallel
from repro.kernels.plan import plan_mttkrp
from tests.conftest import make_random_coo

CASES = [
    ("3mode", (25, 18, 12), 400, 2),
    ("4mode", (11, 9, 14, 7), 300, 2),
]

STRATEGIES = {
    "coo": ["auto", "privatize", "atomic"],
    "hicoo": ["auto", "schedule", "privatize"],
    "csf": ["auto", "subtree", "privatize"],
    "alto": ["auto", "schedule", "privatize"],
}


def _suite(shape, nnz, block_bits, seed):
    coo = make_random_coo(shape, nnz, seed=seed)
    return coo, {
        "coo": coo,
        "hicoo": HicooTensor(coo, block_bits=block_bits),
        "csf": CsfTensor(coo),
        "alto": AltoTensor(coo),
    }


def _dense_reference(coo, factors, mode):
    return DenseTensor(coo.to_dense()).mttkrp(factors, mode)


@pytest.mark.parametrize("name,shape,nnz,bits", CASES)
def test_equivalence_matrix(name, shape, nnz, bits):
    coo, suite = _suite(shape, nnz, bits, seed=len(shape))
    rng = np.random.default_rng(42)
    factors = [rng.normal(size=(s, 5)) for s in shape]
    for mode in range(len(shape)):
        ref = _dense_reference(coo, factors, mode)
        # sequential kernel of every format
        for fmt, tensor in suite.items():
            np.testing.assert_allclose(
                tensor.mttkrp(factors, mode), ref, atol=1e-10,
                err_msg=f"{name}: sequential {fmt} mode {mode}")
        # parallel, all strategies, several widths
        for fmt, tensor in suite.items():
            for strategy in STRATEGIES[fmt]:
                for nthreads in (1, 3, 5):
                    run = mttkrp_parallel(tensor, factors, mode, nthreads,
                                          strategy=strategy)
                    np.testing.assert_allclose(
                        run.output, ref, atol=1e-10,
                        err_msg=f"{name}: {fmt}/{strategy} "
                                f"P={nthreads} mode {mode}")


@pytest.mark.parametrize("name,shape,nnz,bits", CASES)
@pytest.mark.parametrize("strategy", ["auto", "schedule", "privatize"])
def test_planned_equivalence(name, shape, nnz, bits, strategy):
    coo, suite = _suite(shape, nnz, bits, seed=len(shape))
    hic = suite["hicoo"]
    rng = np.random.default_rng(7)
    factors = [rng.normal(size=(s, 4)) for s in shape]
    plan = plan_mttkrp(hic, rank=4, nthreads=4, strategy=strategy)
    for mode in range(len(shape)):
        ref = _dense_reference(coo, factors, mode)
        run = mttkrp_parallel(hic, factors, mode, 4, plan=plan)
        np.testing.assert_allclose(
            run.output, ref, atol=1e-10,
            err_msg=f"{name}: planned {strategy} mode {mode}")
        # second call hits the cached gathers and must stay identical
        again = mttkrp_parallel(hic, factors, mode, 4, plan=plan)
        np.testing.assert_allclose(again.output, run.output, atol=0)
        assert again.scatter_backends == run.scatter_backends


def test_plan_symbolic_work_is_cached():
    """CP-ALS-style reuse: the plan's gather arrays are built once and the
    very same objects serve every later call (symbolic cost paid once)."""
    coo = make_random_coo((30, 24, 16), 500, seed=9)
    hic = HicooTensor(coo, block_bits=2)
    rng = np.random.default_rng(1)
    factors = [rng.normal(size=(s, 4)) for s in hic.shape]
    plan = plan_mttkrp(hic, rank=4, nthreads=3)
    mttkrp_parallel(hic, factors, 0, 3, plan=plan)
    first = [id(tg) for tg in plan.for_mode(0).gathers]
    cache_bytes = hic.gather_cache_bytes()
    for _ in range(3):
        mttkrp_parallel(hic, factors, 0, 3, plan=plan)
    assert [id(tg) for tg in plan.for_mode(0).gathers] == first
    assert hic.gather_cache_bytes() == cache_bytes  # no new symbolic work


def test_scatter_backends_recorded():
    coo = make_random_coo((40, 30, 20), 600, seed=13)
    hic = HicooTensor(coo, block_bits=2)
    rng = np.random.default_rng(2)
    factors = [rng.normal(size=(s, 4)) for s in hic.shape]
    run = mttkrp_parallel(hic, factors, 0, 4)
    assert run.scatter_backends  # non-empty
    assert all(b in ("csr", "add_at", "reduceat", "bincount",
                     "sort_reduceat")
               for b in run.scatter_backends)
