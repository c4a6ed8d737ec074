"""The HiCOO sparse-tensor format — the paper's primary contribution.

HiCOO ("Hierarchical COOrdinate") stores a tensor as Morton-ordered index
blocks of edge ``B = 2**block_bits``:

* ``bptr``  — int64,  (nblocks + 1): nonzero range of each block;
* ``binds`` — uint32, (nblocks, N): block coordinates, stored once per block;
* ``einds`` — uint8,  (nnz, N):     element offsets inside the block;
* ``values``—         (nnz,):       nonzero values.

Compared with COO's four bytes per mode per nonzero, the per-nonzero index
cost drops to one byte per mode plus an amortized per-block overhead of
``8 + 4N`` bytes — a ~2x total-storage reduction on typical tensors.  Unlike
CSF, the layout is identical for every mode, so one HiCOO tensor serves all N
MTTKRP directions of CP-ALS.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ..formats.base import SparseTensorFormat
from ..formats.coo import CooTensor
from ..kernels.gather import (TaskGather, build_task_gather, coalesce_runs,
                              mttkrp_gather_chunk, runs_from_block_ids)
from ..obs import metrics, trace
from ..util.validation import check_factors, check_mode
from .blocking import MAX_BLOCK_BITS
from .convert import hicoo_storage_bytes

__all__ = ["HicooTensor", "DEFAULT_BLOCK_BITS"]

#: the paper's default block edge is B = 128
DEFAULT_BLOCK_BITS = 7


class HicooTensor(SparseTensorFormat):
    """Sparse tensor in HiCOO format.

    Parameters
    ----------
    coo : source tensor in coordinate format.
    block_bits : b with block edge B = 2**b; must satisfy 1 <= b <= 8 so
        element offsets fit in a byte.  Defaults to the paper's B = 128.
    """

    format_name = "hicoo"

    def __init__(self, coo: CooTensor, block_bits: int = DEFAULT_BLOCK_BITS):
        if not isinstance(coo, CooTensor):
            raise TypeError(f"expected a CooTensor, got {type(coo).__name__}")
        # memoized one-sort pipeline: every block size built from this COO
        # tensor shares one Morton encode + sort (see core/convert.py)
        with trace.span("hicoo.construct", b=int(block_bits), nnz=coo.nnz):
            dec = coo.block_decomposition(block_bits)
        metrics.inc("hicoo.constructions")
        for mode, dim in enumerate(coo.shape):
            nblocks_mode = (dim + (1 << block_bits) - 1) >> block_bits
            if nblocks_mode > np.iinfo(np.uint32).max:
                raise ValueError(
                    f"mode {mode} needs {nblocks_mode} block coordinates, "
                    "which does not fit the 32-bit binds array"
                )
        self._shape = coo.shape
        self.block_bits = int(block_bits)
        self.bptr = dec.block_ptr
        self.binds = dec.block_coords.astype(np.uint32)
        self.einds = dec.elem_offsets
        self.values = dec.values
        #: memoized TaskGather per block-run tuple (symbolic kernel cache)
        self._gather_cache: dict = {}

    @classmethod
    def from_parts(cls, shape, block_bits, bptr, binds, einds, values
                   ) -> "HicooTensor":
        """Assemble a HiCOO tensor from prebuilt block arrays (the
        direct-converter entry point — no COO materialization, no Morton
        context).

        The caller owns the layout invariants: blocks in Morton order,
        elements offset-lexicographic (mode 0 most significant) inside each
        block, ``binds`` uint32 and ``einds`` uint8.
        """
        shape = tuple(shape)
        b = int(block_bits)
        for mode, dim in enumerate(shape):
            nblocks_mode = (dim + (1 << b) - 1) >> b
            if nblocks_mode > np.iinfo(np.uint32).max:
                raise ValueError(
                    f"mode {mode} needs {nblocks_mode} block coordinates, "
                    "which does not fit the 32-bit binds array"
                )
        out = cls.__new__(cls)
        out._shape = shape
        out.block_bits = b
        out.bptr = bptr
        out.binds = binds
        out.einds = einds
        out.values = values
        out._gather_cache = {}
        return out

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def nblocks(self) -> int:
        return len(self.binds)

    @property
    def block_size(self) -> int:
        """Block edge B."""
        return 1 << self.block_bits

    def block_nnz(self) -> np.ndarray:
        return np.diff(self.bptr)

    @cached_property
    def _nnz_block_of(self) -> np.ndarray:
        """Block id of every nonzero (cached; used by the flat kernels)."""
        return np.repeat(np.arange(self.nblocks), self.block_nnz())

    # ------------------------------------------------------------------
    # symbolic gather cache
    # ------------------------------------------------------------------
    def task_gather(self, blocks) -> TaskGather:
        """Memoized fused gather arrays for a set of blocks.

        ``blocks`` is either a sequence of block ids or a sequence of
        half-open ``(lo, hi)`` block runs.  The first call materializes the
        int64 ``(binds << b) + einds`` coordinates (and task-ordered values)
        once; every later call with the same block set — every CP-ALS
        iteration, every TTV/TTM batch — is a dict hit.  The returned
        :class:`~repro.kernels.gather.TaskGather` arrays are shared: treat
        them as read-only.
        """
        blocks = list(blocks)
        if blocks and isinstance(blocks[0], (tuple, list)):
            runs = tuple(coalesce_runs(blocks))
        else:
            runs = tuple(runs_from_block_ids(blocks))
        # setdefault keeps deserialized instances (built via __new__) working
        cache = self.__dict__.setdefault("_gather_cache", {})
        cached = cache.get(runs)
        if cached is None:
            metrics.inc("gather.cache_misses")
            with trace.span("gather.build", nruns=len(runs)):
                cached = build_task_gather(self, runs)
            cache[runs] = cached
            metrics.set_gauge("gather.cache_bytes", self.gather_cache_bytes())
        else:
            metrics.inc("gather.cache_hits")
        return cached

    def sweep_source(self) -> TaskGather:
        """The whole tensor's memoized :meth:`task_gather`: the Morton
        order serves every mode."""
        return self.task_gather([(0, self.nblocks)])

    def clear_gather_cache(self) -> None:
        """Drop every memoized :meth:`task_gather` entry (frees memory)."""
        self.__dict__.setdefault("_gather_cache", {}).clear()

    def gather_cache_bytes(self) -> int:
        """Total footprint of the memoized gather arrays and of the
        reduction operators their MTTKRPs built."""
        cache = self.__dict__.setdefault("_gather_cache", {})
        return sum(tg.nbytes() for tg in cache.values())

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def global_indices(self) -> np.ndarray:
        """(nnz, N) int64 coordinates reconstructed from binds/einds.

        Cached via :meth:`task_gather` (the whole tensor is one block run);
        callers must not mutate the returned array.
        """
        return self.task_gather([(0, self.nblocks)]).ginds

    def to_coo(self) -> CooTensor:
        # the generic level-driven iterator reconstructs (binds << b) + einds
        # per mode into a fresh array (safe to hand to the CooTensor)
        from ..formats.levels import iterate_coords

        inds, values = iterate_coords(self)
        return CooTensor(self._shape, inds, values, sum_duplicates=False)

    def storage_bytes(self) -> dict:
        """Canonical HiCOO storage accounting (paper notation):
        beta_long = 8-byte bptr, beta_int = 4-byte binds, beta_byte = 1-byte
        einds, 4-byte values."""
        return hicoo_storage_bytes(self.nblocks, self.nnz, self.nmodes)

    # ------------------------------------------------------------------
    # MTTKRP kernels
    # ------------------------------------------------------------------
    def mttkrp(self, factors: Sequence[np.ndarray], mode: int,
               kernel: str = "flat") -> np.ndarray:
        """Sequential HiCOO MTTKRP.

        Two kernels compute the identical result:

        * ``"flat"``   — reconstructs global coordinates once and runs a
          single vectorized gather/scatter pass; this is the fast path under
          NumPy and the default.
        * ``"blocked"``— the paper's per-block loop (Algorithm 3): for every
          block, factor rows are addressed as ``U[(bind << b) + eind]``; the
          faithful access pattern, useful for traffic analysis and tests.
        """
        factors = check_factors(factors, self._shape)
        mode = check_mode(mode, self.nmodes)
        if kernel == "flat":
            return self._mttkrp_flat(factors, mode)
        if kernel == "blocked":
            return self._mttkrp_blocked(factors, mode)
        raise ValueError(f"unknown kernel {kernel!r}; use 'flat' or 'blocked'")

    def _mttkrp_flat(self, factors, mode):
        rank = factors[0].shape[1]
        out = np.zeros((self._shape[mode], rank))
        if self.nnz == 0:
            return out
        tg = self.task_gather([(0, self.nblocks)])
        mttkrp_gather_chunk(tg, factors, mode, out)
        return out

    def _mttkrp_blocked(self, factors, mode):
        rank = factors[0].shape[1]
        out = np.zeros((self._shape[mode], rank))
        shift = self.block_bits
        einds = self.einds.astype(np.int64)
        for blk in range(self.nblocks):
            lo, hi = int(self.bptr[blk]), int(self.bptr[blk + 1])
            base = self.binds[blk].astype(np.int64) << shift
            acc = np.repeat(self.values[lo:hi, None], rank, axis=1)
            for m, f in enumerate(factors):
                if m != mode:
                    acc *= f[base[m] + einds[lo:hi, m]]
            np.add.at(out, base[mode] + einds[lo:hi, mode], acc)
        return out

    # ------------------------------------------------------------------
    # statistics (feed the alpha_b / c_b analysis of the paper)
    # ------------------------------------------------------------------
    def block_ratio(self) -> float:
        """alpha_b = nblocks / nnz.  Near 0: dense blocks, great compression;
        near 1: one nonzero per block, HiCOO degenerates to COO + overhead."""
        return self.nblocks / max(1, self.nnz)

    def avg_slice_size(self) -> float:
        """c_b — the average number of nonzeros per block slice, i.e.
        ``nnz / (nblocks * B)``; equivalently ``1 / (alpha_b * B)``.  Larger
        values mean more factor-row reuse inside a block."""
        return self.nnz / (max(1, self.nblocks) * self.block_size)

    def geometry(self) -> dict:
        """Summary statistics used by the E3 parameter table."""
        bn = self.block_nnz()
        return {
            "block_bits": self.block_bits,
            "nblocks": self.nblocks,
            "alpha_b": self.block_ratio(),
            "c_b": self.avg_slice_size(),
            "max_block_nnz": int(bn.max()) if self.nblocks else 0,
            "mean_block_nnz": float(bn.mean()) if self.nblocks else 0.0,
            "bytes_per_nnz": self.bytes_per_nnz(),
        }


def best_block_bits(coo: CooTensor,
                    candidates: Optional[Sequence[int]] = None) -> int:
    """Pick the block size minimizing HiCOO storage (the paper's guidance:
    B = 128 is a good default, but clustered tensors may prefer other sizes).

    Storage is computed from the shared :meth:`CooTensor.morton_context`
    boundary counts — one Morton sort for the whole sweep and no
    :class:`HicooTensor` materialized per candidate.  Returns the
    ``block_bits`` with the fewest total bytes; ties break toward larger
    blocks (better locality).
    """
    if candidates is None:
        candidates = range(1, MAX_BLOCK_BITS + 1)
    ctx = coo.morton_context()
    best, best_bytes = None, None
    for bits in candidates:
        total = ctx.total_bytes(bits)
        if best_bytes is None or total <= best_bytes:
            best, best_bytes = bits, total
    return int(best)
