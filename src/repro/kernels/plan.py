"""Precomputed parallel-MTTKRP plans for HiCOO.

A CP-ALS run issues the same N MTTKRPs every iteration; rebuilding the
superblock index, strategy choice, and lock-free schedule each time wastes
the symbolic work the paper explicitly amortizes ("construction cost is
paid once").  A :class:`MttkrpPlan` captures all of it — one superblock
index plus a per-mode strategy/schedule — and is reused across iterations
(and across CP-ALS restarts, which share the tensor).

Since the gather/scatter layer (:mod:`repro.kernels.gather`) the plan also
caches the **fused gather arrays** of every thread task: the int64
``(bind << b) + eind`` coordinates, task-ordered values, and per-mode
sortedness flags.  Thread tasks are stored as coalesced block *runs*
(``(lo, hi)`` slices), so plan construction is O(superblocks), not
O(blocks); the gather arrays themselves are built lazily on first execution
through :meth:`repro.core.hicoo.HicooTensor.task_gather` — which memoizes
them on the tensor, so plans over the same tensor share the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.hicoo import HicooTensor
from ..core.scheduler import Schedule, choose_strategy, schedule_mode
from ..core.superblock import SuperblockIndex, build_superblocks
from ..obs import metrics
from ..parallel.partition import balanced_ranges
from .gather import TaskGather, coalesce_runs

__all__ = ["ModePlan", "MttkrpPlan", "plan_mode", "plan_mttkrp",
           "superblocks_for"]


@dataclass
class ModePlan:
    """Parallel execution recipe for one MTTKRP mode."""

    mode: int
    strategy: str  # "schedule" | "privatize"
    #: per-thread coalesced block runs (both strategies): task t owns the
    #: nonzeros of blocks ``[lo, hi)`` for every run in ``thread_runs[t]``
    thread_runs: List[List[Tuple[int, int]]] = field(default_factory=list)
    schedule: Optional[Schedule] = None
    #: privatize strategy: per-thread contiguous superblock ranges
    superblock_ranges: Optional[List[Tuple[int, int]]] = None
    thread_nnz: Optional[np.ndarray] = None
    #: lazily-filled fused gather cache, one TaskGather per thread task
    gathers: Optional[List[TaskGather]] = None
    #: compiled-tier state cached per mode: the concatenated kernel-ready
    #: arrays ("fused") and, for the GPU tier, the device arena ("arena") —
    #: built once per plan and reused by every CP-ALS iteration (see
    #: :mod:`repro.kernels.compiled`)
    compiled: dict = field(default_factory=dict)

    @property
    def thread_blocks(self) -> List[List[int]]:
        """Per-thread flat block-id lists, expanded from ``thread_runs``
        (compatibility/inspection view; execution uses the runs)."""
        return [[b for lo, hi in runs for b in range(lo, hi)]
                for runs in self.thread_runs]

    def ensure_gathers(self, tensor: HicooTensor) -> List[TaskGather]:
        """Fill (and return) this mode's fused gather cache.

        The arrays come from :meth:`HicooTensor.task_gather`, so tasks that
        recur across modes (privatize ranges are mode-independent) and
        across plans of the same tensor share one copy.
        """
        if self.gathers is None:
            self.gathers = [tensor.task_gather(runs)
                            for runs in self.thread_runs]
        else:
            # a warm plan reusing its materialized arrays is a hit of the
            # gather layer, even though the tensor-level dict isn't probed
            metrics.inc("gather.cache_hits", len(self.gathers))
        return self.gathers


@dataclass
class MttkrpPlan:
    """All symbolic parallel state for one (tensor, rank, nthreads)."""

    nthreads: int
    rank: int
    superblock_bits: int
    superblocks: SuperblockIndex
    modes: List[ModePlan]

    def for_mode(self, mode: int) -> ModePlan:
        return self.modes[mode]

    def ensure_gathers(self, tensor: HicooTensor,
                       mode: Optional[int] = None) -> List[TaskGather]:
        """Fill (and return) the fused gather cache for ``mode``.

        With ``mode=None`` every mode is materialized (useful to pre-pay
        all symbolic cost before a timed region).  See
        :meth:`ModePlan.ensure_gathers`.
        """
        if mode is None:
            for mp in self.modes:
                mp.ensure_gathers(tensor)
            return [tg for mp in self.modes for tg in mp.gathers]
        return self.modes[mode].ensure_gathers(tensor)

    def gather_cache_bytes(self) -> int:
        """Footprint of the materialized gather arrays (0 until executed)."""
        seen, total = set(), 0
        for mp in self.modes:
            for tg in mp.gathers or ():
                if id(tg) not in seen:
                    seen.add(id(tg))
                    total += tg.nbytes()
        return total


def plan_mttkrp(tensor: HicooTensor, rank: int, nthreads: int,
                superblock_bits: Optional[int] = None,
                strategy: str = "auto") -> MttkrpPlan:
    """Build the reusable parallel plan for every mode of ``tensor``.

    ``strategy`` forces one strategy for all modes, or ``"auto"`` applies
    the paper's per-mode heuristic.
    """
    if not isinstance(tensor, HicooTensor):
        raise TypeError(f"plans are HiCOO-specific, got {type(tensor).__name__}")
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if nthreads < 1:
        raise ValueError(f"nthreads must be positive, got {nthreads}")
    if strategy not in ("auto", "schedule", "privatize"):
        raise ValueError(f"unknown strategy {strategy!r}")
    sbs = superblocks_for(tensor, superblock_bits)
    modes = [plan_mode(tensor, sbs, mode, rank, nthreads, strategy)
             for mode in range(tensor.nmodes)]
    return MttkrpPlan(nthreads=nthreads, rank=rank,
                      superblock_bits=sbs.superblock_bits, superblocks=sbs,
                      modes=modes)


def superblocks_for(tensor: HicooTensor,
                    superblock_bits: Optional[int] = None) -> SuperblockIndex:
    """The superblock index plans partition (default: ``b + 3`` bits)."""
    if superblock_bits is None:
        superblock_bits = min(tensor.block_bits + 3, 20)
    return build_superblocks(tensor, superblock_bits)


def plan_mode(tensor: HicooTensor, sbs: SuperblockIndex, mode: int,
              rank: int, nthreads: int, strategy: str = "auto") -> ModePlan:
    """One mode's recipe: the lock-free superblock schedule or
    nnz-balanced contiguous superblock ranges into private outputs;
    ``"auto"`` picks with the paper's heuristic."""
    if strategy == "auto":
        strategy = choose_strategy(sbs, mode, nthreads, tensor.shape[mode],
                                   rank)
    if strategy == "schedule":
        sched = schedule_mode(sbs, mode, nthreads)
        thread_runs = [
            coalesce_runs([sbs.block_range(sb) for sb in sb_list])
            for sb_list in sched.assignment
        ]
        return ModePlan(mode=mode, strategy="schedule",
                        thread_runs=thread_runs, schedule=sched,
                        thread_nnz=sched.thread_nnz.copy())
    ranges = balanced_ranges(sbs.nnz_per_superblock, nthreads)
    thread_runs = [
        coalesce_runs([(int(sbs.sptr[lo]), int(sbs.sptr[hi]))])
        if lo < hi else []
        for lo, hi in ranges
    ]
    thread_nnz = np.array(
        [int(sbs.nnz_per_superblock[lo:hi].sum()) for lo, hi in ranges],
        dtype=np.int64)
    return ModePlan(mode=mode, strategy="privatize", thread_runs=thread_runs,
                    superblock_ranges=ranges, thread_nnz=thread_nnz)
