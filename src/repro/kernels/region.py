"""Parallel MTTKRP regions: the one seam between formats and backends.

The paper's parallel MTTKRP (Li, Sun & Vuduc, SC'18) is one kernel run
over a partition of the nonzeros, with either a lock-free superblock
schedule or privatized outputs.  A :class:`Region` is that partition for
one (mode, nthreads, strategy) and everything a backend needs to run it:

* the per-task runs over a *source* the process backend can ship:
  HiCOO's compressed block arrays (workers rebuild each task with
  :func:`~repro.kernels.gather.build_task_gather`) or a flat
  :class:`~repro.kernels.gather.TaskGather` (ALTO's mode or linear view,
  cut with :meth:`~repro.kernels.gather.TaskGather.slice`);
* the output policy: ``"shared"`` (tasks own disjoint output rows),
  ``"private"`` (one buffer per task plus a reduction), or ``"atomic"``
  (COO's overlapping rows on one output, which NumPy has no atomic
  scatter for, so it runs serially);
* ``thread_nnz`` and, for HiCOO's lock-free schedule, the schedule.

Format-specific code lives only in the builders below — taco's format
abstraction (arXiv:1804.10112) applied to partitioning, so ALTO's
equal-nnz linearized chunks (arXiv:2102.10245) are one more region rather
than one more code path.  :func:`repro.kernels.mttkrp.execute` runs any
region on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..core.hicoo import HicooTensor
from ..core.scheduler import Schedule
from ..formats.alto import AltoTensor
from ..formats.coo import CooTensor
from ..formats.csf import CsfTensor
from ..parallel.partition import balanced_ranges
from .gather import mttkrp_gather_chunk
from .plan import ModePlan, plan_mode, superblocks_for

__all__ = ["Region", "build_region"]


@dataclass
class Region:
    """One mode's MTTKRP cut into per-thread tasks."""

    #: the tensor the region partitions; process sessions are cached on it
    tensor: object
    mode: int
    #: the strategy name the run reports
    strategy: str
    #: ``"shared"``, ``"private"`` or ``"atomic"`` (see the module doc)
    output: str
    thread_nnz: np.ndarray
    #: per-task ``(lo, hi)`` runs over ``source`` (blocks for HiCOO,
    #: nonzeros for a flat source, root nodes for CSF)
    runs: Sequence[Tuple[Tuple[int, int], ...]]
    #: materializes the in-process tasks, one per thread
    tasks: Callable[[], Sequence]
    #: runs one task: ``body(task, factors, mode, out, scatter)`` returns
    #: the reduction backend it used
    body: Callable = mttkrp_gather_chunk
    #: what the process backend shares with its workers; ``None`` when
    #: the format cannot run there
    source: object = None
    schedule: Optional[Schedule] = None
    #: HiCOO's mode plan: the compiled tiers run their fused kernels on it
    plan: Optional[ModePlan] = None
    #: compiled tiers the task bodies accept as their scatter
    scatter_tiers: Tuple[str, ...] = ()

    @property
    def nthreads(self) -> int:
        return len(self.runs)

    @property
    def format(self) -> str:
        return self.tensor.format_name

    @property
    def rows(self) -> int:
        return self.tensor.shape[self.mode]


def build_region(tensor, mode: int, nthreads: int, strategy: str, rank: int,
                 superblock_bits: Optional[int] = None, plan=None) -> Region:
    """The region of one parallel MTTKRP of ``tensor``.

    ``strategy`` is per format: ``"auto"``, ``"schedule"`` or
    ``"privatize"`` for HiCOO and ALTO; ``"auto"``, ``"privatize"`` or
    ``"atomic"`` for COO; ``"auto"``, ``"subtree"`` or ``"privatize"``
    for CSF.  ``rank`` feeds HiCOO's strategy heuristic; a HiCOO ``plan``
    (:class:`~repro.kernels.plan.MttkrpPlan`) supplies the mode's
    partition and thread count instead.
    """
    for cls, builder in _BUILDERS:
        if isinstance(tensor, cls):
            return builder(tensor, mode, nthreads, strategy, rank,
                           superblock_bits, plan)
    raise TypeError(f"no parallel MTTKRP for format {type(tensor).__name__}")


def _hicoo_region(tensor, mode, nthreads, strategy, rank, superblock_bits,
                  plan) -> Region:
    if plan is not None:
        mp = plan.for_mode(mode)
    else:
        if strategy not in ("auto", "schedule", "privatize"):
            raise ValueError(
                f"HiCOO supports 'schedule' or 'privatize', got {strategy!r}")
        mp = plan_mode(tensor, superblocks_for(tensor, superblock_bits),
                       mode, rank, nthreads, strategy)
    return Region(tensor=tensor, mode=mode, strategy=mp.strategy,
                  output="shared" if mp.strategy == "schedule" else "private",
                  thread_nnz=mp.thread_nnz, runs=mp.thread_runs,
                  tasks=lambda: mp.ensure_gathers(tensor),
                  source=tensor, schedule=mp.schedule, plan=mp)


def _alto_region(tensor, mode, nthreads, strategy, rank, superblock_bits,
                 plan) -> Region:
    # "schedule": the mode view (nonzeros by output row, ties in source
    # order) cut on row boundaries into equal-nnz ranges, so tasks share
    # the output lock-free and stay bitwise equal to the COO oracle;
    # "privatize": equal-nnz chunks of the key order into private buffers
    if strategy == "auto":
        strategy = "schedule"
    if strategy not in ("schedule", "privatize"):
        raise ValueError(
            f"ALTO supports 'schedule' or 'privatize', got {strategy!r}")
    schedule = strategy == "schedule"
    gathers = tensor.task_gathers(mode, nthreads, strategy)
    return Region(tensor=tensor, mode=mode, strategy=strategy,
                  output="shared" if schedule else "private",
                  thread_nnz=_nnz_of(gathers),
                  runs=[tg.runs for tg in gathers], tasks=lambda: gathers,
                  source=(tensor.mode_view(mode) if schedule
                          else tensor.linear_view()),
                  scatter_tiers=("numba",))


def _coo_region(tensor, mode, nthreads, strategy, rank, superblock_bits,
                plan) -> Region:
    if strategy == "auto":
        strategy = "privatize"
    if strategy not in ("privatize", "atomic"):
        raise ValueError(
            f"COO supports 'privatize' or 'atomic', got {strategy!r}")
    gathers = tensor.task_gathers(nthreads)
    return Region(tensor=tensor, mode=mode, strategy=strategy,
                  output="private" if strategy == "privatize" else "atomic",
                  thread_nnz=_nnz_of(gathers),
                  runs=[tg.runs for tg in gathers], tasks=lambda: gathers)


def _csf_region(tensor, mode, nthreads, strategy, rank, superblock_bits,
                plan) -> Region:
    # root subtrees split by leaf count; writes are row-disjoint when the
    # target mode is the tree root, privatized otherwise
    if strategy == "auto":
        strategy = "subtree"
    if strategy not in ("subtree", "privatize"):
        raise ValueError(
            f"CSF supports 'subtree' or 'privatize', got {strategy!r}")
    subtree_nnz = _root_subtree_nnz(tensor)
    ranges = balanced_ranges(subtree_nnz, nthreads)
    shared = strategy == "subtree" and tensor.mode_order[0] == mode
    runs = [((lo, hi),) for lo, hi in ranges]

    def body(run, factors, mode, out, scatter=None):
        (lo, hi), = run
        return tensor.subtree_mttkrp(factors, mode, lo, hi, out)

    return Region(tensor=tensor, mode=mode,
                  strategy="subtree" if shared else "privatize",
                  output="shared" if shared else "private",
                  thread_nnz=np.array(
                      [int(subtree_nnz[lo:hi].sum()) for lo, hi in ranges],
                      dtype=np.int64),
                  runs=runs, tasks=lambda: runs, body=body)


def _nnz_of(gathers) -> np.ndarray:
    return np.array([tg.nnz for tg in gathers], dtype=np.int64)


def _root_subtree_nnz(tensor: CsfTensor) -> np.ndarray:
    """Leaf (nonzero) count under each root node."""
    bounds = np.arange(tensor.levels[0].nnodes + 1)
    for level in tensor.levels[:-1]:  # compose the levels' child ranges
        bounds = level.fptr[bounds]
    return np.diff(bounds)


_BUILDERS = ((HicooTensor, _hicoo_region), (AltoTensor, _alto_region),
             (CsfTensor, _csf_region), (CooTensor, _coo_region))
