"""MTTKRP kernels: sequential dispatch and the parallel strategies.

Sequential MTTKRP lives on each format class; this module adds

* :func:`mttkrp` — format dispatch (the function CP-ALS calls), and
* :func:`mttkrp_parallel` — the paper's parallel algorithms:

  - **COO/atomic**: nonzeros split across threads, shared output, every
    scatter is an atomic update (the penalty the machine model charges);
  - **COO/privatize**: same split, per-thread outputs, reduction at the end;
  - **HiCOO/schedule**: the lock-free superblock schedule — threads own
    disjoint output row ranges, no atomics, no extra memory;
  - **HiCOO/privatize**: superblocks split contiguously, private outputs;
  - **CSF**: root subtrees split across threads; writes are naturally
    disjoint when the target mode is the tree root, privatized otherwise.

Every parallel run returns the output *and* an execution record with the
per-thread work counts the analytic machine model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.hicoo import HicooTensor
from ..core.scheduler import Schedule, choose_strategy, schedule_mode
from ..core.superblock import build_superblocks
from ..formats.alto import AltoTensor
from ..formats.base import SparseTensorFormat
from ..formats.coo import CooTensor
from ..formats.csf import CsfTensor
from ..obs import metrics, trace
from ..parallel.executor import (ExecutionReport, TaskResult, resolve_backend,
                                 run_tasks)
from ..parallel.partition import balanced_ranges
from ..parallel.privatize import PrivateBuffers
from ..util.validation import check_factors, check_mode
from .backends import resolve_kernel_backend
from .gather import mttkrp_gather_chunk

__all__ = ["MttkrpRun", "mttkrp", "mttkrp_parallel"]


@dataclass
class MttkrpRun:
    """Result and accounting of one parallel MTTKRP launch."""

    output: np.ndarray
    strategy: str
    nthreads: int
    thread_nnz: np.ndarray
    atomic_updates: int = 0
    reduction_flops: int = 0
    schedule: Optional[Schedule] = None
    report: ExecutionReport = field(default_factory=ExecutionReport)
    #: reduction backends the tasks used (sorted, deduplicated): ``"csr"``
    #: (:class:`repro.kernels.gather.RowReduction`) or a compiled tier;
    #: feeds the analysis layer
    scatter_backends: tuple = ()

    def makespan_nnz(self) -> int:
        """Work on the critical path, in nonzeros."""
        return int(self.thread_nnz.max()) if len(self.thread_nnz) else 0

    def load_imbalance(self) -> float:
        if not len(self.thread_nnz):
            return 1.0
        mean = self.thread_nnz.sum() / self.nthreads
        return float(self.thread_nnz.max() / mean) if mean else 1.0


def mttkrp(tensor: SparseTensorFormat, factors: Sequence[np.ndarray],
           mode: int) -> np.ndarray:
    """Sequential MTTKRP on any supported format."""
    with trace.span("mttkrp.seq", mode=mode, format=tensor.format_name):
        out = tensor.mttkrp(factors, mode)
    metrics.inc("mttkrp.calls",
                labels={"format": tensor.format_name, "mode": mode})
    return out


def mttkrp_parallel(tensor: SparseTensorFormat, factors: Sequence[np.ndarray],
                    mode: int, nthreads: int, strategy: str = "auto",
                    superblock_bits: Optional[int] = None,
                    real_threads: bool = False,
                    plan=None, backend: Optional[str] = None,
                    fault_policy=None) -> MttkrpRun:
    """Parallel MTTKRP with the strategy set of the paper.

    ``strategy``:

    * ``"auto"`` — the paper's heuristic (:func:`choose_strategy` for HiCOO,
      privatization for COO);
    * ``"atomic"``, ``"privatize"`` — COO and HiCOO;
    * ``"schedule"`` — HiCOO only (lock-free superblock scheduling).

    ``plan`` — a precomputed :class:`repro.kernels.plan.MttkrpPlan` for a
    HiCOO tensor; skips superblock construction and scheduling entirely
    (CP-ALS builds one plan and reuses it every iteration).

    ``backend`` — ``"sim"`` (sequential, individually timed tasks),
    ``"thread"`` (GIL-sharing thread pool; equivalent to the legacy
    ``real_threads=True``), ``"process"`` (true multicore over shared
    memory; HiCOO only, see :mod:`repro.parallel.procpool`), ``"numba"``
    (fused machine-code kernels, ``prange`` over the plan's row-disjoint
    tasks), or ``"cupy"`` (GPU segmented reductions over a device-resident
    plan).  The compiled tiers are HiCOO-only and **degrade silently** to
    the NumPy kernels when the dependency is absent (one warning, a
    ``kernel.fallbacks`` counter bump, identical results) — see
    :mod:`repro.kernels.backends` and :mod:`repro.kernels.compiled`.

    ``fault_policy`` — process backend only: ``"fail-fast"`` (default, the
    first worker fault propagates), ``"retry"`` (dead/hung workers are
    respawned and their tasks re-run idempotently — the recovered output is
    bit-identical to a fault-free run), or ``"degrade"`` (exhausted
    recovery budgets fall back to the thread/sim backends).  Accepts a
    :class:`repro.parallel.supervisor.FaultConfig` for fine-grained
    budgets; see ``docs/fault_tolerance.md``.
    """
    factors = check_factors(factors, tensor.shape)
    mode = check_mode(mode, tensor.nmodes)
    if nthreads < 1:
        raise ValueError(f"nthreads must be positive, got {nthreads}")
    backend = resolve_backend(backend, real_threads)
    kernel_tier = None
    if backend in ("numba", "cupy"):
        tier = resolve_kernel_backend(backend)
        if tier == "numpy":
            backend = "sim"  # tier unavailable: silent NumPy fallback
        elif isinstance(tensor, HicooTensor):
            return _parallel_hicoo_compiled(tensor, factors, mode, nthreads,
                                            strategy, superblock_bits, plan,
                                            tier)
        elif isinstance(tensor, AltoTensor) and tier == "numba":
            # ALTO's output-space tasks are row-disjoint, so the jitted
            # scatter tier runs them unchanged: the region executes
            # in-process (like HiCOO's compiled path) with compiled
            # scatter-adds wherever they clear the crossover
            kernel_tier = tier
        else:
            # the GPU tier consumes HiCOO device plans; other combinations
            # take the NumPy path (same silent-degrade contract)
            metrics.inc("kernel.fallbacks", labels={"tier": backend})
            backend = "sim"
    real_threads = backend == "thread"

    if backend == "process":
        if isinstance(tensor, AltoTensor):
            return _parallel_alto_process(tensor, factors, mode, nthreads,
                                          strategy, fault_policy)
        if not isinstance(tensor, HicooTensor):
            raise ValueError(
                "backend='process' shares HiCOO structure arrays between "
                f"workers; format {tensor.format_name!r} is not supported — "
                "convert with HicooTensor(coo) or use backend='thread'")
        return _parallel_hicoo_process(tensor, factors, mode, nthreads,
                                       strategy, superblock_bits, plan,
                                       fault_policy)
    if fault_policy is not None:
        # validate the knob even when it is moot (sim/thread tasks run in
        # this very process and cannot be lost) so typos fail loudly
        from ..parallel.supervisor import FaultConfig

        FaultConfig.resolve(fault_policy)

    with trace.span("mttkrp.parallel", mode=mode,
                    format=tensor.format_name, nthreads=nthreads) as sp:
        if isinstance(tensor, HicooTensor):
            if plan is not None:
                run = _parallel_hicoo_planned(tensor, factors, mode, plan,
                                              real_threads)
            else:
                run = _parallel_hicoo(tensor, factors, mode, nthreads,
                                      strategy, superblock_bits, real_threads)
        elif isinstance(tensor, AltoTensor):
            run = _parallel_alto(tensor, factors, mode, nthreads, strategy,
                                 real_threads, exec_backend=kernel_tier)
        elif isinstance(tensor, CsfTensor):
            run = _parallel_csf(tensor, factors, mode, nthreads, strategy,
                                real_threads)
        elif isinstance(tensor, CooTensor):
            run = _parallel_coo(tensor, factors, mode, nthreads, strategy,
                                real_threads)
        else:
            raise TypeError(
                f"no parallel MTTKRP for format {type(tensor).__name__}")
        sp.note(strategy=run.strategy, imbalance=run.load_imbalance())
    _note_parallel(run, tensor, mode, backend)
    return run


def _note_parallel(run: "MttkrpRun", tensor, mode: int,
                   backend: str) -> None:
    """Count one parallel MTTKRP under its format/backend/mode labels, so
    the telemetry slices regressions along the configuration space."""
    reg = metrics.get_registry()
    if reg.enabled:
        fmt = tensor.format_name
        reg.inc("mttkrp.parallel_calls",
                labels={"format": fmt, "backend": backend, "mode": mode})
        reg.observe("mttkrp.load_imbalance", run.load_imbalance(),
                    labels={"format": fmt, "backend": backend})


def _backends_of(report: ExecutionReport) -> tuple:
    """Deduplicated scatter-backend names returned by the tasks."""
    return tuple(sorted({v for v in report.values()
                         if isinstance(v, str) and v and v != "noop"}))


def _observe_blocks(gathers) -> None:
    """Record blocks touched per task (superblock group) as a histogram."""
    reg = metrics.get_registry()
    if reg.enabled:
        for tg in gathers:
            reg.observe("mttkrp.blocks_per_task",
                        sum(hi - lo for lo, hi in tg.runs))


# ----------------------------------------------------------------------
# COO
# ----------------------------------------------------------------------
def _parallel_coo(tensor, factors, mode, nthreads, strategy, real_threads):
    if strategy == "auto":
        strategy = "privatize"
    if strategy not in ("privatize", "atomic"):
        raise ValueError(f"COO supports 'privatize' or 'atomic', got {strategy!r}")
    rank = factors[0].shape[1]
    rows = tensor.shape[mode]
    gathers = tensor.task_gathers(nthreads)
    thread_nnz = np.array([tg.nnz for tg in gathers], dtype=np.int64)

    if strategy == "privatize":
        bufs = PrivateBuffers.allocate(nthreads, rows, rank)

        def make_task(tid, tg):
            def task():
                return mttkrp_gather_chunk(tg, factors, mode, bufs.view(tid))
            return task

        tasks = [make_task(t, tg) for t, tg in enumerate(gathers)]
        # private buffers make concurrent writes race-free, so the caller's
        # thread mode is honored; the reduction always runs after the tasks
        report = run_tasks(tasks, real_threads=real_threads)
        out = bufs.reduce()
        return MttkrpRun(output=out, strategy="privatize", nthreads=nthreads,
                         thread_nnz=thread_nnz,
                         reduction_flops=bufs.reduction_flops(), report=report,
                         scatter_backends=_backends_of(report))

    # atomic: shared output.  This path deliberately ignores ``real_threads``:
    # NumPy has no atomic scatter-add, so concurrent tasks writing overlapping
    # rows of a shared array would silently lose updates.  Sequential
    # execution keeps the result exact; the atomic penalty a real machine
    # would pay is charged analytically by the machine model.
    out = np.zeros((rows, rank))

    def make_task(tg):
        def task():
            return mttkrp_gather_chunk(tg, factors, mode, out)
        return task

    tasks = [make_task(tg) for tg in gathers]
    report = run_tasks(tasks, real_threads=False)
    return MttkrpRun(output=out, strategy="atomic", nthreads=nthreads,
                     thread_nnz=thread_nnz,
                     atomic_updates=tensor.nnz if nthreads > 1 else 0,
                     report=report,
                     scatter_backends=_backends_of(report))


# ----------------------------------------------------------------------
# HiCOO
# ----------------------------------------------------------------------
def _parallel_hicoo(tensor, factors, mode, nthreads, strategy,
                    superblock_bits, real_threads):
    rank = factors[0].shape[1]
    rows = tensor.shape[mode]
    sb_bits = superblock_bits if superblock_bits is not None else min(
        tensor.block_bits + 3, 20)
    sbs = build_superblocks(tensor, sb_bits)

    if strategy == "auto":
        strategy = choose_strategy(sbs, mode, nthreads, rows, rank)
    if strategy not in ("schedule", "privatize"):
        raise ValueError(
            f"HiCOO supports 'schedule' or 'privatize', got {strategy!r}")

    if strategy == "schedule":
        sched = schedule_mode(sbs, mode, nthreads)
        out = np.zeros((rows, rank))
        # task_gather memoizes on the tensor, so repeated unplanned calls
        # with the same structure also skip the symbolic work
        gathers = [tensor.task_gather([sbs.block_range(sb) for sb in sb_list])
                   for sb_list in sched.assignment]
        _observe_blocks(gathers)

        def make_task(tg):
            def task():
                return mttkrp_gather_chunk(tg, factors, mode, out)
            return task

        tasks = [make_task(tg) for tg in gathers]
        report = run_tasks(tasks, real_threads=real_threads)
        return MttkrpRun(output=out, strategy="schedule", nthreads=nthreads,
                         thread_nnz=sched.thread_nnz.copy(), schedule=sched,
                         report=report,
                         scatter_backends=_backends_of(report))

    # privatize: contiguous superblock ranges balanced by nnz
    ranges = balanced_ranges(sbs.nnz_per_superblock, nthreads)
    bufs = PrivateBuffers.allocate(nthreads, rows, rank)
    thread_nnz = np.array(
        [int(sbs.nnz_per_superblock[lo:hi].sum()) for lo, hi in ranges],
        dtype=np.int64)
    gathers = [tensor.task_gather([(int(sbs.sptr[lo]), int(sbs.sptr[hi]))])
               if lo < hi else tensor.task_gather([])
               for lo, hi in ranges]
    _observe_blocks(gathers)

    def make_task(tid, tg):
        def task():
            return mttkrp_gather_chunk(tg, factors, mode, bufs.view(tid))
        return task

    tasks = [make_task(t, tg) for t, tg in enumerate(gathers)]
    # private buffers are race-free, so the caller's thread mode is honored
    report = run_tasks(tasks, real_threads=real_threads)
    return MttkrpRun(output=bufs.reduce(), strategy="privatize",
                     nthreads=nthreads, thread_nnz=thread_nnz,
                     reduction_flops=bufs.reduction_flops(), report=report,
                     scatter_backends=_backends_of(report))


def _parallel_hicoo_planned(tensor, factors, mode, plan, real_threads):
    """Execute a mode's MTTKRP from a precomputed plan (no symbolic work).

    The first call for a mode materializes the plan's fused gather arrays
    (through the tensor's memoized cache); every later call — each CP-ALS
    iteration — is a pure gather/multiply/scatter numeric pass.
    """
    rank = factors[0].shape[1]
    rows = tensor.shape[mode]
    mp = plan.for_mode(mode)
    gathers = plan.ensure_gathers(tensor, mode)
    _observe_blocks(gathers)

    if mp.strategy == "schedule":
        out = np.zeros((rows, rank))

        def make_task(tg):
            def task():
                return mttkrp_gather_chunk(tg, factors, mode, out)
            return task

        tasks = [make_task(tg) for tg in gathers]
        report = run_tasks(tasks, real_threads=real_threads)
        return MttkrpRun(output=out, strategy="schedule",
                         nthreads=plan.nthreads,
                         thread_nnz=mp.thread_nnz.copy(),
                         schedule=mp.schedule, report=report,
                         scatter_backends=_backends_of(report))

    bufs = PrivateBuffers.allocate(plan.nthreads, rows, rank)

    def make_task(tid, tg):
        def task():
            return mttkrp_gather_chunk(tg, factors, mode, bufs.view(tid))
        return task

    tasks = [make_task(t, tg) for t, tg in enumerate(gathers)]
    # private buffers are race-free, so the caller's thread mode is honored
    report = run_tasks(tasks, real_threads=real_threads)
    return MttkrpRun(output=bufs.reduce(), strategy="privatize",
                     nthreads=plan.nthreads,
                     thread_nnz=mp.thread_nnz.copy(),
                     reduction_flops=bufs.reduction_flops(), report=report,
                     scatter_backends=_backends_of(report))


def _parallel_hicoo_compiled(tensor, factors, mode, nthreads, strategy,
                             superblock_bits, plan, tier):
    """Execute one mode's MTTKRP on a compiled tier (numba / cupy).

    Reuses the plan layer end to end: the partition, strategies, and fused
    gather arrays are exactly the sim/process backends' symbolic state;
    only the numeric pass changes (one jitted kernel launch / one device
    segmented reduction instead of per-task NumPy chunks).  Without a plan
    one is built here — callers that iterate (CP-ALS) pass a plan so the
    per-mode fused arrays and device uploads are paid once.
    """
    from .compiled import mttkrp_compiled, warmup_numba
    from .plan import plan_mttkrp

    if plan is None:
        plan = plan_mttkrp(tensor, factors[0].shape[1], nthreads,
                           superblock_bits=superblock_bits,
                           strategy=strategy)
    if tier == "numba":
        # JIT compilation happens here, outside the kernel span, so the
        # steady-state numbers never include it (recorded separately in
        # the compiled.compile_seconds metric)
        warmup_numba()
    with trace.span("mttkrp.compiled", mode=mode, tier=tier,
                    format=tensor.format_name, nthreads=plan.nthreads) as sp:
        output, flavor, times = mttkrp_compiled(tensor, factors, mode,
                                                plan, tier)
        sp.note(flavor=flavor)
    mp = plan.for_mode(mode)
    report = ExecutionReport(backend=tier, results=[
        TaskResult(tid=0, elapsed=times[0], value=flavor)])
    run = MttkrpRun(output=output, strategy=mp.strategy,
                    nthreads=plan.nthreads,
                    thread_nnz=mp.thread_nnz.copy(),
                    schedule=mp.schedule, report=report,
                    scatter_backends=(flavor,) if flavor != "noop" else ())
    _note_parallel(run, tensor, mode, tier)
    return run


def _parallel_hicoo_process(tensor, factors, mode, nthreads, strategy,
                            superblock_bits, plan, fault_policy=None):
    """True multicore HiCOO MTTKRP: superblock partitions executed by the
    shared-memory process pool (see :mod:`repro.parallel.procpool`).

    Under ``fault_policy="degrade"``, an exhausted recovery budget falls
    back to the in-process backends (``config.fallback_backends``, thread
    then sim) — same partition, same kernels, so the degraded output is
    numerically identical; the event is logged, counted
    (``supervisor.degradations``) and traced.
    """
    from ..parallel.procpool import mttkrp_process
    from ..parallel.supervisor import DegradedExecution

    try:
        with trace.span("mttkrp.parallel", mode=mode, backend="process",
                        format=tensor.format_name, nthreads=nthreads) as sp:
            pr = mttkrp_process(tensor, factors, mode, nthreads,
                                strategy=strategy,
                                superblock_bits=superblock_bits, plan=plan,
                                fault_policy=fault_policy)
            run = MttkrpRun(output=pr.output, strategy=pr.strategy,
                            nthreads=pr.nworkers, thread_nnz=pr.thread_nnz,
                            reduction_flops=pr.reduction_flops,
                            schedule=pr.schedule, report=pr.report,
                            scatter_backends=pr.scatter_backends)
            sp.note(strategy=run.strategy, imbalance=run.load_imbalance())
    except DegradedExecution as exc:
        return _degrade_hicoo(tensor, factors, mode, nthreads, strategy,
                              superblock_bits, plan, exc)
    _note_parallel(run, tensor, mode, "process")
    return run


def _degrade_hicoo(tensor, factors, mode, nthreads, strategy,
                   superblock_bits, plan, exc) -> MttkrpRun:
    """Finish an MTTKRP whose process-backend region gave up, on the first
    usable fallback backend (the in-process paths share the partition and
    kernels, so the result matches what the process backend would have
    produced)."""
    from ..util.log import get_logger

    fallbacks = exc.config.fallback_backends or ("sim",)
    backend = next((b for b in fallbacks if b in ("thread", "sim")), "sim")
    get_logger("repro.supervisor").warning(
        "process backend degraded to %r for mode %d: %s", backend, mode, exc)
    metrics.inc("supervisor.degradations")
    trace.instant("supervisor.degrade", mode=mode, fallback=backend,
                  reason=str(exc))
    real_threads = backend == "thread"
    with trace.span("mttkrp.parallel", mode=mode, backend=backend,
                    format=tensor.format_name, nthreads=nthreads,
                    degraded=True) as sp:
        if plan is not None:
            run = _parallel_hicoo_planned(tensor, factors, mode, plan,
                                          real_threads)
        else:
            run = _parallel_hicoo(tensor, factors, mode, nthreads, strategy,
                                  superblock_bits, real_threads)
        sp.note(strategy=run.strategy, imbalance=run.load_imbalance())
    _note_parallel(run, tensor, mode, backend)
    return run


# ----------------------------------------------------------------------
# ALTO
# ----------------------------------------------------------------------
def _parallel_alto(tensor, factors, mode, nthreads, strategy,
                   real_threads=False, exec_backend=None):
    """Parallel MTTKRP over ALTO's linearized keys.

    * ``"schedule"`` — the load-balanced default: the mode view (nonzeros
      ordered by output row, ties in source order) is cut into equal-nnz
      contiguous ranges on row-segment boundaries, so tasks own disjoint
      output rows and share the output lock-free.  Per-row accumulation
      order is independent of the partition, which keeps every task count
      **bit-identical** to the sequential COO oracle.
    * ``"privatize"`` — equal-nnz chunks of the raw key order into private
      buffers plus one reduction (reassociates row sums; ULP-close only).

    ``exec_backend="numba"`` routes the scatters through the compiled tier
    (same tasks, jitted scatter-adds past the crossover).  Task gathers are
    memoized on the tensor (:meth:`AltoTensor.task_gathers`), so their
    reduction operators are built once per (mode, nthreads, strategy).
    """
    if strategy == "auto":
        strategy = "schedule"
    if strategy not in ("schedule", "privatize"):
        raise ValueError(
            f"ALTO supports 'schedule' or 'privatize', got {strategy!r}")
    rank = factors[0].shape[1]
    rows = tensor.shape[mode]
    scatter_backend = exec_backend if exec_backend == "numba" else None
    gathers = tensor.task_gathers(mode, nthreads, strategy)
    _observe_blocks(gathers)
    thread_nnz = np.array([tg.nnz for tg in gathers], dtype=np.int64)

    if strategy == "schedule":
        out = np.zeros((rows, rank))

        def make_task(tg):
            def task():
                return mttkrp_gather_chunk(tg, factors, mode, out,
                                           backend=scatter_backend)
            return task

        tasks = [make_task(tg) for tg in gathers]
        report = run_tasks(tasks, real_threads=real_threads,
                           backend=exec_backend)
        return MttkrpRun(output=out, strategy="schedule", nthreads=nthreads,
                         thread_nnz=thread_nnz, report=report,
                         scatter_backends=_backends_of(report))

    # privatize: equal-nnz chunks of the linearized order, private buffers
    bufs = PrivateBuffers.allocate(nthreads, rows, rank)

    def make_task(tid, tg):
        def task():
            return mttkrp_gather_chunk(tg, factors, mode, bufs.view(tid),
                                       backend=scatter_backend)
        return task

    tasks = [make_task(t, tg) for t, tg in enumerate(gathers)]
    # private buffers are race-free, so the caller's thread mode is honored
    report = run_tasks(tasks, real_threads=real_threads,
                       backend=exec_backend)
    return MttkrpRun(output=bufs.reduce(), strategy="privatize",
                     nthreads=nthreads, thread_nnz=thread_nnz,
                     reduction_flops=bufs.reduction_flops(), report=report,
                     scatter_backends=_backends_of(report))


def _parallel_alto_process(tensor, factors, mode, nthreads, strategy,
                           fault_policy=None):
    """True multicore ALTO MTTKRP: the equal-nnz row-disjoint partition
    executed by the shared-memory process pool (see
    :func:`repro.parallel.procpool.mttkrp_process_alto`).

    Same degrade contract as the HiCOO path: an exhausted recovery budget
    under ``fault_policy="degrade"`` re-runs the region in process on the
    schedule strategy — identical partition and kernels, so the degraded
    output is bit-identical.
    """
    from ..parallel.procpool import mttkrp_process_alto
    from ..parallel.supervisor import DegradedExecution

    try:
        with trace.span("mttkrp.parallel", mode=mode, backend="process",
                        format=tensor.format_name, nthreads=nthreads) as sp:
            pr = mttkrp_process_alto(tensor, factors, mode, nthreads,
                                     strategy=strategy,
                                     fault_policy=fault_policy)
            run = MttkrpRun(output=pr.output, strategy=pr.strategy,
                            nthreads=pr.nworkers, thread_nnz=pr.thread_nnz,
                            reduction_flops=pr.reduction_flops,
                            schedule=pr.schedule, report=pr.report,
                            scatter_backends=pr.scatter_backends)
            sp.note(strategy=run.strategy, imbalance=run.load_imbalance())
    except DegradedExecution as exc:
        return _degrade_alto(tensor, factors, mode, nthreads, strategy, exc)
    _note_parallel(run, tensor, mode, "process")
    return run


def _degrade_alto(tensor, factors, mode, nthreads, strategy, exc) -> MttkrpRun:
    """Finish an ALTO MTTKRP whose process region gave up, on the first
    usable in-process fallback (same partition, same kernels — the result
    matches what the process backend would have produced)."""
    from ..util.log import get_logger

    fallbacks = exc.config.fallback_backends or ("sim",)
    backend = next((b for b in fallbacks if b in ("thread", "sim")), "sim")
    get_logger("repro.supervisor").warning(
        "process backend degraded to %r for mode %d: %s", backend, mode, exc)
    metrics.inc("supervisor.degradations")
    trace.instant("supervisor.degrade", mode=mode, fallback=backend,
                  reason=str(exc))
    with trace.span("mttkrp.parallel", mode=mode, backend=backend,
                    format=tensor.format_name, nthreads=nthreads,
                    degraded=True) as sp:
        run = _parallel_alto(tensor, factors, mode, nthreads, strategy,
                             real_threads=(backend == "thread"))
        sp.note(strategy=run.strategy, imbalance=run.load_imbalance())
    _note_parallel(run, tensor, mode, backend)
    return run


# ----------------------------------------------------------------------
# CSF
# ----------------------------------------------------------------------
def _parallel_csf(tensor, factors, mode, nthreads, strategy, real_threads):
    if strategy == "auto":
        strategy = "subtree"
    if strategy not in ("subtree", "privatize"):
        raise ValueError(f"CSF supports 'subtree' or 'privatize', got {strategy!r}")
    rank = factors[0].shape[1]
    rows = tensor.shape[mode]

    # weight of each root subtree = its leaf count
    subtree_nnz = _root_subtree_nnz(tensor)
    ranges = balanced_ranges(subtree_nnz, nthreads)
    thread_nnz = np.array(
        [int(subtree_nnz[lo:hi].sum()) for lo, hi in ranges], dtype=np.int64)

    root_is_target = tensor.mode_order[0] == mode
    shared = root_is_target and strategy == "subtree"
    out = np.zeros((rows, rank))
    bufs = None if shared else PrivateBuffers.allocate(nthreads, rows, rank)

    def make_task(tid, lo, hi):
        def task():
            target = out if shared else bufs.view(tid)
            return tensor.subtree_mttkrp(factors, mode, lo, hi, target)
        return task

    tasks = [make_task(t, lo, hi) for t, (lo, hi) in enumerate(ranges)]
    # subtree writes are row-disjoint (root mode) and privatized buffers are
    # race-free, so real threads are safe either way
    report = run_tasks(tasks, real_threads=real_threads)
    if not shared:
        out = bufs.reduce()
    return MttkrpRun(
        output=out,
        strategy="subtree" if shared else "privatize",
        nthreads=nthreads,
        thread_nnz=thread_nnz,
        reduction_flops=bufs.reduction_flops() if bufs else 0,
        report=report,
        scatter_backends=_backends_of(report),
    )


def _root_subtree_nnz(tensor: CsfTensor) -> np.ndarray:
    """Leaf (nonzero) count under each root node."""
    bounds = np.arange(tensor.levels[0].nnodes + 1)
    for level in tensor.levels[:-1]:  # compose the levels' child ranges
        bounds = level.fptr[bounds]
    return np.diff(bounds)
