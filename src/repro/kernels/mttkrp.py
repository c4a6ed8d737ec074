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
  - **ALTO/schedule** and **ALTO/privatize**: equal-nnz chunks of the
    row-sorted mode view (row-disjoint) or of the key order (private);
  - **CSF**: root subtrees split across threads; writes are naturally
    disjoint when the target mode is the tree root, privatized otherwise.

Each format only builds the partition, a :class:`~repro.kernels.region.Region`;
one :func:`execute` runs any region on every backend.  Every parallel run
returns the output *and* an execution record with the per-thread work
counts the analytic machine model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ..core.scheduler import Schedule
from ..formats.base import SparseTensorFormat
from ..obs import metrics, trace
from ..parallel.executor import (ExecutionReport, TaskResult, resolve_backend,
                                 run_tasks)
from ..parallel.privatize import PrivateBuffers
from ..util.validation import check_factors, check_mode
from .backends import resolve_kernel_backend
from .region import Region, build_region

__all__ = ["MttkrpRun", "execute", "mttkrp", "mttkrp_parallel"]


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
           mode: int, sweep=None) -> np.ndarray:
    """Sequential MTTKRP on any supported format.

    ``sweep`` — a :class:`~repro.kernels.sweep.Sweep` over ``tensor``'s
    :meth:`~repro.formats.base.SparseTensorFormat.sweep_source`: the
    MTTKRP reuses the gathered rows and partial products it cached for
    earlier modes (``cp_als`` passes one per call).
    """
    with trace.span("mttkrp.seq", mode=mode, format=tensor.format_name):
        out = (tensor.mttkrp(factors, mode) if sweep is None
               else sweep.mttkrp(factors, mode))
    metrics.inc("mttkrp.calls",
                labels={"format": tensor.format_name, "mode": mode})
    return out


def mttkrp_parallel(tensor: SparseTensorFormat, factors: Sequence[np.ndarray],
                    mode: int, nthreads: int, strategy: str = "auto",
                    superblock_bits: Optional[int] = None,
                    plan=None, backend: Optional[str] = None,
                    fault_policy=None) -> MttkrpRun:
    """Parallel MTTKRP with the strategy set of the paper.

    ``strategy``:

    * ``"auto"`` — the paper's heuristic (:func:`choose_strategy` for HiCOO,
      privatization for COO, the row-disjoint schedule for ALTO, root
      subtrees for CSF);
    * ``"atomic"`` — COO only; ``"privatize"`` — every format;
    * ``"schedule"`` — HiCOO (lock-free superblock scheduling) and ALTO;
    * ``"subtree"`` — CSF.

    ``plan`` — a precomputed :class:`repro.kernels.plan.MttkrpPlan` for a
    HiCOO tensor; skips superblock construction and scheduling entirely
    (CP-ALS builds one plan and reuses it every iteration).

    ``backend`` — ``"sim"`` (sequential, individually timed tasks),
    ``"thread"`` (GIL-sharing thread pool), ``"process"`` (true multicore
    over shared memory; HiCOO and ALTO, see
    :mod:`repro.parallel.procpool`), ``"numba"`` (fused machine-code
    kernels, ``prange`` over the plan's row-disjoint tasks), or ``"cupy"``
    (GPU segmented reductions over a device-resident plan).  The compiled
    tiers run HiCOO plans (and ALTO's scatters on numba) and **degrade
    silently** to the NumPy kernels when the dependency is absent (one
    warning, a ``kernel.fallbacks`` counter bump, identical results) — see
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
    region = build_region(tensor, mode, nthreads, strategy,
                          factors[0].shape[1], superblock_bits, plan)
    return execute(region, factors, backend, fault_policy)


def execute(region: Region, factors: Sequence[np.ndarray],
            backend: Optional[str] = None, fault_policy=None) -> MttkrpRun:
    """Run one region on ``backend`` (see :func:`mttkrp_parallel`).

    Under ``fault_policy="degrade"``, a process region whose recovery
    budget runs out is re-run — the same region, so the same partition and
    kernels and the same bits — on the first in-process fallback backend
    (``config.fallback_backends``, thread then sim); the event is logged,
    counted (``supervisor.degradations``) and traced.
    """
    from ..parallel.supervisor import DegradedExecution, FaultConfig

    # validated on every backend, so a typo fails loudly even where the
    # knob is moot (in-process tasks cannot be lost)
    config = FaultConfig.resolve(fault_policy)
    backend = resolve_backend(backend)
    if backend in ("numba", "cupy"):
        if resolve_kernel_backend(backend) == "numpy":
            backend = "sim"  # tier unavailable: silent NumPy fallback
        elif region.plan is None and backend not in region.scatter_tiers:
            # no kernels of this tier for the region: the NumPy path
            # (same silent-degrade contract)
            metrics.inc("kernel.fallbacks", labels={"tier": backend})
            backend = "sim"
    if backend == "process" and region.source is None:
        raise ValueError(
            "backend='process' shares HiCOO blocks or ALTO views between "
            f"workers; format {region.format!r} is not supported — convert "
            "with HicooTensor(coo) or AltoTensor(coo), or use "
            "backend='thread'")
    try:
        return _run(region, factors, backend, config)
    except DegradedExecution as exc:
        fallbacks = exc.config.fallback_backends or ("sim",)
        fallback = next((b for b in fallbacks if b in ("thread", "sim")),
                        "sim")
        from ..util.log import get_logger

        get_logger("repro.supervisor").warning(
            "process backend degraded to %r for mode %d: %s", fallback,
            region.mode, exc)
        metrics.inc("supervisor.degradations")
        trace.instant("supervisor.degrade", mode=region.mode,
                      fallback=fallback, reason=str(exc))
        return _run(region, factors, fallback, config, degraded=True)


def _run(region: Region, factors, backend: str, config,
         degraded: bool = False) -> MttkrpRun:
    rank = factors[0].shape[1]
    extra = {"degraded": True} if degraded else {}
    with trace.span("mttkrp.parallel", mode=region.mode,
                    format=region.format, nthreads=region.nthreads,
                    backend=backend, **extra) as sp:
        _observe_blocks(region)
        if backend == "process":
            from ..parallel.procpool import run_region

            output, report = run_region(region, factors, config)
        elif backend in ("numba", "cupy") and region.plan is not None:
            output, report = _run_compiled(region, factors, backend)
        else:
            output, report = _run_in_process(region, factors, backend)
        run = MttkrpRun(
            output=output, strategy=region.strategy,
            nthreads=region.nthreads, thread_nnz=region.thread_nnz.copy(),
            atomic_updates=(int(region.thread_nnz.sum())
                            if region.output == "atomic"
                            and region.nthreads > 1 else 0),
            reduction_flops=((region.nthreads - 1) * region.rows * rank
                             if region.output == "private" else 0),
            schedule=region.schedule, report=report,
            scatter_backends=_backends_of(report))
        sp.note(strategy=run.strategy, imbalance=run.load_imbalance())
    _note_parallel(run, region.format, region.mode, backend)
    return run


def _run_in_process(region: Region, factors, backend: str):
    """The region's tasks on sim, thread, or a compiled scatter tier."""
    rank = factors[0].shape[1]
    if region.output == "private":
        bufs = PrivateBuffers.allocate(region.nthreads, region.rows, rank)
        outs = [bufs.view(t) for t in range(region.nthreads)]
    else:
        out = np.zeros((region.rows, rank))
        outs = [out] * region.nthreads
    scatter = backend if backend in region.scatter_tiers else None
    tasks = [partial(region.body, task, factors, region.mode, outs[t],
                     scatter)
             for t, task in enumerate(region.tasks())]
    # private buffers and row-disjoint tasks are race-free, so the caller's
    # backend is honored; "atomic" tasks overlap on a shared output and
    # NumPy has no atomic scatter-add, so they run sequentially (the
    # penalty a real machine pays is charged by the machine model)
    report = run_tasks(tasks, backend="sim" if region.output == "atomic"
                       else backend)
    return (bufs.reduce() if region.output == "private" else out), report


def _run_compiled(region: Region, factors, tier: str):
    """The fused kernels of a compiled tier (numba / cupy), fed by the
    region's :class:`~repro.kernels.plan.ModePlan`: the partition and fused
    gather arrays are the sim/process backends' symbolic state, only the
    numeric pass changes (one jitted kernel launch / one device segmented
    reduction instead of per-task NumPy chunks)."""
    from .compiled import mttkrp_compiled, warmup_numba

    if tier == "numba":
        # JIT compilation happens here, outside the kernel span, so the
        # steady-state numbers never include it (recorded separately in
        # the compiled.compile_seconds metric)
        warmup_numba()
    with trace.span("mttkrp.compiled", mode=region.mode, tier=tier,
                    format=region.format, nthreads=region.nthreads) as sp:
        output, flavor, times = mttkrp_compiled(
            region.tensor, factors, region.mode, region.plan, tier)
        sp.note(flavor=flavor)
    return output, ExecutionReport(backend=tier, results=[
        TaskResult(tid=0, elapsed=times[0], value=flavor)])


def _note_parallel(run: "MttkrpRun", fmt: str, mode: int,
                   backend: str) -> None:
    """Count one parallel MTTKRP under its format/backend/mode labels, so
    the telemetry slices regressions along the configuration space."""
    reg = metrics.get_registry()
    if reg.enabled:
        reg.inc("mttkrp.parallel_calls",
                labels={"format": fmt, "backend": backend, "mode": mode})
        reg.observe("mttkrp.load_imbalance", run.load_imbalance(),
                    labels={"format": fmt, "backend": backend})


def _backends_of(report: ExecutionReport) -> tuple:
    """Deduplicated scatter-backend names returned by the tasks."""
    return tuple(sorted({v for v in report.values()
                         if isinstance(v, str) and v and v != "noop"}))


def _observe_blocks(region: Region) -> None:
    """Record the size of every task's runs (blocks per superblock group
    for HiCOO) as a histogram."""
    reg = metrics.get_registry()
    if reg.enabled:
        for runs in region.runs:
            reg.observe("mttkrp.blocks_per_task",
                        sum(hi - lo for lo, hi in runs))
