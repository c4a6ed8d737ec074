"""Task execution with per-thread accounting and selectable backends.

Parallel regions run through one entry point, :func:`run_tasks`, behind
three backends:

* ``"sim"`` — tasks run sequentially but each is timed individually, so the
  report's ``makespan`` is what a perfectly overlapping parallel execution
  would cost.  This is the documented substitution for the paper's OpenMP
  testbed (see DESIGN.md section 2): the GIL serializes the index-heavy
  parts of our kernels, so simulated time is the honest single-interpreter
  number.
* ``"thread"`` — a real ``ThreadPoolExecutor``.  NumPy releases the GIL
  inside large vector operations, so this can overlap the numeric parts.
* ``"process"`` — worker *processes* over shared memory (true multicore;
  see :mod:`repro.parallel.procpool`).  Tasks must be picklable zero-arg
  callables (module-level functions, ``functools.partial`` of them, …);
  the MTTKRP path does not go through this generic entry but through
  :func:`repro.parallel.procpool.run_region`, which shares the region's
  source zero-copy instead of pickling it.

Exceptions raised inside a task always propagate to the caller with the
original traceback — never swallowed into a partial
:class:`ExecutionReport` — and the region fails fast: unstarted tasks are
cancelled once the first failure is observed.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..obs import metrics, trace

__all__ = ["TaskResult", "ExecutionReport", "run_tasks", "resolve_backend",
           "BACKENDS"]

#: the selectable execution backends.  The compiled tiers ("numba",
#: "cupy") run tasks in-process like "sim" — their parallelism lives
#: *inside* the jitted/device kernels (prange over row-disjoint tasks,
#: device-wide segmented reductions), not across Python callables — and
#: they degrade silently to the NumPy kernels when the dependency is
#: absent (see :mod:`repro.kernels.backends`).
BACKENDS = ("sim", "thread", "process", "numba", "cupy")


@dataclass
class TaskResult:
    """Outcome of one thread's task."""

    tid: int
    elapsed: float
    value: object = None


@dataclass
class ExecutionReport:
    """Per-thread timing of one parallel region."""

    results: List[TaskResult] = field(default_factory=list)
    #: which backend executed the region ("sim", "thread", or "process")
    backend: str = "sim"

    @property
    def nthreads(self) -> int:
        return len(self.results)

    def makespan(self) -> float:
        """The simulated parallel time: the slowest thread's own time."""
        return max((r.elapsed for r in self.results), default=0.0)

    def total_work_time(self) -> float:
        """Sum of per-thread times — the sequential-equivalent cost."""
        return sum(r.elapsed for r in self.results)

    def load_imbalance(self) -> float:
        if not self.results:
            return 1.0
        mean = self.total_work_time() / self.nthreads
        return self.makespan() / mean if mean else 1.0

    def values(self) -> list:
        return [r.value for r in self.results]


def resolve_backend(backend: Optional[str]) -> str:
    """Normalize a backend name (``None`` and the sequential aliases are
    ``"sim"``)."""
    if backend in (None, "seq", "sequential"):
        return "sim"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def run_tasks(tasks: Sequence[Callable[[], object]],
              backend: Optional[str] = None,
              nworkers: Optional[int] = None,
              fault_policy=None) -> ExecutionReport:
    """Execute one callable per logical thread on the chosen backend.

    ``backend=None`` is ``"sim"``.  ``nworkers`` caps the worker count of
    the process backend (default: one per task).

    A task that raises aborts the region: the exception propagates with its
    original traceback (for process workers, the remote traceback is chained
    as the ``__cause__``), pending tasks are cancelled, and no partial
    report is returned.  ``fault_policy`` (process backend only) relaxes
    this: ``"retry"`` respawns dead/hung workers and re-runs their tasks,
    ``"degrade"`` additionally falls back to inline execution when the
    recovery budget is exhausted — see
    :mod:`repro.parallel.supervisor` and ``docs/fault_tolerance.md``.
    """
    backend = resolve_backend(backend)
    if backend == "process":
        from .procpool import run_generic_tasks

        return run_generic_tasks(tasks, nworkers=nworkers,
                                 fault_policy=fault_policy)
    if fault_policy is not None:
        # validate eagerly (typos should not pass silently), then ignore:
        # in-process backends cannot lose workers
        from .supervisor import FaultConfig

        FaultConfig.resolve(fault_policy)

    if backend in ("numba", "cupy"):
        from ..kernels.backends import resolve_kernel_backend

        # generic callables cannot be jitted from here; the region runs
        # in-process (kernel-level parallelism happens inside the tasks),
        # and an unavailable tier is recorded as the numpy fallback
        if resolve_kernel_backend(backend) == "numpy":
            backend = "sim"

    report = ExecutionReport(backend=backend)

    def timed_call(pair):
        tid, task = pair
        with trace.span("executor.task", task=tid):
            t0 = time.perf_counter()
            value = task()
            elapsed = time.perf_counter() - t0
        return TaskResult(tid=tid, elapsed=elapsed, value=value)

    if backend == "thread" and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
            futures = [pool.submit(timed_call, pair)
                       for pair in enumerate(tasks)]
            try:
                report.results = [f.result() for f in futures]
            except BaseException:
                # fail fast: a task raised — cancel everything not yet
                # started, then re-raise the original exception (result()
                # preserves the in-task traceback)
                for f in futures:
                    f.cancel()
                raise
    else:
        report.results = [timed_call(pair) for pair in enumerate(tasks)]

    reg = metrics.get_registry()
    if reg.enabled and tasks:
        labels = {"backend": backend}
        reg.inc("executor.regions", labels=labels)
        reg.inc("executor.tasks", len(tasks), labels=labels)
        reg.set_gauge("executor.load_imbalance", report.load_imbalance(),
                      labels=labels)
        for r in report.results:
            reg.observe("executor.task_seconds", r.elapsed, labels=labels)
    return report
