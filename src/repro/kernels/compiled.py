"""Compiled MTTKRP kernels: Numba CPU JIT and the CuPy GPU tier.

The gather/scatter split (DESIGN.md section 7) reduced the numeric half of
MTTKRP to fused gather–multiply–scatter loops over cached
:class:`~repro.kernels.gather.TaskGather` arrays.  This module executes
those loops an order of magnitude faster than NumPy fancy indexing:

* **Numba CPU tier** — one machine-code kernel per mode launch: a
  ``prange`` over the plan's thread tasks (row-disjoint under the
  lock-free superblock schedule, so the shared output needs no atomics)
  with a fused per-nonzero inner loop.  All non-target factors are stacked
  into one ``(sum rows, R)`` matrix with per-mode row offsets — the F-COO
  "unified" formulation (arXiv:1705.09905) — so the kernel signature is
  mode-count independent and one compiled signature serves every mode of
  every CP-ALS iteration.
* **CuPy GPU tier** — a :class:`DeviceArena` mirrors the role of the
  process backend's ``ShmArena``: the plan's fused coordinates and values
  are uploaded **once per plan** (with a per-mode sort permutation and
  segment boundaries precomputed on upload), each launch uploads only the
  current factors, runs an F-COO-style *segmented reduction* (sorted
  scatter indices → cumsum-difference per segment → conflict-free writes),
  and downloads the mode's output matrix.

Every public entry degrades to the pure-NumPy twin of the same algorithm
when the dependency is absent — the jitted functions below are ordinary
Python functions that numba decorates only when importable, so the exact
loop nests that get compiled are also unit-tested interpreted.  Compile
and upload costs are observable: ``compiled.compile_seconds`` /
``compiled.upload_bytes`` metrics and ``compiled.warmup`` /
``compiled.upload`` spans keep them out of (and visible next to) the
steady-state numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics, trace
from .backends import tier_available
from .gather import TaskGather

__all__ = [
    "FusedTasks",
    "build_fused_tasks",
    "run_fused_mttkrp",
    "stack_factors",
    "segmented_mttkrp",
    "DeviceArena",
    "mttkrp_cupy",
    "warmup_numba",
    "numba_ready",
]

try:  # optional dependency: decorate when present, run interpreted when not
    import numba
    from numba import njit, prange

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - exercised on numba-less hosts
    numba = None
    prange = range
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        """No-op decorator stand-in: the kernels stay plain Python."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn
        return wrap


# ----------------------------------------------------------------------
# kernel bodies (compiled by numba when available, interpreted otherwise)
# ----------------------------------------------------------------------
# The loop nests are written in strict nopython-compatible style: scalar
# arithmetic over contiguous float64/int64 arrays, no Python objects.  The
# interpreted twins are what the equivalence tests on numba-less hosts run,
# so the code numba compiles in CI is the code verified everywhere.
def _fused_tasks_body(task_ptr, ginds, values, fstack, offsets, mode, out):
    """MTTKRP of all tasks; parallel over tasks (must be row-disjoint)."""
    nmodes = ginds.shape[1]
    rank = out.shape[1]
    for t in prange(task_ptr.shape[0] - 1):
        for i in range(task_ptr[t], task_ptr[t + 1]):
            row = ginds[i, mode]
            for r in range(rank):
                acc = values[i]
                for m in range(nmodes):
                    if m != mode:
                        acc *= fstack[offsets[m] + ginds[i, m], r]
                out[row, r] += acc


def _fused_serial_body(ginds, values, fstack, offsets, mode, out, lo, hi):
    """MTTKRP of one nonzero slice ``[lo, hi)``; safe for any target rows."""
    nmodes = ginds.shape[1]
    rank = out.shape[1]
    for i in range(lo, hi):
        row = ginds[i, mode]
        for r in range(rank):
            acc = values[i]
            for m in range(nmodes):
                if m != mode:
                    acc *= fstack[offsets[m] + ginds[i, m], r]
            out[row, r] += acc


def _scatter_add_2d_body(out, idx, acc):
    for i in range(idx.shape[0]):
        j = idx[i]
        for r in range(acc.shape[1]):
            out[j, r] += acc[i, r]


def _scatter_add_1d_body(out, idx, acc):
    for i in range(idx.shape[0]):
        out[idx[i]] += acc[i]


if HAVE_NUMBA:
    # nogil lets the thread backend overlap kernel launches; cache=True
    # persists compiled signatures across processes (best effort)
    _fused_tasks_jit = njit(parallel=True, nogil=True, cache=True)(
        _fused_tasks_body)
    _fused_serial_jit = njit(nogil=True, cache=True)(_fused_serial_body)
    _scatter_add_2d_jit = njit(nogil=True, cache=True)(_scatter_add_2d_body)
    _scatter_add_1d_jit = njit(nogil=True, cache=True)(_scatter_add_1d_body)
else:  # the interpreted twins double as the numba-less implementations
    _fused_tasks_jit = _fused_tasks_body
    _fused_serial_jit = _fused_serial_body
    _scatter_add_2d_jit = _scatter_add_2d_body
    _scatter_add_1d_jit = _scatter_add_1d_body


_WARMED = {"numba": False}


def numba_ready() -> bool:
    """True when the numba tier is importable (compiled or compilable)."""
    return HAVE_NUMBA and tier_available("numba")


def warmup_numba() -> float:
    """Compile every jitted signature on toy inputs; returns the seconds.

    CP-ALS and the benchmarks call this once before their timed regions so
    JIT compilation is paid outside the steady state; the cost is recorded
    in the ``compiled.compile_seconds`` histogram and a
    ``compiled.warmup`` span either way.  Idempotent and a no-op without
    numba.
    """
    if not HAVE_NUMBA or _WARMED["numba"]:
        return 0.0
    t0 = time.perf_counter()
    with trace.span("compiled.warmup", tier="numba"):
        ginds = np.zeros((1, 3), dtype=np.int64)
        values = np.ones(1, dtype=np.float64)
        fstack = np.ones((3, 2), dtype=np.float64)
        offsets = np.array([0, 1, 2], dtype=np.int64)
        out = np.zeros((1, 2), dtype=np.float64)
        task_ptr = np.array([0, 1], dtype=np.int64)
        _fused_tasks_jit(task_ptr, ginds, values, fstack, offsets, 0, out)
        _fused_serial_jit(ginds, values, fstack, offsets, 0, out, 0, 1)
        idx = np.zeros(1, dtype=np.int64)
        _scatter_add_2d_jit(out, idx, np.zeros((1, 2)))
        _scatter_add_1d_jit(np.zeros(2), idx, np.zeros(1))
    dt = time.perf_counter() - t0
    _WARMED["numba"] = True
    metrics.observe("compiled.compile_seconds", dt,
                    labels={"tier": "numba"})
    return dt


def scatter_add_compiled(out: np.ndarray, idx: np.ndarray,
                         acc: np.ndarray) -> None:
    """Jitted (or interpreted-twin) scatter-add; semantics of ``np.add.at``."""
    if HAVE_NUMBA:
        warmup_numba()
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if acc.ndim == 1:
        _scatter_add_1d_jit(out, idx, np.ascontiguousarray(acc))
    else:
        _scatter_add_2d_jit(out, idx, np.ascontiguousarray(acc))


# ----------------------------------------------------------------------
# fused per-plan task arrays (the compiled tiers' symbolic state)
# ----------------------------------------------------------------------
@dataclass
class FusedTasks:
    """Plan-level concatenation of a mode's TaskGather arrays.

    One kernel launch consumes the whole mode: ``task_ptr`` delimits each
    thread task's nonzero slice, so a ``prange`` over tasks reproduces the
    plan's partition exactly.  ``row_disjoint`` records whether concurrent
    tasks may share the output (the lock-free schedule guarantee); when
    False the serial kernel runs instead — still fused and compiled, just
    not task-parallel.
    """

    task_ptr: np.ndarray  # (ntasks + 1,) int64
    ginds: np.ndarray     # (nnz, N) int64, task order
    values: np.ndarray    # (nnz,) float64
    row_disjoint: bool

    @property
    def nnz(self) -> int:
        return len(self.values)

    def nbytes(self) -> int:
        return self.task_ptr.nbytes + self.ginds.nbytes + self.values.nbytes


def build_fused_tasks(gathers: Sequence[TaskGather],
                      row_disjoint: bool) -> FusedTasks:
    """Concatenate per-task gather arrays into one kernel-ready block."""
    sizes = np.array([tg.nnz for tg in gathers], dtype=np.int64)
    task_ptr = np.zeros(len(gathers) + 1, dtype=np.int64)
    if len(sizes):
        np.cumsum(sizes, out=task_ptr[1:])
    nonempty = [tg for tg in gathers if tg.nnz]
    if not nonempty:
        nmodes = gathers[0].ginds.shape[1] if gathers else 0
        ginds = np.empty((0, nmodes), dtype=np.int64)
        values = np.empty(0, dtype=np.float64)
    elif len(nonempty) == 1:
        ginds, values = nonempty[0].ginds, nonempty[0].values
    else:
        ginds = np.concatenate([tg.ginds for tg in nonempty])
        values = np.concatenate([tg.values for tg in nonempty])
    return FusedTasks(task_ptr=task_ptr,
                      ginds=np.ascontiguousarray(ginds, dtype=np.int64),
                      values=np.ascontiguousarray(values, dtype=np.float64),
                      row_disjoint=row_disjoint)


def stack_factors(factors: Sequence[np.ndarray]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Stack factor matrices row-wise; returns ``(fstack, offsets)``.

    The F-COO unification: factor ``m``'s row ``i`` lives at
    ``fstack[offsets[m] + i]``, so one (rows, R) matrix serves every mode
    and the kernel signature never changes with the tensor order.
    """
    offsets = np.zeros(len(factors), dtype=np.int64)
    if len(factors) > 1:
        np.cumsum(np.array([f.shape[0] for f in factors[:-1]],
                           dtype=np.int64), out=offsets[1:])
    fstack = np.ascontiguousarray(np.concatenate(factors, axis=0),
                                  dtype=np.float64)
    return fstack, offsets


def run_fused_mttkrp(fused: FusedTasks, factors: Sequence[np.ndarray],
                     mode: int, out: np.ndarray,
                     force_serial: bool = False) -> str:
    """Execute one mode's MTTKRP through the fused (numba) kernels.

    Returns the scatter flavor used (``"numba"`` / ``"numba_seq"``, or the
    interpreted ``"python"`` twins on numba-less hosts — reached only by
    tests; dispatch never selects this tier without numba).  Row-disjoint
    fused tasks take the task-parallel kernel; everything else takes the
    serial kernel, which is safe for arbitrary (privatized) outputs.
    """
    if fused.nnz == 0:
        return "noop"
    if HAVE_NUMBA:
        warmup_numba()
    fstack, offsets = stack_factors(factors)
    parallel = fused.row_disjoint and not force_serial
    with trace.span("compiled.kernel", tier="numba", mode=mode,
                    nnz=fused.nnz, parallel=parallel):
        if parallel:
            _fused_tasks_jit(fused.task_ptr, fused.ginds, fused.values,
                             fstack, offsets, mode, out)
            flavor = "numba"
        else:
            _fused_serial_jit(fused.ginds, fused.values, fstack, offsets,
                              mode, out, 0, fused.nnz)
            flavor = "numba_seq"
    metrics.inc("mttkrp.nnz_processed", fused.nnz,
                labels={"backend": "numba" if HAVE_NUMBA else "python"})
    return flavor if HAVE_NUMBA else "python"


# ----------------------------------------------------------------------
# segmented-reduction MTTKRP (array-module generic: numpy or cupy)
# ----------------------------------------------------------------------
def segmented_mttkrp(xp, ginds, values, factors, mode, out,
                     order=None, seg_starts=None, seg_rows=None):
    """F-COO-style MTTKRP via sort + segmented reduction; ``xp`` is the
    array module (``numpy`` or ``cupy``), all arrays live in its space.

    The per-nonzero products are permuted so the scatter index is
    non-decreasing, reduced per segment with a cumulative-sum difference
    (no atomics, no conflicting writes — the GPU-friendly formulation),
    and written to the distinct target rows.  The symbolic triple
    ``(order, seg_starts, seg_rows)`` depends only on structure; pass the
    precomputed (device-resident) copies to skip the sort on warm calls.
    """
    n = int(values.shape[0])
    if n == 0:
        return
    if order is None:
        order, seg_starts, seg_rows = segment_plan(xp, ginds[:, mode])
    acc = values[:, None]
    for m in range(len(factors)):
        if m != mode:
            acc = acc * factors[m][ginds[:, m]]
    acc = acc[order]
    csum = xp.cumsum(acc, axis=0)
    ends = xp.concatenate([seg_starts[1:] - 1,
                           xp.asarray([n - 1], dtype=seg_starts.dtype)])
    totals = csum[ends]
    sums = xp.empty_like(totals)
    sums[0] = totals[0]
    sums[1:] = totals[1:] - totals[:-1]
    out[seg_rows] += sums


def segment_plan(xp, scatter_idx):
    """Symbolic half of :func:`segmented_mttkrp` for one mode: a stable
    sort permutation, segment start positions, and the distinct rows."""
    # plain argsort: cupy's has no ``kind`` and stability only permutes
    # the accumulation order inside a segment (ULP-level, budgeted)
    order = xp.argsort(scatter_idx)
    sorted_idx = scatter_idx[order]
    if int(sorted_idx.shape[0]) == 0:
        starts = xp.zeros(0, dtype=xp.int64)
        return order, starts, sorted_idx
    change = xp.flatnonzero(sorted_idx[1:] != sorted_idx[:-1]) + 1
    starts = xp.concatenate([xp.zeros(1, dtype=change.dtype), change])
    return order, starts, sorted_idx[starts]


# ----------------------------------------------------------------------
# CuPy device arena (GPU-HiCOO upload/download lifecycle)
# ----------------------------------------------------------------------
class DeviceArena:
    """Device-resident symbolic state of one plan — ``ShmArena``'s role on
    the GPU: structure uploaded once, reused by every launch.

    Per mode the arena holds the fused coordinates/values plus the
    segmented-reduction plan (sort permutation, segment starts, distinct
    rows).  Factors are the only per-launch upload (they change every
    CP-ALS iteration); the mode's output matrix is the only download.
    Upload traffic is counted in ``compiled.upload_bytes``.
    """

    def __init__(self, xp=None):
        if xp is None:  # pragma: no cover - requires cupy
            import cupy

            xp = cupy
        self.xp = xp
        self._modes = {}

    def upload_mode(self, mode: int, fused: FusedTasks) -> dict:
        """Upload (once) a mode's fused structure + segment plan."""
        if mode in self._modes:
            metrics.inc("compiled.upload_hits")
            return self._modes[mode]
        xp = self.xp
        with trace.span("compiled.upload", tier="cupy", mode=mode,
                        nnz=fused.nnz):
            ginds = xp.asarray(fused.ginds)
            values = xp.asarray(fused.values)
            order, seg_starts, seg_rows = segment_plan(xp, ginds[:, mode]) \
                if fused.nnz else (xp.zeros(0, dtype=xp.int64),) * 3
        state = {"ginds": ginds, "values": values, "order": order,
                 "seg_starts": seg_starts, "seg_rows": seg_rows}
        self._modes[mode] = state
        metrics.inc("compiled.upload_bytes", fused.nbytes())
        return state

    def run(self, mode: int, fused: FusedTasks,
            factors: Sequence[np.ndarray], rows: int, rank: int
            ) -> np.ndarray:
        """One MTTKRP launch: upload factors, reduce, download the output."""
        xp = self.xp
        state = self.upload_mode(mode, fused)
        dev_factors = [xp.asarray(np.ascontiguousarray(f, dtype=np.float64))
                       for f in factors]
        metrics.inc("compiled.upload_bytes",
                    sum(f.nbytes for f in factors))
        out = xp.zeros((rows, rank), dtype=xp.float64)
        with trace.span("compiled.kernel", tier="cupy", mode=mode,
                        nnz=fused.nnz):
            segmented_mttkrp(xp, state["ginds"], state["values"],
                             dev_factors, mode, out,
                             order=state["order"],
                             seg_starts=state["seg_starts"],
                             seg_rows=state["seg_rows"])
        metrics.inc("mttkrp.nnz_processed", fused.nnz,
                    labels={"backend": "cupy"})
        if xp is np:  # the numpy twin used by the unit tests
            return out
        return xp.asnumpy(out)  # pragma: no cover - requires cupy

    def nbytes(self) -> int:
        return sum(int(a.nbytes) for st in self._modes.values()
                   for a in st.values())


def mttkrp_cupy(fused: FusedTasks, factors: Sequence[np.ndarray], mode: int,
                rows: int, rank: int, arena: DeviceArena) -> np.ndarray:
    """One GPU MTTKRP launch through a (plan-cached) :class:`DeviceArena`."""
    return arena.run(mode, fused, factors, rows, rank)


# ----------------------------------------------------------------------
# plan-level cache + the entry point execute dispatches to
# ----------------------------------------------------------------------
def _mode_state(mp, tensor, tier: str):
    """Fused arrays (and, for cupy, the device arena) cached on the mode
    plan."""
    cache = mp.compiled
    fused = cache.get("fused")
    if fused is None:
        gathers = mp.ensure_gathers(tensor)
        fused = build_fused_tasks(gathers, mp.strategy == "schedule")
        cache["fused"] = fused
        metrics.inc("compiled.fused_builds")
    else:
        metrics.inc("compiled.fused_hits")
    arena = None
    if tier == "cupy":
        arena = cache.get("arena")
        if arena is None:
            arena = DeviceArena()
            cache["arena"] = arena
    return fused, arena


def mttkrp_compiled(tensor, factors: Sequence[np.ndarray], mode: int,
                    plan, tier: str,
                    out: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, str, List[float]]:
    """Execute one mode's MTTKRP on a compiled tier from a plan.

    ``plan`` is an :class:`~repro.kernels.plan.MttkrpPlan` or the mode's
    own :class:`~repro.kernels.plan.ModePlan` (what a HiCOO region
    carries).  Returns ``(output, scatter_flavor, [kernel_seconds])``.
    The caller (:func:`repro.kernels.mttkrp.execute`) has already verified
    the tier is available and the tensor is HiCOO.
    """
    from .plan import MttkrpPlan

    rank = factors[0].shape[1]
    rows = tensor.shape[mode]
    mp = plan.for_mode(mode) if isinstance(plan, MttkrpPlan) else plan
    fused, arena = _mode_state(mp, tensor, tier)
    t0 = time.perf_counter()
    if tier == "cupy":
        output = mttkrp_cupy(fused, factors, mode, rows, rank, arena)
        flavor = "cupy"
    else:
        output = out if out is not None else np.zeros((rows, rank))
        flavor = run_fused_mttkrp(fused, factors, mode, output)
    elapsed = time.perf_counter() - t0
    if flavor != "noop":
        backend = "numba" if tier == "numba" else tier
        metrics.inc("scatter.calls", labels={"backend": backend})
        metrics.inc("scatter.updates", fused.nnz)
        metrics.inc("scatter." + backend)
    return output, flavor, [elapsed]
