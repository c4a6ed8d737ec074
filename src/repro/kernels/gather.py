"""Precomputed gather/reduce primitives for the sparse MTTKRP kernels.

Every MTTKRP hot loop has the same shape: *gather* factor rows at each
nonzero's global coordinates (for HiCOO the fused ``(bind << b) + eind``),
multiply, and *reduce* the products into their target output rows.  Both
the coordinates and the reduction are purely **symbolic** — they depend
only on the tensor's structure, never on the factor values — so CP-ALS's
N modes x K iterations can pay them exactly once.  This module provides
the pieces of that split (the taco-style symbolic/numeric separation; see
DESIGN.md section 7):

* :class:`TaskGather` — the cached symbolic state of one thread task: fused
  int64 gather coordinates, task-ordered values, per-mode sortedness flags,
  and one memoized :class:`RowReduction` per target mode;
* :class:`RowReduction` — a CSR operator over the task's distinct target
  rows whose product with the gathered rows sums every row left to right
  in task order: one C sparse-dense product, bitwise ``np.add.at``;
* :func:`scatter_add` — a drop-in replacement for ``np.add.at`` for
  one-shot scatters (TTV/TTM, duplicate summing, streaming), where no
  structure is reused;
* run coalescing — consecutive block ids become ``(lo, hi)`` slice ranges so
  task setup is O(runs), not O(blocks).

Every helper is duck-typed on the HiCOO attribute contract (``bptr``,
``binds``, ``einds``, ``values``, ``block_bits``) to keep this module
import-light; :meth:`repro.core.hicoo.HicooTensor.task_gather` is the
memoizing entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..obs import metrics, trace

__all__ = [
    "SCATTER_SMALL_N",
    "SCATTER_COMPILED_MIN_N",
    "RowReduction",
    "TaskGather",
    "build_row_reduction",
    "segment_operator",
    "scatter_add",
    "choose_scatter_backend",
    "coalesce_runs",
    "runs_from_block_ids",
    "build_task_gather",
    "mttkrp_gather_chunk",
]

#: below this many updates the bookkeeping of the fast backends costs more
#: than ``np.add.at`` itself.
SCATTER_SMALL_N = 64

#: below this many updates a *compiled* scatter (numba/cupy) is never
#: selected even when requested and available: the per-call dispatch
#: overhead — and, on the very first call, JIT compilation — dwarfs the
#: scatter itself, so tiny inputs stay on the NumPy ladder above.
SCATTER_COMPILED_MIN_N = 4096

#: when the output has this many times more rows than there are updates, a
#: per-column bincount (which walks the whole output) loses to sorting the
#: updates and segment-reducing them.
_SPARSE_OUT_RATIO = 8


# ----------------------------------------------------------------------
# scatter-add backend selection
# ----------------------------------------------------------------------
def scatter_add(out: np.ndarray, idx: np.ndarray, acc: np.ndarray,
                presorted: bool | None = None,
                row_local: bool = False,
                backend: str | None = None) -> str:
    """Accumulate ``acc`` into ``out`` at rows ``idx``; returns the backend.

    Semantically identical to ``np.add.at(out, idx, acc)`` — duplicate
    indices sum — but picks the fastest primitive available.  It serves
    one-shot scatters (TTV/TTM, duplicate summing, streaming), whose
    structure is not reused; MTTKRP tasks reduce through their memoized
    :class:`RowReduction` instead.

    * ``"add_at"`` — tiny inputs (< :data:`SCATTER_SMALL_N` updates);
    * ``"reduceat"`` — ``idx`` is non-decreasing (callers often know this
      from how they built ``idx``): one segmented reduction, no sort;
    * ``"bincount"`` — general case, one ``np.bincount`` per output column;
    * ``"sort_reduceat"`` — output rows vastly outnumber updates, where
      bincount's full-output walk loses to sorting the updates first;
    * ``"numba"`` — only when ``backend="numba"`` is requested, the tier is
      importable, **and** ``n >= SCATTER_COMPILED_MIN_N``: a jitted
      update loop (no per-column passes, no index sort).  An unavailable
      request silently stays on the NumPy ladder.

    ``presorted=None`` probes sortedness (one O(n) pass, cheap next to the
    scatter itself); pass ``True``/``False`` when the caller already knows.
    ``row_local=True`` restricts the choice to backends that write only the
    rows in ``idx`` — required when ``out`` is shared between concurrent
    tasks that own disjoint row ranges: bincount adds a full-length column
    and would race on unowned rows.
    ``out`` may be 1-D (with 1-D ``acc``) or 2-D (rows x rank).

    Each call increments the ``scatter.calls`` / ``scatter.updates`` /
    ``scatter.<backend>`` counters of :mod:`repro.obs.metrics` (so the
    compiled tiers surface as ``scatter.numba`` / ``scatter.cupy``).
    """
    backend = _scatter_add(out, idx, acc, presorted, row_local, backend)
    _count_scatter(backend, len(idx))
    return backend


def _count_scatter(backend: str, n: int) -> None:
    reg = metrics.get_registry()
    if reg.enabled:
        reg.inc("scatter.calls", labels={"backend": backend})
        reg.inc("scatter.updates", n)
        reg.inc("scatter." + backend)


def choose_scatter_backend(n: int, rows: int,
                           presorted: bool = False,
                           row_local: bool = False,
                           backend: str | None = None,
                           compiled_available: bool | None = None) -> str:
    """Pure backend choice for an ``n``-update scatter into ``rows`` rows.

    Factored out of :func:`scatter_add` so the crossover policy — in
    particular that compiled tiers are never chosen below
    :data:`SCATTER_COMPILED_MIN_N` — is unit-testable on hosts where the
    tiers are not installed (``compiled_available`` overrides detection).
    """
    if n == 0:
        return "noop"
    if n <= SCATTER_SMALL_N:
        return "add_at"
    # only the numba tier applies here: these are host arrays (the GPU
    # tier scatters device-side, inside repro.kernels.compiled, and feeds
    # the scatter.cupy counter from there)
    if backend == "numba" and n >= SCATTER_COMPILED_MIN_N:
        if compiled_available is None:
            from .backends import tier_available

            compiled_available = tier_available(backend)
        if compiled_available:
            return backend
    if presorted:
        return "reduceat"
    if row_local or rows > _SPARSE_OUT_RATIO * n:
        return "sort_reduceat"
    return "bincount"


def _scatter_add(out, idx, acc, presorted, row_local, backend=None) -> str:
    n = len(idx)
    if n == 0:
        return "noop"
    if presorted is None and SCATTER_SMALL_N < n:
        presorted = bool(np.all(idx[1:] >= idx[:-1]))
    choice = choose_scatter_backend(n, out.shape[0], bool(presorted),
                                    row_local, backend)
    if choice == "add_at":
        np.add.at(out, idx, acc)
    elif choice == "numba":
        from .compiled import scatter_add_compiled

        scatter_add_compiled(out, idx, acc)
    elif choice == "reduceat":
        _segment_add(out, idx, acc)
    elif choice == "sort_reduceat":
        order = np.argsort(idx, kind="stable")
        _segment_add(out, idx[order], acc[order])
    else:  # bincount
        rows = out.shape[0]
        if acc.ndim == 1:
            out += np.bincount(idx, weights=acc, minlength=rows)
        else:
            for r in range(acc.shape[1]):
                out[:, r] += np.bincount(idx, weights=acc[:, r],
                                         minlength=rows)
    return choice


def _segment_add(out: np.ndarray, idx: np.ndarray, acc: np.ndarray) -> None:
    """Segmented reduction of ``acc`` into ``out``; ``idx`` non-decreasing."""
    starts = np.concatenate([[0], np.flatnonzero(idx[1:] != idx[:-1]) + 1])
    sums = np.add.reduceat(acc, starts, axis=0)
    # idx[starts] are pairwise distinct (idx is sorted), so fancy += is exact
    out[idx[starts]] += sums


# ----------------------------------------------------------------------
# run coalescing (O(runs) task setup)
# ----------------------------------------------------------------------
def coalesce_runs(ranges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge adjacent half-open ``(lo, hi)`` ranges; drops empty ranges."""
    runs: List[Tuple[int, int]] = []
    for lo, hi in ranges:
        lo, hi = int(lo), int(hi)
        if hi <= lo:
            continue
        if runs and runs[-1][1] == lo:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    return runs


def runs_from_block_ids(block_ids) -> List[Tuple[int, int]]:
    """Coalesce a sequence of block ids into maximal consecutive runs."""
    ids = np.asarray(block_ids, dtype=np.int64)
    if ids.size == 0:
        return []
    breaks = np.flatnonzero(ids[1:] != ids[:-1] + 1) + 1
    starts = np.concatenate([[0], breaks])
    ends = np.concatenate([breaks, [len(ids)]])
    return [(int(ids[s]), int(ids[e - 1]) + 1) for s, e in zip(starts, ends)]


# ----------------------------------------------------------------------
# memoized row reductions (the scatter side of the symbolic work)
# ----------------------------------------------------------------------
#: grow-only, read-only constants whose prefixes every reduction may
#: share: the column ids of target-sorted tasks and unit weights, so such
#: reductions allocate only ``indptr`` and ``rows``.  Each never holds
#: more than the largest task seen.
_SHARED = {"iota": np.arange(0, dtype=np.int32), "ones": np.ones(0)}


def _index_dtype(n: int):
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _shared_prefix(kind: str, n: int) -> np.ndarray:
    arr = _SHARED[kind]
    if len(arr) < n:
        size = max(n, 2 * len(arr))
        arr = (np.arange(size, dtype=_index_dtype(size)) if kind == "iota"
               else np.ones(size))
        arr.flags.writeable = False
        _SHARED[kind] = arr
    return arr[:n]


def segment_operator(indptr: np.ndarray, weights: np.ndarray | None = None,
                     cols: np.ndarray | None = None) -> sparse.csr_matrix:
    """CSR operator whose row ``k`` sums input rows ``cols[indptr[k]:
    indptr[k+1]]`` left to right, weighted by ``weights``.

    ``cols`` defaults to the identity (consecutive segments of the input)
    and ``weights`` to unit weights; both defaults are prefixes of shared
    read-only arrays, so only ``indptr`` is new.  A CSF level is such an
    operator as stored: its ``fptr`` is the ``indptr``.
    """
    n = int(indptr[-1])
    if cols is None:
        cols = _shared_prefix("iota", n)
    if weights is None:
        weights = _shared_prefix("ones", n)
    indptr = np.asarray(indptr).astype(cols.dtype, copy=False)
    return sparse.csr_matrix((weights, cols, indptr),
                             shape=(len(indptr) - 1, n))


@dataclass(frozen=True)
class RowReduction:
    """The sum of one task's nonzero contributions into its target rows.

    ``op`` is a CSR matrix with one row per distinct target row (``rows``,
    ascending) and one column per nonzero of the task.  Each row's column
    ids ascend in task order and its data are the nonzero weights, so
    ``op @ acc`` — one C sparse-dense product — sums every target row
    left to right in task order: bitwise ``np.add.at(out, idx, w * acc)``
    on a zeroed ``out``.  Only ``rows`` are written, so tasks that own
    disjoint rows may share one output.
    """

    rows: np.ndarray
    op: sparse.csr_matrix
    #: bytes this reduction allocated; shared column ids and weights that
    #: are views of the task's own arrays are not counted
    owned_bytes: int

    def apply(self, out: np.ndarray, acc: np.ndarray) -> None:
        """``out[rows] += op @ acc`` (``acc`` is (nnz, R), task order)."""
        out[self.rows] += self.op @ acc
        _count_scatter("csr", self.op.shape[1])


def build_row_reduction(idx: np.ndarray, weights: np.ndarray | None = None,
                        presorted: bool = False) -> RowReduction:
    """Build the :class:`RowReduction` of updates at rows ``idx`` (task
    order) weighted by ``weights`` (unit weights when ``None``).

    A target-sorted task (``presorted``, e.g. an ALTO mode view or the root
    level of a CSF tree) reuses ``weights`` and the shared column ids, so
    only ``indptr`` and ``rows`` are new.  Otherwise one stable argsort
    orders the columns by target row — ties keep task order — and the
    permuted weights are stored with int32 column ids.
    """
    n = len(idx)
    cols = None
    owned = 0
    if not presorted:
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        cols = order.astype(_index_dtype(n))
        owned += cols.nbytes
        if weights is not None:
            weights = weights[order]
            owned += weights.nbytes
    starts = np.flatnonzero(np.diff(idx, prepend=idx[:1] - 1))
    op = segment_operator(np.append(starts, n), weights, cols)
    rows = np.asarray(idx[starts], dtype=np.intp)
    return RowReduction(rows=rows, op=op,
                        owned_bytes=owned + rows.nbytes + op.indptr.nbytes)


# ----------------------------------------------------------------------
# fused gather arrays
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskGather:
    """Cached symbolic state of one thread task over a sparse tensor.

    Attributes
    ----------
    runs : tuple of (lo, hi) — the block (or nonzero) runs this task owns.
    ginds : (nnz, N) int64 — global coordinates, task order (for HiCOO the
        fused ``(binds[blk] << block_bits) + einds``).
    values : (nnz,) float64 — the nonzero values in the same order (constant
        per tensor, cached so the numeric pass is slice-free).
    sorted_modes : (N,) bool — whether ``ginds[:, m]`` is non-decreasing;
        a sorted target mode builds its reduction without a sort or copy.
    format_name : the format the nonzeros come from; labels the
        ``mttkrp.gathers`` counter.

    The per-mode :class:`RowReduction` operators are built on first use by
    :meth:`reduction` and live as long as the task.
    """

    runs: Tuple[Tuple[int, int], ...]
    ginds: np.ndarray
    values: np.ndarray
    sorted_modes: np.ndarray
    format_name: str = ""
    _reductions: Dict[int, RowReduction] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return len(self.values)

    def reduction(self, mode: int) -> RowReduction:
        """Memoized :class:`RowReduction` of this task onto its
        mode-``mode`` rows."""
        red = self._reductions.get(mode)
        if red is None:
            built = build_row_reduction(self.ginds[:, mode], self.values,
                                        bool(self.sorted_modes[mode]))
            # concurrent callers may race to build it; one copy is kept
            red = self._reductions.setdefault(mode, built)
            if red is built:
                metrics.inc("gather.reduction_builds")
                metrics.inc("gather.reduction_bytes", red.owned_bytes)
        return red

    def slice(self, lo: int, hi: int) -> "TaskGather":
        """Nonzeros ``[lo, hi)`` as a task of their own.

        The arrays are views (no copy) and the sortedness flags carry over
        (a slice of a sorted column is sorted; a flag that stays ``False``
        only costs the slice a sort when its reduction is built).
        """
        return TaskGather(runs=((lo, hi),), ginds=self.ginds[lo:hi],
                          values=self.values[lo:hi],
                          sorted_modes=self.sorted_modes,
                          format_name=self.format_name)

    def reduction_nbytes(self) -> int:
        """Bytes held by the memoized reduction operators."""
        return sum(r.owned_bytes for r in self._reductions.values())

    def nbytes(self) -> int:
        """Cache footprint of the precomputed arrays and operators."""
        return (self.ginds.nbytes + self.values.nbytes
                + self.sorted_modes.nbytes + self.reduction_nbytes())


def build_task_gather(tensor, runs: Sequence[Tuple[int, int]]) -> TaskGather:
    """Materialize the fused gather arrays for block runs of ``tensor``.

    One vectorized pass per run (O(runs) setup + O(nnz) arithmetic) replaces
    the per-block ``arange``/``full``/``concatenate`` loop.  ``binds`` is
    sliced *before* the int64 widening so only the task's rows are cast.
    """
    runs = tuple(coalesce_runs(runs))
    nmodes = tensor.binds.shape[1] if tensor.binds.ndim == 2 else 1
    shift = tensor.block_bits
    pieces_g, pieces_v = [], []
    for blo, bhi in runs:
        lo, hi = int(tensor.bptr[blo]), int(tensor.bptr[bhi])
        counts = np.diff(tensor.bptr[blo:bhi + 1])
        blk_of = np.repeat(np.arange(blo, bhi), counts)
        base = tensor.binds[blk_of].astype(np.int64) << shift
        base += tensor.einds[lo:hi]
        pieces_g.append(base)
        pieces_v.append(tensor.values[lo:hi])
    if pieces_g:
        ginds = pieces_g[0] if len(pieces_g) == 1 else np.concatenate(pieces_g)
        values = (pieces_v[0] if len(pieces_v) == 1
                  else np.concatenate(pieces_v))
        values = np.ascontiguousarray(values, dtype=np.float64)
    else:
        ginds = np.empty((0, nmodes), dtype=np.int64)
        values = np.empty(0, dtype=np.float64)
    sorted_modes = np.array(
        [bool(np.all(ginds[1:, m] >= ginds[:-1, m]))
         for m in range(ginds.shape[1])], dtype=bool)
    return TaskGather(runs=runs, ginds=ginds, values=values,
                      sorted_modes=sorted_modes, format_name="hicoo")


# ----------------------------------------------------------------------
# numeric MTTKRP pass over a cached gather
# ----------------------------------------------------------------------
def mttkrp_gather_chunk(tg: TaskGather, factors, mode: int, out: np.ndarray,
                        backend: str | None = None) -> str:
    """Pure-numeric MTTKRP of one task: gather, multiply, reduce.

    All symbolic work lives in ``tg``: ``np.take`` gathers at its cached
    coordinates, a Hadamard product, then its memoized reduction for
    ``mode`` (``out[rows] += op @ acc``, see :class:`RowReduction`).  Every
    output row therefore sums its contributions left to right in task
    order — bitwise ``np.add.at`` — and only the task's own rows are
    written, so row-disjoint tasks may share ``out``.  ``backend="numba"``
    requests the jitted sequential scatter (the same summation order) for
    tasks past :data:`SCATTER_COMPILED_MIN_N` when the tier is installed.
    Returns the reduction backend used: ``"csr"``, ``"numba"`` or
    ``"noop"`` (recorded in :class:`MttkrpRun`).  Its N - 1 factor-row
    gathers count in ``mttkrp.gathers``.
    """
    if tg.nnz == 0:
        return "noop"
    if trace.enabled():
        with trace.span("gather.chunk", mode=mode, nnz=tg.nnz):
            used = _mttkrp_gather_chunk(tg, factors, mode, out, backend)
    else:
        used = _mttkrp_gather_chunk(tg, factors, mode, out, backend)
    metrics.inc("mttkrp.nnz_processed", tg.nnz)
    return used


def _mttkrp_gather_chunk(tg, factors, mode, out, backend):
    if len(factors) > 1:
        metrics.inc("mttkrp.gathers", len(factors) - 1,
                    labels={"format": tg.format_name})
    acc = None
    for m, f in enumerate(factors):
        if m == mode:
            continue
        rows = np.take(f, tg.ginds[:, m], axis=0)
        if acc is None:
            acc = rows  # fresh gather output — safe to scale in place below
        else:
            acc *= rows
    if acc is None:
        acc = np.ones((tg.nnz, out.shape[1]))
    if backend == "numba" and choose_scatter_backend(
            tg.nnz, out.shape[0], backend=backend) == "numba":
        from .compiled import scatter_add_compiled

        acc *= tg.values[:, None]
        scatter_add_compiled(out, tg.ginds[:, mode], acc)
        _count_scatter("numba", tg.nnz)
        return "numba"
    tg.reduction(mode).apply(out, acc)
    return "csr"
