"""ALTO: adaptive linearized storage of sparse tensors.

Where HiCOO imposes a uniform block grid (and wins only when blocks are
dense enough — the alpha_b/c_b regime of the paper's analysis), ALTO
(arXiv:2102.10245) stores each nonzero as a single linearized key whose bits
are allocated *adaptively*: mode ``m`` contributes exactly
``bits_for(shape[m] - 1)`` bits, assigned round-robin from the LSB so that
short modes drop out of the rotation once exhausted.  There is no grid to be
sparse in — compression is ``sum(widths)`` bits per nonzero regardless of how
skewed or hyper-sparse the tensor is — and the 1-D key space partitions into
equal-nnz contiguous chunks for perfect load balance.

Conversion shares the memoized one-sort pipeline of
:class:`~repro.core.convert.MortonContext`: for uniform widths the ALTO
layout *is* the Morton layout (bit ``b`` of mode ``m`` sits at ``b*N + m``
in both), so a cached Morton sort is reused verbatim; mixed widths pay one
:func:`~repro.util.bitops.alto_encode` plus one stable sort.  Delinearized
coordinates and per-mode traversal views are memoized on the tensor, the
same contract as HiCOO's ``task_gather`` cache.

MTTKRP runs over *output-space* views: for target mode ``m`` the nonzeros
are ordered by their mode-``m`` row with ties broken by **original COO
position**.  That makes every per-row accumulation a left-to-right sum in
source order — the order of ``np.add.at`` on the COO input, and of every
MTTKRP reduction (:class:`~repro.kernels.gather.RowReduction`) — so the
ALTO kernel is *bit-identical* to the sequential COO baseline on every
backend that preserves per-task ordering (sim, thread, process, numba).
A mode view is sorted by target row, so its reduction needs no sort and
no copy: only the row-segment ``indptr`` is new.  Row segments are
disjoint between tasks, so the lock-free shared-output machinery runs
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..kernels.gather import TaskGather, mttkrp_gather_chunk
from ..obs import metrics, trace
from ..parallel.partition import balanced_ranges
from ..util.bitops import alto_decode, alto_encode, alto_widths, bits_for
from ..util.bitops import stable_argsort_u64
from ..util.validation import check_factors, check_mode
from .base import SparseTensorFormat
from .coo import CooTensor

__all__ = ["AltoContext", "AltoPartition", "AltoTensor"]


class AltoContext:
    """One adaptive linearization (encode + stable sort) of a COO tensor.

    Mirrors :class:`~repro.core.convert.MortonContext` and is memoized the
    same way (under ``"alto"`` in the tensor's construction cache, via
    :meth:`repro.formats.coo.CooTensor.alto_context`).  When the per-mode
    widths are uniform the two layouts coincide and a provided Morton
    context's sort is reused outright — conversion to *both* formats then
    costs a single sort.

    Attributes
    ----------
    widths : per-mode bit widths (``alto_widths(shape)``).
    codes : (W, nnz) uint64 linearized keys in sorted (ALTO) order.
    order : original COO position of each sorted nonzero — retained because
        the kernels use it to break row ties in source order (the
        bit-identity contract with the COO oracle).
    values : nonzero values in ALTO order.
    """

    def __init__(self, coo, morton=None):
        indices = np.asarray(coo.indices)
        if indices.ndim != 2:
            raise ValueError(
                f"indices must be 2-D (nnz, nmodes), got shape {indices.shape}")
        self.shape = tuple(coo.shape)
        self.nmodes = indices.shape[1]
        self.nnz = len(indices)
        self.widths = alto_widths(self.shape)
        self.total_bits = int(sum(self.widths))
        nwords = (self.total_bits + 63) // 64
        if self.nnz == 0:
            self.order = np.empty(0, dtype=np.int64)
            self.codes = np.zeros((nwords, 0), dtype=np.uint64)
            self.values = np.asarray(coo.values, dtype=np.float64)
        elif morton is not None and len(set(self.widths)) == 1:
            # uniform widths: bit b of mode m sits at b*N + m under both
            # layouts, and the narrower Morton code is the ALTO code
            # zero-extended — same key values, so the memoized stable sort
            # is the ALTO order already.
            self.order = morton.order
            pad = nwords - len(morton.codes)
            if pad > 0:
                self.codes = np.concatenate(
                    [np.zeros((pad, self.nnz), dtype=np.uint64), morton.codes])
            else:
                self.codes = morton.codes
            self.values = morton.values
            metrics.inc("convert.alto_shared_sorts")
        else:
            with trace.span("convert.alto_encode", nnz=self.nnz,
                            total_bits=self.total_bits):
                words = alto_encode(indices.T, self.widths)
            with trace.span("convert.alto_sort", nnz=self.nnz,
                            words=len(words)):
                if len(words) == 1:
                    order = stable_argsort_u64(words[0])
                else:
                    order = np.lexsort(words[::-1])
            self.order = order
            self.codes = np.ascontiguousarray(words[:, order])
            self.values = np.asarray(coo.values, dtype=np.float64)[order]
        metrics.inc("convert.alto_context_nnz", self.nnz)

    def nbytes(self) -> int:
        return int(self.codes.nbytes + self.order.nbytes + self.values.nbytes)


@dataclass(frozen=True)
class AltoPartition:
    """Equal-nnz split of one mode's output-space traversal.

    ``ranges`` are contiguous half-open nnz ranges into the mode view, cut
    only at row-segment boundaries — tasks therefore own disjoint output
    rows and may share the output array without locks or atomics.
    """

    mode: int
    nthreads: int
    ranges: Tuple[Tuple[int, int], ...]
    thread_nnz: np.ndarray

    def nbytes(self) -> int:
        return int(self.thread_nnz.nbytes)


class AltoTensor(SparseTensorFormat):
    """Sparse tensor stored as adaptively linearized (ALTO) keys.

    Parameters
    ----------
    coo : source tensor (any format exposing ``to_coo``).  Conversion goes
        through the memoized :meth:`CooTensor.alto_context`, so repeated
        constructions — and a HiCOO conversion of the same tensor when the
        bit widths are uniform — share one encode + sort.
    """

    format_name = "alto"

    def __init__(self, coo):
        if not isinstance(coo, CooTensor):
            coo = coo.to_coo()
        ctx = coo.alto_context()
        self._shape = ctx.shape
        self.widths = ctx.widths
        self.total_bits = ctx.total_bits
        #: (W, nnz) uint64 linearized keys, sorted — the format's storage
        self.keys = ctx.codes
        #: nonzero values in key order
        self.values = ctx.values
        #: original COO position of each nonzero (row-tie ordering contract)
        self.source_order = ctx.order
        self._mode_views: Dict[int, TaskGather] = {}
        self._segments: Dict[int, np.ndarray] = {}
        self._partitions: Dict[Tuple[int, int], AltoPartition] = {}
        self._task_gathers: Dict[Tuple[int, int, str], List[TaskGather]] = {}

    # ------------------------------------------------------------------
    # format interface
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.values)

    @classmethod
    def from_parts(cls, shape, keys, values, source_order) -> "AltoTensor":
        """Assemble an ALTO tensor from prebuilt sorted keys (the
        direct-converter entry point — no COO materialization, no
        AltoContext).

        The caller owns the layout invariants: ``keys`` is the (W, nnz)
        uint64 msb-first key array in sorted order, ``source_order`` the
        source-iteration position of each sorted nonzero (the row-tie
        ordering contract of :meth:`mode_view`).
        """
        out = cls.__new__(cls)
        out._shape = tuple(shape)
        out.widths = alto_widths(out._shape)
        out.total_bits = int(sum(out.widths))
        out.keys = keys
        out.values = values
        out.source_order = source_order
        out._mode_views = {}
        out._segments = {}
        out._partitions = {}
        out._task_gathers = {}
        return out

    def to_coo(self) -> CooTensor:
        # the generic level-driven iterator copies the memoized
        # delinearization into a fresh array — unlike handing the cached
        # ginds to the CooTensor, the result is safe to mutate
        from .levels import iterate_coords

        inds, values = iterate_coords(self)
        return CooTensor(self._shape, inds, values, sum_duplicates=False)

    def storage_bytes(self) -> dict:
        """ALTO storage: one ``ceil(sum(widths)/64)``-word key (8 bytes per
        word) plus beta_float = 4 bytes per value, matching the COO/HiCOO
        accounting convention."""
        return {
            "keys": 8 * len(self.keys) * self.nnz,
            "values": 4 * self.nnz,
        }

    # ------------------------------------------------------------------
    # delinearization (memoized, the per-tensor "masks" of the paper)
    # ------------------------------------------------------------------
    def delinearized(self) -> np.ndarray:
        """(nnz, N) int64 global coordinates decoded from the keys.

        Computed once per tensor with the cached per-mode position masks
        (:func:`~repro.util.bitops.alto_positions`); callers must treat the
        array as read-only.
        """
        ginds = self.__dict__.get("_ginds")
        if ginds is None:
            metrics.inc("alto.decode_builds")
            with trace.span("alto.delinearize", nnz=self.nnz):
                coords = alto_decode(self.keys, self.widths)
                ginds = np.empty((self.nnz, self.nmodes), dtype=np.int64)
                for m in range(self.nmodes):
                    # extents fit in int64: a free same-width view, no astype
                    ginds[:, m] = coords[m].view(np.int64)
            self.__dict__["_ginds"] = ginds
        return ginds

    # ------------------------------------------------------------------
    # traversal views
    # ------------------------------------------------------------------
    def mode_view(self, mode: int) -> TaskGather:
        """Output-space traversal for ``mode``: one :class:`TaskGather` with
        nonzeros ordered by target row, ties in original COO order.

        The tie order is what makes every backend bit-identical to the COO
        oracle: each output row is accumulated left-to-right in source
        order, exactly as ``np.add.at`` does on the unsorted COO input.
        Memoized per mode.
        """
        mode = check_mode(mode, self.nmodes)
        tg = self._mode_views.get(mode)
        if tg is None:
            metrics.inc("alto.view_builds")
            with trace.span("alto.mode_view", mode=mode, nnz=self.nnz):
                ginds = self.delinearized()
                perm = self._mode_order(mode)
                g = np.ascontiguousarray(ginds[perm])
                v = np.ascontiguousarray(self.values[perm])
                sorted_modes = np.array(
                    [bool(np.all(g[1:, m] >= g[:-1, m]))
                     for m in range(self.nmodes)], dtype=bool)
                tg = TaskGather(runs=((0, self.nnz),), ginds=g, values=v,
                                sorted_modes=sorted_modes, format_name="alto")
            self._mode_views[mode] = tg
        else:
            metrics.inc("alto.view_hits")
        return tg

    def _mode_order(self, mode: int) -> np.ndarray:
        """Permutation of the ALTO order by (target row, original COO pos)."""
        if self.nnz == 0:
            return np.empty(0, dtype=np.int64)
        rows = self.delinearized()[:, mode]
        pos = self.source_order
        row_bits = bits_for(self._shape[mode] - 1)
        pos_bits = bits_for(self.nnz - 1)
        if row_bits + pos_bits <= 64:
            # distinct packed keys: the unstable default sort is exact
            key = rows.view(np.uint64) << np.uint64(pos_bits)
            key |= pos.view(np.uint64)
            return np.argsort(key)
        return np.lexsort((pos, rows))

    def linear_view(self) -> TaskGather:
        """Input-space traversal in plain key (ALTO) order — the privatized
        strategy splits this into equal-nnz chunks."""
        tg = self.__dict__.get("_linear_tg")
        if tg is None:
            metrics.inc("alto.view_builds")
            ginds = self.delinearized()
            sorted_modes = np.array(
                [bool(np.all(ginds[1:, m] >= ginds[:-1, m]))
                 for m in range(self.nmodes)], dtype=bool)
            tg = TaskGather(runs=((0, self.nnz),), ginds=ginds,
                            values=self.values, sorted_modes=sorted_modes,
                            format_name="alto")
            self.__dict__["_linear_tg"] = tg
        else:
            metrics.inc("alto.view_hits")
        return tg

    def row_segments(self, mode: int) -> np.ndarray:
        """Start offsets of the distinct-output-row segments of
        :meth:`mode_view` (int64, first element 0 when nonempty)."""
        mode = check_mode(mode, self.nmodes)
        starts = self._segments.get(mode)
        if starts is None:
            if self.nnz == 0:
                starts = np.empty(0, dtype=np.int64)
            else:
                rows = self.mode_view(mode).ginds[:, mode]
                starts = np.concatenate(
                    [[0], np.flatnonzero(rows[1:] != rows[:-1]) + 1]
                ).astype(np.int64)
            self._segments[mode] = starts
        return starts

    # ------------------------------------------------------------------
    # load-balanced partitioning
    # ------------------------------------------------------------------
    def schedule(self, mode: int, nthreads: int) -> AltoPartition:
        """Equal-nnz split of the linearized output space into ``nthreads``
        row-disjoint contiguous ranges (memoized per (mode, nthreads)).

        Cuts land on row-segment boundaries, so concurrent tasks writing a
        shared output never touch the same row — the same lock-free
        invariant as the HiCOO superblock schedule, but balanced to within
        one row segment of ``nnz / nthreads`` regardless of skew.
        """
        mode = check_mode(mode, self.nmodes)
        if nthreads < 1:
            raise ValueError(f"nthreads must be positive, got {nthreads}")
        part = self._partitions.get((mode, nthreads))
        if part is None:
            starts = self.row_segments(mode)
            bounds = np.concatenate([starts, [self.nnz]]).astype(np.int64)
            weights = np.diff(bounds)
            ranges = tuple(
                (int(bounds[slo]), int(bounds[shi]))
                for slo, shi in balanced_ranges(weights, nthreads))
            thread_nnz = np.array([hi - lo for lo, hi in ranges],
                                  dtype=np.int64)
            part = AltoPartition(mode=mode, nthreads=nthreads, ranges=ranges,
                                 thread_nnz=thread_nnz)
            self._partitions[(mode, nthreads)] = part
        return part

    def task_gathers(self, mode: int, nthreads: int,
                     strategy: str) -> List[TaskGather]:
        """Per-thread tasks of one parallel MTTKRP, memoized per
        ``(mode, nthreads, strategy)`` so their reduction operators are
        built once.

        ``"schedule"`` cuts :meth:`mode_view` at the row-disjoint
        :meth:`schedule` ranges; ``"privatize"`` cuts :meth:`linear_view`
        into equal-nnz chunks.  The slices are views of the parent arrays.
        """
        key = (mode, nthreads, strategy)
        tgs = self._task_gathers.get(key)
        if tgs is None:
            if strategy == "schedule":
                view = self.mode_view(mode)
                ranges = self.schedule(mode, nthreads).ranges
            else:
                view = self.linear_view()
                ranges = balanced_ranges(np.ones(self.nnz), nthreads)
            tgs = self._task_gathers[key] = [view.slice(lo, hi)
                                             for lo, hi in ranges]
        return tgs

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
        """Sequential MTTKRP over the linearized keys (bit-identical to the
        COO baseline; see :meth:`mode_view`)."""
        factors = check_factors(factors, self._shape)
        mode = check_mode(mode, self.nmodes)
        rank = factors[0].shape[1]
        out = np.zeros((self._shape[mode], rank))
        if self.nnz:
            mttkrp_gather_chunk(self.mode_view(mode), factors, mode, out)
        return out

    # ------------------------------------------------------------------
    # cache accounting
    # ------------------------------------------------------------------
    def cache_nbytes(self) -> int:
        """Footprint of the memoized delinearization/view/partition caches
        (the keys and values themselves are the format, not cache)."""
        total = 0
        ginds = self.__dict__.get("_ginds")
        if ginds is not None:
            total += ginds.nbytes
        linear = self.__dict__.get("_linear_tg")
        if linear is not None:  # ginds/values are shared
            total += linear.sorted_modes.nbytes + linear.reduction_nbytes()
        for tg in self._mode_views.values():
            total += tg.nbytes()
        for tgs in self._task_gathers.values():  # slices: views + operators
            total += sum(tg.reduction_nbytes() for tg in tgs)
        for starts in self._segments.values():
            total += starts.nbytes
        for part in self._partitions.values():
            total += part.nbytes()
        return int(total)

    def clear_cache(self) -> None:
        """Drop every memoized view (not the keys/values themselves).

        Do not clear while a process-backend session is live — release the
        shared segments first (``procpool.release_shared(tensor)``).
        """
        self.__dict__.pop("_ginds", None)
        self.__dict__.pop("_linear_tg", None)
        self._mode_views.clear()
        self._segments.clear()
        self._partitions.clear()
        self._task_gathers.clear()
