"""COO (coordinate) sparse tensor — the baseline format of the paper.

A COO tensor stores, for each nonzero, its full coordinate tuple plus its
value.  It is the format tensors arrive in (FROSTT ``.tns`` files are COO)
and the baseline every HiCOO result is normalized against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..kernels.gather import TaskGather, mttkrp_gather_chunk, scatter_add
from ..obs import metrics
from ..parallel.partition import balanced_ranges
from ..util.bitops import (bits_for, morton_encode, morton_sort_order,
                           pack_key64, stable_argsort_u64)
from ..util.validation import check_factors, check_indices, check_mode, check_shape
from .base import SparseTensorFormat

__all__ = ["CooTensor", "lex_sort_order_of"]


def lex_sort_order_of(indices: np.ndarray, shape, mode_order) -> np.ndarray:
    """Stable permutation sorting ``indices`` lexicographically by
    ``mode_order`` (``mode_order[0]`` most significant).

    The single-word radix fast path applies whenever the packed coordinate
    widths fit 64 bits.  Shared by :meth:`CooTensor.lex_sort_order` and the
    direct converters (which sort level-expanded coordinates without ever
    materializing a COO tensor).
    """
    if len(indices) == 0:
        return np.empty(0, dtype=np.int64)
    widths = [bits_for(shape[m] - 1) for m in mode_order]
    if sum(widths) <= 64:
        # all coordinates fit one packed word: a single stable radix
        # argsort replaces the N-key lexsort.
        key = pack_key64([indices[:, m] for m in mode_order], widths)
        return stable_argsort_u64(key)
    # np.lexsort: last key is primary, so feed least-significant first.
    keys = tuple(indices[:, m] for m in reversed(list(mode_order)))
    return np.lexsort(keys)


class CooTensor(SparseTensorFormat):
    """Sparse tensor in coordinate format.

    Parameters
    ----------
    shape : mode sizes.
    indices : (nnz, nmodes) integer coordinates.
    values : (nnz,) nonzero values.
    sum_duplicates : if True (default), repeated coordinates are combined by
        summing their values, matching the semantics of sparse constructors
        in SciPy.
    """

    format_name = "coo"

    def __init__(self, shape, indices, values, *, sum_duplicates: bool = True):
        self._shape = check_shape(shape)
        indices = check_indices(indices, self._shape)
        values = np.asarray(values, dtype=np.float64).ravel()
        if len(values) != len(indices):
            raise ValueError(
                f"got {len(indices)} coordinates but {len(values)} values"
            )
        if sum_duplicates and len(indices):
            indices, values = _sum_duplicates(indices, values)
        self.indices = indices
        self.values = values

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CooTensor":
        array = np.asarray(array, dtype=np.float64)
        idx = np.argwhere(array != 0)
        vals = array[tuple(idx.T)] if idx.size else np.empty(0)
        return cls(array.shape, idx, vals, sum_duplicates=False)

    @classmethod
    def empty(cls, shape) -> "CooTensor":
        shape = check_shape(shape)
        return cls(shape, np.empty((0, len(shape)), dtype=np.int64), np.empty(0))

    # ------------------------------------------------------------------
    # format interface
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.values)

    def to_coo(self) -> "CooTensor":
        return self

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ndarray (guard against huge shapes)."""
        size = int(np.prod(self._shape))
        if size > 50_000_000:
            raise MemoryError(
                f"refusing to densify a tensor with {size} elements"
            )
        out = np.zeros(self._shape)
        np.add.at(out, tuple(self.indices.T), self.values)
        return out

    def storage_bytes(self) -> dict:
        """Canonical COO storage: beta_int = 4 bytes per index per mode and
        beta_float = 4 bytes per value, as accounted in the paper."""
        return {
            "indices": 4 * self.nmodes * self.nnz,
            "values": 4 * self.nnz,
        }

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def lex_sort_order(self, mode_order: Optional[Sequence[int]] = None) -> np.ndarray:
        """Memoized permutation sorting nonzeros lexicographically.

        ``mode_order[0]`` is the most significant mode.  The permutation is
        cached per mode order in the construction cache, so every CSF tree
        built from this tensor (and repeated ``sort_lexicographic`` calls)
        pays the sort once.  Callers must not mutate the returned array.
        """
        if mode_order is None:
            mode_order = range(self.nmodes)
        mode_order = tuple(check_mode(m, self.nmodes) for m in mode_order)
        if sorted(mode_order) != list(range(self.nmodes)):
            raise ValueError(f"mode_order must be a permutation, got {list(mode_order)}")
        cache = self.__dict__.setdefault("_convert_cache", {})
        key = ("lex", mode_order)
        order = cache.get(key)
        if order is None:
            metrics.inc("convert.lex_builds")
            order = self._lex_sort_order(mode_order)
            cache[key] = order
        else:
            metrics.inc("convert.lex_hits")
        return order

    def _lex_sort_order(self, mode_order) -> np.ndarray:
        return lex_sort_order_of(self.indices, self._shape, mode_order)

    def sort_lexicographic(self, mode_order: Optional[Sequence[int]] = None) -> "CooTensor":
        """Return a copy sorted lexicographically by ``mode_order``.

        ``mode_order[0]`` is the most significant mode, which is the layout a
        CSF tree with that root expects.
        """
        return self._permuted(self.lex_sort_order(mode_order))

    def sort_morton(self, block_bits: int = 0) -> "CooTensor":
        """Return a copy sorted in Z-Morton order.

        With ``block_bits > 0`` the Morton code is taken over *block*
        coordinates (index >> block_bits) and element offsets are ordered
        lexicographically inside each block — exactly the nonzero ordering
        HiCOO construction uses.
        """
        if self.nnz == 0:
            return self._permuted(np.empty(0, dtype=np.int64))
        if not block_bits:
            nbits = bits_for(int(self.indices.max()))
            return self._permuted(morton_sort_order(self.indices.T, nbits))
        blocks = self.indices >> block_bits
        nbits = bits_for(int(blocks.max()))
        nmodes = self.nmodes
        if nmodes * (nbits + block_bits) <= 64:
            # single-word fast path: block Morton code in the high bits,
            # mode-0-major offsets in the low bits — the exact HiCOO
            # ordering from one stable argsort.
            key = morton_encode(blocks.T, nbits)[0] << np.uint64(
                nmodes * block_bits)
            offsets = self.indices & ((1 << block_bits) - 1)
            key |= pack_key64([offsets[:, m] for m in range(nmodes)],
                              [block_bits] * nmodes)
            return self._permuted(stable_argsort_u64(key))
        order = morton_sort_order(blocks.T, nbits)
        # Within each run of equal block coordinates, re-sort by element
        # offset.  The run id (Morton rank of the block) is the primary
        # lexsort key, so the Morton ordering *between* blocks survives.
        permuted = self.indices[order]
        pblocks = permuted >> block_bits
        offsets = permuted & ((1 << block_bits) - 1)
        changed = np.any(pblocks[1:] != pblocks[:-1], axis=1)
        run_id = np.concatenate([[0], np.cumsum(changed)])
        keys = tuple(offsets[:, m] for m in reversed(range(self.nmodes)))
        return self._permuted(order[np.lexsort(keys + (run_id,))])

    # ------------------------------------------------------------------
    # construction cache (one-sort multi-b conversion)
    # ------------------------------------------------------------------
    def morton_context(self):
        """Memoized :class:`~repro.core.convert.MortonContext` — one Morton
        encode + sort shared by every block size.

        HiCOO construction, ``best_block_bits``, the tuner, and the E7/E10
        benchmarks all go through this context, so a full block-size sweep
        pays for one sort instead of eight.  Treat the context's arrays as
        read-only, like the ``task_gather`` cache.
        """
        from ..core.convert import MortonContext

        cache = self.__dict__.setdefault("_convert_cache", {})
        ctx = cache.get("context")
        if ctx is None:
            metrics.inc("convert.context_builds")
            ctx = MortonContext(self)
            cache["context"] = ctx
            metrics.set_gauge("convert.cache_bytes",
                              self.convert_cache_bytes())
        else:
            metrics.inc("convert.context_hits")
        return ctx

    def alto_context(self):
        """Memoized :class:`~repro.formats.alto.AltoContext` — the adaptive
        linearization shared by every :class:`AltoTensor` built from this
        tensor.

        When the per-mode bit widths are uniform the ALTO layout coincides
        with the Morton layout, so the context is derived from
        :meth:`morton_context` and conversion to *both* HiCOO and ALTO costs
        a single encode + sort.  Treat the context's arrays as read-only.
        """
        from ..util.bitops import alto_widths
        from .alto import AltoContext

        cache = self.__dict__.setdefault("_convert_cache", {})
        ctx = cache.get("alto")
        if ctx is None:
            metrics.inc("convert.alto_builds")
            morton = None
            if self.nnz and len(set(alto_widths(self._shape))) == 1:
                morton = self.morton_context()
            ctx = AltoContext(self, morton)
            cache["alto"] = ctx
            metrics.set_gauge("convert.cache_bytes",
                              self.convert_cache_bytes())
        else:
            metrics.inc("convert.alto_hits")
        return ctx

    def block_decomposition(self, block_bits: int):
        """Memoized block decomposition at ``block_bits`` (shared arrays).

        Identical to :func:`repro.core.blocking.decompose` but derived from
        the cached :meth:`morton_context`, so repeated constructions — the
        tuner's sweep, several :class:`HicooTensor` instances — reuse one
        encode + sort.  Callers must treat the result as read-only.
        """
        return self.morton_context().decompose(block_bits)

    def clear_convert_cache(self) -> None:
        """Drop the memoized Morton context, decompositions and lex orders."""
        self.__dict__.setdefault("_convert_cache", {}).clear()

    def convert_cache_bytes(self) -> int:
        """Total footprint of the construction cache."""
        cache = self.__dict__.setdefault("_convert_cache", {})
        total = 0
        for key, entry in cache.items():
            if key in ("context", "alto"):
                total += entry.nbytes()
            else:
                total += entry.nbytes
        return int(total)

    def _permuted(self, order: np.ndarray) -> "CooTensor":
        out = CooTensor.__new__(CooTensor)
        out._shape = self._shape
        out.indices = self.indices[order]
        out.values = self.values[order]
        return out

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
        """Vectorized COO MTTKRP.

        For each nonzero ``x[i_1..i_N]`` accumulates
        ``x * hadamard_{m != mode} U^(m)[i_m, :]`` into row ``i_mode`` of the
        output.  This is the unsorted-COO algorithm the paper benchmarks as
        its baseline (one gather per non-target mode, one reduction), run
        over the memoized :meth:`gather_view`: every output row sums its
        contributions in input order, bitwise ``np.add.at``.
        """
        factors = check_factors(factors, self._shape)
        mode = check_mode(mode, self.nmodes)
        out = np.zeros((self._shape[mode], factors[0].shape[1]))
        mttkrp_gather_chunk(self.gather_view(), factors, mode, out)
        return out

    def gather_view(self) -> TaskGather:
        """The whole tensor as one memoized
        :class:`~repro.kernels.gather.TaskGather`.

        It shares ``indices`` and ``values`` (no copy), so it adds only the
        per-mode reduction operators its MTTKRPs build.  Treat it as
        read-only, like the ``task_gather`` cache of HiCOO.
        """
        tg = self.__dict__.get("_gather_view")
        if tg is None:
            inds = self.indices
            sorted_modes = np.array(
                [bool(np.all(inds[1:, m] >= inds[:-1, m]))
                 for m in range(self.nmodes)], dtype=bool)
            tg = TaskGather(runs=((0, self.nnz),), ginds=inds,
                            values=self.values, sorted_modes=sorted_modes,
                            format_name="coo")
            self.__dict__["_gather_view"] = tg
        return tg

    def sweep_source(self) -> TaskGather:
        """:meth:`gather_view`: one nonzero order serves every mode."""
        return self.gather_view()

    def task_gathers(self, nthreads: int) -> List[TaskGather]:
        """Equal-nnz contiguous slices of :meth:`gather_view`, one per
        thread (memoized per ``nthreads``, so each slice builds its
        reduction operators once)."""
        cache = self.__dict__.setdefault("_task_gathers", {})
        tgs = cache.get(nthreads)
        if tgs is None:
            view = self.gather_view()
            tgs = cache[nthreads] = [
                view.slice(lo, hi)
                for lo, hi in balanced_ranges(np.ones(self.nnz), nthreads)]
        return tgs

    def ttv(self, vector: np.ndarray, mode: int) -> "CooTensor":
        """Tensor-times-vector: contract ``mode`` with ``vector``.

        The result is an (N-1)-mode COO tensor; coordinates that coincide
        after dropping ``mode`` are summed.
        """
        mode = check_mode(mode, self.nmodes)
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if len(vector) != self._shape[mode]:
            raise ValueError(
                f"vector has length {len(vector)}, expected {self._shape[mode]}"
            )
        if self.nmodes == 1:
            raise ValueError("cannot contract the only mode of a 1-mode tensor")
        keep = [m for m in range(self.nmodes) if m != mode]
        new_shape = tuple(self._shape[m] for m in keep)
        new_vals = self.values * vector[self.indices[:, mode]]
        new_inds = self.indices[:, keep]
        return CooTensor(new_shape, new_inds, new_vals, sum_duplicates=True)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def innerprod_ktensor(self, weights: np.ndarray, factors: Sequence[np.ndarray]) -> float:
        """<X, [[weights; factors]]> without forming the dense Kruskal tensor."""
        factors = check_factors(factors, self._shape)
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if self.nnz == 0:
            return 0.0
        prod = np.ones((self.nnz, factors[0].shape[1]))
        for m, f in enumerate(factors):
            prod *= f[self.indices[:, m]]
        return float(self.values @ (prod @ weights))

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def slice_counts(self, mode: int) -> np.ndarray:
        """nnz per slice along ``mode`` (length ``shape[mode]``)."""
        mode = check_mode(mode, self.nmodes)
        return np.bincount(self.indices[:, mode], minlength=self._shape[mode])

    def remove_empty_slices(self) -> "CooTensor":
        """Re-index every mode so that empty slices disappear (paper-standard
        preprocessing for real datasets)."""
        inds = self.indices.copy()
        new_shape = []
        for m in range(self.nmodes):
            used, inverse = np.unique(inds[:, m], return_inverse=True)
            inds[:, m] = inverse
            new_shape.append(max(1, len(used)))
        return CooTensor(tuple(new_shape), inds, self.values, sum_duplicates=False)


def _sum_duplicates(indices: np.ndarray, values: np.ndarray):
    nmodes = indices.shape[1]
    widths = [bits_for(int(indices[:, m].max())) for m in range(nmodes)]
    if sum(widths) <= 64:
        # one packed word per coordinate tuple: a single stable argsort
        # replaces the N-key lexsort (same mode-0-major order).
        key = pack_key64([indices[:, m] for m in range(nmodes)], widths)
        order = stable_argsort_u64(key)
    else:
        keys = tuple(indices[:, m] for m in reversed(range(nmodes)))
        order = np.lexsort(keys)
    indices = indices[order]
    values = values[order]
    if len(indices) <= 1:
        return indices, values
    new_group = np.any(indices[1:] != indices[:-1], axis=1)
    group_id = np.concatenate([[0], np.cumsum(new_group)])
    ngroups = group_id[-1] + 1
    out_vals = np.zeros(ngroups)
    # group ids come from a cumulative sum, hence non-decreasing
    scatter_add(out_vals, group_id, values, presorted=True)
    first = np.concatenate([[0], np.flatnonzero(new_group) + 1])
    return indices[first], out_vals
