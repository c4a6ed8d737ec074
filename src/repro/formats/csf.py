"""CSF (Compressed Sparse Fiber) tensor — the SPLATT baseline format.

CSF generalizes CSR to tensors: nonzeros are sorted lexicographically by a
chosen mode order and stored as a tree whose depth-``d`` nodes are the unique
index prefixes of length ``d+1``.  Each level stores the node ids (``fids``)
and a pointer array (``fptr``) delimiting each node's children, so shared
prefixes are stored once.

CSF is the strongest competitor HiCOO is evaluated against: it compresses
well and has fast tree-walk MTTKRP, but a single tree privileges its root
mode — mode-generic use needs one tree per mode (``CSF-N``), multiplying the
storage.  Both accountings are exposed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..kernels.gather import (RowReduction, build_row_reduction,
                              segment_operator)
from ..util.validation import check_factors, check_mode
from .base import SparseTensorFormat
from .coo import CooTensor

__all__ = ["CsfTensor", "CsfLevel"]


@dataclass
class CsfLevel:
    """One level of the fiber tree.

    Attributes
    ----------
    fids : node ids — the tensor index of this level's mode for every node.
    parent : index of each node's parent in the previous level (empty at the
        root level).
    fptr : child ranges into the next level; ``None`` at the leaf level.
    """

    fids: np.ndarray
    parent: np.ndarray
    fptr: Optional[np.ndarray]

    @property
    def nnodes(self) -> int:
        return len(self.fids)


class CsfTensor(SparseTensorFormat):
    """Sparse tensor in compressed-sparse-fiber format.

    Parameters
    ----------
    coo : source tensor in coordinate format.
    mode_order : permutation of modes; ``mode_order[0]`` is the tree root.
        ``None`` selects the SPLATT default — modes sorted by increasing
        dimension size, which maximizes prefix sharing near the root.
    """

    format_name = "csf"

    def __init__(self, coo: CooTensor, mode_order: Optional[Sequence[int]] = None):
        if not isinstance(coo, CooTensor):
            raise TypeError(f"expected a CooTensor, got {type(coo).__name__}")
        nmodes = coo.nmodes
        if mode_order is None:
            mode_order = list(np.argsort(coo.shape, kind="stable"))
        mode_order = [check_mode(m, nmodes) for m in mode_order]
        if sorted(mode_order) != list(range(nmodes)):
            raise ValueError(f"mode_order must be a permutation, got {mode_order}")

        self._shape = coo.shape
        self.mode_order = tuple(mode_order)
        # sort_lexicographic memoizes its permutation per mode order on the
        # source tensor, so a CSF-N suite building one tree per root mode
        # pays for each distinct ordering once
        sorted_coo = coo.sort_lexicographic(mode_order)
        self.values = sorted_coo.values
        self.levels = _build_levels(sorted_coo.indices, mode_order)

    @classmethod
    def from_parts(cls, shape, mode_order, levels, values) -> "CsfTensor":
        """Assemble a CSF tensor from prebuilt levels (the direct-converter
        entry point — no COO materialization, no re-sort).

        ``levels`` must be the output of :func:`_build_levels` on
        coordinates lex-sorted by ``mode_order``; the caller owns that
        invariant.
        """
        out = cls.__new__(cls)
        out._shape = tuple(shape)
        out.mode_order = tuple(int(m) for m in mode_order)
        out.levels = levels
        out.values = values
        return out

    @staticmethod
    def default_mode_order(shape) -> tuple:
        """The SPLATT default the constructor applies for ``None``: modes
        by increasing dimension size (stable)."""
        return tuple(int(m) for m in np.argsort(shape, kind="stable"))

    # ------------------------------------------------------------------
    # format interface
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.values)

    def to_coo(self) -> CooTensor:
        # the generic level-driven iterator walks the fiber tree bottom-up
        # (leaf fids expanded per nonzero, parent-pointer ascent per level)
        from .levels import iterate_coords

        inds, values = iterate_coords(self)
        return CooTensor(self._shape, inds, values, sum_duplicates=False)

    def storage_bytes(self, ntrees: int = 1) -> dict:
        """Canonical CSF storage (beta_long = 8-byte pointers, beta_int =
        4-byte fids, 4-byte values).  ``ntrees > 1`` models CSF-N storage by
        scaling the index structures (values are shared)."""
        if ntrees < 1:
            raise ValueError("ntrees must be >= 1")
        fids = sum(level.nnodes for level in self.levels)
        fptr = sum(level.nnodes + 1 for level in self.levels if level.fptr is not None)
        return {
            "fids": 4 * fids * ntrees,
            "fptr": 8 * fptr * ntrees,
            "values": 4 * self.nnz,
        }

    # ------------------------------------------------------------------
    # MTTKRP
    # ------------------------------------------------------------------
    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
        """Tree-walk MTTKRP for an arbitrary target mode.

        Two passes over the tree:

        * *below* (bottom-up): for every node, the R-vector obtained by
          contracting its whole subtree — values times the factor rows of all
          modes deeper than the node.
        * *above* (top-down): the Hadamard product of the factor rows along
          the node's root path, excluding the node's own level.

        The output row of every node at the target level is then
        ``above * below`` summed over nodes sharing a fid — this reproduces
        SPLATT's root/internal/leaf kernels as one algorithm.
        """
        factors = check_factors(factors, self._shape)
        mode = check_mode(mode, self.nmodes)
        out = np.zeros((self._shape[mode], factors[0].shape[1]))
        if self.nnz:
            self.subtree_mttkrp(factors, mode, 0, self.levels[0].nnodes, out)
        return out

    def subtree_mttkrp(self, factors, mode: int, root_lo: int, root_hi: int,
                       out: np.ndarray) -> str:
        """Accumulate the MTTKRP of the root subtrees ``[root_lo, root_hi)``
        into ``out``; returns the reduction backend (``"csr"``/``"noop"``).

        The tree's levels are CSR already: each bottom-up step is one
        sparse-dense product with the level's ``fptr`` as ``indptr`` (see
        :func:`~repro.kernels.gather.segment_operator`), each top-down step
        a ``np.repeat`` by child counts, and the target level reduces into
        its output rows through one memoized
        :class:`~repro.kernels.gather.RowReduction`.  Only the rows of the
        range's target nodes are written, so tasks over disjoint root
        ranges may share ``out`` when the target mode is the root.  The
        operators are memoized per root range.
        """
        if root_lo >= root_hi:
            return "noop"
        sub = self._subtree(root_lo, root_hi)
        depth_of_mode = self.mode_order.index(mode)
        below = None  # the leaf values, folded into the leaf operator
        for depth in range(self.nmodes - 1, depth_of_mode, -1):
            rows = np.take(factors[self.mode_order[depth]], sub.fids[depth],
                           axis=0)
            if below is not None:
                rows *= below
            below = sub.up[depth] @ rows
        above = None
        for depth in range(1, depth_of_mode + 1):
            rows = np.take(factors[self.mode_order[depth - 1]],
                           sub.fids[depth - 1], axis=0)
            if above is not None:
                rows *= above
            above = np.repeat(rows, np.diff(sub.up[depth].indptr), axis=0)
        if above is None or below is None:
            acc = below if above is None else above
        else:
            acc = above
            acc *= below
        if acc is None:  # a one-mode tree: the target level is the leaf
            acc = np.ones((len(sub.fids[depth_of_mode]), out.shape[1]))
        sub.target(depth_of_mode).apply(out, acc)
        return "csr"

    def _subtree(self, root_lo: int, root_hi: int) -> "_Subtree":
        cache = self.__dict__.setdefault("_subtrees", {})
        sub = cache.get((root_lo, root_hi))
        if sub is None:
            sub = cache[(root_lo, root_hi)] = _Subtree(self, root_lo,
                                                       root_hi)
        return sub

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def fiber_counts(self) -> List[int]:
        """Number of nodes per level (root first)."""
        return [level.nnodes for level in self.levels]

    def compression_ratio(self) -> float:
        """COO index storage / CSF index storage (indices only)."""
        coo_idx = 4 * self.nmodes * self.nnz
        csf = self.storage_bytes()
        csf_idx = csf["fids"] + csf["fptr"]
        return coo_idx / csf_idx if csf_idx else float("inf")


class _Subtree:
    """Symbolic state of the CSF subtrees under one range of root nodes.

    ``fids[d]`` are the depth-``d`` node ids in range (views) and ``up[d]``
    sums depth-``d`` nodes into their depth-``d-1`` parents: a segment
    operator over the parent level's ``fptr``, weighted by the values at
    the leaf level.  Target-level reductions are built on first use.
    """

    def __init__(self, tensor: "CsfTensor", root_lo: int, root_hi: int):
        levels = tensor.levels
        los, his = [root_lo], [root_hi]
        for depth in range(1, len(levels)):
            fptr = levels[depth - 1].fptr
            los.append(int(fptr[los[-1]]))
            his.append(int(fptr[his[-1]]))
        leaf = len(levels) - 1
        self.fids = [level.fids[lo:hi]
                     for level, lo, hi in zip(levels, los, his)]
        self.values = tensor.values[los[leaf]:his[leaf]]
        self.up = {}
        for depth in range(1, len(levels)):
            plo, phi = los[depth - 1], his[depth - 1]
            fptr = levels[depth - 1].fptr[plo:phi + 1]
            self.up[depth] = segment_operator(
                fptr - fptr[0], self.values if depth == leaf else None)
        self.targets: Dict[int, RowReduction] = {}

    def target(self, depth: int) -> RowReduction:
        """Memoized reduction of the depth-``depth`` nodes onto their fids
        (root fids are sorted and distinct)."""
        red = self.targets.get(depth)
        if red is None:
            leaf = len(self.fids) - 1
            red = self.targets[depth] = build_row_reduction(
                self.fids[depth], self.values if depth == leaf else None,
                presorted=depth == 0)
        return red


def _build_levels(sorted_indices: np.ndarray, mode_order: Sequence[int]) -> List[CsfLevel]:
    """Build the fiber-tree levels from lexicographically sorted coordinates."""
    nnz, nmodes = sorted_indices.shape
    cols = [sorted_indices[:, m] for m in mode_order]

    # new_node[d][i] == True if row i starts a new depth-d node
    new_node = np.zeros((nmodes, nnz), dtype=bool)
    if nnz:
        new_node[:, 0] = True
        changed = np.zeros(nnz - 1, dtype=bool)
        for d in range(nmodes):
            changed |= cols[d][1:] != cols[d][:-1]
            new_node[d, 1:] = changed

    levels: List[CsfLevel] = []
    node_id_prev = np.zeros(0, dtype=np.int64)
    for d in range(nmodes):
        starts = np.flatnonzero(new_node[d])
        fids = cols[d][starts].astype(np.int64)
        if d == 0:
            parent = np.empty(0, dtype=np.int64)
        else:
            # each node's parent is the depth-(d-1) node covering its start row
            parent = node_id_prev[starts]
        levels.append(CsfLevel(fids=fids, parent=parent, fptr=None))
        node_id = np.cumsum(new_node[d]) - 1 if nnz else np.zeros(0, dtype=np.int64)
        if d > 0:
            counts = np.bincount(parent, minlength=levels[d - 1].nnodes)
            levels[d - 1].fptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        node_id_prev = node_id
    return levels
