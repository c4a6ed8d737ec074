"""Dimension-tree CP-ALS sweep: one iteration's N MTTKRPs sharing work.

A sequential CP-ALS iteration computes the MTTKRP of every mode in turn,
and each one gathers the factor rows of every other mode at the nonzeros'
coordinates and multiplies them.  Consecutive modes need mostly the same
gathered rows: only the factor updated in between changed.  The
dimension-tree scheme of Kaya & Uçar (SIAM SISC 2018) exploits this by
caching partial results at the nodes of a binary tree over the modes, so
the N MTTKRPs of one *sweep* share them.

:class:`Sweep` applies it to the gather/Hadamard half of the numeric pass,
over the one :class:`~repro.kernels.gather.TaskGather` whose nonzero
order serves every mode (COO's ``gather_view()``, HiCOO's whole-tensor
``task_gather``).  Each mode still reduces through that gather's memoized
:meth:`~repro.kernels.gather.TaskGather.reduction`, so no semi-sparse
intermediate is built.

* **The tree.**  The modes ``[0, N)`` split into ``[0, h)`` and ``[h, N)``
  with ``h = ceil(N / 2)``, recursively.  A mode's Hadamard product is the
  product of its sibling subtrees' products along its root-to-leaf path,
  multiplied from the root down.  The association depends only on N and
  the mode, never on what is cached, so a cold sweep returns the same bits.
  For N = 3 every product has two factors and the result is bitwise that
  of :func:`~repro.kernels.gather.mttkrp_gather_chunk`.  For N >= 4 the
  modes of the left subtree reassociate (within a few ULPs); for N = 4
  and 5 the right subtree's two modes keep the per-mode left-to-right
  order and stay bitwise.
* **The buffers.**  Values live in a small pool of ``(nnz, R)`` arrays,
  allocated on first use and reused for the sweep's lifetime: two for
  N = 3, three for N = 4.  A product overwrites an operand that no later
  mode of the sweep reads (the second when both qualify).
* **The reuse rule.**  A cached value is reused only while the factor
  arrays it was built from are the same objects.  Callers must therefore
  replace a factor rather than write it in place, as :func:`cp_als` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics, trace
from ..util.validation import check_factors, check_indices, check_mode
from .gather import TaskGather

__all__ = ["DimensionTree", "Sweep", "dimension_tree"]

#: a tree value: the modes whose gathered rows it multiplies, ascending
#: (``()`` is the empty product, all ones)
Key = Tuple[int, ...]


@dataclass(frozen=True)
class DimensionTree:
    """The static binary dimension tree over N modes."""

    #: per mode: the key of the Hadamard product its MTTKRP reduces
    final: Tuple[Key, ...]
    #: per product key: its two operand keys (gathers and ``()`` have none)
    ops: Dict[Key, Tuple[Key, Key]]
    #: per mode: keys a later mode of an in-order sweep reads unchanged
    keep: Tuple[FrozenSet[Key], ...]
    #: per mode: every key its product is built from, itself included
    uses: Tuple[FrozenSet[Key], ...]


@lru_cache(maxsize=None)
def dimension_tree(nmodes: int) -> DimensionTree:
    """The :class:`DimensionTree` over modes ``[0, nmodes)``."""
    ops: Dict[Key, Tuple[Key, Key]] = {}

    def product(a: int, b: int) -> Key:
        key = tuple(range(a, b))
        if b - a > 1:
            h = (a + b + 1) // 2
            ops[key] = (product(a, h), product(h, b))
        return key

    final: List[Key] = [()] * nmodes

    def visit(a: int, b: int, above: Key) -> None:
        # ``above``: the product of every mode outside [a, b)
        if b - a == 1:
            final[a] = above
            return
        h = (a + b + 1) // 2
        for (lo, hi), sibling in (((a, h), (h, b)), ((h, b), (a, h))):
            key = p = product(*sibling)
            if above:
                # the complement of a tree node below the root's children
                # is never itself a node, so no key gets two associations
                key = tuple(sorted(above + p))
                ops[key] = (above, p)
            visit(lo, hi, key)

    visit(0, nmodes, ())

    def needs(key: Key) -> FrozenSet[Key]:
        out = {key}
        for k in ops.get(key, ()):
            out |= needs(k)
        return frozenset(out)

    # an in-order sweep with an unbounded cache: which values does each
    # mode read?  Mode n sees factors m < n updated once, the rest not.
    reads: List[Tuple[int, Key]] = []
    built = set()

    def build(key: Key, n: int) -> None:
        version = (key, tuple(m < n for m in key))
        if version in built:
            return
        built.add(version)
        for k in ops.get(key, ()):
            reads.append((n, k))
            build(k, n)

    for n in range(nmodes):
        reads.append((n, final[n]))
        build(final[n], n)
    # a value read by mode n2 > n is the one mode n sees when none of its
    # factors is updated in [n, n2)
    keep = tuple(frozenset(k for n2, k in reads if n2 > n
                           and not any(n <= m < n2 for m in k))
                 for n in range(nmodes))
    return DimensionTree(final=tuple(final), ops=ops, keep=keep,
                         uses=tuple(needs(k) for k in final))


class Sweep:
    """The MTTKRPs of sequential CP-ALS iterations over one
    :class:`~repro.kernels.gather.TaskGather`, sharing a
    :class:`DimensionTree` (see the module doc).

    Building one checks every coordinate of ``source`` against ``shape``
    once (the :func:`~repro.util.validation.check_indices` rule and its
    ``ValueError``), so the gathers can skip the per-call bounds check.
    A sweep holds per-call state: give each solver run its own.
    """

    def __init__(self, source: TaskGather, shape: Sequence[int]) -> None:
        check_indices(source.ginds, shape)
        self.source = source
        self.shape = tuple(int(s) for s in shape)
        self._tree = dimension_tree(len(self.shape))
        self._buffers: List[np.ndarray] = []
        #: per buffer: (key, factor arrays it was built from), or None
        self._held: List[Optional[tuple]] = []
        #: key -> the buffer holding it
        self._slot: Dict[Key, int] = {}

    @classmethod
    def of(cls, tensor) -> Optional["Sweep"]:
        """A sweep over ``tensor.sweep_source()``, or ``None`` when the
        format has no mode-independent gather."""
        source = tensor.sweep_source()
        return None if source is None else cls(source, tensor.shape)

    @property
    def nbuffers(self) -> int:
        """``(nnz, R)`` buffers allocated so far."""
        return len(self._buffers)

    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
        """The mode-``mode`` MTTKRP, reusing every cached tree value whose
        factor arrays are unchanged."""
        factors = check_factors(factors, self.shape)
        mode = check_mode(mode, len(self.shape))
        rank = factors[0].shape[1]
        out = np.zeros((self.shape[mode], rank))
        tg = self.source
        if tg.nnz == 0:
            return out
        if self._buffers and self._buffers[0].shape[1] != rank:
            self._buffers, self._held, self._slot = [], [], {}
        if trace.enabled():
            with trace.span("gather.chunk", mode=mode, nnz=tg.nnz,
                            sweep=True):
                self._reduce(factors, mode, out)
        else:
            self._reduce(factors, mode, out)
        metrics.inc("mttkrp.nnz_processed", tg.nnz)
        return out

    def _reduce(self, factors, mode, out) -> None:
        slot = self._value(self._tree.final[mode], factors, mode, set())
        self.source.reduction(mode).apply(out, self._buffers[slot])

    def _value(self, key: Key, factors, mode: int, pinned: set) -> int:
        """Index of the buffer holding ``key``'s value for ``factors``."""
        deps = tuple(factors[m] for m in key)
        slot = self._slot.get(key)
        if slot is not None and _same(self._held[slot][1], deps):
            return slot
        ops = self._tree.ops.get(key)
        if ops is None:
            slot = self._free(factors, mode, pinned)
            if key:
                m, = key
                np.take(factors[m], self.source.ginds[:, m], axis=0,
                        out=self._buffers[slot], mode="clip")
                metrics.inc("mttkrp.gathers",
                            labels={"format": self.source.format_name})
            else:
                self._buffers[slot].fill(1.0)
        else:
            a = self._value(ops[0], factors, mode, pinned)
            b = self._value(ops[1], factors, mode, pinned | {a})
            keep = self._tree.keep[mode]
            if ops[1] not in keep:
                slot = b
            elif ops[0] not in keep:
                slot = a
            else:
                slot = self._free(factors, mode, pinned | {a, b})
            np.multiply(self._buffers[a], self._buffers[b],
                        out=self._buffers[slot])
        self._hold(slot, key, deps)
        return slot

    def _free(self, factors, mode: int, pinned: set) -> int:
        """A buffer whose value this mode and the later modes of the sweep
        do not need; allocates one when every buffer is taken."""
        wanted = self._tree.keep[mode] | self._tree.uses[mode]
        for slot, held in enumerate(self._held):
            if slot in pinned:
                continue
            if held is None or held[0] not in wanted or not _same(
                    held[1], tuple(factors[m] for m in held[0])):
                return slot
        self._buffers.append(
            np.empty((self.source.nnz, factors[0].shape[1])))
        self._held.append(None)
        return len(self._buffers) - 1

    def _hold(self, slot: int, key: Key, deps: tuple) -> None:
        old = self._held[slot]
        if old is not None and self._slot.get(old[0]) == slot:
            del self._slot[old[0]]
        prev = self._slot.get(key)
        if prev is not None and prev != slot:
            self._held[prev] = None  # a stale copy of ``key``: now free
        self._held[slot] = (key, deps)
        self._slot[key] = slot


def _same(built: tuple, current: tuple) -> bool:
    return all(a is b for a, b in zip(built, current))
