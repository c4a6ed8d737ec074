"""Faithful replicas of superseded HiCOO code paths.

Two generations of fast paths are benchmarked against live baselines kept
here instead of numbers frozen in a doc:

* the pre-gather-layer MTTKRP paths (per-call symbolic index
  materialization + ``np.add.at`` scatter), replaced in the previous PR by
  the cached gather/scatter kernel layer;
* the pre-magic-number conversion pipeline (per-bit Morton encode loops,
  one full ``lexsort`` per block size), replaced by the vectorized
  bit-interleave and the shared one-sort :class:`repro.MortonContext`.

Each replica preserves the old behaviour bit-for-bit — same ordering, same
tie-breaking — so equivalence can be asserted alongside the speedup.
"""

import numpy as np

from repro.core.blocking import MAX_BLOCK_BITS, BlockDecomposition
from repro.core.convert import hicoo_storage_bytes
from repro.core.hicoo import HicooTensor
from repro.core.scheduler import choose_strategy, schedule_mode
from repro.core.superblock import build_superblocks
from repro.parallel.partition import balanced_ranges
from repro.parallel.privatize import PrivateBuffers
from repro.util.bitops import bits_for


def legacy_seq_flat(tensor, factors, mode):
    """The old sequential HiCOO flat kernel: rebuilds the fused global
    coordinates (casting the whole binds array) and scatters via np.add.at
    on every call."""
    rank = factors[0].shape[1]
    out = np.zeros((tensor.shape[mode], rank))
    if tensor.nnz == 0:
        return out
    blk = np.repeat(np.arange(tensor.nblocks), np.diff(tensor.bptr))
    base = tensor.binds.astype(np.int64)[blk] << tensor.block_bits
    ginds = base + tensor.einds.astype(np.int64)
    acc = np.repeat(tensor.values[:, None], rank, axis=1)
    for m, f in enumerate(factors):
        if m != mode:
            acc *= f[ginds[:, m]]
    np.add.at(out, ginds[:, mode], acc)
    return out


def _hicoo_block_range_chunk(tensor, block_ids, factors, mode, out):
    """The old per-block chunk kernel: re-materializes the index ranges of
    its blocks on every call and scatters via np.add.at."""
    if not len(block_ids):
        return
    rank = out.shape[1]
    shift = tensor.block_bits
    # gather the nonzero ranges of all assigned blocks
    pieces_i = []
    pieces_blk = []
    for blk in block_ids:
        lo, hi = int(tensor.bptr[blk]), int(tensor.bptr[blk + 1])
        pieces_i.append(np.arange(lo, hi))
        pieces_blk.append(np.full(hi - lo, blk, dtype=np.int64))
    nz = np.concatenate(pieces_i)
    blk_of = np.concatenate(pieces_blk)
    base = tensor.binds[blk_of].astype(np.int64) << shift
    ginds = base + tensor.einds[nz].astype(np.int64)
    acc = np.repeat(tensor.values[nz, None], rank, axis=1)
    for m, f in enumerate(factors):
        if m != mode:
            acc *= f[ginds[:, m]]
    np.add.at(out, ginds[:, mode], acc)


def legacy_parallel_hicoo(tensor, factors, mode, nthreads, strategy="auto",
                          superblock_bits=None):
    """The old per-call parallel HiCOO path: rebuilds superblocks and the
    schedule, then runs the per-block-loop chunk kernel per thread."""
    rank = factors[0].shape[1]
    rows = tensor.shape[mode]
    sb_bits = superblock_bits if superblock_bits is not None else min(
        tensor.block_bits + 3, 20)
    sbs = build_superblocks(tensor, sb_bits)
    if strategy == "auto":
        strategy = choose_strategy(sbs, mode, nthreads, rows, rank)

    if strategy == "schedule":
        sched = schedule_mode(sbs, mode, nthreads)
        out = np.zeros((rows, rank))
        for sb_list in sched.assignment:
            blocks = []
            for sb in sb_list:
                lo, hi = sbs.block_range(sb)
                blocks.extend(range(lo, hi))
            _hicoo_block_range_chunk(tensor, blocks, factors, mode, out)
        return out

    ranges = balanced_ranges(sbs.nnz_per_superblock, nthreads)
    bufs = PrivateBuffers.allocate(nthreads, rows, rank)
    for tid, (lo, hi) in enumerate(ranges):
        if lo < hi:
            blocks = list(range(int(sbs.sptr[lo]), int(sbs.sptr[hi])))
            _hicoo_block_range_chunk(tensor, blocks, factors, mode,
                                     bufs.view(tid))
    return bufs.reduce()


# ----------------------------------------------------------------------
# pre-magic-number conversion pipeline
# ----------------------------------------------------------------------
def legacy_morton_encode(coords, nbits):
    """The old per-bit Morton encoder: one masked shift-OR pass per
    (bit, mode) pair — O(nmodes * nbits) passes over the data."""
    coords = np.asarray(coords).astype(np.uint64, copy=False)
    nmodes, npoints = coords.shape
    total_bits = nmodes * nbits
    nwords = (total_bits + 63) // 64
    words = np.zeros((nwords, npoints), dtype=np.uint64)
    for bit in range(nbits):
        for mode in range(nmodes):
            out_bit = bit * nmodes + mode
            word = nwords - 1 - (out_bit // 64)
            shift = np.uint64(out_bit % 64)
            src = (coords[mode] >> np.uint64(bit)) & np.uint64(1)
            words[word] |= src << shift
    return words


def legacy_morton_decode(words, nmodes, nbits):
    """The old per-bit Morton decoder (inverse of the encoder above)."""
    words = np.asarray(words, dtype=np.uint64)
    nwords, npoints = words.shape
    coords = np.zeros((nmodes, npoints), dtype=np.uint64)
    for bit in range(nbits):
        for mode in range(nmodes):
            in_bit = bit * nmodes + mode
            word = nwords - 1 - (in_bit // 64)
            shift = np.uint64(in_bit % 64)
            src = (words[word] >> shift) & np.uint64(1)
            coords[mode] |= src << np.uint64(bit)
    return coords


def legacy_morton_sort_order(coords, nbits):
    """Old Morton ordering: always a multi-key lexsort, even when the code
    fits a single word."""
    return np.lexsort(legacy_morton_encode(coords, nbits)[::-1])


def legacy_sort_morton_order(coo, block_bits):
    """The old ``CooTensor.sort_morton`` permutation: Morton-lexsort the
    block coordinates, then a second lexsort restoring within-block
    lexicographic offset order."""
    inds = coo.indices
    if len(inds) == 0:
        return np.empty(0, dtype=np.int64)
    coords = inds.T >> block_bits if block_bits else inds.T
    nbits = bits_for(int(coords.max()) if coords.size else 0)
    order = legacy_morton_sort_order(coords, nbits)
    if block_bits:
        permuted = inds[order]
        blocks = permuted >> block_bits
        offsets = permuted & ((1 << block_bits) - 1)
        changed = np.any(blocks[1:] != blocks[:-1], axis=1)
        run_id = np.concatenate([[0], np.cumsum(changed)])
        keys = tuple(offsets[:, m] for m in reversed(range(coo.nmodes)))
        order = order[np.lexsort(keys + (run_id,))]
    return order


def legacy_decompose(coo, block_bits):
    """The old one-shot block decomposition: a fresh Morton sort for this
    (tensor, b) pair, nothing shared or cached."""
    order = legacy_sort_morton_order(coo, block_bits)
    inds = coo.indices[order]
    values = coo.values[order]
    bcoords = inds >> block_bits
    offsets = (inds & ((1 << block_bits) - 1)).astype(np.uint8)
    if len(inds) == 0:
        block_ptr = np.zeros(1, dtype=np.int64)
        bcoords = np.empty((0, coo.nmodes), dtype=np.int64)
    else:
        changed = np.any(bcoords[1:] != bcoords[:-1], axis=1)
        starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
        block_ptr = np.concatenate([starts, [len(inds)]]).astype(np.int64)
        bcoords = bcoords[starts]
    return BlockDecomposition(
        block_bits=block_bits, block_ptr=block_ptr, block_coords=bcoords,
        elem_offsets=offsets, values=values, shape=coo.shape)


def legacy_hicoo_construct(coo, block_bits):
    """End-to-end old construction: legacy decomposition assembled into a
    HicooTensor (bypassing the new cached-context constructor)."""
    dec = legacy_decompose(coo, block_bits)
    out = HicooTensor.__new__(HicooTensor)
    out._shape = coo.shape
    out.block_bits = int(block_bits)
    out.bptr = dec.block_ptr
    out.binds = dec.block_coords.astype(np.uint32)
    out.einds = dec.elem_offsets
    out.values = dec.values
    out._gather_cache = {}
    return out


def legacy_best_block_bits(coo, candidates=None):
    """The old block-size sweep: one full construction per candidate — the
    8-sorts-for-8-block-sizes pattern the MortonContext removes."""
    if candidates is None:
        candidates = range(1, MAX_BLOCK_BITS + 1)
    best, best_bytes = None, None
    for bits in candidates:
        hic = legacy_hicoo_construct(coo, bits)
        total = int(sum(hicoo_storage_bytes(
            hic.nblocks, hic.nnz, hic.nmodes).values()))
        if best_bytes is None or total <= best_bytes:
            best, best_bytes = bits, total
    return int(best)
