"""Kruskal tensors — the output of a CP decomposition.

A rank-R Kruskal tensor is ``sum_r weights[r] * outer(U1[:,r], ..., UN[:,r])``.
This module provides norm/inner-product identities so CP-ALS can evaluate
its fit without ever densifying the input tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..formats.coo import CooTensor
from ..kernels.khatrirao import gram, hadamard_all

__all__ = ["KruskalTensor"]


@dataclass
class KruskalTensor:
    """weights (R,) and factor matrices (shape[m], R)."""

    weights: np.ndarray
    factors: List[np.ndarray]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).ravel()
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        if not self.factors:
            raise ValueError("a Kruskal tensor needs at least one factor")
        rank = self.rank
        for m, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != rank:
                raise ValueError(
                    f"factor {m} must have {rank} columns, got shape {f.shape}"
                )
        if len(self.weights) != rank:
            raise ValueError(
                f"{len(self.weights)} weights for rank-{rank} factors"
            )

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def shape(self) -> tuple:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def nmodes(self) -> int:
        return len(self.factors)

    # ------------------------------------------------------------------
    def full(self) -> np.ndarray:
        """Densify (guarded; for tests and small tensors only)."""
        size = int(np.prod(self.shape))
        if size > 50_000_000:
            raise MemoryError(f"refusing to densify {size} elements")
        out = np.zeros(self.shape)
        for r in range(self.rank):
            term = self.weights[r]
            comp = np.array(term)
            for f in self.factors:
                comp = np.multiply.outer(comp, f[:, r])
            out += comp
        return out

    def norm(self, grams: Sequence[np.ndarray] | None = None) -> float:
        """||M||_F via the Gram identity:
        ``||M||^2 = w^T (hadamard_m U_m^T U_m) w`` — O(N R^2 I) work, or
        O(N R^2) when the caller passes the current ``grams``."""
        if grams is None:
            grams = [gram(f) for f in self.factors]
        val = float(self.weights @ hadamard_all(grams) @ self.weights)
        return float(np.sqrt(max(val, 0.0)))

    def innerprod(self, tensor: CooTensor) -> float:
        """<X, M> evaluated sparsely over X's nonzeros."""
        return tensor.innerprod_ktensor(self.weights, self.factors)

    def fit(self, tensor: CooTensor, tensor_norm: float | None = None,
            mttkrp: np.ndarray | None = None,
            grams: Sequence[np.ndarray] | None = None) -> float:
        """CP fit: ``1 - ||X - M|| / ||X||`` (1 is exact recovery).

        ``mttkrp`` is the last mode's MTTKRP of ``tensor`` computed from
        the other factors of this model, which CP-ALS has at hand after
        each sweep.  It holds the inner product already:
        ``<X, M> = sum_r w_r sum_i mttkrp[i, r] * U_N[i, r]`` in O(I_N R),
        so no pass over the nonzeros is made.  Without it ``<X, M>`` is
        evaluated over the nonzeros (:meth:`innerprod`, the reference).
        ``grams`` are the factors' current Gram matrices, reused for
        ``||M||`` (see :meth:`norm`).
        """
        xnorm = tensor.norm() if tensor_norm is None else tensor_norm
        mnorm = self.norm(grams)
        if xnorm == 0:
            return 1.0 if mnorm == 0 else 0.0
        if mttkrp is None:
            inner = self.innerprod(tensor)
        else:
            inner = float(self.weights @ np.einsum("ir,ir->r", mttkrp,
                                                   self.factors[-1]))
        resid_sq = xnorm**2 - 2.0 * inner + mnorm**2
        return 1.0 - np.sqrt(max(resid_sq, 0.0)) / xnorm

    # ------------------------------------------------------------------
    def normalize(self) -> "KruskalTensor":
        """Push column norms into the weights (columns become unit norm)."""
        weights = self.weights.copy()
        factors = []
        for f in self.factors:
            norms = np.linalg.norm(f, axis=0)
            safe = np.where(norms > 0, norms, 1.0)
            factors.append(f / safe)
            weights = weights * norms
        return KruskalTensor(weights, factors)

    def arrange(self) -> "KruskalTensor":
        """Normalize and order components by decreasing |weight|."""
        kt = self.normalize()
        order = np.argsort(-np.abs(kt.weights), kind="stable")
        return KruskalTensor(kt.weights[order], [f[:, order] for f in kt.factors])

    def congruence(self, other: "KruskalTensor") -> float:
        """Factor-match score in [0, 1] against another Kruskal tensor of the
        same rank — used by tests to check recovery of planted factors."""
        if self.rank != other.rank or self.shape != other.shape:
            raise ValueError("Kruskal tensors are not comparable")
        from scipy.optimize import linear_sum_assignment

        # cross-congruence matrix over all component pairs, then optimal
        # matching (CP components are identifiable only up to permutation)
        cross = np.ones((self.rank, self.rank))
        for fa, fb in zip(self.factors, other.factors):
            na = np.linalg.norm(fa, axis=0)
            nb = np.linalg.norm(fb, axis=0)
            fa_n = fa / np.where(na > 0, na, 1.0)
            fb_n = fb / np.where(nb > 0, nb, 1.0)
            cross *= np.abs(fa_n.T @ fb_n)
        rows, cols = linear_sum_assignment(-cross)
        return float(cross[rows, cols].mean())
