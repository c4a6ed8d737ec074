"""Abstract interface shared by every sparse-tensor storage format.

The paper compares three formats — COO, CSF and HiCOO — on the same set of
operations.  This module pins down that common surface so the CP-ALS driver
and the benchmark harness are format-generic.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

__all__ = ["SparseTensorFormat"]


class SparseTensorFormat(abc.ABC):
    """A sparse tensor stored in some concrete format.

    Concrete classes must expose the tensor's logical ``shape`` and ``nnz``
    and implement MTTKRP — the single tensor-touching kernel of CP-ALS — plus
    conversions back to coordinate form for validation.
    """

    #: short lowercase identifier used in benchmark tables ("coo", "csf", ...)
    format_name: str = "abstract"

    @property
    @abc.abstractmethod
    def shape(self) -> tuple:
        """Logical dimensions of the tensor."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored nonzeros."""

    @property
    def nmodes(self) -> int:
        return len(self.shape)

    @abc.abstractmethod
    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
        """Matricized-tensor-times-Khatri-Rao-product along ``mode``.

        Computes ``M = X_(mode) · (U^(N) ⊙ … ⊙ U^(mode+1) ⊙ U^(mode-1) ⊙ … ⊙ U^(1))``
        without materializing the Khatri-Rao product.  ``factors[mode]`` is
        ignored (only its row count/rank are used for the output shape).

        Returns an ``(shape[mode], R)`` dense matrix.
        """

    def sweep_source(self):
        """The :class:`~repro.kernels.gather.TaskGather` whose nonzero
        order serves every mode's MTTKRP, for a
        :class:`~repro.kernels.sweep.Sweep`; ``None`` (the default) when the
        format keeps per-mode orders or a tree walk of its own."""
        return None

    @abc.abstractmethod
    def to_coo(self):
        """Convert back to :class:`repro.formats.coo.CooTensor`."""

    @abc.abstractmethod
    def storage_bytes(self) -> dict:
        """Exact byte accounting, keyed by component (e.g. ``indices``,
        ``values``, ``pointers``).  ``sum(d.values())`` is the format total."""

    # ------------------------------------------------------------------
    # conveniences shared by all formats
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        return int(sum(self.storage_bytes().values()))

    def bytes_per_nnz(self) -> float:
        return self.total_bytes() / max(1, self.nnz)

    def density(self) -> float:
        size = float(np.prod([float(s) for s in self.shape]))
        return self.nnz / size if size else 0.0

    def norm(self) -> float:
        """Frobenius norm; default goes through COO."""
        return self.to_coo().norm()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(s) for s in self.shape)
        return f"<{type(self).__name__} {dims} nnz={self.nnz}>"
