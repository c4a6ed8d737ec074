"""Job model and the single execution path shared by daemon and oracle.

The differential guarantee of ``tests/test_serve.py`` rests on one fact:
the daemon and the test oracle call the *same* function —
:func:`run_job` — differing only in the execution backend.  For HiCOO and
ALTO the parallel paths use the lock-free ``schedule`` strategy, whose
``process``/``thread``/``sim`` outputs are bit-identical to the format's
sequential kernel (every task reduces its own rows left to right in task
order), so a concurrent, fault-injected daemon answer must equal a fresh
sequential
(``backend="sim"``) execution bit for bit.  COO and CSF jobs always run
the sequential kernel, which is trivially deterministic.

Factors are never shipped over the wire: a request carries a ``seed`` and
both sides derive the dense operands with :func:`factors_for` /
:func:`matrix_for` (``np.random.default_rng`` is stable across processes
and platforms for a fixed seed).  Replies carry a SHA-256 digest of the
result bytes (:func:`digest_array`); bitwise comparison is digest
comparison.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "Job",
    "JOB_STATES",
    "factors_for",
    "matrix_for",
    "digest_array",
    "run_job",
]

JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One accepted decomposition job (admission-rejected requests never
    become jobs)."""

    id: str
    op: str
    tensor: str
    rank: int
    seed: int
    mode: int = 0
    iters: int = 3
    priority: int = 1
    client: str = ""
    return_data: bool = False
    #: execution format override — run against the resident tensor's
    #: memoized ``view_as(format)`` instead of the registered format
    format: Optional[str] = None

    state: str = "queued"
    result: Optional[dict] = None
    error: Optional[dict] = None
    retries: int = 0
    batch_size: int = 1
    degraded: bool = False
    submitted_at: float = field(default_factory=time.time)
    queued_s: float = 0.0
    run_s: float = 0.0
    start_ns: int = 0
    end_ns: int = 0
    done: threading.Event = field(default_factory=threading.Event,
                                  repr=False, compare=False)

    #: the (op, tensor, mode, rank, format) compatibility key: jobs sharing
    #: it can ride one batch (same plan, same shared-memory session, same
    #: gathers — and, with a format override, the same resident view)
    @property
    def batch_key(self) -> tuple:
        if self.op == "mttkrp":
            return (self.op, self.tensor, self.mode, self.rank, self.format)
        return (self.op, self.tensor, self.mode, self.rank, self.iters,
                self.id)  # non-MTTKRP jobs never batch

    def describe(self) -> dict:
        """JSON-able public view (the ``/jobs`` HTTP listing)."""
        out = {
            "id": self.id,
            "op": self.op,
            "tensor": self.tensor,
            "rank": self.rank,
            "mode": self.mode,
            "seed": self.seed,
            "priority": self.priority,
            "client": self.client,
            "state": self.state,
            "retries": self.retries,
            "batch_size": self.batch_size,
            "degraded": self.degraded,
            "queued_s": round(self.queued_s, 6),
            "run_s": round(self.run_s, 6),
        }
        if self.format is not None:
            out["format"] = self.format
        if self.result is not None:
            out["result"] = {k: v for k, v in self.result.items()
                             if k != "arrays"}
        if self.error is not None:
            out["error"] = self.error
        return out


def factors_for(shape: Sequence[int], rank: int, seed: int
                ) -> List[np.ndarray]:
    """The dense factor matrices both sides derive from a request seed."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((int(s), rank)) for s in shape]


def matrix_for(dim: int, rank: int, seed: int) -> np.ndarray:
    """The TTM contraction matrix both sides derive from a request seed."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((int(dim), rank))


def digest_array(*arrays: np.ndarray) -> str:
    """SHA-256 over the exact float64/C-contiguous bytes of ``arrays``.

    Equal digests mean bitwise-equal results — the currency of every
    differential assertion in the serve test harness.
    """
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype.str).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def run_job(op: str, tensor, *, mode: int = 0, rank: int = 4, seed: int = 0,
            iters: int = 3, backend: str = "sim", nthreads: int = 1,
            fault_policy=None, plan=None) -> dict:
    """Execute one job against a resident tensor; returns the result dict.

    This is THE execution function: the daemon calls it with its configured
    ``backend``/``nthreads``, the differential oracle with
    ``backend="sim"`` and the *same* ``nthreads`` (the lock-free partition
    depends on the thread count; sim runs the identical tasks sequentially,
    so process == sim bitwise).

    Returns ``{"digest", "shape", "kind", "arrays"}`` where ``arrays`` is
    the tuple of result ndarrays (daemon-side only; never serialized unless
    the request asked for data).
    """
    fmt = tensor.format_name
    if op == "mttkrp":
        factors = factors_for(tensor.shape, rank, seed)
        if fmt in ("hicoo", "alto") and (nthreads > 1
                                         or backend not in (None, "sim")):
            from ..kernels.mttkrp import mttkrp_parallel

            run = mttkrp_parallel(tensor, factors, mode, nthreads,
                                  strategy="schedule", plan=plan,
                                  backend=backend,
                                  fault_policy=fault_policy)
            out = run.output
        else:
            # COO/CSF (and single-thread sim): the sequential kernel
            out = tensor.mttkrp(factors, mode)
        arrays = (out,)
        return {"digest": digest_array(out), "shape": list(out.shape),
                "kind": "matrix", "arrays": arrays}
    if op == "cp_als":
        from ..cpd.cp_als import cp_als

        use_parallel = fmt in ("hicoo", "alto") and (
            nthreads > 1 or backend not in (None, "sim"))
        res = cp_als(tensor, rank, maxiters=iters, tol=0.0, init="random",
                     seed=seed,
                     nthreads=nthreads if use_parallel else 1,
                     strategy="schedule" if use_parallel else "auto",
                     backend=backend if use_parallel else None,
                     fault_policy=fault_policy if use_parallel else None,
                     plan=plan if use_parallel else None)
        kt = res.ktensor
        arrays = (kt.weights,) + tuple(kt.factors)
        return {"digest": digest_array(*arrays),
                "shape": [list(f.shape) for f in kt.factors],
                "kind": "ktensor",
                "fit": float(res.final_fit),
                "iterations": int(res.iterations),
                "arrays": arrays}
    if op == "ttm":
        from ..kernels.ttm import ttm

        coo = tensor if fmt == "coo" else tensor.to_coo()
        matrix = matrix_for(tensor.shape[mode], rank, seed)
        semi = ttm(coo, matrix, mode)
        arrays = (semi.indices, semi.fibers)
        return {"digest": digest_array(semi.indices, semi.fibers),
                "shape": list(semi.fibers.shape),
                "kind": "semisparse",
                "nfibers": int(semi.nfibers),
                "arrays": arrays}
    raise ValueError(f"unknown job op {op!r}")
