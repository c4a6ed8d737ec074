"""CP-ALS: alternating least squares for the CP decomposition.

The driver is *format-generic*: any object implementing the
:class:`repro.formats.base.SparseTensorFormat` MTTKRP contract can be
decomposed, which is how the paper's end-to-end comparison (experiment E9)
runs the same solver over COO, CSF and HiCOO and attributes the time
difference purely to the MTTKRP kernel.

Per iteration and mode ``n``::

    M     = MTTKRP(X, {U}, n)                  # the only tensor-touching step
    H     = *_{m != n} U_m^T U_m               # R x R Hadamard of Grams
    U_n   = M @ pinv(H)
    U_n, lambda = column-normalize(U_n)

Convergence is declared when the change in fit (1 - relative error) drops
below ``tol``.  The fit reuses the sweep's last MTTKRP and the Gram
matrices (:meth:`KruskalTensor.fit`), so it costs O(I_N R + N R^2) and
never re-reads the tensor.

Each update stores a *new* array in ``factors[n]``; no factor is ever
written in place.  That is what lets the sequential branch run its N
MTTKRPs as one :class:`~repro.kernels.sweep.Sweep`, which reuses gathered
factor rows and partial Hadamard products while the arrays they were
built from are unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..formats.base import SparseTensorFormat
from ..kernels.khatrirao import gram, hadamard_all
from ..kernels.mttkrp import mttkrp, mttkrp_parallel
from ..kernels.sweep import Sweep
from ..obs import metrics, trace
from ..util.validation import check_factors
from .init import initialize
from .ktensor import KruskalTensor

__all__ = ["CpAlsResult", "cp_als"]


@dataclass
class CpAlsResult:
    """Decomposition plus the per-iteration trace the benchmarks report."""

    ktensor: KruskalTensor
    fits: List[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    mttkrp_seconds: float = 0.0
    dense_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def final_fit(self) -> float:
        return self.fits[-1] if self.fits else 0.0

    def seconds_per_iteration(self) -> float:
        return self.total_seconds / self.iterations if self.iterations else 0.0


def cp_als(tensor: SparseTensorFormat, rank: int, *,
           maxiters: int = 50, tol: float = 1e-5,
           init: str | Sequence[np.ndarray] = "random",
           nthreads: int = 1, strategy: str = "auto",
           seed: Optional[int] = None,
           callback: Optional[Callable[[int, float], None]] = None,
           plan=None, backend: Optional[str] = None,
           fault_policy=None, format: Optional[str] = None) -> CpAlsResult:
    """Compute a rank-``rank`` CP decomposition of ``tensor``.

    Parameters
    ----------
    tensor : any sparse-format tensor (COO, CSF, HiCOO, dense wrapper).
    rank : number of components R.
    maxiters, tol : iteration cap and fit-change convergence threshold.
    init : "random", "hosvd", or an explicit list of factor matrices.
    nthreads : >1 routes MTTKRP through :func:`mttkrp_parallel`.  The
        sequential branch runs a :class:`~repro.kernels.sweep.Sweep` when
        the format has a mode-independent gather (COO, HiCOO).
    strategy : parallel MTTKRP strategy (see ``mttkrp_parallel``).
    seed : seeds the initializer for reproducible runs.
    callback : called as ``callback(iteration, fit)`` after every iteration.
    plan : a precomputed :class:`repro.kernels.plan.MttkrpPlan` for a HiCOO
        ``tensor``; pass one to share the symbolic state (superblocks,
        schedules, fused gather arrays) across CP-ALS restarts.  When
        omitted and ``nthreads > 1``, one plan is built here and reused by
        every mode of every iteration.
    backend : parallel execution backend forwarded to
        :func:`repro.kernels.mttkrp.mttkrp_parallel` — ``"sim"`` (default),
        ``"thread"``, ``"process"`` (true multicore over shared memory;
        the worker pool and shared segments persist across iterations, so
        start-up cost is paid once per run), ``"numba"`` (fused JIT
        kernels; compiled signatures are reused by every mode of every
        iteration, and compilation is paid before the timed loop), or
        ``"cupy"`` (GPU; the plan's structure is uploaded once and stays
        device-resident across iterations).  The compiled tiers degrade
        silently to the NumPy kernels when the dependency is absent.
    fault_policy : process backend only — ``"fail-fast"`` (default),
        ``"retry"`` (dead/hung workers are respawned and their MTTKRP tasks
        re-run idempotently; budgets reset every parallel region, so a long
        run tolerates repeated isolated faults), or ``"degrade"``
        (exhausted budgets finish the region on the thread/sim backends; a
        ``supervisor.degradations`` metric and trace instant record each
        event).  Also accepts a
        :class:`repro.parallel.supervisor.FaultConfig`.
    format : convert ``tensor`` to this storage format first (one of
        :data:`repro.formats.FORMAT_NAMES`, or ``"auto"`` to let
        :func:`repro.core.tuner.choose_format` pick from the tensor's nnz
        distribution).  ``None`` (default) decomposes ``tensor`` as given.
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if maxiters < 1:
        raise ValueError(f"maxiters must be positive, got {maxiters}")
    if format is not None:
        from ..formats import as_format

        if format == "auto":
            from ..core.tuner import choose_format

            format = choose_format(tensor.to_coo())
        tensor = as_format(tensor, format)
    nmodes = tensor.nmodes
    rng = np.random.default_rng(seed)

    if isinstance(init, str):
        coo = tensor.to_coo()
        factors = initialize(coo, rank, method=init, rng=rng)
    else:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in init]
        factors = check_factors(factors, tensor.shape)
        if factors[0].shape[1] != rank:
            raise ValueError(
                f"init factors have rank {factors[0].shape[1]}, expected {rank}"
            )
        coo = tensor.to_coo()

    xnorm = coo.norm()
    grams = [gram(f) for f in factors]
    weights = np.ones(rank)
    result = CpAlsResult(ktensor=KruskalTensor(weights, factors))

    # precompute the parallel plan once: the superblock index, per-mode
    # schedules, and fused gather arrays are symbolic state, identical
    # across iterations — built here (or passed in), reused every MTTKRP
    from ..core.hicoo import HicooTensor

    parallel = (plan is not None or nthreads > 1
                or backend in ("process", "numba", "cupy"))
    if plan is None and parallel and isinstance(tensor, HicooTensor):
        from ..kernels.plan import plan_mttkrp

        plan = plan_mttkrp(tensor, rank, nthreads,
                           strategy=strategy if strategy != "atomic"
                           else "auto")
    if plan is not None and isinstance(tensor, HicooTensor):
        # materialize every mode's gather arrays up front so no iteration
        # (not even the first) pays symbolic cost inside the timed loop
        plan.ensure_gathers(tensor)
    # sequential COO/HiCOO: one dimension-tree sweep for the whole call
    # (its buffers are allocated in the first iteration and reused)
    sweep = None if parallel else Sweep.of(tensor)
    if backend == "numba":
        # compile the fused kernels (no-op when numba is absent) so JIT
        # cost lands before the timed loop, not inside iteration 0
        from ..kernels.compiled import warmup_numba

        warmup_numba()

    # derived HiCOO structure parameters (the paper's alpha_b / c_b) tag
    # every iteration span so traces compare directly to the storage model
    geom = {}
    if isinstance(tensor, HicooTensor):
        geom = {"alpha_b": tensor.block_ratio(),
                "c_b": tensor.avg_slice_size(), "b": tensor.block_bits}

    t_start = time.perf_counter()
    prev_fit = 0.0
    with trace.span("cpals", rank=rank, nthreads=nthreads,
                    backend=backend or "sim",
                    format=tensor.format_name, **geom) as root:
        for it in range(maxiters):
            with trace.span("cpals.iter", it=it, **geom) as sp:
                for mode in range(nmodes):
                    t0 = time.perf_counter()
                    if parallel:
                        m = mttkrp_parallel(tensor, factors, mode, nthreads,
                                            strategy=strategy, plan=plan,
                                            backend=backend,
                                            fault_policy=fault_policy).output
                    else:
                        m = mttkrp(tensor, factors, mode, sweep=sweep)
                    result.mttkrp_seconds += time.perf_counter() - t0

                    t0 = time.perf_counter()
                    with trace.span("cpals.dense", mode=mode):
                        h = hadamard_all([g for i, g in enumerate(grams)
                                          if i != mode]) \
                            if nmodes > 1 else np.ones((rank, rank))
                        new_factor = m @ np.linalg.pinv(h)
                        norms = np.linalg.norm(new_factor, axis=0)
                        # after iteration 0 use the max(1, norm) convention
                        # of the Tensor Toolbox to avoid shrinking tiny
                        # components to zero
                        if it == 0:
                            safe = np.where(norms > 0, norms, 1.0)
                        else:
                            safe = np.maximum(norms, 1.0)
                        weights = safe.copy()
                        factors[mode] = new_factor / safe
                        grams[mode] = gram(factors[mode])
                    result.dense_seconds += time.perf_counter() - t0

                with trace.span("cpals.fit"):
                    # the last mode's MTTKRP ``m`` holds <X, M> (O(I_N R)),
                    # so the fit makes no pass over the nonzeros
                    fit = KruskalTensor(weights, factors).fit(
                        coo, tensor_norm=xnorm, mttkrp=m, grams=grams)
                sp.note(fit=fit)
            result.fits.append(fit)
            result.iterations = it + 1
            metrics.inc("cpals.iterations",
                        labels={"format": tensor.format_name,
                                "backend": backend or "sim"})
            if callback is not None:
                callback(it, fit)
            if it > 0 and abs(fit - prev_fit) < tol:
                result.converged = True
                prev_fit = fit
                break
            prev_fit = fit
        root.note(iterations=result.iterations, fit=prev_fit)

    result.total_seconds = time.perf_counter() - t_start
    result.ktensor = KruskalTensor(weights, factors).arrange()
    return result
