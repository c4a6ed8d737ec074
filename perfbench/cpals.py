"""CP-ALS phase: set-up, round-robin timed calls, layer spans and oracle.

Six configurations share one tensor: the sequential kernels of COO, CSF,
HiCOO and ALTO, and the process backend (2 workers) for HiCOO with a
prebuilt plan and for ALTO.  The timed loop runs them round-robin, one
short ``cp_als`` call at a time, so host drift lands on every
configuration alike.  Iteration times come from the solver's own
per-iteration callback; the first iteration of every call is excluded.

A traced call additionally wraps each call the solver makes into a
layer's public function (``mttkrp``/``mttkrp_parallel`` per mode, the
Gram-Hadamard/``pinv`` update from ``hadamard_all`` to ``gram``, and
``KruskalTensor.fit``) in a span.  Nothing in ``src/`` is changed: the
wrappers replace the names the solver module imported, for the duration
of the call only.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from inputs import CPALS_ITERS, RANK, tensor_seed
from spans import SpanRecorder

NTHREADS = 2  # process-backend workers (= cores of the reference host)

#: fit trajectories must match the sequential COO reference this closely
FIT_TOLERANCE = 1e-9

FORMATS = ("coo", "csf", "hicoo", "alto")


@dataclass(frozen=True)
class Config:
    name: str
    fmt: str
    backend: str  # "sim" (sequential) or "process"


CONFIGS = (
    Config("coo", "coo", "sim"),
    Config("csf", "csf", "sim"),
    Config("hicoo", "hicoo", "sim"),
    Config("alto", "alto", "sim"),
    Config("hicoo-process", "hicoo", "process"),
    Config("alto-process", "alto", "process"),
)


@dataclass
class ConfigSamples:
    """Everything measured for one configuration."""

    untraced: List[float] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)
    #: per traced iteration: {"mttkrp", "dense", "fit", "other"} seconds
    layers: List[Dict[str, float]] = field(default_factory=list)
    fits: List[List[float]] = field(default_factory=list)
    calls: int = 0
    #: one ``call <i>: <exception>`` line per call that raised
    errors: List[str] = field(default_factory=list)


@contextmanager
def layer_spans(rec: SpanRecorder, parent: int):
    """Wrap the solver's calls into each layer in spans (one call's worth)."""
    from repro.cpd import cp_als as solver
    from repro.cpd.ktensor import KruskalTensor

    saved = {name: getattr(solver, name) for name in
             ("mttkrp", "mttkrp_parallel", "hadamard_all", "gram")
             if hasattr(solver, name)}
    saved_fit = KruskalTensor.fit
    dense_open: List[int] = []

    def kernel(name, fn):
        def wrapped(tensor, factors, mode, *args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(tensor, factors, mode, *args, **kwargs)
            finally:
                rec.add("mttkrp", start, time.perf_counter_ns(), parent,
                        mode=int(mode), entry=name)
        return wrapped

    def hadamard_all(*args, **kwargs):
        dense_open.append(time.perf_counter_ns())
        return saved["hadamard_all"](*args, **kwargs)

    def gram(*args, **kwargs):
        out = saved["gram"](*args, **kwargs)
        if dense_open:  # closes the update opened by hadamard_all
            rec.add("dense", dense_open.pop(), time.perf_counter_ns(), parent)
        return out

    def fit(self, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return saved_fit(self, *args, **kwargs)
        finally:
            rec.add("fit", start, time.perf_counter_ns(), parent)

    wrappers = {"mttkrp": kernel("mttkrp", saved.get("mttkrp")),
                "mttkrp_parallel": kernel("mttkrp_parallel",
                                          saved.get("mttkrp_parallel")),
                "hadamard_all": hadamard_all, "gram": gram}
    for name in saved:
        setattr(solver, name, wrappers[name])
    KruskalTensor.fit = fit
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(solver, name, fn)
        KruskalTensor.fit = saved_fit


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class CpalsPhase:
    """Owns the CP-ALS tensors, plan and pool of one run."""

    def __init__(self, path: Path, seed: int, rec: SpanRecorder,
                 fail_calls: bool = False) -> None:
        self.path = path
        self.seed = seed
        self.rec = rec
        #: test hook: every call of the last configuration raises
        self.fail_calls = fail_calls
        self.tensors: Dict[str, object] = {}
        self.plan = None
        self.init: List[np.ndarray] = []
        self.samples = {c.name: ConfigSamples() for c in CONFIGS}

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def setup(self) -> Dict[str, float]:
        """Load, build every format, plan, start and warm the pool.

        Returns the seconds spent in each layer.  Lazy per-format state
        (gather caches, mode views, shared-memory sessions) is filled by
        one MTTKRP per mode and configuration, so no timed call pays it.
        """
        from repro.data.frostt import read_tns
        from repro.formats import as_format
        from repro.kernels.plan import plan_mttkrp
        from repro.parallel.procpool import get_pool

        times = {}
        t0 = time.perf_counter()
        coo = read_tns(self.path)
        times["load_s"] = time.perf_counter() - t0
        self.tensors = {"coo": coo}
        for fmt in FORMATS[1:]:
            t0 = time.perf_counter()
            self.tensors[fmt] = as_format(coo, fmt)
            times[f"build_s.{fmt}"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.plan = plan_mttkrp(self.tensors["hicoo"], RANK, NTHREADS)
        self.plan.ensure_gathers(self.tensors["hicoo"])
        times["plan_s"] = time.perf_counter() - t0
        # the pool starts on the first set-up and stays warm for the later
        # ones: restarting a pool in one process trips the resource tracker
        t0 = time.perf_counter()
        get_pool(NTHREADS)
        times["procpool.start_s"] = time.perf_counter() - t0
        rng = np.random.default_rng(tensor_seed(self.seed, "init", 0.0))
        self.init = [rng.random((s, RANK)) for s in coo.shape]
        t0 = time.perf_counter()
        for config in CONFIGS:
            for mode in range(coo.nmodes):
                self._mttkrp(config, mode)
        times["warm_s"] = time.perf_counter() - t0
        return times

    def _mttkrp(self, config: Config, mode: int) -> np.ndarray:
        """One MTTKRP through the same entry point ``cp_als`` uses."""
        from repro.kernels.mttkrp import mttkrp, mttkrp_parallel

        tensor = self.tensors[config.fmt]
        if config.backend == "sim":
            return mttkrp(tensor, self.init, mode)
        plan = self.plan if config.fmt == "hicoo" else None
        return mttkrp_parallel(tensor, self.init, mode, NTHREADS,
                               plan=plan, backend="process").output

    def teardown(self, final: bool = False) -> None:
        """Drop the built state; ``final`` also stops the worker pool."""
        from repro.parallel.procpool import release_shared, shutdown_pools

        for fmt in ("hicoo", "alto"):
            if fmt in self.tensors:
                release_shared(self.tensors[fmt])
        if final:
            shutdown_pools()
        self.tensors, self.plan = {}, None

    def counts(self) -> Dict[str, float]:
        """Exact counts of the built structures (they never vary by run)."""
        hicoo = self.tensors["hicoo"]
        out = {}
        for fmt in FORMATS:
            out[f"storage_mb.{fmt}"] = sum(
                self.tensors[fmt].storage_bytes().values()) / 1e6
        out["hicoo.nblocks"] = float(hicoo.nblocks)
        out["hicoo.alpha_b"] = float(hicoo.block_ratio())
        out["hicoo.c_b"] = float(hicoo.avg_slice_size())
        out["plan.gather_mb"] = self.plan.gather_cache_bytes() / 1e6
        return out

    def traffic_counts(self) -> Dict[str, float]:
        """Counted bytes of one iteration's MTTKRPs, per format."""
        from repro.analysis.traffic import mttkrp_work

        out = {}
        for fmt in FORMATS:
            tensor = self.tensors[fmt]
            out[f"mttkrp_mb.{fmt}"] = sum(
                mttkrp_work(tensor, m, RANK).bytes_moved
                for m in range(tensor.nmodes)) / 1e6
        return out

    # ------------------------------------------------------------------
    # timed calls
    # ------------------------------------------------------------------
    def run_call(self, config: Config, traced: bool) -> float:
        """One short ``cp_als`` call; returns its wall seconds."""
        from repro.cpd.cp_als import cp_als

        kwargs = {}
        if config.backend == "process":
            kwargs = {"nthreads": NTHREADS, "backend": "process"}
            if config.fmt == "hicoo":
                kwargs["plan"] = self.plan
        # a rank the solver rejects stands in for a broken configuration
        rank = 0 if self.fail_calls and config is CONFIGS[-1] else RANK
        stamps: List[int] = []
        samples = self.samples[config.name]
        samples.calls += 1
        first_span = len(self.rec.spans)
        start = time.perf_counter_ns()
        call = self.rec.add("cpals.call", start, start, config=config.name,
                            traced=traced) if traced else None
        spans = layer_spans(self.rec, call) if traced else nullcontext()
        try:
            with spans:
                res = cp_als(self.tensors[config.fmt], rank,
                             maxiters=CPALS_ITERS, tol=0.0, init=self.init,
                             callback=lambda it, fit: stamps.append(
                                 time.perf_counter_ns()),
                             **kwargs)
        except Exception as exc:  # noqa: BLE001 - reported, run continues
            if not samples.errors:
                import traceback

                traceback.print_exc()
            samples.errors.append(f"call {samples.calls - 1}: {exc!r}")
            return (time.perf_counter_ns() - start) / 1e9
        end = time.perf_counter_ns()
        samples.fits.append(list(res.fits))
        iters = [(stamps[k] - stamps[k - 1]) / 1e9
                 for k in range(1, len(stamps))]
        if not traced:
            samples.untraced.extend(iters)
            return (end - start) / 1e9
        self.rec.spans[call]["end"] = end
        samples.traced.extend(iters)
        layer_ids = range(first_span + 1, len(self.rec.spans))
        for k in range(1, len(stamps)):
            it = self.rec.add("cpals.iter", stamps[k - 1], stamps[k], call,
                              it=k)
            sums = {"mttkrp": 0.0, "dense": 0.0, "fit": 0.0}
            for sid in layer_ids:
                span = self.rec.spans[sid]
                if stamps[k - 1] <= span["start"] and span["end"] <= stamps[k]:
                    self.rec.set_parent(sid, it)
                    sums[span["name"]] += (span["end"] - span["start"]) / 1e9
            sums["other"] = iters[k - 1] - sum(sums.values())
            samples.layers.append(sums)
        return (end - start) / 1e9

    # ------------------------------------------------------------------
    # oracle and metrics
    # ------------------------------------------------------------------
    def check(self, corrupt: str = "") -> List[str]:
        """Compare every call's fit trajectory with the sequential COO
        reference, and require timed iterations of every configuration;
        returns one message per problem."""
        from repro.cpd.cp_als import cp_als

        ref = cp_als(self.tensors["coo"], RANK, maxiters=CPALS_ITERS, tol=0.0,
                     init=self.init).fits
        if corrupt == "fit":
            self.samples["hicoo"].fits[-1][-1] += 1e-6
        problems = [f"cpals {name}: no timed iterations"
                    for name, s in self.samples.items() if not s.untraced]
        for name, samples in self.samples.items():
            for i, fits in enumerate(samples.fits):
                if len(fits) != len(ref) or max(
                        abs(a - b) for a, b in zip(fits, ref)) > FIT_TOLERANCE:
                    problems.append(f"cpals {name} call {i}: fits {fits} "
                                    f"!= reference {ref}")
        return problems

    def attempted(self) -> int:
        return sum(s.calls for s in self.samples.values())

    def errors(self) -> List[str]:
        """One line per call that raised."""
        return [f"cpals {name} {err}" for name, s in self.samples.items()
                for err in s.errors]

    def end_to_end(self) -> Dict[str, float]:
        return {f"cpals_iter_s.{name}": _median(s.untraced)
                for name, s in self.samples.items()}

    def _layer_medians(self, name: str) -> Dict[str, float]:
        """Median untraced and traced iteration and layer self times."""
        s = self.samples[name]
        out = {k: _median(d[k] for d in s.layers)
               for k in ("mttkrp", "dense", "fit", "other")}
        out["untraced"], out["traced"] = _median(s.untraced), _median(s.traced)
        return out

    def per_layer(self, traffic: Dict[str, float]) -> Dict[str, float]:
        """Layer self times, their coverage of the untraced iteration, and
        the tracing overhead, from the traced calls."""
        out = {}
        fit_share, coverage, overhead = [], [], []
        pooled = {"dense": [], "fit": [], "other": []}
        for config in CONFIGS:
            m = self._layer_medians(config.name)
            out[f"mttkrp_s.{config.name}"] = m["mttkrp"]
            gbytes = traffic[f"mttkrp_mb.{config.fmt}"] / 1e3
            out[f"mttkrp_gbps.{config.name}"] = (
                gbytes / m["mttkrp"] if m["mttkrp"] else 0.0)
            for k in pooled:
                pooled[k].append(m[k])
            if m["untraced"]:
                fit_share.append(m["fit"] / m["untraced"])
                coverage.append((m["mttkrp"] + m["dense"] + m["fit"])
                                / m["untraced"])
                overhead.append(m["traced"] / m["untraced"])
        out["dense_s"] = _median(pooled["dense"])
        out["fit_s"] = _median(pooled["fit"])
        out["solver_other_s"] = _median(pooled["other"])
        out["fit_share"] = _median(fit_share)
        out["cpals.coverage"] = _median(coverage)
        out["cpals.trace_overhead"] = _median(overhead)
        return out

    def layer_table(self) -> List[str]:
        """Per-configuration rows of the traced breakdown."""
        rows = [f"{'config':<14}{'untraced':>10}{'traced':>10}{'mttkrp':>10}"
                f"{'dense':>10}{'fit':>10}{'other':>10}{'cover':>8}"
                f"{'ovhd':>8}"]
        for config in CONFIGS:
            m = self._layer_medians(config.name)
            u = m["untraced"] or float("nan")
            rows.append(
                f"{config.name:<14}"
                + "".join(f"{m[k]:>10.4f}" for k in (
                    "untraced", "traced", "mttkrp", "dense", "fit", "other"))
                + f"{(m['mttkrp'] + m['dense'] + m['fit']) / u:>8.3f}"
                f"{m['traced'] / u:>8.3f}")
        return rows
