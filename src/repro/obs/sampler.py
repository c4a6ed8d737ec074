"""Threading-based sampling profiler with flamegraph-ready output.

The deterministic tracer answers "how long did phase X take"; this module
answers "*where inside* phase X did the time go" without instrumenting
anything.  A daemon thread polls :func:`sys._current_frames` every
``interval`` seconds (py-spy style — no ``sys.setprofile`` hook, so the
profiled code runs at full speed between samples) and folds each observed
call stack into a collapsed-stack histogram::

    cli.bench;mttkrp_parallel;execute;mttkrp_gather_chunk;scatter_add 184

which is exactly the format Brendan Gregg's ``flamegraph.pl`` and
speedscope's "collapsed" importer consume.  When the span tracer is
enabled, every sample is prefixed with the sampled thread's open-span
stack, so flamegraph frames nest under the trace's phase names and the
two views reconcile.

Overhead is bounded by construction: work per sample is O(stack depth)
dict updates on the *sampler* thread; the workload threads only pay GIL
handoffs.  The ``--profile`` CLI budget is <5% on a warm MTTKRP loop,
enforced by ``benchmarks/check_obs.py``.

Usage::

    from repro.obs.sampler import SamplingProfiler

    with SamplingProfiler(interval=0.005) as prof:
        run_workload()
    prof.save("profile.folded")          # feed to flamegraph.pl
    print(prof.top(10))
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Tuple

from . import metrics, trace

__all__ = ["SamplingProfiler", "profile"]

#: frames from these modules are sampler/infrastructure noise, not workload
_SKIP_MODULES = ("repro.obs.sampler",)

#: cap walked stack depth (runaway recursion safety)
_MAX_DEPTH = 128


def _frame_label(frame) -> str:
    """``module.qualname`` for one frame (short, grep-able, stable)."""
    code = frame.f_code
    mod = frame.f_globals.get("__name__", "?")
    func = getattr(code, "co_qualname", None) or code.co_name
    return f"{mod}.{func}"


class SamplingProfiler:
    """Periodic stack sampler over :func:`sys._current_frames`.

    Parameters
    ----------
    interval : seconds between samples (default 5 ms -> ~200 Hz).
    scope : optional root frame prepended to every collapsed stack (the
        CLI passes the subcommand name).
    all_threads : sample every live thread; by default only the thread
        that called :meth:`start` (the workload thread) is sampled, so
        idle helper threads (metrics server, pool pipes) don't pollute
        the flamegraph.
    """

    def __init__(self, interval: float = 0.005, scope: Optional[str] = None,
                 all_threads: bool = False) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.scope = scope
        self.all_threads = all_threads
        self.samples: Dict[str, int] = {}
        self.nsamples = 0
        self._targets: set = set()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        if not self.all_threads:
            self._targets = {threading.get_ident()}
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        metrics.inc("sampler.runs")
        metrics.inc("sampler.samples", self.nsamples)

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # sampling loop (runs on the daemon thread)
    # ------------------------------------------------------------------
    def _run(self) -> None:
        own = threading.get_ident()
        tracer = trace.get_tracer()
        while not self._stop.wait(self.interval):
            for ident, frame in sys._current_frames().items():
                if ident == own:
                    continue
                if self._targets and ident not in self._targets:
                    continue
                stack: List[str] = []
                f, skip = frame, False
                while f is not None and len(stack) < _MAX_DEPTH:
                    label = _frame_label(f)
                    if label.startswith(_SKIP_MODULES):
                        skip = True
                        break
                    stack.append(label)
                    f = f.f_back
                if skip or not stack:
                    continue
                stack.reverse()
                prefix: List[str] = []
                if self.scope:
                    prefix.append(self.scope)
                if tracer.enabled:
                    prefix.extend(tracer.open_spans(ident))
                key = ";".join(prefix + stack)
                self.samples[key] = self.samples.get(key, 0) + 1
                self.nsamples += 1

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``frame;frame;... count``), most-sampled
        first — pipe to ``flamegraph.pl`` or load in speedscope."""
        return [f"{stack} {count}"
                for stack, count in sorted(self.samples.items(),
                                           key=lambda kv: (-kv[1], kv[0]))]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            for line in self.collapsed():
                fh.write(line + "\n")

    def top(self, n: int = 10) -> List[Tuple[str, float]]:
        """``(leaf frame, fraction of samples)`` for the hottest leaves."""
        leaves: Dict[str, int] = {}
        for stack, count in self.samples.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        total = self.nsamples or 1
        ranked = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(leaf, count / total) for leaf, count in ranked[:n]]


def profile(interval: float = 0.005,
            scope: Optional[str] = None) -> SamplingProfiler:
    """Started profiler as a context manager (sugar over the class)."""
    return SamplingProfiler(interval=interval, scope=scope).start()
