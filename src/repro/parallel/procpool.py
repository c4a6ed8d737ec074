"""True multicore MTTKRP: a shared-memory process backend.

The GIL caps what the thread backend can overlap, so this module runs the
tasks of a :class:`~repro.kernels.region.Region` in worker *processes*:

* the region's source — HiCOO's compressed block arrays (``bptr``,
  ``binds``, ``einds``, ``values``) or a flat
  :class:`~repro.kernels.gather.TaskGather` (ALTO's mode or linear view) —
  and the dense factor matrices live in ``multiprocessing.shared_memory``
  segments, placed once per tensor and mapped zero-copy by every worker;
  workers rebuild each task from its runs (``build_task_gather`` over the
  blocks, :meth:`TaskGather.slice` of a flat view) and memoize it;
* each worker computes its task straight into the shared mode-``m``
  output — safe without locks because row-disjoint regions guarantee the
  tasks write disjoint output rows;
* privatized regions give each worker a private slab of one shared buffer
  and the parent reduces the slabs;
* workers are reused across calls (a warm pool keyed by worker count), so
  CP-ALS pays process start-up once per run, not once per iteration;
* per-task spans and counters measured inside the workers are shipped back
  over the result pipe and merged into the parent's tracer/registry.

Lifecycle: segments are created by a :class:`SharedMttkrpSession` (one per
tensor and worker count, cached on the tensor like the gather cache),
closed+unlinked by :func:`release_shared` or at interpreter exit.  Workers
attach segments by name and keep them mapped until shutdown; on Linux an
unlinked segment stays valid for already-attached processes, so teardown
order is safe.

See ``docs/parallel_backends.md`` for when to prefer which backend.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import traceback
import uuid
import weakref
import multiprocessing as mp
from dataclasses import dataclass
from multiprocessing import shared_memory
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics, trace
from .executor import ExecutionReport, TaskResult

__all__ = [
    "ShmArraySpec",
    "SharedTensorHandle",
    "SharedGatherHandle",
    "SharedMttkrpSession",
    "ProcPool",
    "WorkerTaskError",
    "get_pool",
    "shutdown_pools",
    "release_shared",
    "run_region",
    "run_generic_tasks",
    "default_start_method",
]

#: per-collect timeout (seconds); prevents a hung worker from deadlocking
#: CI.  Override with the REPRO_PROC_TIMEOUT environment variable.
DEFAULT_TIMEOUT = float(os.environ.get("REPRO_PROC_TIMEOUT", "120"))

#: workers cap their symbolic gather cache at this many entries
_WORKER_GATHER_CACHE_CAP = 256


def default_start_method() -> str:
    """``fork`` where available (fast start, inherited imports), else the
    platform default.  Override with REPRO_PROC_START."""
    env = os.environ.get("REPRO_PROC_START", "")
    if env:
        return env
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else mp.get_start_method()


# ----------------------------------------------------------------------
# shared-memory arrays
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShmArraySpec:
    """Picklable recipe for mapping an ndarray view over a shared segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    offset: int = 0

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach ``shm`` from this process's resource tracker.

    Attaching registers the segment with the tracker, which would warn about
    (or even unlink) segments the *parent* owns when a worker exits.  The
    parent arena is the single owner responsible for unlinking.
    """
    try:  # pragma: no cover - depends on CPython internals, best effort
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class ShmArena:
    """Owner of a set of shared segments (create, view, close, unlink)."""

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}

    def share(self, arr: np.ndarray) -> ShmArraySpec:
        """Copy ``arr`` into a fresh segment; returns its spec."""
        arr = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(1, arr.nbytes))
        self._segments[shm.name] = shm
        spec = ShmArraySpec(name=shm.name, shape=tuple(arr.shape),
                            dtype=arr.dtype.str)
        self.view(spec)[...] = arr
        return spec

    def alloc(self, shape, dtype=np.float64) -> ShmArraySpec:
        """Allocate a zeroed segment of the given logical shape."""
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self._segments[shm.name] = shm
        spec = ShmArraySpec(name=shm.name, shape=tuple(shape),
                            dtype=np.dtype(dtype).str)
        self.view(spec)[...] = 0
        return spec

    def view(self, spec: ShmArraySpec) -> np.ndarray:
        """Parent-side ndarray view of a spec over an owned segment."""
        shm = self._segments[spec.name]
        return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                          buffer=shm.buf, offset=spec.offset)

    def total_bytes(self) -> int:
        return sum(s.size for s in self._segments.values())

    def names(self) -> Tuple[str, ...]:
        """Names of the owned segments."""
        return tuple(self._segments)

    def free(self, spec: ShmArraySpec) -> None:
        """Close and unlink the segment behind ``spec``."""
        _unlink(self._segments.pop(spec.name))

    def close(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        for shm in self._segments.values():
            _unlink(shm)
        self._segments.clear()


def _unlink(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except Exception:  # pragma: no cover
        pass
    try:
        shm.unlink()
    except Exception:  # pragma: no cover - already unlinked
        pass


@dataclass(frozen=True)
class SharedTensorHandle:
    """Picklable handle to HiCOO block arrays placed in shared memory.

    ``key`` is unique per session and source; workers use it to key their
    symbolic gather caches, so a re-shared tensor never aliases stale
    entries.
    """

    key: str
    block_bits: int
    shape: Tuple[int, ...]
    bptr: ShmArraySpec
    binds: ShmArraySpec
    einds: ShmArraySpec
    values: ShmArraySpec

    def specs(self) -> Tuple[ShmArraySpec, ...]:
        return (self.bptr, self.binds, self.einds, self.values)

    def task_gather(self, attach, runs):
        """Worker side: the task over block ``runs``, rebuilt from the
        shared arrays."""
        from ..kernels.gather import build_task_gather

        return build_task_gather(_TensorView(self, attach), runs)


@dataclass(frozen=True)
class SharedGatherHandle:
    """Picklable handle to a flat :class:`~repro.kernels.gather.TaskGather`
    (ALTO's mode or linear view) placed in shared memory."""

    key: str
    ginds: ShmArraySpec
    values: ShmArraySpec
    sorted_modes: Tuple[bool, ...]
    format_name: str

    def specs(self) -> Tuple[ShmArraySpec, ...]:
        return (self.ginds, self.values)

    def task_gather(self, attach, runs):
        """Worker side: nonzeros ``[lo, hi)`` of the view, cut with the
        same :meth:`TaskGather.slice` the parent's task used."""
        from ..kernels.gather import TaskGather

        (lo, hi), = runs
        view = TaskGather(runs=((0, self.ginds.shape[0]),),
                          ginds=attach(self.ginds),
                          values=attach(self.values),
                          sorted_modes=np.array(self.sorted_modes),
                          format_name=self.format_name)
        return view.slice(lo, hi)


class _TensorView:
    """Worker-side zero-copy view satisfying the duck-typed HiCOO attribute
    contract of :func:`repro.kernels.gather.build_task_gather`."""

    __slots__ = ("bptr", "binds", "einds", "values", "block_bits", "shape")

    def __init__(self, handle: SharedTensorHandle, attach) -> None:
        self.bptr = attach(handle.bptr)
        self.binds = attach(handle.binds)
        self.einds = attach(handle.einds)
        self.values = attach(handle.values)
        self.block_bits = handle.block_bits
        self.shape = handle.shape


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _pack_events(events) -> list:
    """Serialize worker span events as plain tuples (SpanEvent is picklable,
    but tuples keep the pipe payload small and version-tolerant)."""
    return [(e.name, e.start_ns, e.dur_ns, e.depth, e.args, e.phase)
            for e in events]


def _worker_main(conn, worker_id: int) -> None:
    """Worker loop: attach shared arrays, run tasks, ship results back."""
    # a forked worker inherits the parent's tracer/registry state; start
    # clean so shipped events/counters are strictly this worker's own.
    # Metrics stay on regardless of the parent's flag at fork time: the
    # parent's merge is the single gate (it no-ops while disabled)
    trace.disable()
    trace.clear()
    metrics.reset()
    metrics.enable()

    from ..kernels.gather import mttkrp_gather_chunk

    shm_cache: Dict[str, shared_memory.SharedMemory] = {}
    array_cache: Dict[ShmArraySpec, np.ndarray] = {}
    gather_cache: Dict[tuple, object] = {}
    chaos_state = None  # ChaosState once a ("chaos", plan) message arrives
    task_seq = 0  # compute tasks executed by this worker slot (1-based)
    # shipped-metrics watermark: deltas are computed at reply-send time, so
    # a worker killed/hung/desynced before the send never marks its work as
    # shipped — the retried task re-ships exactly once from a fresh worker
    mstats_state: dict = {}

    def attach(spec: ShmArraySpec) -> np.ndarray:
        arr = array_cache.get(spec)
        if arr is None:
            shm = shm_cache.get(spec.name)
            if shm is None:
                shm = shared_memory.SharedMemory(name=spec.name)
                _untrack(shm)
                shm_cache[spec.name] = shm
            arr = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                             buffer=shm.buf, offset=spec.offset)
            array_cache[spec] = arr
        return arr

    def gather_for(handle, runs: tuple):
        ck = (handle.key, runs)
        tg = gather_cache.get(ck)
        if tg is None:
            if len(gather_cache) >= _WORKER_GATHER_CACHE_CAP:
                gather_cache.clear()
            tg = gather_cache[ck] = handle.task_gather(attach, runs)
        return tg

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        except KeyboardInterrupt:  # pragma: no cover - interactive abort
            break
        kind = msg[0]
        if kind == "shutdown":
            break
        if kind == "chaos":
            from ..testing import ChaosState

            chaos_state = ChaosState(msg[1], worker_id)
            task_seq = 0  # at_task counts from plan installation
            continue
        task_id = msg[1]
        directive = None
        if kind in ("mttkrp", "generic"):
            task_seq += 1
            if chaos_state is not None:
                directive = chaos_state.draw(task_seq)
        try:
            if directive is not None:
                if directive.kind == "raise":
                    from ..testing import ChaosError

                    raise ChaosError(
                        f"injected fault in worker {worker_id} "
                        f"(task #{task_seq})")
                if directive.kind in ("hang", "delay"):
                    # "hang": the parent's deadline fires long before this
                    # sleep ends and the worker is terminated mid-nap
                    time.sleep(directive.seconds)
            if kind == "mttkrp":
                (_, _, handle, factor_specs, mode, runs,
                 out_spec, row_local, want_trace, reset) = msg
                if want_trace:
                    trace.enable(clear=True)
                t0 = time.perf_counter()
                with trace.span("procpool.task", worker=worker_id,
                                mode=mode, pid=os.getpid()):
                    factors = [attach(s) for s in factor_specs]
                    out = attach(out_spec)
                    tg = gather_for(handle, runs)
                    if reset:
                        # a retried task re-runs idempotently: zero what it
                        # owns first.  Row-local tasks own exactly the rows
                        # they scatter into (the lock-free schedule keeps
                        # them disjoint across tasks); privatized tasks own
                        # their whole slab.
                        if row_local:
                            out[tg.reduction(mode).rows] = 0.0
                        else:
                            out[...] = 0.0
                    backend = mttkrp_gather_chunk(tg, factors, mode, out)
                elapsed = time.perf_counter() - t0
                events = None
                if want_trace:
                    events = _pack_events(trace.events())
                    trace.disable()
                    trace.clear()
                if directive is not None and directive.kind == "kill":
                    os._exit(137)
                if directive is not None and directive.kind == "corrupt":
                    conn.send(("garbled",))
                    continue
                mstats = metrics.get_registry().collect_deltas(mstats_state)
                conn.send(("ok", task_id, elapsed, backend, tg.nnz, events,
                           mstats))
            elif kind == "generic":
                _, _, fn = msg
                t0 = time.perf_counter()
                value = fn()
                elapsed = time.perf_counter() - t0
                if directive is not None and directive.kind == "kill":
                    os._exit(137)
                if directive is not None and directive.kind == "corrupt":
                    conn.send(("garbled",))
                    continue
                mstats = metrics.get_registry().collect_deltas(mstats_state)
                conn.send(("ok", task_id, elapsed, value, 0, None, mstats))
            elif kind == "ping":
                conn.send(("ok", task_id, 0.0, "pong", 0, None, []))
            else:
                raise ValueError(f"unknown worker message {kind!r}")
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            tb = "".join(traceback.format_exception(type(exc), exc,
                                                    exc.__traceback__))
            try:
                conn.send(("err", task_id, exc, tb))
            except Exception:
                # unpicklable exception object: ship a reconstructible stub
                conn.send(("err", task_id,
                           RuntimeError(f"{type(exc).__name__}: {exc}"), tb))


# ----------------------------------------------------------------------
# exception plumbing (original traceback chained across the process gap)
# ----------------------------------------------------------------------
class _RemoteTraceback(Exception):
    """Carrier for a worker-side traceback, chained as ``__cause__``."""

    def __init__(self, tb: str) -> None:
        super().__init__(tb)
        self.tb = tb

    def __str__(self) -> str:
        return "\n" + self.tb


class WorkerTaskError(RuntimeError):
    """A worker task failed; the remote traceback is in ``__cause__``."""


def _raise_remote(task_id: int, exc: BaseException, tb: str):
    """Re-raise a worker exception, preserving its type where possible and
    always chaining the formatted remote traceback."""
    exc.__cause__ = _RemoteTraceback(tb)
    raise exc


# ----------------------------------------------------------------------
# warm worker pool
# ----------------------------------------------------------------------
class ProcPool:
    """A fixed set of long-lived worker processes connected by pipes.

    Tasks are addressed to a specific worker (the MTTKRP path pins task
    ``t`` to worker ``t`` so privatized slabs stay worker-local) and results
    are collected with :meth:`collect`, which fails fast on worker errors
    and death.
    """

    def __init__(self, nworkers: int,
                 start_method: Optional[str] = None) -> None:
        if nworkers < 1:
            raise ValueError(f"nworkers must be positive, got {nworkers}")
        self.nworkers = nworkers
        # one submit->collect region at a time: task ids are region-local,
        # so two threads interleaving on the same pool would cross-attribute
        # replies.  Region callers (SharedMttkrpSession.run,
        # run_generic_tasks) hold this for their whole region; the serve
        # daemon's concurrent executors therefore share warm pools safely.
        self.region_lock = threading.RLock()
        self.start_method = start_method or default_start_method()
        self._ctx = mp.get_context(self.start_method)
        self._procs: List[mp.Process] = []
        self._conns = []
        for wid in range(nworkers):
            proc, conn = self._spawn(wid)
            self._procs.append(proc)
            self._conns.append(conn)
        self._closed = False
        metrics.inc("procpool.workers_started", nworkers)

    def _spawn(self, wid: int):
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_main, args=(child_conn, wid),
                                 daemon=True, name=f"repro-procpool-{wid}")
        proc.start()
        child_conn.close()
        return proc, parent_conn

    @property
    def alive(self) -> bool:
        return (not self._closed
                and all(p.is_alive() for p in self._procs))

    def worker_alive(self, worker_id: int) -> bool:
        return not self._closed and self._procs[worker_id].is_alive()

    def submit(self, worker_id: int, msg: tuple) -> None:
        self._conns[worker_id].send(msg)

    def install_chaos(self, plan) -> None:
        """Ship a :class:`repro.testing.ChaosPlan` to every *current*
        worker.  Pipes are FIFO, so the plan is in place before any task
        submitted afterwards; respawned workers get no plan (directives are
        one-shot by construction)."""
        for conn in self._conns:
            conn.send(("chaos", plan))

    def respawn(self, worker_id: int) -> None:
        """Replace one worker slot with a fresh process on a fresh pipe.

        The dead/hung worker is terminated and its pipe closed, so no stale
        reply can ever be attributed to a later task.  The new worker
        re-attaches shared segments lazily by name on its first task (an
        unlinked-later segment stays valid for attachers on Linux)."""
        old = self._procs[worker_id]
        if old.is_alive():
            old.terminate()
        old.join(timeout=5.0)
        if old.is_alive():  # pragma: no cover - SIGTERM ignored
            old.kill()
            old.join(timeout=5.0)
        try:
            self._conns[worker_id].close()
        except OSError:  # pragma: no cover
            pass
        proc, conn = self._spawn(worker_id)
        self._procs[worker_id] = proc
        self._conns[worker_id] = conn
        metrics.inc("procpool.workers_respawned")

    def poll_events(self, worker_ids, timeout: float):
        """Wait up to ``timeout`` seconds for activity on the given workers.

        Returns ``[(worker_id, kind, payload)]`` where kind is ``"msg"``
        (payload = the received message) or ``"dead"`` (pipe EOF — the
        worker process died).  An empty list means the wait timed out: the
        supervisor's deadline logic decides who is hung."""
        conns = {self._conns[w]: w for w in set(worker_ids)}
        events = []
        for conn in _conn_wait(list(conns), timeout=max(0.0, timeout)):
            wid = conns[conn]
            try:
                events.append((wid, "msg", conn.recv()))
            except (EOFError, OSError):
                events.append((wid, "dead", None))
        return events

    def collect(self, expected: Dict[int, int],
                timeout: Optional[float] = None) -> Dict[int, tuple]:
        """Collect one response per (task_id -> worker_id) in ``expected``.

        Returns ``{task_id: (elapsed, value, nnz, events, mstats)}`` where
        ``mstats`` is the worker's metric-delta list (see
        :meth:`repro.obs.metrics.MetricsRegistry.collect_deltas`).  Every
        outstanding response is drained before raising (so the pool stays
        reusable), then the first failure in task order is re-raised with
        its remote traceback chained.
        """
        timeout = DEFAULT_TIMEOUT if timeout is None else timeout
        deadline = time.monotonic() + timeout
        pending: Dict[object, List[int]] = {}
        for task_id, wid in expected.items():
            pending.setdefault(self._conns[wid], []).append(task_id)
        results: Dict[int, tuple] = {}
        errors: Dict[int, tuple] = {}
        outstanding = set(expected)
        while outstanding:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._abandon()
                raise TimeoutError(
                    f"process backend timed out after {timeout:.0f}s waiting "
                    f"for tasks {sorted(outstanding)}")
            for conn in _conn_wait(list(pending), timeout=remaining):
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._abandon()
                    raise RuntimeError(
                        "a procpool worker died mid-task (pipe closed); "
                        "the pool has been shut down") from None
                if (not isinstance(msg, tuple) or len(msg) < 2
                        or msg[0] not in ("ok", "err")):
                    # protocol desync (e.g. an injected corrupt reply):
                    # the worker can no longer be trusted — fail fast
                    self._abandon()
                    raise RuntimeError(
                        "a procpool worker sent a malformed reply "
                        f"({msg!r}); the pool has been shut down")
                status, task_id = msg[0], msg[1]
                outstanding.discard(task_id)
                waiting = pending[conn]
                waiting.remove(task_id)
                if not waiting:
                    del pending[conn]
                if status == "ok":
                    if len(msg) != 7:
                        self._abandon()
                        raise RuntimeError(
                            "a procpool worker sent a malformed ok reply "
                            f"(length {len(msg)}); the pool has been shut "
                            "down")
                    _, _, elapsed, value, nnz, events, mstats = msg
                    results[task_id] = (elapsed, value, nnz, events, mstats)
                else:
                    _, _, exc, tb = msg
                    errors[task_id] = (exc, tb)
        if errors:
            task_id = min(errors)
            exc, tb = errors[task_id]
            metrics.inc("procpool.task_errors", len(errors))
            _raise_remote(task_id, exc, tb)
        return results

    def _abandon(self) -> None:
        """Hard-kill the pool (worker death / timeout); drop it from the
        warm cache so the next call builds a fresh one."""
        with _POOLS_LOCK:
            if _POOLS.get((self.nworkers, self.start_method)) is self:
                _POOLS.pop((self.nworkers, self.start_method), None)
        self.shutdown(grace=0.2)

    def shutdown(self, grace: float = 2.0) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("shutdown",))
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=grace)
            if proc.is_alive():  # pragma: no cover - unresponsive worker
                proc.terminate()
                proc.join(timeout=grace)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass


_POOLS: Dict[Tuple[int, str], ProcPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(nworkers: int, start_method: Optional[str] = None) -> ProcPool:
    """Warm-start pool cache: one living pool per (nworkers, start method).

    Reuse is what amortizes process start-up across CP-ALS iterations; the
    ``procpool.pool_reuses`` counter proves it in the metrics report.
    Thread-safe: concurrent serve-daemon executors get the same warm pool
    (and serialize their regions on its ``region_lock``).
    """
    start_method = start_method or default_start_method()
    key = (nworkers, start_method)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is not None and pool.alive:
            metrics.inc("procpool.pool_reuses")
            return pool
        if pool is not None:
            pool.shutdown(grace=0.2)
        pool = ProcPool(nworkers, start_method=start_method)
        _POOLS[key] = pool
        return pool


def shutdown_pools() -> None:
    """Stop every warm pool (tests and interpreter exit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


# ----------------------------------------------------------------------
# per-tensor shared session
# ----------------------------------------------------------------------
_LIVE_SESSIONS: "weakref.WeakSet" = weakref.WeakSet()


class SharedMttkrpSession:
    """Shared-memory residency of one tensor's region sources plus its dense
    operands.

    Created once per (tensor, nworkers) and cached on the tensor.  Each
    source a region runs over — HiCOO's block arrays, or one of ALTO's flat
    views — is copied into shared segments the first time a region uses it;
    factor slots are rewritten in place every call (a memcpy, no pickling),
    and the output/privatized slabs are recycled across modes and
    iterations.  The slots are sized by the largest rank seen: a smaller
    rank uses a ``(rows, R)`` prefix view, so mixed-rank request streams
    do not grow the arena.

    **Ownership.** The factor slots and output/privatized slabs are
    single-occupancy, so concurrent callers (the serve daemon's executor
    threads) serialize each call on the session's execution lock, and the
    session is *refcounted*: :meth:`acquire`/:meth:`release` bracket every
    use, and :meth:`close` while references are held only *marks* the
    session for teardown — the arena is unlinked by the last
    :meth:`release`.  Unregistering a tensor mid-job therefore never pulls
    shared segments out from under a running kernel.
    """

    def __init__(self, tensor, nworkers: int) -> None:
        self.nworkers = nworkers
        self.arena = ShmArena()
        self.shape = tuple(tensor.shape)
        #: id(source) -> (weakref to the source, handle); the weakref tells
        #: a live source from a new object that reuses a dead one's id
        self._sources: Dict[int, tuple] = {}
        self.rank: Optional[int] = None
        self.factor_specs: List[ShmArraySpec] = []
        self._capacity = 0  # the rank the slots are sized for
        self._factor_slots: List[ShmArraySpec] = []
        self._out_spec: Optional[ShmArraySpec] = None
        self._priv_spec: Optional[ShmArraySpec] = None
        self._closed = False
        self._refs = 0
        self._pending_close = False
        self._state_lock = threading.Lock()
        self._exec_lock = threading.RLock()
        _LIVE_SESSIONS.add(self)
        metrics.inc("procpool.sessions")

    def _gauge(self) -> None:
        metrics.set_gauge("procpool.shared_bytes", self.arena.total_bytes())

    # -- shared sources ------------------------------------------------
    def share(self, source):
        """The handle of ``source`` (block arrays or a flat TaskGather),
        copied into shared memory on first use."""
        entry = self._sources.get(id(source))
        if entry is None or entry[0]() is not source:
            key = uuid.uuid4().hex
            if hasattr(source, "bptr"):
                handle = SharedTensorHandle(
                    key=key, block_bits=source.block_bits, shape=self.shape,
                    bptr=self.arena.share(source.bptr),
                    binds=self.arena.share(source.binds),
                    einds=self.arena.share(source.einds),
                    values=self.arena.share(source.values))
            else:
                handle = SharedGatherHandle(
                    key=key, ginds=self.arena.share(source.ginds),
                    values=self.arena.share(source.values),
                    sorted_modes=tuple(bool(f) for f in source.sorted_modes),
                    format_name=source.format_name)
            entry = self._sources[id(source)] = (weakref.ref(source), handle)
            self._gauge()
        return entry[1]

    # -- dense operand slots ------------------------------------------
    def ensure_rank(self, rank: int) -> None:
        """Point the factor and output slots at decomposition rank R.

        The slots are reallocated only when R exceeds every rank seen so
        far (the replaced segments are unlinked); smaller ranks use a
        ``(rows, R)`` prefix of each slot."""
        if rank > self._capacity:
            for spec in self._factor_slots + [self._out_spec,
                                              self._priv_spec]:
                if spec is not None:
                    self.arena.free(spec)
            self._capacity = rank
            self._factor_slots = [self.arena.alloc((dim, rank))
                                  for dim in self.shape]
            self._out_spec = self.arena.alloc((max(self.shape), rank))
            self._priv_spec = None  # lazily sized on first privatized call
            self._gauge()
        if rank != self.rank:
            self.rank = rank
            self.factor_specs = [ShmArraySpec(name=s.name, shape=(dim, rank),
                                              dtype=s.dtype)
                                 for s, dim in zip(self._factor_slots,
                                                   self.shape)]

    def _out_view(self, rows: int) -> Tuple[ShmArraySpec, np.ndarray]:
        spec = ShmArraySpec(name=self._out_spec.name, shape=(rows, self.rank),
                            dtype=self._out_spec.dtype)
        return spec, self.arena.view(spec)

    def _priv_views(self, rows: int):
        """Per-worker (spec, view) pairs into the privatized slab."""
        maxrows = max(self.shape)
        if self._priv_spec is None:
            self._priv_spec = self.arena.alloc(
                (self.nworkers, maxrows, self._capacity))
            self._gauge()
        stride = (maxrows * self._capacity
                  * np.dtype(self._priv_spec.dtype).itemsize)
        pairs = []
        for t in range(self.nworkers):
            spec = ShmArraySpec(name=self._priv_spec.name,
                                shape=(rows, self.rank),
                                dtype=self._priv_spec.dtype,
                                offset=t * stride)
            pairs.append((spec, self.arena.view(spec)))
        return pairs

    # -- execution -----------------------------------------------------
    def run(self, pool: ProcPool, factors: Sequence[np.ndarray], mode: int,
            source, thread_runs, row_local: bool, fault_config):
        """One parallel MTTKRP: task ``t`` runs ``thread_runs[t]`` over
        ``source`` on worker ``t``, into the shared output (``row_local``:
        the tasks own disjoint rows) or its private slab.

        Returns ``(output, report)`` where ``output`` is an owned
        (non-shared) array and ``report`` an :class:`ExecutionReport` built
        from worker-measured task times, valued by the scatter backend each
        task used.

        ``fault_config`` is a resolved
        :class:`repro.parallel.supervisor.FaultConfig`; with a ``retry`` or
        ``degrade`` policy the region runs under a
        :class:`~repro.parallel.supervisor.Supervisor` instead of the
        fail-fast :meth:`ProcPool.collect`.

        Safe to call from multiple threads: the call holds a reference on
        the session (deferring any concurrent teardown), the session's
        execution lock (the factor/output slots are single-occupancy), and
        the pool's region lock (task ids are region-local) for its whole
        duration.
        """
        self.acquire()
        try:
            with self._exec_lock, pool.region_lock:
                return self._run_locked(pool, factors, mode, source,
                                        thread_runs, row_local, fault_config)
        finally:
            self.release()

    def _run_locked(self, pool: ProcPool, factors: Sequence[np.ndarray],
                    mode: int, source, thread_runs, row_local: bool,
                    fault_config):
        rank = factors[0].shape[1]
        handle = self.share(source)
        self.ensure_rank(rank)
        rows = self.shape[mode]
        for spec, factor in zip(self.factor_specs, factors):
            self.arena.view(spec)[...] = factor

        from ..testing import take_chaos_plan

        chaos_plan = take_chaos_plan()
        if chaos_plan is not None:
            pool.install_chaos(chaos_plan)

        want_trace = trace.enabled()
        if row_local:
            out_spec, out_view = self._out_view(rows)
            out_view[...] = 0.0
            targets = [(out_spec, out_view)] * len(thread_runs)
        else:
            targets = self._priv_views(rows)
            for _, view in targets:
                view[...] = 0.0

        def msg_builder(t, runs, target_spec):
            def build(reset: bool) -> tuple:
                return ("mttkrp", t, handle, self.factor_specs, mode,
                        tuple(tuple(r) for r in runs), target_spec,
                        row_local, want_trace, reset)
            return build

        builders = {t: msg_builder(t, runs, targets[t][0])
                    for t, runs in enumerate(thread_runs)}

        if fault_config.policy != "fail-fast":
            from .supervisor import Supervisor

            sup = Supervisor(pool, fault_config)
            results = sup.run({t: (t, build)
                               for t, build in builders.items()})
        else:
            expected: Dict[int, int] = {}
            for t, build in builders.items():
                pool.submit(t, build(False))
                expected[t] = t
            results = pool.collect(expected)

        report = ExecutionReport(backend="process")
        reg = metrics.get_registry()
        for t in sorted(results):
            elapsed, backend, nnz, events, mstats = results[t]
            report.results.append(TaskResult(tid=t, elapsed=elapsed,
                                             value=backend))
            if reg.enabled:
                reg.inc("procpool.tasks")
                reg.observe("procpool.task_seconds", elapsed,
                            labels={"worker": f"proc-{t}"})
                # nnz/scatter accounting arrives via the worker's own
                # metric deltas (merged below as worker="proc-N" series);
                # the parent adds nothing, so nothing double-counts
                reg.merge_deltas(mstats, {"worker": f"proc-{t}"})
            if events:
                _ingest_worker_events(events, t)
        if reg.enabled:
            reg.set_gauge("procpool.load_imbalance", report.load_imbalance())

        if row_local:
            output = np.array(targets[0][1], copy=True)
        else:
            output = np.zeros((rows, rank))
            for _, view in targets:
                output += view
        return output, report

    # -- lifecycle -----------------------------------------------------
    def structure_specs(self) -> Tuple[ShmArraySpec, ...]:
        """The shared segments holding the tensor's region sources."""
        return tuple(spec for _, handle in self._sources.values()
                     for spec in handle.specs())

    def acquire(self) -> "SharedMttkrpSession":
        """Take a reference; the arena stays mapped until :meth:`release`."""
        with self._state_lock:
            if self._closed:
                raise RuntimeError("session used after release_shared()")
            self._refs += 1
            return self

    def release(self) -> None:
        """Drop a reference; the last release of a close-marked session
        unlinks the arena."""
        with self._state_lock:
            self._refs = max(0, self._refs - 1)
            do_close = self._refs == 0 and self._pending_close
        if do_close:
            self.close()

    @property
    def refcount(self) -> int:
        with self._state_lock:
            return self._refs

    def close(self) -> None:
        """Tear the arena down — deferred to the last :meth:`release` while
        references are held (never blocks the caller)."""
        with self._state_lock:
            if self._closed:
                return
            if self._refs > 0:
                self._pending_close = True
                metrics.inc("procpool.session_close_deferred")
                return
            self._closed = True
        self.arena.close()

    def __del__(self) -> None:  # pragma: no cover - GC order dependent
        try:
            self.close()
        except Exception:
            pass


def _ingest_worker_events(packed: list, worker_id: int) -> None:
    """Merge shipped worker span events into the parent tracer.

    Linux ``perf_counter_ns`` is CLOCK_MONOTONIC — system-wide — so worker
    timestamps land on the parent timeline unadjusted; each worker gets its
    own synthetic thread lane.
    """
    events = [trace.SpanEvent(name=name, start_ns=start_ns, dur_ns=dur_ns,
                              thread=-(worker_id + 1), depth=depth,
                              args=args, phase=phase)
              for name, start_ns, dur_ns, depth, args, phase in packed]
    trace.ingest(events)


_SESSIONS_LOCK = threading.Lock()


def _session_for(tensor, nworkers: int) -> SharedMttkrpSession:
    with _SESSIONS_LOCK:
        sessions = tensor.__dict__.setdefault("_proc_sessions", {})
        session = sessions.get(nworkers)
        if session is None or session._closed or session._pending_close:
            session = sessions[nworkers] = SharedMttkrpSession(tensor,
                                                               nworkers)
        else:
            metrics.inc("procpool.session_reuses")
        return session


def release_shared(tensor) -> None:
    """Close and unlink every shared-memory session of ``tensor``.

    Sessions still referenced by an in-flight call (the serve daemon's
    concurrent jobs) are marked for teardown and unlinked by the job's
    closing :meth:`SharedMttkrpSession.release` instead — the call never
    blocks and never breaks a running kernel.
    """
    with _SESSIONS_LOCK:
        sessions = dict(tensor.__dict__.get("_proc_sessions") or {})
        (tensor.__dict__.get("_proc_sessions") or {}).clear()
    for session in sessions.values():
        session.close()


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_region(region, factors: Sequence[np.ndarray], fault_config):
    """Run a :class:`~repro.kernels.region.Region` on real cores: one
    worker per task, over the tensor's shared session.

    ``fault_config`` is a resolved
    :class:`repro.parallel.supervisor.FaultConfig`; see
    ``docs/fault_tolerance.md``.  With ``"degrade"``, exhausted recovery
    budgets surface as :class:`~repro.parallel.supervisor.DegradedExecution`,
    which :func:`repro.kernels.mttkrp.execute` turns into a fallback-backend
    run of the same region.  Returns ``(output, report)`` as
    :meth:`SharedMttkrpSession.run`.
    """
    nworkers = region.nthreads
    with trace.span("mttkrp.process", mode=region.mode, nworkers=nworkers,
                    strategy=region.strategy, format=region.format,
                    fault_policy=fault_config.policy):
        pool = get_pool(nworkers)
        session = _session_for(region.tensor, nworkers)
        result = session.run(pool, factors, region.mode, region.source,
                             region.runs, region.output == "shared",
                             fault_config)
    metrics.inc("procpool.calls")
    return result


def run_generic_tasks(tasks, nworkers: Optional[int] = None,
                      start_method: Optional[str] = None,
                      timeout: Optional[float] = None,
                      fault_policy=None) -> ExecutionReport:
    """Generic process execution of picklable zero-arg callables.

    The task's return value must be picklable too; side effects on captured
    objects do *not* propagate back (workers run on copies) — which is why
    the MTTKRP path uses shared memory instead of this entry point.

    ``fault_policy="retry"`` runs the region under a
    :class:`~repro.parallel.supervisor.Supervisor` (generic tasks must then
    be safe to re-execute); ``"degrade"`` additionally falls back to
    running the *whole region* sequentially in the parent when the recovery
    budget is exhausted.
    """
    from ..testing import take_chaos_plan
    from .supervisor import DegradedExecution, FaultConfig, Supervisor

    tasks = list(tasks)
    report = ExecutionReport(backend="process")
    if not tasks:
        return report
    fault_config = FaultConfig.resolve(fault_policy)
    nworkers = min(len(tasks), nworkers or len(tasks))
    pool = get_pool(nworkers, start_method=start_method)
    chaos_plan = take_chaos_plan()
    if chaos_plan is not None:
        pool.install_chaos(chaos_plan)

    def msg_builder(i, task):
        def build(reset: bool) -> tuple:
            return ("generic", i, task)
        return build

    def submit(wid: int, msg: tuple) -> None:
        try:
            pool.submit(wid, msg)
        except (AttributeError, TypeError, ValueError) as exc:
            raise TypeError(
                "process-backend tasks must be picklable zero-arg callables "
                "(module-level functions or functools.partial of them); "
                f"task {msg[1]} failed to serialize: {exc}") from exc

    supervised = fault_config.policy != "fail-fast"
    try:
        with pool.region_lock:
            if supervised:
                sup = Supervisor(pool, fault_config, deadline=timeout,
                                 submit=submit)
                results = sup.run({i: (i % nworkers, msg_builder(i, task))
                                   for i, task in enumerate(tasks)})
            else:
                expected: Dict[int, int] = {}
                for i, task in enumerate(tasks):
                    wid = i % nworkers
                    submit(wid, ("generic", i, task))
                    expected[i] = wid
                results = pool.collect(expected, timeout=timeout)
    except DegradedExecution as exc:
        # recovery budget exhausted: run the whole region inline — generic
        # tasks have no shared output, so a clean sequential pass is exact
        from ..util.log import get_logger

        get_logger("repro.supervisor").warning(
            "process backend degraded to inline execution: %s", exc)
        metrics.inc("supervisor.degradations")
        trace.instant("supervisor.degrade", reason=str(exc))
        for i, task in enumerate(tasks):
            t0 = time.perf_counter()
            value = task()
            report.results.append(TaskResult(
                tid=i, elapsed=time.perf_counter() - t0, value=value))
        report.backend = "sim"
        return report
    reg = metrics.get_registry()
    for i in sorted(results):
        elapsed, value = results[i][0], results[i][1]
        report.results.append(TaskResult(tid=i, elapsed=elapsed, value=value))
        if reg.enabled and len(results[i]) > 4:
            reg.merge_deltas(results[i][4],
                             {"worker": f"proc-{i % nworkers}"})
    if reg.enabled:
        reg.inc("executor.regions", labels={"backend": "process"})
        reg.inc("executor.tasks", len(tasks), labels={"backend": "process"})
        reg.set_gauge("executor.load_imbalance", report.load_imbalance(),
                      labels={"backend": "process"})
        for r in report.results:
            reg.observe("executor.task_seconds", r.elapsed,
                        labels={"backend": "process"})
    return report


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    try:
        shutdown_pools()
    except Exception:
        pass
    for session in list(_LIVE_SESSIONS):
        try:
            session.close()
        except Exception:
            pass
