"""Unit + regression tests for the process pool and executor backends.

Covers the parts of the process backend that the differential fuzz suite
does not exercise: exception propagation with original tracebacks
(fail-fast, every backend), the generic picklable-task entry, warm
pool/session reuse, shared-segment lifecycle (no leaks after release),
and per-worker observability export.
"""

from __future__ import annotations

import traceback
from functools import partial
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.hicoo import HicooTensor
from repro.formats.alto import AltoTensor
from repro.kernels.mttkrp import mttkrp_parallel
from repro.obs import metrics, trace
from repro.parallel import procpool
from repro.parallel.executor import (BACKENDS, resolve_backend, run_tasks)
from tests.conftest import make_random_coo


@pytest.fixture(scope="module", autouse=True)
def _teardown():
    yield
    procpool.shutdown_pools()


# ----------------------------------------------------------------------
# module-level helpers (process tasks must be picklable)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _boom_worker():
    raise KeyError("exploded in a worker")


def _boom_local():
    raise KeyError("exploded locally")


def _sleep_return(x):
    return x + 1


# ----------------------------------------------------------------------
# resolve_backend
# ----------------------------------------------------------------------
def test_resolve_backend():
    assert resolve_backend(None) == "sim"
    assert resolve_backend("seq") == "sim"
    assert resolve_backend("sequential") == "sim"
    for b in BACKENDS:
        assert resolve_backend(b) == b
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("mpi")


# ----------------------------------------------------------------------
# exception propagation: original traceback, fail fast, every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["sim", "thread"])
def test_run_tasks_propagates_with_original_traceback(backend):
    tasks = [partial(_sleep_return, 1), _boom_local, partial(_sleep_return, 2)]
    with pytest.raises(KeyError, match="exploded locally") as ei:
        run_tasks(tasks, backend=backend)
    # the frame that raised must be visible in the chained traceback
    tb = "".join(traceback.format_exception(ei.value))
    assert "_boom_local" in tb, f"original frame lost:\n{tb}"


def test_run_tasks_process_propagates_remote_traceback():
    tasks = [partial(_square, 3), _boom_worker, partial(_square, 4)]
    with pytest.raises(KeyError, match="exploded in a worker") as ei:
        run_tasks(tasks, backend="process", nworkers=2)
    # the worker-side traceback rides along as the __cause__
    cause = ei.value.__cause__
    assert cause is not None
    assert "_boom_worker" in str(cause)
    # the pool must survive a failed region and stay usable
    report = run_tasks([partial(_square, i) for i in range(3)],
                       backend="process", nworkers=2)
    assert report.values() == [0, 1, 4]


def test_run_tasks_thread_legacy_flag_still_works():
    report = run_tasks([partial(_sleep_return, i) for i in range(4)],
                       backend="thread")
    assert report.backend == "thread"
    assert report.values() == [1, 2, 3, 4]


# ----------------------------------------------------------------------
# generic process tasks
# ----------------------------------------------------------------------
def test_run_generic_tasks_results_in_task_order():
    report = run_tasks([partial(_square, i) for i in range(7)],
                       backend="process", nworkers=3)
    assert report.backend == "process"
    assert report.values() == [i * i for i in range(7)]
    assert report.nthreads == 7
    assert all(r.elapsed >= 0.0 for r in report.results)


def test_run_generic_tasks_rejects_closures():
    captured = {"x": 1}

    def closure():
        return captured["x"]

    with pytest.raises(TypeError, match="picklable"):
        run_tasks([closure], backend="process")


def test_run_tasks_empty():
    assert run_tasks([], backend="process").values() == []
    assert run_tasks([], backend="sim").values() == []


# ----------------------------------------------------------------------
# warm pool + shared-session lifecycle
# ----------------------------------------------------------------------
def _make_hicoo(seed=0):
    coo = make_random_coo((16, 14, 12), nnz=150, seed=seed)
    return HicooTensor(coo, block_bits=2)


def test_warm_pool_and_session_reuse_counters():
    hic = _make_hicoo()
    rng = np.random.default_rng(0)
    factors = [rng.random((s, 4)) for s in hic.shape]
    try:
        metrics.reset()
        metrics.enable()
        mttkrp_parallel(hic, factors, 0, 2, backend="process")
        mttkrp_parallel(hic, factors, 1, 2, backend="process")
        mttkrp_parallel(hic, factors, 2, 2, backend="process")
        # after the first call both the pool and the shared session are warm
        assert metrics.value("procpool.session_reuses") >= 2
        assert metrics.value("procpool.pool_reuses") >= 2
        # worker-side metrics merged into the parent registry
        assert metrics.value("procpool.tasks") >= 6
        assert metrics.value("mttkrp.nnz_processed") >= 3 * hic.nnz
    finally:
        metrics.reset()
        metrics.enable()
        procpool.release_shared(hic)


def _make_alto(seed=0):
    return AltoTensor(make_random_coo((16, 14, 12), nnz=150, seed=seed))


def test_release_shared_unlinks_segments():
    for tensor in (_make_hicoo(seed=1), _make_alto(seed=1)):
        rng = np.random.default_rng(1)
        factors = [rng.random((s, 3)) for s in tensor.shape]
        for mode in range(tensor.nmodes):
            mttkrp_parallel(tensor, factors, mode, 2, backend="process")
        sessions = tensor.__dict__.get("_proc_sessions")
        assert sessions and len(sessions) == 1, (
            f"{tensor.format_name}: one session per tensor, got "
            f"{len(sessions or ())}")
        session = next(iter(sessions.values()))
        assert session.structure_specs()
        names = session.arena.names()
        assert names
        procpool.release_shared(tensor)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert not tensor.__dict__.get("_proc_sessions")
        # releasing twice is a no-op
        procpool.release_shared(tensor)


@pytest.mark.parametrize("make", [_make_hicoo, _make_alto],
                         ids=["hicoo", "alto"])
def test_session_slots_stable_under_rank_changes(make):
    """Alternating ranks reuse the slots of the largest rank seen: after
    the first cycle the arena neither adds segments nor grows.  Three
    workers, so on a two-core host they outnumber the cores."""
    tensor = make(seed=3)
    rng = np.random.default_rng(3)
    by_rank = {r: [rng.random((s, r)) for s in tensor.shape] for r in (2, 4)}
    sizes = []
    try:
        for cycle in range(3):
            for rank, factors in by_rank.items():
                for mode in range(tensor.nmodes):
                    run = mttkrp_parallel(tensor, factors, mode, 3,
                                          backend="process")
                    sim = mttkrp_parallel(tensor, factors, mode, 3,
                                          backend="sim")
                    assert run.report.backend == "process"
                    assert np.array_equal(run.output, sim.output), (
                        f"cycle={cycle} rank={rank} mode={mode}")
            session, = tensor.__dict__["_proc_sessions"].values()
            sizes.append((len(session.arena.names()),
                          session.arena.total_bytes()))
        assert sizes[1] == sizes[0] and sizes[2] == sizes[0], sizes
    finally:
        procpool.release_shared(tensor)


def test_worker_spans_merge_into_parent_trace():
    hic = _make_hicoo(seed=2)
    rng = np.random.default_rng(2)
    factors = [rng.random((s, 3)) for s in hic.shape]
    tracer = trace.get_tracer()
    try:
        tracer.enable()  # clears by default
        mttkrp_parallel(hic, factors, 0, 2, backend="process")
        events = tracer.events()
        worker_events = [e for e in events if e.name == "procpool.task"]
        assert len(worker_events) == 2
        # worker lanes are tagged with negative thread ids (proc-N lanes)
        assert {e.thread for e in worker_events} == {-1, -2}
        chrome = tracer.to_chrome_trace()
        lanes = {m["args"]["name"] for m in chrome["traceEvents"]
                 if m["name"] == "thread_name"}
        assert {"proc-0", "proc-1"} <= lanes
        assert not trace.validate_chrome_trace(chrome)
    finally:
        tracer.disable()
        tracer.clear()
        procpool.release_shared(hic)


def test_shutdown_pools_then_cold_restart():
    procpool.shutdown_pools()
    report = run_tasks([partial(_square, 5)], backend="process", nworkers=1)
    assert report.values() == [25]
