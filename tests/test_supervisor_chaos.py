"""Chaos suite: the fault-tolerant process backend under injected faults.

Every test arms a deterministic :class:`repro.testing.ChaosPlan` (kill /
hang / delay / corrupt-reply / raise-in-kernel, keyed to a worker slot and
task ordinal) and drives ``mttkrp_parallel(backend="process")`` or the
generic task executor through it:

* ``fault_policy="retry"`` must recover and produce output **bit-identical**
  to the ``sim`` backend — valid because superblock task partitions are
  row-disjoint, so a retried task re-runs its gather/scatter chunk
  idempotently into rows (or a privatized slab) it exclusively owns;
* ``fault_policy="degrade"`` must complete on a fallback backend and meter
  the degradation;
* ``fault_policy="fail-fast"`` must still propagate the original worker
  traceback.

Recovery accounting (killed/hung/respawned counters, degradation events)
must be visible in the ``obs.metrics`` snapshot and in the Chrome trace
export.  CI runs this file under ``pytest-timeout`` in the dedicated
``chaos-smoke`` job: a hung recovery fails the job instead of stalling it.
"""

from __future__ import annotations

import logging
from functools import partial

import numpy as np
import pytest

from repro import testing
from repro.core.hicoo import HicooTensor
from repro.cpd.cp_als import cp_als
from repro.formats.alto import AltoTensor
from repro.kernels.mttkrp import mttkrp_parallel
from repro.obs import metrics, trace
from repro.parallel import procpool
from repro.parallel.executor import run_tasks
from repro.parallel.supervisor import (FAULT_POLICIES, FaultConfig,
                                       FaultToleranceExhausted, Supervisor)
from tests.conftest import make_random_coo

NW = 2  # worker slots; every scenario keeps one healthy worker

#: short deadline so hung-worker scenarios resolve in seconds, not minutes
FAST = dict(task_deadline=2.0, backoff_base=0.01, backoff_cap=0.05)


@pytest.fixture(autouse=True)
def _clean_state():
    testing.clear_chaos()
    metrics.reset()
    metrics.enable()
    yield
    testing.clear_chaos()
    metrics.reset()
    metrics.enable()


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    procpool.shutdown_pools()


@pytest.fixture()
def problem():
    coo = make_random_coo((30, 24, 20), nnz=600, seed=7)
    hic = HicooTensor(coo, block_bits=2)
    rng = np.random.default_rng(7)
    factors = [rng.random((s, 6)) for s in hic.shape]
    yield hic, factors
    procpool.release_shared(hic)


def _sim(hic, factors, mode, **kw):
    return mttkrp_parallel(hic, factors, mode, NW, backend="sim", **kw).output


def _proc(hic, factors, mode, policy, **kw):
    return mttkrp_parallel(hic, factors, mode, NW, backend="process",
                           fault_policy=policy, **kw)


# ----------------------------------------------------------------------
# config and plan plumbing
# ----------------------------------------------------------------------
def test_fault_config_resolution_and_validation():
    assert FaultConfig.resolve(None).policy == "fail-fast"
    for name in FAULT_POLICIES:
        assert FaultConfig.resolve(name).policy == name
    cfg = FaultConfig(policy="retry", max_task_retries=5)
    assert FaultConfig.resolve(cfg) is cfg
    with pytest.raises(ValueError, match="unknown fault policy"):
        FaultConfig.resolve("pray")
    # backoff is exponential and capped
    c = FaultConfig(backoff_base=0.1, backoff_cap=0.3)
    assert c.backoff(1) == pytest.approx(0.1)
    assert c.backoff(2) == pytest.approx(0.2)
    assert c.backoff(5) == pytest.approx(0.3)


def test_fault_policy_validated_on_every_backend(problem):
    hic, factors = problem
    with pytest.raises(ValueError, match="unknown fault policy"):
        mttkrp_parallel(hic, factors, 0, NW, backend="sim",
                        fault_policy="pray")
    with pytest.raises(ValueError, match="unknown fault policy"):
        run_tasks([partial(int, 1)], backend="thread", fault_policy="pray")
    # valid policies are accepted (and moot) on in-process backends
    out = mttkrp_parallel(hic, factors, 0, NW, backend="sim",
                          fault_policy="retry").output
    assert np.array_equal(out, _sim(hic, factors, 0))


def test_chaos_plan_is_one_shot_and_validated():
    plan = testing.chaos(testing.kill_at(0), testing.hang_at(1, seconds=9.0))
    assert [d.kind for d in plan.for_worker(0)] == ["kill"]
    assert plan.for_worker(1)[0].seconds == 9.0
    testing.install_chaos(plan)
    assert testing.take_chaos_plan() is plan
    assert testing.take_chaos_plan() is None  # consumed
    state = testing.ChaosState(plan, worker=0)
    assert state.draw(1).kind == "kill"
    assert state.draw(1) is None  # one-shot
    with pytest.raises(ValueError, match="unknown chaos kind"):
        testing.ChaosDirective("meteor", worker=0)
    with pytest.raises(ValueError, match="1-based"):
        testing.kill_at(0, at_task=0)


# ----------------------------------------------------------------------
# retry: recovered output is bit-identical to the sim backend
# ----------------------------------------------------------------------
def test_killed_worker_retry_bitwise_identical(problem):
    hic, factors = problem
    sim = _sim(hic, factors, 0)
    # the kill fires *after* the task wrote its output rows — the retry
    # must zero what it owns before recomputing, or this comparison drifts
    testing.install_chaos(testing.chaos(testing.kill_at(0)))
    run = _proc(hic, factors, 0, "retry")
    assert np.array_equal(run.output, sim)
    snap = metrics.snapshot("supervisor.")
    assert snap["supervisor.workers_died"] == 1
    assert snap["supervisor.respawns"] == 1
    assert snap["supervisor.task_retries"] >= 1
    assert snap["supervisor.recoveries"] >= 1
    assert metrics.value("procpool.workers_respawned") == 1


def test_hung_worker_past_deadline_retry_bitwise_identical(problem):
    hic, factors = problem
    sim = _sim(hic, factors, 1)
    cfg = FaultConfig(policy="retry", **FAST)
    testing.install_chaos(testing.chaos(testing.hang_at(1, seconds=120.0)))
    run = _proc(hic, factors, 1, cfg)
    assert np.array_equal(run.output, sim)
    snap = metrics.snapshot("supervisor.")
    assert snap["supervisor.workers_hung"] == 1
    assert snap["supervisor.respawns"] == 1
    assert snap["supervisor.recoveries"] >= 1


def test_raise_in_kernel_retry_same_worker(problem):
    hic, factors = problem
    sim = _sim(hic, factors, 2)
    testing.install_chaos(testing.chaos(testing.raise_at(0)))
    run = _proc(hic, factors, 2, "retry")
    assert np.array_equal(run.output, sim)
    snap = metrics.snapshot("supervisor.")
    assert snap["supervisor.task_errors"] == 1
    # an in-task exception keeps the worker: no respawn was needed
    assert "supervisor.respawns" not in snap


def test_corrupt_reply_respawns_and_recovers(problem):
    hic, factors = problem
    sim = _sim(hic, factors, 0)
    testing.install_chaos(testing.chaos(testing.corrupt_at(1)))
    run = _proc(hic, factors, 0, "retry")
    assert np.array_equal(run.output, sim)
    snap = metrics.snapshot("supervisor.")
    assert snap["supervisor.workers_corrupt"] == 1
    assert snap["supervisor.respawns"] == 1


def test_delay_is_not_a_fault(problem):
    hic, factors = problem
    sim = _sim(hic, factors, 0)
    testing.install_chaos(testing.chaos(testing.delay_at(0, seconds=0.2)))
    run = _proc(hic, factors, 0, "retry")
    assert np.array_equal(run.output, sim)
    assert metrics.snapshot("supervisor.") == {}


def test_privatized_strategy_recovers_too(problem):
    hic, factors = problem
    sim = mttkrp_parallel(hic, factors, 0, NW, strategy="privatize",
                          backend="sim").output
    testing.install_chaos(testing.chaos(testing.kill_at(0)))
    run = mttkrp_parallel(hic, factors, 0, NW, strategy="privatize",
                          backend="process", fault_policy="retry")
    assert run.strategy == "privatize"
    assert np.array_equal(run.output, sim)
    assert metrics.value("supervisor.respawns") == 1


def test_multiple_faults_within_budget(problem):
    hic, factors = problem
    sim = _sim(hic, factors, 0)
    testing.install_chaos(testing.chaos(testing.kill_at(0),
                                        testing.kill_at(1)))
    run = _proc(hic, factors, 0, "retry")
    assert np.array_equal(run.output, sim)
    assert metrics.value("supervisor.respawns") == 2


# ----------------------------------------------------------------------
# degradation: complete on the fallback backend, metered + logged
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["schedule", "privatize"])
@pytest.mark.parametrize("fmt", ["hicoo", "alto"])
def test_degrade_on_exhausted_respawn_budget(problem, caplog, fmt, strategy):
    hic, factors = problem
    tensor = hic if fmt == "hicoo" else AltoTensor(hic.to_coo())
    sim = mttkrp_parallel(tensor, factors, 0, NW, strategy=strategy,
                          backend="sim")
    cfg = FaultConfig(policy="degrade", respawn_budget=0)
    testing.install_chaos(testing.chaos(testing.kill_at(0)))
    # the repro logger does not propagate to root, so hook it directly
    logger = logging.getLogger("repro.supervisor")
    logger.addHandler(caplog.handler)
    try:
        run = mttkrp_parallel(tensor, factors, 0, NW, strategy=strategy,
                              backend="process", fault_policy=cfg)
    finally:
        logger.removeHandler(caplog.handler)
        procpool.release_shared(tensor)
    # the degraded run re-ran the same region: same partition, same bits
    assert run.strategy == sim.strategy == strategy
    assert np.array_equal(run.output, sim.output)
    assert np.array_equal(run.thread_nnz, sim.thread_nnz)
    # the region finished on the first fallback backend
    assert run.report.backend == cfg.fallback_backends[0] == "thread"
    snap = metrics.snapshot("supervisor.")
    assert snap["supervisor.degradations"] == 1
    assert snap["supervisor.gave_up"] == 1
    assert any("degraded" in r.getMessage() for r in caplog.records)


def test_degrade_on_exhausted_retries(problem):
    hic, factors = problem
    sim = _sim(hic, factors, 1)
    cfg = FaultConfig(policy="degrade", max_task_retries=0,
                      fallback_backends=("sim",))
    testing.install_chaos(testing.chaos(testing.raise_at(0)))
    run = _proc(hic, factors, 1, cfg)
    assert np.array_equal(run.output, sim)
    assert run.report.backend == "sim"
    assert metrics.value("supervisor.degradations") == 1


def test_retry_policy_exhaustion_raises_with_cause(problem):
    hic, factors = problem
    cfg = FaultConfig(policy="retry", max_task_retries=0)
    testing.install_chaos(testing.chaos(testing.raise_at(0)))
    with pytest.raises(FaultToleranceExhausted, match="out of retries") as ei:
        _proc(hic, factors, 0, cfg)
    # the injected kernel exception is chained for post-mortems
    assert isinstance(ei.value.__cause__, testing.ChaosError)


def test_cp_als_completes_under_degradation(problem):
    hic, factors = problem
    cfg = FaultConfig(policy="degrade", respawn_budget=0)
    testing.install_chaos(testing.chaos(testing.kill_at(0)))
    ref = cp_als(hic, 3, maxiters=3, seed=0, nthreads=NW, backend="sim")
    res = cp_als(hic, 3, maxiters=3, seed=0, nthreads=NW, backend="process",
                 fault_policy=cfg)
    # one region degraded, the rest of the run kept going on process
    assert metrics.value("supervisor.degradations") == 1
    assert res.iterations == ref.iterations
    assert res.fits == pytest.approx(ref.fits, abs=1e-12)


# ----------------------------------------------------------------------
# fail-fast: unchanged contract
# ----------------------------------------------------------------------
def test_fail_fast_propagates_original_worker_traceback(problem):
    hic, factors = problem
    testing.install_chaos(testing.chaos(testing.raise_at(0)))
    with pytest.raises(testing.ChaosError, match="injected fault") as ei:
        _proc(hic, factors, 0, "fail-fast")
    assert "ChaosError" in str(ei.value.__cause__)  # remote traceback


def test_fail_fast_on_killed_worker(problem):
    hic, factors = problem
    testing.install_chaos(testing.chaos(testing.kill_at(0)))
    with pytest.raises(RuntimeError, match="worker died"):
        _proc(hic, factors, 0, "fail-fast")
    # the poisoned pool was torn down; the next call cold-starts cleanly
    out = _proc(hic, factors, 0, "fail-fast").output
    assert np.array_equal(out, _sim(hic, factors, 0))


# ----------------------------------------------------------------------
# recovery accounting: metrics snapshot + Chrome trace export
# ----------------------------------------------------------------------
def test_recovery_events_in_metrics_and_chrome_trace(problem):
    hic, factors = problem
    sim = _sim(hic, factors, 0)
    tracer = trace.get_tracer()
    try:
        tracer.enable()
        testing.install_chaos(testing.chaos(testing.kill_at(0)))
        run = _proc(hic, factors, 0, "retry")
        assert np.array_equal(run.output, sim)
        names = [e.name for e in tracer.events()]
        assert "supervisor.fault" in names
        assert "supervisor.respawn" in names
        assert "supervisor.retry" in names
        assert "supervisor.recovered" in names
        chrome = tracer.to_chrome_trace()
        assert not trace.validate_chrome_trace(chrome)
        chrome_names = {e["name"] for e in chrome["traceEvents"]}
        assert {"supervisor.fault", "supervisor.respawn",
                "supervisor.retry"} <= chrome_names
        fault = next(e for e in chrome["traceEvents"]
                     if e["name"] == "supervisor.fault")
        assert fault["args"]["kind"] == "died"
    finally:
        tracer.disable()
        tracer.clear()
    snap = metrics.snapshot("supervisor.")
    for key in ("supervisor.workers_died", "supervisor.respawns",
                "supervisor.task_retries", "supervisor.recoveries"):
        assert snap[key] >= 1, f"missing recovery counter {key}: {snap}"


def test_degradation_event_in_trace(problem):
    hic, factors = problem
    cfg = FaultConfig(policy="degrade", respawn_budget=0)
    tracer = trace.get_tracer()
    try:
        tracer.enable()
        testing.install_chaos(testing.chaos(testing.kill_at(0)))
        _proc(hic, factors, 0, cfg)
        names = [e.name for e in tracer.events()]
        assert "supervisor.gave_up" in names
        assert "supervisor.degrade" in names
        chrome = tracer.to_chrome_trace()
        assert not trace.validate_chrome_trace(chrome)
        degrade = next(e for e in chrome["traceEvents"]
                       if e["name"] == "supervisor.degrade")
        assert degrade["args"]["fallback"] == "thread"
    finally:
        tracer.disable()
        tracer.clear()


# ----------------------------------------------------------------------
# generic task regions (run_tasks backend="process")
# ----------------------------------------------------------------------
def test_generic_tasks_retry_after_worker_death():
    testing.install_chaos(testing.chaos(testing.kill_at(0)))
    report = run_tasks([partial(pow, i, 2) for i in range(6)],
                       backend="process", nworkers=NW, fault_policy="retry")
    assert report.values() == [i * i for i in range(6)]
    assert metrics.value("supervisor.respawns") == 1
    assert metrics.value("supervisor.recoveries") >= 1


def test_generic_tasks_degrade_to_inline():
    cfg = FaultConfig(policy="degrade", respawn_budget=0)
    testing.install_chaos(testing.chaos(testing.kill_at(0)))
    report = run_tasks([partial(pow, i, 2) for i in range(4)],
                       backend="process", nworkers=NW, fault_policy=cfg)
    assert report.values() == [i * i for i in range(4)]
    assert report.backend == "sim"
    assert metrics.value("supervisor.degradations") == 1


def test_supervisor_run_on_healthy_pool_is_plain_collect():
    pool = procpool.get_pool(NW)
    sup = Supervisor(pool, FaultConfig(policy="retry"))

    def builder(i):
        def build(reset):
            return ("generic", i, partial(pow, i, 3))
        return build

    results = sup.run({i: (i % NW, builder(i)) for i in range(5)})
    assert {i: r[1] for i, r in results.items()} == {i: i ** 3
                                                     for i in range(5)}
    assert sup.respawns_used == 0
    assert metrics.snapshot("supervisor.") == {}
