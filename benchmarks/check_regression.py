#!/usr/bin/env python
"""CI regression guard for the HiCOO fast paths.

Two families of live baselines (see ``benchmarks/legacy.py``):

* **MTTKRP** — times HiCOO MTTKRP on a small registry tensor three ways and
  fails if the planned path (warm gather cache — what CP-ALS iterations pay)
  is slower than the unplanned per-call path or the legacy baseline;
* **conversion** — times the magic-number Morton encode, cold HicooTensor
  construction, and the ``best_block_bits`` sweep against their pre-
  MortonContext replicas, and fails if any new path is slower (speedup < 1)
  or produces a different block structure.

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_regression.py

``--summary`` runs no benchmark at all: it reads the committed
``benchmarks/results/BENCH_*.json`` records and prints a one-row-per-group
geomean table in Markdown — CI appends it to ``$GITHUB_STEP_SUMMARY`` so
every run shows the perf trajectory at a glance.
"""

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for `legacy`

import numpy as np

from legacy import (legacy_best_block_bits, legacy_hicoo_construct,
                    legacy_morton_encode, legacy_parallel_hicoo)
from repro.core.hicoo import HicooTensor, best_block_bits
from repro.data import load
from repro.kernels.backends import tier_available, tier_reason
from repro.kernels.mttkrp import mttkrp, mttkrp_parallel
from repro.kernels.plan import plan_mttkrp
from repro.obs import metrics
from repro.util.bitops import bits_for, morton_encode

DATASET = "vast"
BLOCK_BITS = 4
RANK = 16
NTHREADS = 4
REPEAT = 5

#: wall-clock floor for the process backend over sequential at NTHREADS
#: workers — only enforceable on a host that actually has the cores
PROC_SPEEDUP_FLOOR = 1.5

#: the timed registry tensors of the bench harness (conftest.TIMED_DATASETS)
CACHE_DATASETS = ("vast", "deli", "uber")
#: a plan warmed by >= 2 further runs must hit at least this often
MIN_GATHER_HIT_RATE = 0.5

#: steady-state geomean wall-clock floor for the numba tier over the
#: sequential NumPy kernel (compile cost excluded — it is warmed up front
#: and recorded in its own bench record / the compiled.* metrics)
JIT_SPEEDUP_FLOOR = 2.0

#: ALTO-vs-HiCOO geomean floors on the warm unplanned parallel dispatch:
#: the skewed/hyper-sparse suite is where HiCOO's superblock schedule
#: degenerates and ALTO must win; the regular registry suite only needs
#: parity (HiCOO keeps its home-turf advantage there)
ALTO_SPEEDUP_FLOOR = 1.3
ALTO_PARITY_FLOOR = 0.95

#: geomean wall-clock floor for the direct format-to-format converters
#: over the COO round-trip they replace (all registered pairs, all timed
#: datasets) — the ISSUE-10 acceptance gate
DIRECT_SPEEDUP_FLOOR = 1.5

#: every bench file a guard family can contribute; ``--summary`` renders a
#: visible SKIP row (instead of silently omitting the file) when a guard's
#: optional dependency or benchmark run is absent
EXPECTED_BENCH_FILES = {
    "BENCH_mttkrp.json": "run bench_mttkrp_seq.py / bench_mttkrp_par.py",
    "BENCH_mttkrp_proc.json": "run bench_mttkrp_par.py --backend process",
    "BENCH_mttkrp_jit.json": "requires numba (jit-smoke job)",
    "BENCH_convert.json": "run bench_convert.py",
    "BENCH_gather.json": "run bench_gather.py",
    "BENCH_alto.json": "run bench_mttkrp_par.py --alto",
    "BENCH_serve.json": "run bench_serve.py",
}


def best_of(fn, repeat=REPEAT):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def check_conversion(coo) -> bool:
    """New-vs-legacy conversion pipeline: equivalence + speedup >= 1."""
    coords = np.ascontiguousarray(coo.indices.T)
    nbits = bits_for(int(coords.max()) if coords.size else 0)

    if not np.array_equal(morton_encode(coords, nbits),
                          legacy_morton_encode(coords, nbits)):
        print("FAIL: magic-number Morton encode differs from per-bit encode")
        return False
    t_enc = best_of(lambda: morton_encode(coords, nbits))
    t_enc_legacy = best_of(lambda: legacy_morton_encode(coords, nbits))

    def construct_cold():
        coo.clear_convert_cache()
        return HicooTensor(coo, block_bits=BLOCK_BITS)

    new, old = construct_cold(), legacy_hicoo_construct(coo, BLOCK_BITS)
    if not (np.array_equal(new.bptr, old.bptr)
            and np.array_equal(new.binds, old.binds)
            and np.array_equal(new.einds, old.einds)
            and np.array_equal(new.values, old.values)):
        print("FAIL: one-sort construction differs from the legacy path")
        return False
    t_con = best_of(construct_cold)
    t_con_legacy = best_of(lambda: legacy_hicoo_construct(coo, BLOCK_BITS))

    def sweep_cold():
        coo.clear_convert_cache()
        return best_block_bits(coo)

    if sweep_cold() != legacy_best_block_bits(coo):
        print("FAIL: best_block_bits choice differs from the legacy sweep")
        return False
    t_sweep = best_of(sweep_cold)
    t_sweep_legacy = best_of(lambda: legacy_best_block_bits(coo))

    print(f"  morton encode        : {t_enc_legacy * 1e3:8.2f} ms legacy, "
          f"{t_enc * 1e3:8.2f} ms new ({t_enc_legacy / t_enc:.2f}x)")
    print(f"  hicoo construction   : {t_con_legacy * 1e3:8.2f} ms legacy, "
          f"{t_con * 1e3:8.2f} ms new ({t_con_legacy / t_con:.2f}x)")
    print(f"  best_block_bits sweep: {t_sweep_legacy * 1e3:8.2f} ms legacy, "
          f"{t_sweep * 1e3:8.2f} ms new ({t_sweep_legacy / t_sweep:.2f}x)")

    ok = True
    if t_enc > t_enc_legacy:
        print("FAIL: magic-number Morton encode is slower than per-bit")
        ok = False
    if t_con > t_con_legacy:
        print("FAIL: one-sort construction is slower than the legacy path")
        ok = False
    if t_sweep > t_sweep_legacy:
        print("FAIL: shared-context sweep is slower than the legacy sweep")
        ok = False
    return ok


def check_direct_convert() -> bool:
    """Guard the direct converter registry: bitwise identity + the geomean
    speedup floor over the COO round-trip.

    ``bench_direct_convert`` asserts every pair's output bit-identical to
    the round-trip before timing it (a fast-but-wrong converter trips an
    AssertionError, not a soft FAIL), then the geomean across all
    (dataset, pair) cells must reach DIRECT_SPEEDUP_FLOOR and no single
    pair may be slower than the round-trip it replaces.
    """
    from bench_convert import bench_direct_convert, direct_convert_geomean
    from conftest import write_bench_json

    records, speedups = bench_direct_convert(repeat=REPEAT)
    write_bench_json(records, "BENCH_convert.json")
    for (name, pair), s in sorted(speedups.items()):
        print(f"  {name:<6s} {pair:<14s}: {s:.2f}x")
    ok = True
    geomean = direct_convert_geomean(speedups)
    if geomean < DIRECT_SPEEDUP_FLOOR:
        print(f"FAIL: direct-converter geomean {geomean:.2f}x < "
              f"{DIRECT_SPEEDUP_FLOOR}x over the COO round-trip")
        ok = False
    else:
        print(f"  geomean {geomean:.2f}x >= {DIRECT_SPEEDUP_FLOOR}x floor")
    slower = {f"{n}:{p}": s for (n, p), s in speedups.items() if s < 0.9}
    if slower:
        print(f"FAIL: pairs slower than the round-trip they replace: "
              f"{ {k: round(v, 2) for k, v in slower.items()} }")
        ok = False
    return ok


def check_cache_efficiency() -> bool:
    """Metrics-registry guard: the caches must actually get reused.

    For every timed registry tensor: one HiCOO construction plus a
    ``best_block_bits`` sweep must produce MortonContext cache *hits* (the
    one-sort pipeline sharing its encode+sort), and a warmed MTTKRP plan run
    three times must hit the gather cache at rate >= MIN_GATHER_HIT_RATE.
    """
    ok = True
    for name in CACHE_DATASETS:
        metrics.reset()
        coo = load(name)
        hic = HicooTensor(coo, block_bits=BLOCK_BITS)
        best_block_bits(coo)  # must reuse the construction's MortonContext
        rng = np.random.default_rng(0)
        factors = [rng.random((s, RANK)) for s in coo.shape]
        plan = plan_mttkrp(hic, RANK, NTHREADS, strategy="schedule")
        plan.ensure_gathers(hic)
        for _ in range(3):
            mttkrp_parallel(hic, factors, 0, NTHREADS, plan=plan)
        snap = metrics.snapshot()
        ctx_hits = snap.get("convert.context_hits", 0)
        hits = snap.get("gather.cache_hits", 0)
        misses = snap.get("gather.cache_misses", 0)
        rate = hits / max(1, hits + misses)
        print(f"  {name:<6s} context hits={ctx_hits} gather hit rate="
              f"{hits}/{hits + misses} ({rate:.2f})")
        if ctx_hits < 1:
            print(f"FAIL: {name}: MortonContext was rebuilt instead of "
                  "reused across construction + block-size sweep")
            ok = False
        if rate < MIN_GATHER_HIT_RATE:
            print(f"FAIL: {name}: gather-cache hit rate {rate:.2f} < "
                  f"{MIN_GATHER_HIT_RATE} on a warmed plan")
            ok = False
    return ok


def check_process_backend() -> bool:
    """Guard the true-multicore backend: correctness always, speed when
    the host can express it.

    * the process backend must be bit-identical to the sim backend (same
      partition, same kernels) and tightly close to the sequential kernel
      on every mode — any drift means shared-memory corruption;
    * on a host with >= NTHREADS cores, wall-clock geomean speedup over
      sequential across the timed datasets must reach PROC_SPEEDUP_FLOOR.
      On smaller hosts the numbers are recorded (BENCH_mttkrp_proc.json)
      but the floor is skipped — a process pool cannot beat sequential
      wall clock on one core.
    """
    from bench_mttkrp_par import (PROC_BENCH_FILE, bench_process_backend,
                                  process_speedups)
    from conftest import write_bench_json
    from repro.parallel import procpool

    ok = True
    coo = load(DATASET)
    hic = HicooTensor(coo, block_bits=BLOCK_BITS)
    rng = np.random.default_rng(0)
    factors = [rng.random((s, RANK)) for s in coo.shape]
    plan = plan_mttkrp(hic, RANK, NTHREADS)
    for mode in range(coo.nmodes):
        seq = mttkrp(hic, factors, mode)
        sim = mttkrp_parallel(hic, factors, mode, NTHREADS, plan=plan,
                              backend="sim").output
        proc = mttkrp_parallel(hic, factors, mode, NTHREADS, plan=plan,
                               backend="process").output
        if not np.array_equal(proc, sim):
            print(f"FAIL: mode {mode}: process backend differs bitwise "
                  "from the sim backend")
            ok = False
        if not np.allclose(proc, seq, rtol=1e-12, atol=0):
            print(f"FAIL: mode {mode}: process backend drifts from the "
                  "sequential kernel")
            ok = False
    procpool.release_shared(hic)
    if ok:
        print("  process == sim (bitwise), == sequential (1e-12) "
              f"on all {coo.nmodes} modes")

    records = bench_process_backend(nworkers=NTHREADS, repeat=REPEAT)
    write_bench_json(records, PROC_BENCH_FILE)
    speeds = process_speedups(records)
    geomean = math.exp(sum(math.log(s) for s in speeds.values())
                       / len(speeds))
    for name, s in speeds.items():
        print(f"  {name:<6s} process vs sequential: {s:.2f}x")
    cores = os.cpu_count() or 1
    if cores >= NTHREADS:
        if geomean < PROC_SPEEDUP_FLOOR:
            print(f"FAIL: process-backend geomean speedup {geomean:.2f}x < "
                  f"{PROC_SPEEDUP_FLOOR}x at {NTHREADS} workers "
                  f"({cores} cores)")
            ok = False
        else:
            print(f"  geomean {geomean:.2f}x >= {PROC_SPEEDUP_FLOOR}x "
                  f"floor at {NTHREADS} workers")
    else:
        print(f"  SKIP speedup floor: host has {cores} core(s) < "
              f"{NTHREADS} workers (geomean recorded: {geomean:.2f}x)")
    return ok


def check_compiled_tier() -> bool:
    """Guard the Numba JIT tier: correctness always, speed when compiled.

    Skipped (visibly, not silently) on hosts without numba — the default CI
    job proves the NumPy fallback, and the jit-smoke job runs this check
    with the dependency installed.  With numba present:

    * the compiled kernel must agree with the sequential oracle within the
      8-ULP budget on every mode and both strategies;
    * the steady-state geomean speedup over the sequential NumPy kernel
      across the timed datasets must reach JIT_SPEEDUP_FLOOR (compile time
      is warmed before timing and recorded separately).
    """
    from bench_gpu import (JIT_BENCH_FILE, bench_compiled_tier,
                           compiled_geomean_speedup)
    from conftest import write_bench_json

    if not tier_available("numba"):
        print(f"  SKIP compiled tier: {tier_reason('numba')}")
        return True

    ok = True
    coo = load(DATASET)
    hic = HicooTensor(coo, block_bits=BLOCK_BITS)
    rng = np.random.default_rng(0)
    factors = [rng.random((s, RANK)) for s in coo.shape]
    for strategy in ("schedule", "privatize"):
        plan = plan_mttkrp(hic, RANK, NTHREADS, strategy=strategy)
        for mode in range(coo.nmodes):
            seq = mttkrp(hic, factors, mode)
            run = mttkrp_parallel(hic, factors, mode, NTHREADS, plan=plan,
                                  backend="numba")
            if run.report.backend != "numba":
                print(f"FAIL: mode {mode} ({strategy}): numba requested but "
                      f"backend={run.report.backend}")
                ok = False
            scale = np.maximum(np.abs(seq), np.abs(run.output))
            ulp = np.spacing(np.maximum(scale, np.finfo(seq.dtype).tiny))
            max_ulp = float(np.max(np.abs(run.output - seq) / ulp))
            if max_ulp > 8.0:
                print(f"FAIL: mode {mode} ({strategy}): compiled kernel "
                      f"drifts {max_ulp:.1f} ULP (> 8) from the oracle")
                ok = False
    if ok:
        print("  numba == sequential oracle (<= 8 ULP) on all modes, "
              "both strategies")

    records, _ = bench_compiled_tier(tier="numba", repeat=REPEAT)
    write_bench_json(records, JIT_BENCH_FILE)
    compile_s = next(r["time_s"] for r in records
                     if r["variant"] == "numba_compile")
    geomean = compiled_geomean_speedup(records)
    for r in records:
        if "speedup_vs_seq" in r:
            print(f"  {r['dataset']:<6s} mode {r['mode']}: "
                  f"{r['speedup_vs_seq']:.2f}x vs sequential")
    print(f"  one-time compile: {compile_s * 1e3:.0f} ms (excluded from "
          "kernel times)")
    if geomean < JIT_SPEEDUP_FLOOR:
        print(f"FAIL: numba-tier geomean speedup {geomean:.2f}x < "
              f"{JIT_SPEEDUP_FLOOR}x steady-state floor")
        ok = False
    else:
        print(f"  geomean {geomean:.2f}x >= {JIT_SPEEDUP_FLOOR}x floor")
    return ok


def check_alto() -> bool:
    """Guard the ALTO format: bitwise correctness + the suite speed floors.

    * sequential and parallel-schedule ALTO MTTKRP must be *bit-identical*
      to the sequential COO oracle (``np.add.at`` in original input order)
      on every mode — ALTO pins its scatters to that order, so any drift
      means the sequential-scatter contract broke;
    * warm unplanned parallel dispatch must reach ALTO_SPEEDUP_FLOOR
      geomean over HiCOO on the skewed/hyper-sparse suite and
      ALTO_PARITY_FLOOR on the regular registry suite.
    """
    from bench_mttkrp_par import (ALTO_BENCH_FILE, alto_dataset, alto_geomean,
                                  alto_speedups, bench_alto)
    from conftest import write_bench_json
    from repro.formats.alto import AltoTensor

    ok = True
    coo = alto_dataset("zipf")
    alto = AltoTensor(coo)
    rng = np.random.default_rng(0)
    factors = [rng.random((s, RANK)) for s in coo.shape]
    for mode in range(coo.nmodes):
        oracle = np.zeros((coo.shape[mode], RANK))
        prod = np.ones((coo.nnz, RANK))
        for m, f in enumerate(factors):
            if m != mode:
                prod *= f[coo.indices[:, m]]
        np.add.at(oracle, coo.indices[:, mode], coo.values[:, None] * prod)
        if not np.array_equal(alto.mttkrp(factors, mode), oracle):
            print(f"FAIL: mode {mode}: sequential ALTO differs bitwise "
                  "from the COO oracle")
            ok = False
        par = mttkrp_parallel(alto, factors, mode, NTHREADS,
                              strategy="schedule").output
        if not np.array_equal(par, oracle):
            print(f"FAIL: mode {mode}: parallel ALTO (schedule) differs "
                  "bitwise from the COO oracle")
            ok = False
    if ok:
        print(f"  alto == COO oracle (bitwise) on all {coo.nmodes} modes, "
              "sequential + schedule")

    records = bench_alto(nthreads=NTHREADS, repeat=REPEAT)
    write_bench_json(records, ALTO_BENCH_FILE)
    for suite, floor in (("skewed", ALTO_SPEEDUP_FLOOR),
                         ("regular", ALTO_PARITY_FLOOR)):
        for name, s in alto_speedups(records, suite).items():
            print(f"  {suite:<8s} {name:<6s} hicoo/alto: {s:.2f}x")
        geomean = alto_geomean(records, suite)
        if geomean < floor:
            print(f"FAIL: alto {suite}-suite geomean {geomean:.2f}x < "
                  f"{floor}x floor")
            ok = False
        else:
            print(f"  {suite} geomean {geomean:.2f}x >= {floor}x floor")
    return ok


#: conservative serving-throughput floor (req/s, closed loop, sim backend)
#: — we measure ~500 req/s on a laptop-class host; 25 only catches a
#: serving path that collapsed (per-request pool respawn, lost batching,
#: lock convoy), not host noise
SERVE_REQS_FLOOR = 25.0


def check_serve() -> bool:
    """Guard the serving path: differential equality + a throughput floor.

    A short closed-loop replay (8 clients) against a live daemon must (a)
    answer every request with a digest bitwise-equal to the sequential
    oracle's, and (b) clear a very conservative req/s floor — the serving
    overhead (framing, validation, scheduling, digesting) must stay
    amortizable, or the resident-daemon economics argument dies.
    """
    from bench_serve import NCLIENTS, SPEC, replay_timed
    from repro.analysis.traffic import RequestStream
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ReproDaemon, build_tensor
    from repro.serve.jobs import run_job

    requests = RequestStream({"hot": 3}, n=64, seed=23,
                             ranks=(2, 4), iters=(1, 2)).generate()
    daemon = ReproDaemon(backend="sim", nthreads=2, executors=2,
                         max_queue=256)
    daemon.start()
    try:
        with ServeClient(port=daemon.port) as cli:
            cli.register("hot", SPEC)
            replies = [cli.submit({k: v for k, v in r.items()
                                   if k != "arrival_s"})
                       for r in requests[:8]]  # warm + correctness sample
        wall, lat = replay_timed(daemon.port, requests, NCLIENTS)
    finally:
        daemon.stop()

    ok = True
    oracle_tensor = build_tensor(dict(SPEC))
    for req, rep in zip(requests[:8], replies):
        expect = run_job(req["op"], oracle_tensor, mode=req.get("mode", 0),
                         rank=req["rank"], seed=req.get("seed", 0),
                         iters=req.get("iters", 3), backend="sim",
                         nthreads=2)
        if rep["digest"] != expect["digest"]:
            print(f"FAIL: daemon reply diverges from the sequential "
                  f"oracle on {req}")
            ok = False
    if ok:
        print("  daemon == sequential oracle (bitwise) on the sampled jobs")
    reqs_per_s = len(lat) / wall
    print(f"  closed-loop throughput: {reqs_per_s:.0f} req/s "
          f"({NCLIENTS} clients, {len(lat)} requests)")
    if reqs_per_s < SERVE_REQS_FLOOR:
        print(f"FAIL: serving throughput {reqs_per_s:.0f} req/s < "
              f"{SERVE_REQS_FLOOR} req/s floor")
        ok = False
    return ok


def summarize() -> int:
    """Markdown geomean table over the recorded bench JSON (no timing runs).

    One row per (file, op, variant): the geometric mean of ``time_s``
    across datasets/strategies, plus the record count behind it.  Expected
    files with no recorded results get a visible SKIP row so a guard whose
    optional dependency (numba, cupy) or bench run is absent is never
    silently dropped from the table.
    """
    results_dir = Path(__file__).parent / "results"
    files = sorted(results_dir.glob("BENCH_*.json"))
    missing = [name for name in sorted(EXPECTED_BENCH_FILES)
               if not (results_dir / name).exists()]
    if not files and not missing:
        print(f"no BENCH_*.json under {results_dir} — run the benches first")
        return 0
    print("### Benchmark geomeans\n")
    print("| file | op | variant | records | geomean |")
    print("|---|---|---|---:|---:|")
    for path in files:
        groups = {}
        for r in json.loads(path.read_text()):
            t = r.get("time_s")
            if not isinstance(t, (int, float)) or t <= 0:
                continue
            groups.setdefault((r.get("op", "?"), r.get("variant", "?")),
                              []).append(float(t))
        for (op, variant), times in sorted(groups.items()):
            gm = math.exp(sum(math.log(t) for t in times) / len(times))
            print(f"| {path.name} | {op} | {variant} | {len(times)} | "
                  f"{gm * 1e3:.2f} ms |")
        if not groups:
            print(f"| {path.name} | — | — | 0 | SKIP (no timed records) |")
    for name in missing:
        print(f"| {name} | — | — | 0 | "
              f"SKIP ({EXPECTED_BENCH_FILES[name]}) |")

    # perf-ledger trajectory: rolling-baseline deltas over history.jsonl
    # (appended by write_bench_json on every bench contribution)
    from repro.obs import ledger

    history = ledger.read_history(results_dir / "history.jsonl")
    if history:
        print()
        print(ledger.delta_table(history))
    return 0


def main() -> int:
    coo = load(DATASET)
    hic = HicooTensor(coo, block_bits=BLOCK_BITS)
    rng = np.random.default_rng(0)
    factors = [rng.random((s, RANK)) for s in coo.shape]

    def unplanned_cold():
        hic.clear_gather_cache()
        mttkrp_parallel(hic, factors, 0, NTHREADS, strategy="schedule")

    t_unplanned = best_of(unplanned_cold)
    t_legacy = best_of(
        lambda: legacy_parallel_hicoo(hic, factors, 0, NTHREADS, "schedule"))

    plan = plan_mttkrp(hic, RANK, NTHREADS, strategy="schedule")
    plan.ensure_gathers(hic)
    t_planned = best_of(
        lambda: mttkrp_parallel(hic, factors, 0, NTHREADS, plan=plan))

    print(f"dataset={DATASET} nnz={coo.nnz} P={NTHREADS} R={RANK}")
    print(f"  legacy per-call path : {t_legacy * 1e3:8.2f} ms")
    print(f"  unplanned (cold)     : {t_unplanned * 1e3:8.2f} ms")
    print(f"  planned (warm)       : {t_planned * 1e3:8.2f} ms")
    print(f"  planned vs unplanned : {t_unplanned / t_planned:.2f}x")
    print(f"  planned vs legacy    : {t_legacy / t_planned:.2f}x")

    ok = True
    if t_planned > t_unplanned:
        print("FAIL: planned HiCOO MTTKRP is slower than the unplanned path")
        ok = False
    if t_planned > t_legacy:
        print("FAIL: planned HiCOO MTTKRP is slower than the legacy baseline")
        ok = False
    if ok:
        print("OK: planned path is the fastest")

    print("conversion pipeline:")
    conv_ok = check_conversion(coo)
    if conv_ok:
        print("OK: conversion fast paths beat their legacy baselines")

    print("direct format converters (vs COO round-trip):")
    direct_ok = check_direct_convert()
    if direct_ok:
        print("OK: direct converters are bit-identical to the round-trip "
              "and meet the geomean floor")

    print("cache efficiency (obs.metrics):")
    cache_ok = check_cache_efficiency()
    if cache_ok:
        print("OK: MortonContext is reused and warmed plans hit the "
              "gather cache")

    print("process backend (true multicore):")
    proc_ok = check_process_backend()
    if proc_ok:
        print("OK: process backend is correct"
              + ("" if (os.cpu_count() or 1) < NTHREADS
                 else " and meets the speedup floor"))

    print("compiled tier (numba JIT):")
    jit_ok = check_compiled_tier()
    if jit_ok:
        print("OK: compiled tier"
              + (" is correct and meets the speedup floor"
                 if tier_available("numba")
                 else " check skipped (no numba)"))

    print("alto format (skewed + regular suites):")
    alto_ok = check_alto()
    if alto_ok:
        print("OK: alto is bit-identical to the COO oracle and meets "
              "both suite floors")

    print("serving path (daemon differential + throughput floor):")
    serve_ok = check_serve()
    if serve_ok:
        print("OK: daemon matches the oracle bitwise and clears the "
              "throughput floor")
    return (0 if ok and conv_ok and direct_ok and cache_ok and proc_ok
            and jit_ok and alto_ok and serve_ok else 1)


#: --only names -> (section header, check thunk)
ONLY_CHECKS = {
    "conversion": ("conversion pipeline:",
                   lambda: check_conversion(load(DATASET))),
    "direct-convert": ("direct format converters (vs COO round-trip):",
                       check_direct_convert),
    "cache": ("cache efficiency (obs.metrics):", check_cache_efficiency),
    "process": ("process backend (true multicore):", check_process_backend),
    "jit": ("compiled tier (numba JIT):", check_compiled_tier),
    "alto": ("alto format (skewed + regular suites):", check_alto),
    "serve": ("serving path (daemon differential + throughput floor):",
              check_serve),
}


def run_only(name: str) -> int:
    header, thunk = ONLY_CHECKS[name]
    print(header)
    ok = thunk()
    print(("OK: " if ok else "FAILED: ") + name)
    return 0 if ok else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--summary", action="store_true",
                        help="print a Markdown geomean table of the recorded "
                             "BENCH_*.json results and exit (no benchmarks)")
    parser.add_argument("--only", choices=sorted(ONLY_CHECKS), default=None,
                        help="run a single guard family instead of the "
                             "full suite")
    args = parser.parse_args()
    if args.summary:
        sys.exit(summarize())
    sys.exit(run_only(args.only) if args.only else main())
