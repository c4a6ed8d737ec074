"""End-to-end and per-layer benchmark of CP-ALS and the serve daemon.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload skewed-3d --seed 1 --seconds 45 \
        --trace 0

A run generates its inputs from ``--seed`` (in a child process), sets up
five times (``setup_s`` is the median), sends every serve request
template once and reads the daemon's memory, then for ``--seconds``
alternates short ``cp_als`` calls of the six configurations, round-robin,
with bursts of closed-loop serve requests.  After the timed window it
checks every fit trajectory and every reply digest against an oracle.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  The last line of standard output
is one JSON object; the exit code is 0 only when every check passed.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, request_templates  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: share of the timed window spent on serve bursts
SERVE_SHARE = 0.35

#: where runs keep traces and exact counts, inside the checkout
STATE = ROOT / ".perfbench"

COUNT_METRICS = ("hicoo.nblocks", "serve.views_cached",
                 "serve.batch_size_mean")


def unit_of(name: str) -> str:
    """Unit of a metric, from the suffix of one of its name's parts."""
    if name == "serve_req_s":
        return "1/s"
    if name in COUNT_METRICS:
        return "count"
    for part in name.split("."):
        for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                             ("_gbps", "GB/s")):
            if part.endswith(suffix):
                return unit
    return "ratio"


def calibrate(reps: int = 5) -> List[float]:
    """Milliseconds of a fixed NumPy + Python reference loop, per sample.

    The loop does the same kinds of work as the program (gather,
    scatter-add, small matmul, interpreted dict updates) on fixed data, so
    its drift between runs is host drift, not a code change.
    """
    import numpy as np

    rng = np.random.default_rng(7)
    idx = rng.integers(0, 4096, 100_000)
    vals = rng.random((100_000, 16))
    out = np.zeros((4096, 16))
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        out[:] = 0.0
        np.add.at(out, idx, vals)
        gathered = vals[idx % 50_000]
        (gathered.T @ gathered).sum()
        counts: Dict[int, int] = {}
        for i in range(50_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def source_digest() -> str:
    """Hash of the program's sources: exact counts are compared between
    runs of the same code only."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def rss_mb(pid: int) -> float:
    """Resident set size of process ``pid``, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    return 0.0


def pool_rss_mb() -> float:
    """Summed RSS of the process backend's pool workers."""
    return sum(rss_mb(child.pid)
               for child in multiprocessing.active_children()
               if child.name.startswith("repro-procpool"))


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process, not to init.

    Each process-backend worker starts a multiprocessing resource tracker
    of its own, which outlives the worker by design; as a subreaper this
    process can wait for those trackers too.  Linux only; elsewhere a
    no-op.
    """
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def child_pids() -> List[int]:
    """Pids of this process's children, from /proc (zombies included)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_descendants(grace: float = 20.0) -> None:
    """Stop every process the run started and wait until each has ended.

    The worker pool and the shared-memory sessions are closed first (what
    interpreter exit would do), so nothing needs the resource tracker
    afterwards.  Then this process's tracker is told to exit by closing its
    pipe, and every child, re-parented orphans included, is reaped; one
    still alive after ``grace`` seconds is killed.
    """
    import signal
    from multiprocessing import resource_tracker

    from repro.parallel import procpool

    procpool._cleanup_at_exit()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = tracker._pid = None
    deadline = time.monotonic() + grace
    while True:
        pids = child_pids()
        if not pids:
            return
        late = time.monotonic() > deadline
        for pid in pids:
            try:
                if late:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0 if late else os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.01)


def tns_modes(path: Path) -> int:
    with open(path) as fh:
        for line in fh:
            if line.strip() and not line.startswith(("#", "%")):
                return len(line.split()) - 1
    raise ValueError(f"{path}: no nonzeros")


def compare_counts(counts: Dict[str, float], path: Path) -> List[str]:
    """Check exact counts against an earlier run's, or record them."""
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        return []
    earlier = json.loads(path.read_text())
    return [f"count {k} = {v!r}, an earlier run of the same code read "
            f"{earlier.get(k)!r}" for k, v in sorted(counts.items())
            if earlier.get(k) != v]


class Run:
    """One benchmark run: inputs, set-ups, timed window, oracles."""

    def __init__(self, args, work: Path) -> None:
        from cpals import CpalsPhase
        from serve import ServePhase

        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.rec = SpanRecorder()
        self.problems: List[str] = []
        self.mismatches: List[str] = []
        self.calib = calibrate()
        files = self._write_inputs(work)
        serve_files = {role.split(":", 1)[1]: p for role, p in files.items()
                       if role.startswith("serve:")}
        templates = request_templates(
            self.workload, args.seed,
            {name: tns_modes(p) for name, p in serve_files.items()})
        self.cpals = CpalsPhase(files["cpals"], args.seed, self.rec,
                                fail_calls=args.corrupt == "call")
        self.serve = ServePhase(ROOT, serve_files, templates, args.seed,
                                self.rec)

    def _write_inputs(self, work: Path) -> Dict[str, Path]:
        out = subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload",
             self.workload.name, "--seed", str(self.args.seed),
             "--scale", repr(self.args.scale), "--out", str(work)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=600, check=True)
        return {role: Path(p) for role, p in json.loads(
            out.stdout.strip().splitlines()[-1]).items()}

    def execute(self) -> None:
        try:
            self._setups()
            self._prime()
            self._window()
            self._after_window()
            self.mismatches = (self.cpals.check(self.args.corrupt)
                               + self.serve.check(self.args.corrupt))
        finally:
            self.serve.stop()
            self.cpals.teardown(final=True)
        counts_file = STATE / "counts" / (
            f"{self.workload.name}-s{self.args.seed}-x{self.args.scale!r}-"
            f"{source_digest()}.json")
        self.problems += compare_counts(self.counts, counts_file)

    def _setups(self) -> None:
        """Set up ``SETUP_REPEATS`` times; the last set-up stays up."""
        self.setup_s, self.spawn_s, self.layer_times = [], [], []
        rep_counts = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            with self.rec.span("setup.cpals", rep=rep):
                times = self.cpals.setup()
            t0 = time.perf_counter()
            with self.rec.span("setup.serve", rep=rep):
                self.serve.start()
            self.spawn_s.append(time.perf_counter() - t0)
            self.setup_s.append(time.perf_counter() - start)
            self.layer_times.append(times)
            rep_counts.append(self.cpals.counts())
            if rep < SETUP_REPEATS - 1:
                self.serve.stop()
                self.cpals.teardown()
        for other in rep_counts[1:]:
            if other != rep_counts[0]:
                self.problems.append(f"exact counts differ between "
                                     f"set-ups: {rep_counts[0]} vs {other}")
        self.counts = dict(rep_counts[0], **self.cpals.traffic_counts())

    def _prime(self) -> None:
        """Serve every request template once, then read the daemon's RSS.

        The daemon then holds a fixed set of views and jobs, so its RSS
        does not depend on how many requests the timed window completes.
        """
        with self.rec.span("serve.prime"):
            self.serve.prime()
        self.serve_rss_mb = rss_mb(self.serve.daemon.proc.pid)

    def _window(self) -> None:
        """Round-robin CP-ALS calls, each followed by a serve burst; at
        least one full round, then until ``--seconds`` have passed."""
        from cpals import CONFIGS

        trace = bool(self.args.trace)
        start = time.perf_counter()
        deadline = start + self.args.seconds
        step = 0
        while step < len(CONFIGS) or time.perf_counter() < deadline:
            config = CONFIGS[step % len(CONFIGS)]
            if trace:
                # a traced and an untraced call, order alternating by round
                first = (step // len(CONFIGS)) % 2 == 0
                call_s = self.cpals.run_call(config, traced=first)
                call_s += self.cpals.run_call(config, traced=not first)
            else:
                call_s = self.cpals.run_call(config, traced=False)
            self.serve.burst(call_s * SERVE_SHARE / (1 - SERVE_SHARE), trace)
            step += 1
        self.window_s = time.perf_counter() - start

    def _after_window(self) -> None:
        self.rss_peak_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        self.pool_rss_mb = pool_rss_mb()
        self.daemon_counts = self.serve.daemon_counts()
        views = self.daemon_counts["serve.views_cached"]
        if views != self.serve.expected_views():
            self.problems.append(f"daemon holds {views} views, expected "
                                 f"{self.serve.expected_views()}")
        self.counts["serve.views_cached"] = views
        self.calib += calibrate()

    # ------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        out = {"setup_s": statistics.median(self.setup_s)}
        out.update(self.cpals.end_to_end())
        out["rss_peak_mb"] = self.rss_peak_mb
        out.update(self.serve.end_to_end())
        out["serve_rss_mb"] = self.serve_rss_mb
        return out

    def per_layer(self) -> Dict[str, float]:
        out = {"host.calib_ms": statistics.median(self.calib)}
        for key in self.layer_times[0]:
            out[key] = statistics.median(t[key] for t in self.layer_times)
        # only the first set-up starts the pool; the later ones reuse it
        out["procpool.start_s"] = self.layer_times[0]["procpool.start_s"]
        out.update(self.counts)
        out["procpool.rss_mb"] = self.pool_rss_mb
        out.update(self.cpals.per_layer(self.counts))
        out.update(self.serve.per_layer())
        return out

    def result(self) -> dict:
        replies = self.serve.log.replies
        errors = self.cpals.errors() + [
            f"serve request {r.op}: {r.error}" for r in replies if not r.ok]
        failed = len(errors) + len(self.mismatches)
        problems = self.mismatches + errors + self.problems
        if problems and not failed:
            failed = 1  # a count or cache check failed: the run is wrong
        metrics = self.per_layer() if self.args.trace else self.end_to_end()
        return {"correct": not problems,
                "attempted": self.cpals.attempted() + len(replies),
                "failed": failed,
                "metrics": {k: {"value": float(v), "unit": unit_of(k)}
                            for k, v in metrics.items()}}, problems

    def report(self, metrics: dict, problems: List[str]) -> List[str]:
        """Human-readable lines printed above the result line."""
        w = self.workload
        lines = [
            f"workload {w.name} seed {self.args.seed} scale "
            f"{self.args.scale} trace {self.args.trace}: window "
            f"{self.window_s:.1f}s, {self.cpals.attempted()} cp_als calls, "
            f"{len(self.serve.log.replies)} requests",
            f"host.calib_ms start {statistics.median(self.calib[:5]):.2f} "
            f"end {statistics.median(self.calib[5:]):.2f}",
            "setup_s samples " + " ".join(f"{s:.3f}" for s in self.setup_s)
            + " (daemon spawn " + " ".join(f"{s:.3f}" for s in self.spawn_s)
            + ")"]
        lines += [f"  {k:<28}{m['value']:>14.6g} {m['unit']}"
                  for k, m in sorted(metrics.items())]
        lines += ["CP-ALS untraced iterations (n, min, median, max s):"]
        lines += [f"  {name:<14}{len(s.untraced):>4}" + "".join(
            f"{x:>9.4f}" for x in (min(s.untraced),
                                   statistics.median(s.untraced),
                                   max(s.untraced)))
            for name, s in self.cpals.samples.items() if s.untraced]
        if self.args.trace:
            lines += ["CP-ALS layers per iteration (s; cover/ovhd vs "
                      "untraced):"]
            lines += ["  " + r for r in self.cpals.layer_table()]
        lines += ["serve ops in the window (plans cached "
                  f"{self.daemon_counts['serve.plans_cached']:.0f}):"]
        lines += ["  " + r for r in self.serve.op_table()]
        return lines + [f"PROBLEM {p}" for p in problems[:20]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="CP-ALS + serve-daemon benchmark (see README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every tensor's size (tests use "
                             "small values)")
    parser.add_argument("--corrupt", choices=("", "fit", "digest", "call"),
                        default="",
                        help="test hook: corrupt one fit or one reply "
                             "digest before the oracle compares them, or "
                             "make every cp_als call of one configuration "
                             "raise")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    become_subreaper()
    work = STATE / f"run-{os.getpid()}"
    try:
        run = Run(args, work)
        run.execute()
    finally:
        stop_descendants()
        shutil.rmtree(work, ignore_errors=True)
    result, problems = run.result()
    if args.trace:
        run.rec.save(STATE / "traces"
                     / f"{args.workload}-s{args.seed}.json")
    for line in run.report(result["metrics"], problems):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
