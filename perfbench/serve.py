"""Serve phase: the ``hicoo-repro serve`` daemon under closed-loop load.

The daemon runs as shipped (sim backend, 1 thread, 1 executor) in its own
process and loads the workload's ``.tns`` files with ``--load``.  Before
the timed window one client sends every request template once, so the
daemon's views and job history are a fixed set when its memory is read.
In the window two closed-loop clients (one per core) replay seeded
shuffles of the templates in short bursts that alternate with the CP-ALS
calls.  Every reply's digest is checked after the timed window against an
in-process ``run_job(..., backend="sim")`` on the same files.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from spans import SpanRecorder

NCLIENTS = 2

#: seconds a client waits for one reply before counting a timeout
REPLY_TIMEOUT = 60.0

_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


@dataclass
class Reply:
    """One job request as the client saw it."""

    template: int
    op: str
    latency_s: float
    traced: bool
    ok: bool
    queued_s: float = 0.0
    run_s: float = 0.0
    batch_size: int = 1
    digest: str = ""
    error: str = ""
    #: sent before the timed window: checked, but not in the metrics
    primed: bool = False


@dataclass
class ServeLog:
    replies: List[Reply] = field(default_factory=list)
    busy_s: float = 0.0
    first_override_s: Dict[tuple, float] = field(default_factory=dict)

    def window(self) -> List[Reply]:
        """The successful replies of the timed window."""
        return [r for r in self.replies if r.ok and not r.primed]


class Daemon:
    """A spawned ``hicoo-repro serve`` process."""

    def __init__(self, root: Path, files: Dict[str, Path]) -> None:
        cmd = [sys.executable, "-u", "-m", "repro.tools", "serve",
               "--port", "0"]
        for name, path in files.items():
            cmd += ["--load", f"{name}={path}"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
        self.output: deque = deque(maxlen=50)
        self.port = 0
        self._listening = threading.Event()
        # drains the daemon's output for its whole life, so a chatty
        # daemon never blocks on a full pipe
        self._reader = threading.Thread(target=self._read_output,
                                        daemon=True)
        self._reader.start()
        if not self._listening.wait(timeout=120.0) or not self.port:
            self.stop()
            raise RuntimeError("serve daemon did not start:\n"
                               + "".join(self.output))

    def _read_output(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            match = _LISTENING.search(line)
            if match and not self.port:
                self.port = int(match.group(2))
                self._listening.set()
        self._listening.set()  # EOF: the daemon is gone

    def stop(self) -> None:
        """Terminate the daemon and wait for it.

        SIGTERM, not SIGINT: the daemon's clean shutdown waits ~5 s for
        its accept thread, and a sim-backend daemon holds nothing (no
        shared memory, no files) that needs it.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self._reader.join(timeout=20)
        self.proc.stdout.close()


class ServePhase:
    """Closed-loop replay of the request templates against one daemon."""

    def __init__(self, root: Path, files: Dict[str, Path],
                 templates: List[dict], seed: int,
                 rec: SpanRecorder) -> None:
        self.root = root
        self.files = files
        self.templates = templates
        self.rec = rec
        self.daemon: Optional[Daemon] = None
        self.clients = []
        self.log = ServeLog()
        self._rng = np.random.default_rng(seed)
        self._order: List[int] = []
        self._next = 0
        self._seq = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the daemon and wait until every loaded tensor has answered
        one request."""
        from repro.serve.client import ServeClient

        self.daemon = Daemon(self.root, self.files)
        with ServeClient(port=self.daemon.port, timeout=REPLY_TIMEOUT) as cli:
            for name in self.files:
                cli.mttkrp(name, mode=0, rank=self.templates[0]["rank"])

    def stop(self) -> None:
        for cli in self.clients:
            cli.close()
        self.clients = []
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def _connect(self) -> None:
        from repro.serve.client import ServeClient

        if not self.clients:
            self.clients = [ServeClient(port=self.daemon.port,
                                        timeout=REPLY_TIMEOUT).connect()
                            for _ in range(NCLIENTS)]

    # ------------------------------------------------------------------
    def prime(self) -> None:
        """Send every template once, in order, from one client.

        The override templates lead, so the direct converters run here,
        on the request path (``serve.first_override_ms``).
        """
        self._connect()
        for idx in range(len(self.templates)):
            self._send(0, idx, traced=False, primed=True)

    def _take(self) -> tuple:
        """Sequence number and template index of the next request, from
        seeded shuffles of the templates."""
        with self._lock:
            if self._next == len(self._order):
                self._order = list(self._rng.permutation(len(self.templates)))
                self._next = 0
            self._next += 1
            self._seq += 1
            return self._seq, int(self._order[self._next - 1])

    def burst(self, seconds: float, trace: bool) -> None:
        """Both clients send back-to-back requests for ``seconds``."""
        self._connect()
        start = time.perf_counter()
        deadline = start + seconds
        threads = [threading.Thread(target=self._client_loop,
                                    args=(i, deadline, trace))
                   for i in range(NCLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.log.busy_s += time.perf_counter() - start

    def _client_loop(self, i: int, deadline: float, trace: bool) -> None:
        while time.perf_counter() < deadline:
            seq, idx = self._take()
            # in a traced run every other request is wrapped in a span, so
            # the overhead of tracing is measured against its neighbours
            self._send(i, idx, traced=trace and seq % 2 == 0)

    def _send(self, i: int, idx: int, traced: bool,
              primed: bool = False) -> None:
        """Send template ``idx`` from client ``i`` and record the reply."""
        from repro.serve.client import ServeClient

        req = self.templates[idx]
        start = time.perf_counter_ns()
        try:
            reply = self.clients[i].submit(req, check=False)
        except (ConnectionError, OSError) as exc:
            end = time.perf_counter_ns()
            self._record(Reply(idx, req["op"], (end - start) / 1e9,
                               traced, False, error=repr(exc),
                               primed=primed))
            self.clients[i].close()
            self.clients[i] = ServeClient(port=self.daemon.port,
                                          timeout=REPLY_TIMEOUT)
            return
        end = time.perf_counter_ns()
        rep = Reply(idx, req["op"], (end - start) / 1e9, traced,
                    bool(reply.get("ok")),
                    queued_s=float(reply.get("queued_s", 0.0)),
                    run_s=float(reply.get("run_s", 0.0)),
                    batch_size=int(reply.get("batch_size", 1)),
                    digest=str(reply.get("digest", "")),
                    error="" if reply.get("ok") else str(reply.get("error")),
                    primed=primed)
        if traced:
            self.rec.add("serve.request", start, end, op=req["op"],
                         tensor=req["tensor"], format=req.get("format", ""),
                         queued_s=rep.queued_s, run_s=rep.run_s)
        self._record(rep)
        if req.get("format"):
            with self._lock:
                self.log.first_override_s.setdefault(
                    (req["tensor"], req["format"]), rep.latency_s)

    def _record(self, rep: Reply) -> None:
        with self._lock:
            self.log.replies.append(rep)

    # ------------------------------------------------------------------
    def daemon_counts(self) -> Dict[str, float]:
        """Cache counts reported by the daemon's ``tensors`` op."""
        from repro.serve.client import ServeClient

        with ServeClient(port=self.daemon.port, timeout=REPLY_TIMEOUT) as cli:
            tensors = cli.tensors()
        return {
            "serve.views_cached": float(sum(len(t["views_cached"])
                                            for t in tensors)),
            "serve.plans_cached": float(sum(t["plans_cached"]
                                            for t in tensors)),
        }

    def expected_views(self) -> int:
        """Views the daemon must hold: one per (tensor, non-COO override
        format) among the requests sent (a COO override reuses the entry's
        COO view, which is not a format view)."""
        sent = {rep.template for rep in self.log.replies}
        return len({(self.templates[t]["tensor"], self.templates[t]["format"])
                    for t in sent
                    if self.templates[t].get("format") not in (None, "coo",
                                                                "hicoo")})

    def check(self, corrupt: str = "") -> List[str]:
        """Recompute each template that was sent in-process and compare
        digests with every reply for it."""
        from repro.core.converters import convert
        from repro.data.frostt import read_tns
        from repro.formats import as_format
        from repro.serve.jobs import run_job

        if corrupt == "digest":
            for rep in self.log.replies:
                if rep.ok:
                    rep.digest = "0" * 64
                    break
        resident = {name: as_format(read_tns(path), "hicoo")
                    for name, path in self.files.items()}
        coo = {name: t.to_coo() for name, t in resident.items()}
        views: Dict[tuple, object] = {}
        expected: Dict[int, str] = {}
        problems = []
        for rep in self.log.replies:
            if not rep.ok:
                continue  # counted as failed by the caller
            if rep.template not in expected:
                req = self.templates[rep.template]
                name, fmt = req["tensor"], req.get("format")
                if req["op"] == "ttm" or fmt == "coo":
                    tensor = coo[name]
                elif fmt in (None, "hicoo"):
                    tensor = resident[name]
                else:
                    if (name, fmt) not in views:
                        views[(name, fmt)] = convert(resident[name], fmt)
                    tensor = views[(name, fmt)]
                expected[rep.template] = run_job(
                    req["op"], tensor, mode=req.get("mode", 0),
                    rank=req["rank"], seed=req["seed"],
                    iters=req.get("iters", 3), backend="sim",
                    nthreads=1)["digest"]
            if rep.digest != expected[rep.template]:
                problems.append(f"serve template {rep.template}: digest "
                                f"{rep.digest[:12]} != oracle "
                                f"{expected[rep.template][:12]}")
        return problems

    # ------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        done = self.log.window()
        lat = [r.latency_s * 1e3 for r in done]
        return {
            "serve_req_s": len(done) / self.log.busy_s
            if self.log.busy_s else 0.0,
            "serve_p50_ms": _quantile(lat, 0.50),
            "serve_p95_ms": _quantile(lat, 0.95),
        }

    def per_layer(self) -> Dict[str, float]:
        done = self.log.window()
        out = {}
        for op in ("mttkrp", "cp_als", "ttm"):
            out[f"serve.run_ms.{op}"] = _quantile(
                [r.run_s * 1e3 for r in done if r.op == op], 0.5)
        queue = [r.queued_s * 1e3 for r in done]
        out["serve.queue_ms.p50"] = _quantile(queue, 0.50)
        out["serve.queue_ms.p95"] = _quantile(queue, 0.95)
        traced = [r for r in done if r.traced]
        untraced = [r for r in done if not r.traced]
        wire = [(r.latency_s - r.queued_s - r.run_s) * 1e3 for r in traced]
        out["serve.wire_ms"] = _quantile(wire, 0.5)
        out["serve.batch_size_mean"] = (
            sum(r.batch_size for r in done) / len(done) if done else 0.0)
        firsts = list(self.log.first_override_s.values())
        out["serve.first_override_ms"] = _quantile(
            [s * 1e3 for s in firsts], 0.5)
        # the daemon-reported layers (queue + run) against the untraced
        # latency, as means so that the parts add up
        base = _mean([r.latency_s for r in untraced])
        seen = _mean([r.queued_s + r.run_s for r in traced])
        out["serve.coverage"] = seen / base if base else 0.0
        out["serve.trace_overhead"] = (
            _quantile([r.latency_s for r in traced], 0.5)
            / _quantile([r.latency_s for r in untraced], 0.5)
            if untraced else 0.0)
        return out

    def op_table(self) -> List[str]:
        """Latency quantiles per op class (where p95 falls)."""
        done = self.log.window()
        rows = [f"{'op':<8}{'count':>7}{'p50_ms':>9}{'p95_ms':>9}"
                f"{'run_ms':>9}{'queue_ms':>9}"]
        for op in ("mttkrp", "cp_als", "ttm"):
            sel = [r for r in done if r.op == op]
            rows.append(
                f"{op:<8}{len(sel):>7}"
                f"{_quantile([r.latency_s * 1e3 for r in sel], .5):>9.2f}"
                f"{_quantile([r.latency_s * 1e3 for r in sel], .95):>9.2f}"
                f"{_quantile([r.run_s * 1e3 for r in sel], .5):>9.2f}"
                f"{_quantile([r.queued_s * 1e3 for r in sel], .5):>9.2f}")
        return rows


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _quantile(values, q: float) -> float:
    """The ``q`` quantile (inclusive method); 0.0 for no samples."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if q == 0.5:
        return float(statistics.median(values))
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q * 100)) - 1])
