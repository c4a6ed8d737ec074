"""Seeded inputs of the benchmark: ``.tns`` files and serve request lists.

Every input derives from the workload name, ``--seed`` and ``--scale``, so
the same arguments always give the same files and the same requests.  The
program under test only ever sees the files written here and the request
dicts sent over its socket.

Run as a script to write one workload's tensors into a directory (the
benchmark does this in a child process, so generator memory never counts
towards the benchmark's own peak RSS)::

    python3 perfbench/inputs.py --workload skewed-3d --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: rank of every decomposition and every served job
RANK = 16

#: iterations of every short ``cp_als`` call; the first is excluded from
#: timing, so each call yields ``CPALS_ITERS - 1`` samples
CPALS_ITERS = 3

#: execution-format overrides carried by some MTTKRP requests (the daemon
#: registers its tensors as HiCOO, so these run on converted views)
OVERRIDE_FORMATS = ("coo", "csf", "alto")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CP-ALS tensor plus a serve tensor mix.

    Why each was chosen is recorded in ``BENCHMARK.json`` and README.md.
    """

    name: str
    #: registry analog and scale of the CP-ALS tensor
    cpals: Tuple[str, float]
    #: registry analogs loaded by the daemon, hottest first
    serve: Tuple[Tuple[str, float], ...]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in [
        # power-law, hyper-sparse blocks: HiCOO's weak regime
        Workload("skewed-3d", ("deli", 1.0), (("deli", 0.5), ("uber", 0.5))),
        # clustered, dense blocks: HiCOO's strong regime, 4 modes
        Workload("clustered-4d", ("uber", 1.5),
                 (("uber", 0.5), ("deli", 0.5))),
    ]
}


def tensor_seed(seed: int, name: str, scale: float) -> int:
    """Generator seed of one tensor, derived from the run seed."""
    key = f"{seed}:{name}:{scale!r}".encode()
    return zlib.crc32(key) & 0x7FFFFFFF


def write_tensors(workload: Workload, seed: int, scale: float,
                  out: Path) -> Dict[str, Path]:
    """Generate and write every tensor of ``workload``; returns the paths."""
    from repro.data import registry
    from repro.data.frostt import write_tns

    out.mkdir(parents=True, exist_ok=True)
    specs = {"cpals": workload.cpals}
    specs.update((f"serve:{name}", (name, s)) for name, s in workload.serve)
    files = {}
    for role, (name, s) in specs.items():
        coo = registry.load(name, scale=s * scale,
                            seed=tensor_seed(seed, name, s * scale))
        files[role] = out / f"{role.replace(':', '-')}.tns"
        write_tns(coo, files[role])
    return files


#: requests per class among the 50 templates, and why each share:
#: ``(op, on the hot tensor only, with format overrides, count)``
REQUEST_MIX = (
    # 24%: every (tensor, override format) pair twice, so conversion to
    # each format runs on the request path on both tensors
    ("mttkrp", False, True, 12),
    # 48%: plain MTTKRP, the bulk of the traffic the daemon is built for
    ("mttkrp", False, False, 24),
    # 8%: TTM, a second kernel, on the COO view
    ("ttm", False, False, 4),
    # 20%: one-iteration CP-ALS, the slowest class; at 20% (> 5%) p95
    # lies inside it, and on one tensor it is a single latency class
    ("cp_als", True, False, 10),
)


def request_templates(workload: Workload, seed: int,
                      nmodes: Dict[str, int]) -> List[dict]:
    """The distinct serve requests of a run, format overrides first.

    Each class of ``REQUEST_MIX`` is a seeded ``RequestStream`` of fixed
    length, so the seed draws tensors (Zipf: the hot, first tensor gets
    about two thirds), modes and operands, while every seed gets the same
    share of each class: a mix drawn per seed moved p95 across the
    boundary between two latency classes.  Rank 16, priority 1 and one
    CP-ALS iteration throughout.
    """
    from repro.analysis.traffic import RequestStream

    hot = workload.serve[0][0]
    out: List[dict] = []
    for k, (op, hot_only, overrides, count) in enumerate(REQUEST_MIX):
        if overrides:
            # one stream per tensor, so each tensor gets every format
            parts = [({name: n}, count // len(nmodes))
                     for name, n in nmodes.items()]
        else:
            parts = [({hot: nmodes[hot]} if hot_only else dict(nmodes),
                      count)]
        for j, (tensors, n) in enumerate(parts):
            reqs = RequestStream(
                tensors, n=n, seed=tensor_seed(seed, f"requests:{k}:{j}", 0.0),
                op_mix={op: 1.0}, ranks=(RANK,), iters=(1,),
                priorities=(1,)).generate()
            for i, req in enumerate(reqs):
                del req["arrival_s"]  # the clients run a closed loop
                if overrides:
                    req["format"] = OVERRIDE_FORMATS[i % len(OVERRIDE_FORMATS)]
                out.append(req)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    files = write_tensors(WORKLOADS[args.workload], args.seed, args.scale,
                          Path(args.out))
    print(json.dumps({role: str(p) for role, p in files.items()}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
