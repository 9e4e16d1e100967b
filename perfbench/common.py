"""Shared pieces of the benchmark: operands, percentiles, spans, provenance.

Nothing here imports ``repro`` at module level, so :mod:`perfbench.probe`
can time a cold import of the program itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Repository root (the checkout the benchmark runs in).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: BN254 base-field modulus: every serving and model operand is below it.
BN254_P = (
    21888242871839275222246405745257275088696311157297823662689037894645226208583
)

Pair = Tuple[int, int]


def make_pairs(seed: int, count: int, stream: str) -> List[Pair]:
    """``count`` seeded operand pairs below BN254's p.

    ``stream`` separates the draws of different workloads, so one seed
    gives every workload its own, repeatable operands.
    """
    rng = random.Random(f"{stream}:{seed}")
    return [(rng.randrange(BN254_P), rng.randrange(BN254_P)) for _ in range(count)]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


#: CPUs this process may run on when the benchmark starts.
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_main() -> None:
    """Keep this process (client, router, in-process model) on one CPU.

    Left to the scheduler, the client/router process and the worker
    process migrate between CPUs mid-run, and serving throughput varied
    by 12-17% between 10 s runs on a 2-vCPU VM; with fixed placement it
    varied by 3-6% between 20 s runs.  With fewer than two CPUs nothing
    is pinned.
    """
    if len(_CPUS) >= 2:
        os.sched_setaffinity(0, {_CPUS[0]})


def worker_cpu_apart() -> bool:
    """Whether spawned processes get a CPU of their own (two or more CPUs)."""
    return len(_CPUS) >= 2


@contextmanager
def on_worker_cpu() -> Iterator[None]:
    """Processes spawned inside this block run on the last allowed CPU."""
    if len(_CPUS) < 2:
        yield
        return
    os.sched_setaffinity(0, {_CPUS[-1]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, {_CPUS[0]})


class Tracer:
    """Spans kept in memory and written out once, when the run ends.

    A span is one public call the benchmark made: its name, start and end
    (``time.perf_counter`` seconds), the span that caused it, the request
    it served and any attributes the call returned (for example the
    worker-side timing fields of a cluster response).
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []

    def start(
        self, name: str, parent: Optional[int] = None, request: Optional[int] = None
    ) -> int:
        """Open a span now; returns its id for :meth:`finish` and children."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": parent,
                "request": request,
            }
        )
        return len(self.spans) - 1

    def finish(self, span_id: int, **attrs: object) -> None:
        """Close a span now, attaching the attributes the call returned."""
        span = self.spans[span_id]
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"] = attrs

    def write(self, path: Path, provenance: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"provenance": provenance, "spans": self.spans}, handle)
            handle.write("\n")


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes), sorted.

    It identifies the measured program where the checkout is not a git
    repository and so has no commit sha.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file()):
        if any(p == "__pycache__" or p.endswith(".egg-info") for p in path.parts):
            continue
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(
    workload: str, seed: int, seconds: float, trace: bool, config: Dict[str, object]
) -> Dict[str, object]:
    """Where and how a result was measured, written beside every result."""
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": config,
        "unix_time": time.time(),
    }
