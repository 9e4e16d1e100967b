"""The paper-model workloads, ``model`` and ``dse``, in-process.

``model`` runs seeded BN254 pairs through the ``cycle``, ``hdl`` and
``analytical`` simulator tiers at the paper's n/2 point
(``ModSRAMConfig(extend_for_full_range=False)``).  One request is one pair
through all three tiers; each tier run is one operation.  Every product
must equal ``a*b % p`` and every tier's ``CycleReport`` must equal the
analytical one field by field, with 767 main-loop cycles.

``dse`` evaluates every point of the default 640-point sweep with
``evaluate_design_point`` and reduces the Pareto frontier.  One request is
one such pass; each design point is one operation.  The first pass of a
process is cold (the program fills its caches); it runs untimed before the
measured passes, so ``dse`` reports warm throughput, and the traced run
reports the cold pass on its own.  Every pass must reproduce the first
pass's digest of the point results and the frontier.

``setup_s`` of both is measured in fresh interpreters by
:mod:`perfbench.probe`, so first-use caches cannot hide it.  Untraced
runs sample the host's speed with a :class:`HostClock` around every
set-up, every tier call of ``model`` and every block of ``dse`` points, and
report host-normalized time (see :mod:`perfbench.clock`).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional, Sequence

from repro.dse import default_sweep_spec, evaluate_design_point, pareto_frontier
from repro.modsram.config import ModSRAMConfig
from repro.modsram.fidelity import build_simulator

from perfbench.clock import Clock, HostClock, RawClock
from perfbench.common import BN254_P, ROOT, Tracer, make_pairs, peak_rss_mb, percentile

P = BN254_P
TIERS = ("cycle", "hdl", "analytical")
#: Main-loop cycles of one 256-bit multiplication at the paper's n/2 point.
PAPER_ITERATION_CYCLES = 767
#: Seeded pairs the ``model`` loop cycles through.
MODEL_PAIRS = 64
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = 7
#: Design points evaluated between two host-speed samples in ``dse``.
DSE_BLOCK = 64


def _probe(workload: str) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.probe", workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _setup(workload: str, clock: Clock) -> List[Dict[str, float]]:
    """``SETUPS`` probes, each normalized by the host's slowdown around it."""
    probes = []
    for _ in range(SETUPS):
        clock.sample()
        probe = _probe(workload)
        probe["raw_setup_s"] = probe["setup_s"]
        probe["setup_s"] /= clock.section()
        probes.append(probe)
    return probes


def run_model(
    seed: int, seconds: float, tracer: Optional[Tracer], corrupt: int = 0
) -> Dict[str, object]:
    """One run of ``model``; traced when ``tracer`` is given."""
    with HostClock() if tracer is None else RawClock() as clock:
        return _run_model(seed, seconds, tracer, corrupt, clock)


def _run_model(
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    corrupt: int,
    clock: Clock,
) -> Dict[str, object]:
    probes = _setup("model", clock)
    config = ModSRAMConfig(extend_for_full_range=False)
    simulators = {tier: build_simulator(tier, config) for tier in TIERS}
    pairs = make_pairs(seed, MODEL_PAIRS, "model")
    tier_ms: Dict[str, List[float]] = {tier: [] for tier in TIERS}
    request_ms: List[float] = []
    norm_request_ms: List[float] = []
    cycles = 0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    clock.sample()
    while not request_ms or time.perf_counter() < deadline:
        a, b = pairs[index % len(pairs)]
        request = None if tracer is None else tracer.start("model.request", request=index)
        results = {}
        norm_ms = 0.0
        for tier in TIERS:
            span = None if tracer is None else tracer.start(f"{tier}.multiply", request, index)
            started = time.perf_counter()
            results[tier] = simulators[tier].multiply(a, b, P)
            tier_ms[tier].append((time.perf_counter() - started) * 1e3)
            norm_ms += tier_ms[tier][-1] / clock.section()
            if span is not None:
                tracer.finish(span, total_cycles=results[tier].report.total_cycles)
        if request is not None:
            tracer.finish(request)
        request_ms.append(sum(tier_ms[tier][-1] for tier in TIERS))
        norm_request_ms.append(norm_ms)
        # Verification, outside the timed tier calls.
        reference = results["analytical"].report
        for tier, result in results.items():
            product = result.product + (1 if corrupt and tier == "cycle" else 0)
            attempted += 1
            if (
                product != a * b % P
                or result.report != reference
                or result.report.iteration_cycles != PAPER_ITERATION_CYCLES
            ):
                failed += 1
            cycles += result.report.total_cycles
        corrupt = max(corrupt - 1, 0)
        index += 1

    tier_s = sum(request_ms) / 1e3
    extra: Dict[str, object] = {}
    if tracer is None:
        metrics = {
            "setup_s": median(probe["setup_s"] for probe in probes),
            "ops_per_s": attempted / (sum(norm_request_ms) / 1e3),
            "latency_p50_ms": percentile(norm_request_ms, 50),
            "peak_rss_mb": peak_rss_mb(),
        }
        extra["raw"] = {
            "setup_s": median(probe["raw_setup_s"] for probe in probes),
            "ops_per_s": attempted / tier_s,
            "latency_p50_ms": percentile(request_ms, 50),
        }
        extra["host_slowdown"] = clock.samples
    else:
        metrics = {
            "modsram.cycle.ms_per_mul": median(tier_ms["cycle"]),
            "hdl.ms_per_mul": median(tier_ms["hdl"]),
            "modsram.analytical.ms_per_mul": median(tier_ms["analytical"]),
            "hdl.setup_s": median(probe["hdl_setup_s"] for probe in probes),
            "modsram.iteration_cycles": reference.iteration_cycles,
            "modsram.sim_cycles_per_s": cycles / tier_s,
            "latency.p50_ms": percentile(request_ms, 50),
            "latency.p99_ms": percentile(request_ms, 99),
            "latency.samples": len(request_ms),
            "failed_share": failed / attempted,
        }
    return {
        "config": {
            "tiers": list(TIERS),
            "extend_for_full_range": False,
            "modulus": "bn254.p",
            "pairs": MODEL_PAIRS,
            "setups": SETUPS,
        },
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": {
            "latency_samples": len(request_ms),
            "reference_report": reference.as_dict(),
            **extra,
        },
    }


def _digest(results: Sequence[object], frontier: Sequence[object]) -> str:
    payload = {
        "points": [result.to_dict() for result in results],
        "frontier": [
            {"index": f.index, "objectives": f.objectives, "dominates": f.dominates}
            for f in frontier
        ],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_dse(
    seed: int, seconds: float, tracer: Optional[Tracer], corrupt: int = 0
) -> Dict[str, object]:
    """One run of ``dse``; traced when ``tracer`` is given.

    The sweep is fixed, so ``seed`` changes nothing here; it is taken so
    every workload has the same command line.
    """
    del seed
    with HostClock() if tracer is None else RawClock() as clock:
        return _run_dse(seconds, tracer, corrupt, clock)


def _run_dse(
    seconds: float, tracer: Optional[Tracer], corrupt: int, clock: Clock
) -> Dict[str, object]:
    probes = _setup("dse", clock)
    spec = default_sweep_spec()
    started = time.perf_counter()
    points = spec.expand()
    expand_ms = (time.perf_counter() - started) * 1e3

    def one_pass(name: str, request: int):
        """Returns results, frontier, then evaluate, reduce and normalized seconds."""
        span = None if tracer is None else tracer.start(name, request=request)
        results = []
        evaluate = norm = 0.0
        clock.sample()
        for first in range(0, len(points), DSE_BLOCK):
            started = time.perf_counter()
            results.extend(evaluate_design_point(p) for p in points[first : first + DSE_BLOCK])
            elapsed = time.perf_counter() - started
            evaluate += elapsed
            norm += elapsed / clock.section()
        started = time.perf_counter()
        frontier = pareto_frontier([result.to_dict() for result in results])
        reduce = time.perf_counter() - started
        norm += reduce / clock.section()
        if span is not None:
            tracer.finish(span, points=len(results), frontier=len(frontier))
        return results, frontier, evaluate, reduce, norm

    results, frontier, cold_s, _, _ = one_pass("dse.cold_pass", 0)
    reference = _digest(results, frontier)
    evaluate_s: List[float] = []
    frontier_s: List[float] = []
    norm_pass_ms: List[float] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not evaluate_s or time.perf_counter() < deadline:
        results, frontier, evaluate, reduce, norm = one_pass("dse.pass", len(evaluate_s) + 1)
        evaluate_s.append(evaluate)
        frontier_s.append(reduce)
        norm_pass_ms.append(norm * 1e3)
        attempted += len(points)
        if corrupt:
            results = results[1:]
            corrupt -= 1
        if _digest(results, frontier) != reference:
            failed += len(points)

    pass_ms = [(e + f) * 1e3 for e, f in zip(evaluate_s, frontier_s)]
    extra: Dict[str, object] = {}
    if tracer is None:
        metrics = {
            "setup_s": median(probe["setup_s"] for probe in probes),
            "ops_per_s": attempted / (sum(norm_pass_ms) / 1e3),
            "latency_p50_ms": percentile(norm_pass_ms, 50),
            "peak_rss_mb": peak_rss_mb(),
        }
        extra["raw"] = {
            "setup_s": median(probe["raw_setup_s"] for probe in probes),
            "ops_per_s": attempted / (sum(pass_ms) / 1e3),
            "latency_p50_ms": percentile(pass_ms, 50),
        }
        extra["host_slowdown"] = clock.samples
    else:
        metrics = {
            "dse.spec.expand_ms": expand_ms,
            "dse.evaluate.ms_per_point": median(evaluate_s) * 1e3 / len(points),
            "dse.evaluate.cold_ms_per_point": cold_s * 1e3 / len(points),
            "dse.frontier.ms": median(frontier_s) * 1e3,
            "dse.frontier_size": len(frontier),
            "latency.p50_ms": percentile(pass_ms, 50),
            "latency.p99_ms": percentile(pass_ms, 99),
            "latency.samples": len(pass_ms),
            "failed_share": failed / attempted,
        }
    return {
        "config": {"spec": spec.name, "points": len(points), "setups": SETUPS, "warm": True},
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": {"digest": reference, "frontier_size": len(frontier), **extra},
    }
