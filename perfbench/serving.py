"""The serving workloads, ``bulk`` and ``single``, and the serving ladder.

Both workloads drive one client connection in a closed loop through a
one-worker :class:`~repro.cluster.LocalFleet` over wire v2: ``bulk`` keeps
two 4096-pair requests outstanding, ``single`` keeps 32 one-pair requests
outstanding.  The router shares this process with the client.

Requests run in chunks of a fixed request count.  Each chunk is timed;
its products are verified against ``a*b % p`` after the chunk ends, so
verification neither shares the timed window with the router nor holds
more than one chunk of products in memory, whatever the program's speed.
Between chunks, while nothing is in flight, a :class:`HostClock` samples
the speed of both CPUs, and the end-to-end metrics are in host-normalized
time (see :mod:`perfbench.clock`).

The traced run adds the per-layer breakdown: the client, router, server
queue and server execution legs of every request (from the response's own
timing fields), the router's counters, and the ladder, where the same
operands and request shape run through the ``a*b % p`` floor, ``Engine``,
``Server`` inline, ``Server`` with a one-process pool and the v2 codec.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass
from statistics import median
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import ClusterClient, LocalFleet, decode_frame_v2, encode_frame_v2
from repro.engine import EngineSpec
from repro.errors import ReproError
from repro.service import Server

from perfbench.clock import Clock, HostClock, RawClock
from perfbench.common import (
    BN254_P,
    Pair,
    Tracer,
    make_pairs,
    on_worker_cpu,
    peak_rss_mb,
    percentile,
)

P = BN254_P


@dataclass(frozen=True)
class Shape:
    """One request shape and how the closed loop drives it."""

    pairs_per_request: int
    #: Requests kept in flight on the one client connection.
    outstanding: int
    #: Distinct seeded requests the loop cycles through.
    distinct_requests: int
    #: Requests per timed chunk (products verified between chunks).
    chunk_requests: int


SHAPES: Dict[str, Shape] = {
    "bulk": Shape(
        pairs_per_request=4096, outstanding=2, distinct_requests=8, chunk_requests=32
    ),
    "single": Shape(
        pairs_per_request=1, outstanding=32, distinct_requests=4096, chunk_requests=2048
    ),
}

#: Fleet set-ups per run; ``setup_s`` is their median.  The last fleet
#: set up is the one measured.
SETUPS = 7

#: The traced run's split of ``--seconds``: untraced and traced fleet
#: loops, then the ladder rungs.
TRACE_BUDGET = {
    "fleet": 0.25,
    "fleet_traced": 0.25,
    "floor": 0.08,
    "engine": 0.08,
    "service.server": 0.1,
    "service.pool": 0.1,
    "codec": 0.08,
}

#: Stated tolerance of the leg decomposition: the p50s of the client,
#: router, server queue and server execution legs must sum to the
#: client-observed p50 within this share of it.  The legs telescope
#: exactly per request; the p50 of a sum differs from the sum of p50s.
LEG_SUM_TOLERANCE = 0.25

Outcome = Tuple[int, float, float, object]  # index, start, end, response | error


class Tally:
    """Outcomes of a closed loop, verified outside its timed chunks."""

    def __init__(self, requests: Sequence[Sequence[Pair]], corrupt: int = 0) -> None:
        self.requests = requests
        self.expected = [tuple(a * b % P for a, b in pairs) for pairs in requests]
        #: Products to falsify before checking: proves wrong ones are caught.
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.verified = 0
        self.latencies_ms: List[float] = []
        self.chunk_rates: List[float] = []
        self.timed_s = 0.0
        #: The same in host-normalized time (raw under a :class:`RawClock`).
        self.norm_latencies_ms: List[float] = []
        self.norm_s = 0.0

    def check(self, index: int, values: Sequence[int]) -> int:
        """Count one request's products; returns how many were right."""
        expected = self.expected[index % len(self.expected)]
        if self.corrupt:
            values = (values[0] + 1,) + tuple(values[1:])
            self.corrupt -= 1
        self.attempted += len(expected)
        if tuple(values) == expected:
            return len(expected)
        right = sum(1 for got, want in zip(values, expected) if got == want)
        self.failed += len(expected) - right
        return right

    def add_chunk(
        self, elapsed: float, outcomes: Sequence[Outcome], slowdown: float = 1.0
    ) -> None:
        products = 0
        for index, started, ended, response in outcomes:
            if isinstance(response, BaseException):
                pairs = len(self.requests[index % len(self.requests)])
                self.attempted += pairs
                self.failed += pairs
                continue
            products += self.check(index, response.values)
            self.latencies_ms.append((ended - started) * 1e3)
            self.norm_latencies_ms.append((ended - started) * 1e3 / slowdown)
        self.verified += products
        self.timed_s += elapsed
        self.norm_s += elapsed / slowdown
        self.chunk_rates.append(products / elapsed)


async def _chunk(
    submit: Callable[[Sequence[Pair]], Awaitable[object]],
    requests: Sequence[Sequence[Pair]],
    shape: Shape,
    first: int,
    tracer: Optional[Tracer],
    parent: Optional[int],
) -> Tuple[float, List[Outcome]]:
    """One timed closed-loop chunk of ``shape.chunk_requests`` requests."""
    outcomes: List[Outcome] = []
    next_index = first
    last = first + shape.chunk_requests

    async def lane() -> None:
        nonlocal next_index
        while next_index < last:
            index = next_index
            next_index += 1
            span = (
                None
                if tracer is None
                else tracer.start("cluster.client.multiply_batch", parent, index)
            )
            started = time.perf_counter()
            try:
                response: object = await submit(requests[index % len(requests)])
            except ReproError as error:
                response = error
            ended = time.perf_counter()
            if span is not None:
                if isinstance(response, BaseException):
                    tracer.finish(span, error=type(response).__name__)
                else:
                    tracer.finish(
                        span,
                        router_latency_ms=response.router_latency_ms,
                        latency_ms=response.latency_ms,
                        queue_ms=response.queue_ms,
                        batched_pairs=response.batched_pairs,
                    )
            outcomes.append((index, started, ended, response))

    started = time.perf_counter()
    await asyncio.gather(*(lane() for _ in range(shape.outstanding)))
    return time.perf_counter() - started, outcomes


async def closed_loop(
    submit: Callable[[Sequence[Pair]], Awaitable[object]],
    tally: Tally,
    shape: Shape,
    seconds: float,
    tracer: Optional[Tracer] = None,
    parent: Optional[int] = None,
    clock: Clock = RawClock(),
) -> None:
    """Run whole chunks until ``seconds`` of wall time have passed.

    With a :class:`HostClock`, the host's speed is sampled before the
    first chunk and after each one, and each chunk is normalized by its
    own slowdown; the default :class:`RawClock` leaves time raw.
    """
    deadline = time.perf_counter() + seconds
    first = 0
    clock.sample()
    while True:
        elapsed, outcomes = await _chunk(
            submit, tally.requests, shape, first, tracer, parent
        )
        tally.add_chunk(elapsed, outcomes, clock.section())
        first += shape.chunk_requests
        if time.perf_counter() >= deadline:
            return


async def _start_fleet(
    first_request: Sequence[Pair],
    tally: Tally,
    tracer: Optional[Tracer] = None,
    parent: Optional[int] = None,
) -> Tuple[float, LocalFleet, ClusterClient]:
    """Fleet start through worker join and the first answered request."""
    span = None if tracer is None else tracer.start("perfbench.setup", parent)
    started = time.perf_counter()
    fleet = LocalFleet(workers=1)
    try:
        with on_worker_cpu():
            await fleet.start()
        client = ClusterClient(fleet.router.config.host, fleet.port)
        await client.connect()
        try:
            response = await client.multiply_batch(first_request, P)
        except BaseException:
            await client.close()
            raise
    except BaseException:
        await fleet.close()
        raise
    elapsed = time.perf_counter() - started
    if span is not None:
        tracer.finish(span)
    tally.check(0, response.values)
    return elapsed, fleet, client


async def _router_counts(client: ClusterClient) -> Dict[str, object]:
    stats = await client.stats()
    return {
        "failed": int(stats["failed"]),
        "redispatches": int(stats["redispatches"]),
        "protocol_errors": int(stats["protocol_errors"]),
        "inflight": int(stats["inflight"]),
        "wire_frames": dict(stats["wire_frames"]),
    }


def _router_violations(counts: Dict[str, object]) -> int:
    """Router counters that must read 0 after the loop drained."""
    return sum(
        int(counts[key]) for key in ("failed", "redispatches", "protocol_errors", "inflight")
    )


def _requests(workload: str, seed: int) -> List[List[Pair]]:
    shape = SHAPES[workload]
    pairs = make_pairs(seed, shape.distinct_requests * shape.pairs_per_request, workload)
    size = shape.pairs_per_request
    return [pairs[i : i + size] for i in range(0, len(pairs), size)]


def _config(workload: str) -> Dict[str, object]:
    return {
        **asdict(SHAPES[workload]),
        "fleet_workers": 1,
        "wire": 2,
        "engine_spec": EngineSpec().as_dict(),
        "modulus": "bn254.p",
        "setups": SETUPS,
    }


async def _measure(workload: str, seed: int, seconds: float, corrupt: int) -> Dict[str, object]:
    shape = SHAPES[workload]
    tally = Tally(_requests(workload, seed), corrupt=corrupt)
    setups: List[float] = []
    raw_setups: List[float] = []
    fleet: Optional[LocalFleet] = None
    client: Optional[ClusterClient] = None
    with HostClock(worker_cpu=True) as clock:
        try:
            for _ in range(SETUPS):
                if fleet is not None:
                    await client.close()
                    await fleet.close()
                    fleet = client = None
                clock.sample()
                elapsed, fleet, client = await _start_fleet(tally.requests[0], tally)
                raw_setups.append(elapsed)
                setups.append(elapsed / clock.section())
            await closed_loop(
                lambda pairs: client.multiply_batch(pairs, P),
                tally,
                shape,
                seconds,
                clock=clock,
            )
            violations = _router_violations(await _router_counts(client))
        finally:
            if client is not None:
                await client.close()
            if fleet is not None:
                await fleet.close()
    failed = tally.failed + violations
    return {
        "config": _config(workload),
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median(setups),
            "ops_per_s": tally.verified / tally.norm_s,
            "latency_p50_ms": percentile(tally.norm_latencies_ms, 50),
            "peak_rss_mb": peak_rss_mb(),
        },
        "extra": {
            "latency_samples": len(tally.latencies_ms),
            "raw": {
                "setup_s": median(raw_setups),
                "ops_per_s": tally.verified / tally.timed_s,
                "latency_p50_ms": percentile(tally.latencies_ms, 50),
                "latency_p99_ms": percentile(tally.latencies_ms, 99),
            },
            "host_slowdown": clock.samples,
        },
    }


# ---------------------------------------------------------------------- #
# the traced run
# ---------------------------------------------------------------------- #
def _legs(spans: Sequence[Dict[str, object]]) -> Dict[str, List[float]]:
    """Per-request legs of the answered client calls.

    They telescope: client leg + router leg + queue + execution equals the
    client-observed time of each request exactly.
    """
    legs: Dict[str, List[float]] = {
        "client": [],
        "cluster.client.leg_ms": [],
        "cluster.router.leg_ms": [],
        "service.server.queue_ms": [],
        "service.server.exec_ms": [],
        "batch_pairs": [],
    }
    for span in spans:
        attrs = span.get("attrs") or {}
        if span["name"] != "cluster.client.multiply_batch" or "latency_ms" not in attrs:
            continue
        client_ms = (span["end"] - span["start"]) * 1e3
        legs["client"].append(client_ms)
        legs["cluster.client.leg_ms"].append(client_ms - attrs["router_latency_ms"])
        legs["cluster.router.leg_ms"].append(
            attrs["router_latency_ms"] - attrs["latency_ms"]
        )
        legs["service.server.queue_ms"].append(attrs["queue_ms"])
        legs["service.server.exec_ms"].append(attrs["latency_ms"] - attrs["queue_ms"])
        legs["batch_pairs"].append(attrs["batched_pairs"])
    return legs


def _sync_rung(
    call: Callable[[Sequence[Pair]], Sequence[int]],
    tally: Tally,
    shape: Shape,
    seconds: float,
) -> None:
    """A blocking rung, timed per chunk and verified between chunks."""
    deadline = time.perf_counter() + seconds
    first = 0
    while True:
        outcomes = []
        started = time.perf_counter()
        for index in range(first, first + shape.chunk_requests):
            outcomes.append((index, call(tally.requests[index % len(tally.requests)])))
        elapsed = time.perf_counter() - started
        products = sum(tally.check(index, values) for index, values in outcomes)
        tally.verified += products
        tally.timed_s += elapsed
        first += shape.chunk_requests
        if time.perf_counter() >= deadline:
            return


def _rate(tally: Tally) -> float:
    return tally.verified / tally.timed_s


async def _server_rung(
    workers: Optional[int],
    requests: Sequence[Sequence[Pair]],
    shape: Shape,
    seconds: float,
    tracer: Tracer,
    name: str,
    parent: int,
) -> Tally:
    tally = Tally(requests)
    with on_worker_cpu():
        server = Server(engine=EngineSpec().build(), workers=workers)
        await server.start()
    try:
        await server.multiply_batch(requests[0], P)  # warm the modulus context
        span = tracer.start(name, parent)
        await closed_loop(
            lambda pairs: server.multiply_batch(pairs, P), tally, shape, seconds
        )
        tracer.finish(span, mul_per_s=_rate(tally))
    finally:
        await server.stop()
    return tally


def _codec_rung(
    requests: Sequence[Sequence[Pair]], seconds: float, tracer: Tracer, parent: int
) -> Tuple[float, float, int]:
    """Microseconds per v2 submit frame of the shape: encode, then decode."""
    messages = [
        {
            "type": "submit",
            "id": index,
            "tenant": "default",
            "kind": "pairs",
            "modulus": P,
            "pairs": [[a, b] for a, b in pairs],
        }
        for index, pairs in enumerate(requests[: min(len(requests), 256)])
    ]
    span = tracer.start("cluster.protocol.encode_frame_v2", parent)
    payloads: List[bytes] = []
    deadline = time.perf_counter() + seconds / 2
    encode_s = 0.0
    while not payloads or time.perf_counter() < deadline:
        started = time.perf_counter()
        frames = [encode_frame_v2(message) for message in messages]
        encode_s += time.perf_counter() - started
        payloads.extend(b"".join(parts[1:]) for parts in frames)
    tracer.finish(span, frames=len(payloads))
    span = tracer.start("cluster.protocol.decode_frame_v2", parent)
    started = time.perf_counter()
    decoded = [decode_frame_v2(payload) for payload in payloads]
    decode_s = time.perf_counter() - started
    tracer.finish(span, frames=len(decoded))
    wrong = sum(
        1
        for index, message in enumerate(decoded)
        if message["pairs"].tolist() != messages[index % len(messages)]["pairs"]
    )
    return encode_s / len(payloads) * 1e6, decode_s / len(decoded) * 1e6, wrong


async def _measure_traced(
    workload: str, seed: int, seconds: float, tracer: Tracer
) -> Dict[str, object]:
    shape = SHAPES[workload]
    requests = _requests(workload, seed)
    budget = {key: share * seconds for key, share in TRACE_BUDGET.items()}
    untraced = Tally(requests)
    traced = Tally(requests)
    run_span = tracer.start(f"perfbench.{workload}")
    fleet = client = None
    try:
        _, fleet, client = await _start_fleet(requests[0], traced, tracer, run_span)
        submit = lambda pairs: client.multiply_batch(pairs, P)  # noqa: E731
        await closed_loop(submit, untraced, shape, budget["fleet"])
        before = await _router_counts(client)
        loop_span = tracer.start("perfbench.traced_loop", run_span)
        await closed_loop(
            submit, traced, shape, budget["fleet_traced"], tracer, loop_span
        )
        tracer.finish(loop_span)
        span = tracer.start("cluster.client.stats", parent=run_span)
        after = await _router_counts(client)
        tracer.finish(span, **{k: v for k, v in after.items() if k != "wire_frames"})
    finally:
        if client is not None:
            await client.close()
        if fleet is not None:
            await fleet.close()

    floor = Tally(requests)
    span = tracer.start("floor", parent=run_span)
    _sync_rung(lambda pairs: [a * b % P for a, b in pairs], floor, shape, budget["floor"])
    tracer.finish(span, mul_per_s=_rate(floor))

    engine = EngineSpec().build()
    engine.multiply_batch(requests[0], P)  # warm the modulus context
    if shape.pairs_per_request == 1:
        engine_call = lambda pairs: (engine.multiply(pairs[0][0], pairs[0][1], P).value,)  # noqa: E731
    else:
        engine_call = lambda pairs: engine.multiply_batch(pairs, P).values  # noqa: E731
    engine_tally = Tally(requests)
    span = tracer.start("engine", parent=run_span)
    _sync_rung(engine_call, engine_tally, shape, budget["engine"])
    tracer.finish(span, mul_per_s=_rate(engine_tally))

    inline = await _server_rung(
        None, requests, shape, budget["service.server"], tracer, "service.server", run_span
    )
    pool = await _server_rung(
        1, requests, shape, budget["service.pool"], tracer, "service.pool", run_span
    )
    encode_us, decode_us, codec_wrong = _codec_rung(
        requests, budget["codec"], tracer, run_span
    )
    tracer.finish(run_span)

    legs = _legs(tracer.spans)
    client_p50 = percentile(legs["client"], 50)
    leg_names = (
        "cluster.client.leg_ms",
        "cluster.router.leg_ms",
        "service.server.queue_ms",
        "service.server.exec_ms",
    )
    leg_sum_share = sum(percentile(legs[name], 50) for name in leg_names) / client_p50
    frames = after["wire_frames"]["frames"] - before["wire_frames"]["frames"]
    messages = after["wire_frames"]["messages"] - before["wire_frames"]["messages"]
    tallies = (untraced, traced, floor, engine_tally, inline, pool)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies) + codec_wrong + _router_violations(after)
    floor_rate = _rate(floor)
    untraced_rate = median(untraced.chunk_rates)
    traced_rate = median(traced.chunk_rates)
    metrics = {
        "cluster.client.leg_ms.p50": percentile(legs["cluster.client.leg_ms"], 50),
        "cluster.client.leg_ms.p99": percentile(legs["cluster.client.leg_ms"], 99),
        "cluster.router.leg_ms.p50": percentile(legs["cluster.router.leg_ms"], 50),
        "cluster.router.leg_ms.p99": percentile(legs["cluster.router.leg_ms"], 99),
        "service.server.queue_ms.p50": percentile(legs["service.server.queue_ms"], 50),
        "service.server.queue_ms.p99": percentile(legs["service.server.queue_ms"], 99),
        "service.server.exec_ms.p50": percentile(legs["service.server.exec_ms"], 50),
        "service.server.batch_pairs.mean": sum(legs["batch_pairs"]) / len(legs["batch_pairs"]),
        "cluster.protocol.messages_per_frame": messages / frames,
        "cluster.router.failed": after["failed"],
        "cluster.router.redispatches": after["redispatches"],
        "cluster.router.protocol_errors": after["protocol_errors"],
        "cluster.router.inflight_after_drain": after["inflight"],
        "latency.p50_ms": client_p50,
        "latency.p99_ms": percentile(legs["client"], 99),
        "latency.samples": len(legs["client"]),
        "trace.leg_sum_error": abs(leg_sum_share - 1.0),
        "trace.overhead_mul_per_s": untraced_rate - traced_rate,
        "trace.overhead_share": (untraced_rate - traced_rate) / untraced_rate,
        "floor.mul_per_s": floor_rate,
        "engine.mul_per_s": _rate(engine_tally),
        "engine.overhead": floor_rate / _rate(engine_tally),
        "service.server.mul_per_s": _rate(inline),
        "service.server.overhead": floor_rate / _rate(inline),
        "service.pool.mul_per_s": _rate(pool),
        "service.pool.overhead": floor_rate / _rate(pool),
        "cluster.mul_per_s": untraced_rate,
        "cluster.overhead": floor_rate / untraced_rate,
        "cluster.protocol.encode_us": encode_us,
        "cluster.protocol.decode_us": decode_us,
        "failed_share": failed / attempted,
    }
    return {
        "config": {**_config(workload), "trace_budget": TRACE_BUDGET},
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": {
            "leg_sum_share": leg_sum_share,
            "leg_sum_tolerance": LEG_SUM_TOLERANCE,
            "leg_sum_within_tolerance": abs(leg_sum_share - 1.0) <= LEG_SUM_TOLERANCE,
        },
    }


def run(
    workload: str, seed: int, seconds: float, tracer: Optional[Tracer], corrupt: int = 0
) -> Dict[str, object]:
    """One run of ``bulk`` or ``single``; traced when ``tracer`` is given."""
    if tracer is None:
        return asyncio.run(_measure(workload, seed, seconds, corrupt))
    return asyncio.run(_measure_traced(workload, seed, seconds, tracer))
