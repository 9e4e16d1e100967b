"""Bulk operand batches on the cluster path: shapes, types and bad rows.

The client sends a batch of exact ``int`` rows as given and the worker's
server range-checks it at admission without rebuilding it.  These tests
pin what that must not change: every batch shape a caller may pass gives
the same products on both wire versions, and a bad operand fails only the
request that carried it, in-process and across real worker processes.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.cluster import (
    ClusterClient,
    LocalFleet,
    Router,
    RouterConfig,
    WorkerNode,
)
from repro.ecc.curves_data import CURVE_SPECS
from repro.engine import EngineSpec
from repro.errors import OperandRangeError

BN254_P = CURVE_SPECS["bn254"].field_modulus


def run(coroutine):
    return asyncio.run(coroutine)


def _pairs(count: int, seed: int):
    rng = random.Random(seed)
    return [(rng.randrange(BN254_P), rng.randrange(BN254_P)) for _ in range(count)]


def _shapes(pairs):
    """The same batch in every shape a caller may hand the client."""
    shapes = {
        "list of tuples": list(pairs),
        "list of lists": [list(pair) for pair in pairs],
        "tuple of tuples": tuple(pairs),
        "generator": (pair for pair in pairs),
        "bool operand": [(True, b) for _, b in pairs],
    }
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is optional
        return shapes
    shapes["numpy operands"] = [(np.int64(a % 2**62), b) for a, b in pairs]
    return shapes


@pytest.mark.parametrize("wire", [1, 2])
def test_every_batch_shape_gives_the_same_products(wire):
    pairs = _pairs(64, seed=wire)

    async def scenario():
        config = RouterConfig(wire=wire)
        async with Router(EngineSpec(), config=config) as router:
            async with WorkerNode("127.0.0.1", router.port):
                async with ClusterClient(
                    "127.0.0.1", router.port, wire=wire
                ) as client:
                    for name, batch in _shapes(pairs).items():
                        snapshot = None if name == "generator" else list(batch)
                        response = await client.multiply_batch(
                            batch, modulus=BN254_P
                        )
                        expected = tuple(
                            int(a) * int(b) % BN254_P
                            for a, b in (snapshot or pairs)
                        )
                        assert response.values == expected, name
                        if snapshot is not None:
                            assert list(batch) == snapshot, name

    run(scenario())


def test_bad_bulk_operand_fails_only_its_caller_through_a_fleet():
    good = _pairs(512, seed=5)

    async def scenario():
        async with LocalFleet(spec=EngineSpec(), workers=1) as fleet:
            async with ClusterClient("127.0.0.1", fleet.port) as client:
                results = await asyncio.gather(
                    client.multiply_batch(good, modulus=BN254_P),
                    client.multiply_batch(
                        good[:3] + [(-1, 2)], modulus=BN254_P
                    ),
                    client.multiply_batch(
                        [(2, BN254_P)] + good[:3], modulus=BN254_P
                    ),
                    client.multiply_batch(good, modulus=BN254_P),
                    return_exceptions=True,
                )
            rollup = fleet.router.metrics.rollup()
        expected = tuple(a * b % BN254_P for a, b in good)
        assert results[0].values == expected
        assert results[3].values == expected
        assert isinstance(results[1], OperandRangeError)
        assert isinstance(results[2], OperandRangeError)
        assert rollup["completed"] == 2

    run(scenario())
