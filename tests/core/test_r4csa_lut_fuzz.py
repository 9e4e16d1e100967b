"""Seeded differential fuzzing: r4csa-lut vs the batch floor vs big-int.

The paper's algorithm must be bit-identical to ``a * b % p`` on every
modulus it accepts, so this harness races three evaluators — the
R4CSA-LUT reference implementation, the ``schoolbook`` batch hook that
serves bulk products, and Python's big-int oracle — across the moduli
most likely to break a reduction scheme:

* random odd moduli at every width from 16 to 256 bits;
* Mersenne-adjacent moduli (``2**k - 1`` and close neighbours), where
  ``p`` hugs the top of its bit width and the overflow-LUT correction
  is exercised hardest;
* near-power-of-two moduli (``2**k ± small``), including *even* moduli
  (no Montgomery constants — the algorithm must not depend on them);
* degenerate operands: 0, 1, ``p - 1`` and their products.

Every case is seeded, so a failure reproduces exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.core.algorithms.r4csa_lut import R4CSALutMultiplier
from repro.core.algorithms.schoolbook import SchoolbookMultiplier

pytestmark = pytest.mark.slow

#: One RNG seed for the whole harness — failures name their case.
SEED = 0xD1FF

#: Bit widths the randomized sweep covers (the 16..256 range).
WIDTHS = (16, 24, 31, 32, 48, 61, 64, 96, 128, 192, 224, 254, 255, 256)

#: Random operand pairs per modulus, on top of the degenerate ones.
PAIRS_PER_CASE = 24


def _random_odd_modulus(rng: random.Random, bits: int) -> int:
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1


def _adversarial_moduli() -> list:
    """Mersenne-adjacent and near-power-of-two moduli, odd and even."""
    moduli = []
    for k in (17, 31, 61, 89, 127, 255):
        moduli.extend([(1 << k) - 1, (1 << k) - 3, (1 << k) + 1])
    for k in (16, 32, 64, 128, 256):
        moduli.extend([(1 << k) - 1, (1 << k) + 1, (1 << k) - 2])
    for k in (20, 40, 80):  # even moduli: no Montgomery constants
        moduli.append((1 << k) - 4)
    return sorted({m for m in moduli if m > 2})


def _operands(rng: random.Random, modulus: int) -> list:
    degenerate = [0, 1, modulus - 1]
    pairs = [(a, b) for a in degenerate for b in degenerate]
    pairs.extend(
        (rng.randrange(modulus), rng.randrange(modulus))
        for _ in range(PAIRS_PER_CASE)
    )
    return pairs


def _assert_parity(modulus: int, rng: random.Random) -> None:
    pairs = _operands(rng, modulus)
    oracle = [a * b % modulus for a, b in pairs]
    reference = R4CSALutMultiplier()
    reference.prepare(modulus)
    r4csa = [reference._multiply(a, b, modulus) for a, b in pairs]
    assert r4csa == oracle, f"r4csa-lut deviates at p={modulus:#x}"
    batched = SchoolbookMultiplier()._multiply_batch(pairs, modulus)
    assert batched == oracle, f"schoolbook batch deviates at p={modulus:#x}"


@pytest.mark.parametrize("bits", WIDTHS)
def test_random_moduli_at_width(bits):
    """Random odd moduli of every width, all evaluators agreeing."""
    rng = random.Random(SEED ^ bits)
    for _ in range(3):
        _assert_parity(_random_odd_modulus(rng, bits), rng)


@pytest.mark.parametrize(
    "modulus", _adversarial_moduli(), ids=lambda m: f"{m.bit_length()}b"
)
def test_adversarial_moduli(modulus):
    """Mersenne-adjacent / near-power-of-two moduli, odd and even."""
    _assert_parity(modulus, random.Random(SEED ^ modulus))
