"""Tests for R4CSA-LUT (Algorithm 3), the paper's proposed algorithm."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import R4CSALutContext, R4CSALutMultiplier
from repro.core.algorithms.r4csa_lut import OVERFLOW_LUT_ENTRIES
from repro.core.algorithms.schoolbook import SchoolbookMultiplier
from repro.core.luts import build_overflow_lut
from repro.errors import OperandRangeError

BN254_P = 0x30644E72E131A029B85045B68181585D97816A916871CA8D3C208C16D87CFD47
SECP256K1_P = 2**256 - 2**32 - 977

#: Odd moduli from 7 to 256 bits, Mersenne and curve primes included.
LUT_MODULI = (
    BN254_P, SECP256K1_P, 97, 101, 251, 997, 65521, (1 << 61) - 1
)


class TestCorrectness:
    def test_small_known_values(self):
        multiplier = R4CSALutMultiplier()
        assert multiplier.multiply(21, 18, 24 | 1) == (21 * 18) % 25
        assert multiplier.multiply(7, 9, 11) == 63 % 11

    def test_paper_five_bit_example_operands(self):
        """The Figure 3 walk-through operands: A=10101, B=10010, p=11000(+1)."""
        multiplier = R4CSALutMultiplier()
        a, b, p = 0b10101, 0b10010, 0b11001  # an odd 5-bit modulus
        assert multiplier.multiply(a, b, p) == (a * b) % p

    def test_bn254_operands(self, rng):
        multiplier = R4CSALutMultiplier()
        for _ in range(10):
            a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
            assert multiplier.multiply(a, b, BN254_P) == (a * b) % BN254_P

    def test_secp256k1_full_range_operands(self, rng):
        multiplier = R4CSALutMultiplier(full_range=True)
        for _ in range(10):
            a, b = rng.randrange(SECP256K1_P), rng.randrange(SECP256K1_P)
            assert multiplier.multiply(a, b, SECP256K1_P) == (a * b) % SECP256K1_P

    def test_identity_and_zero(self):
        multiplier = R4CSALutMultiplier()
        assert multiplier.multiply(0, 12345, BN254_P) == 0
        assert multiplier.multiply(1, 12345, BN254_P) == 12345
        assert multiplier.multiply(BN254_P - 1, 1, BN254_P) == BN254_P - 1

    @pytest.mark.parametrize(
        "modulus", (3, 5, 997, BN254_P, SECP256K1_P), ids=hex
    )
    def test_edge_operands_match_the_batch_floor(self, modulus):
        """0, 1, p-1 and p//2: the extremes of the final reduction."""
        edge = [0, 1, modulus - 1, modulus // 2]
        pairs = [(a, b) for a in edge for b in edge]
        oracle = [a * b % modulus for a, b in pairs]
        multiplier = R4CSALutMultiplier()
        assert [multiplier.multiply(a, b, modulus) for a, b in pairs] == oracle
        assert SchoolbookMultiplier()._multiply_batch(pairs, modulus) == oracle

    @given(
        st.integers(3, 2**64 - 1),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_for_random_moduli(self, modulus, data):
        modulus |= 1  # the register sizing assumes nothing, but avoid even edge
        a = data.draw(st.integers(0, modulus - 1))
        b = data.draw(st.integers(0, modulus - 1))
        multiplier = R4CSALutMultiplier()
        assert multiplier.multiply(a, b, modulus) == (a * b) % modulus

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_for_curve_sized_operands(self, data):
        modulus = data.draw(st.sampled_from([BN254_P, SECP256K1_P]))
        a = data.draw(st.integers(0, modulus - 1))
        b = data.draw(st.integers(0, modulus - 1))
        multiplier = R4CSALutMultiplier()
        assert multiplier.multiply(a, b, modulus) == (a * b) % modulus


class TestStructure:
    def test_iteration_count_paper_mode(self, rng):
        """The algorithm needs ceil(n/2) iterations for an n-bit modulus.

        The functional reference sizes its registers from the modulus
        (254 bits for BN254, hence 127 iterations); the 256-bit hardware
        datapath of the accelerator performs 128 (see the modsram tests).
        """
        multiplier = R4CSALutMultiplier(full_range=False)
        a = rng.randrange(BN254_P)  # BN254 operands keep bit 255 clear
        b = rng.randrange(BN254_P)
        multiplier.multiply(a, b, BN254_P)
        assert multiplier.stats.iterations == (BN254_P.bit_length() + 1) // 2 == 127

    def test_no_full_additions_inside_the_loop(self, rng):
        """Only the single finalisation addition propagates carries."""
        multiplier = R4CSALutMultiplier()
        multiplier.multiply(rng.randrange(65521), rng.randrange(65521), 65521)
        assert multiplier.stats.full_additions == 1
        assert multiplier.stats.carry_save_additions == 2 * multiplier.stats.iterations

    def test_two_lut_lookups_per_iteration(self, rng):
        multiplier = R4CSALutMultiplier()
        multiplier.multiply(rng.randrange(65521), rng.randrange(65521), 65521)
        assert multiplier.stats.lut_lookups == 2 * multiplier.stats.iterations

    def test_lut_context_reused_for_same_multiplicand(self):
        multiplier = R4CSALutMultiplier()
        multiplier.multiply(10, 77, 65521)
        multiplier.multiply(20, 77, 65521)
        assert multiplier.stats.precomputations == 1
        multiplier.multiply(20, 78, 65521)
        assert multiplier.stats.precomputations == 2

    def test_cycle_model_matches_paper(self):
        multiplier = R4CSALutMultiplier()
        assert multiplier.cycles(256) == 767
        assert multiplier.cycles(128) == 383
        assert multiplier.cycles(8) == 23

    def test_cycle_model_rejects_bad_bitwidth(self):
        with pytest.raises(OperandRangeError):
            R4CSALutMultiplier().cycles(0)

    def test_paper_mode_rejects_full_range_multiplier(self):
        multiplier = R4CSALutMultiplier(full_range=False)
        with pytest.raises(OperandRangeError):
            multiplier.multiply(SECP256K1_P - 1, 3, SECP256K1_P)


class TestTraceAndInvariants:
    def test_trace_records_every_iteration(self):
        multiplier = R4CSALutMultiplier(record_trace=True)
        multiplier.multiply(0b10101, 0b10010, 0b11001)
        assert len(multiplier.last_trace) == multiplier.stats.iterations
        assert [snap.iteration for snap in multiplier.last_trace] == list(
            range(len(multiplier.last_trace))
        )

    def test_overflow_index_stays_within_the_generated_lut(self, rng):
        multiplier = R4CSALutMultiplier(record_trace=True)
        for _ in range(20):
            a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
            multiplier.multiply(a, b, BN254_P)
            for snapshot in multiplier.last_trace:
                assert 0 <= snapshot.overflow_index < OVERFLOW_LUT_ENTRIES

    def test_overflow_index_matches_paper_table_2_range_in_practice(self, rng):
        """Empirically the 3-bit overflow field of Table 2 suffices."""
        multiplier = R4CSALutMultiplier(record_trace=True)
        for _ in range(20):
            a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
            multiplier.multiply(a, b, BN254_P)
            assert max(s.overflow_index for s in multiplier.last_trace) <= 7

    def test_redundant_accumulator_is_congruent_every_iteration(self, rng):
        """sum + carry + pending*2^w stays congruent to the running product."""
        modulus = 65521
        a, b = rng.randrange(modulus), rng.randrange(modulus)
        multiplier = R4CSALutMultiplier(record_trace=True)
        multiplier.multiply(a, b, modulus)

        from repro.core.booth import booth_digits_radix4

        context = R4CSALutContext.create(b, modulus)
        digits = booth_digits_radix4(a, context.bitwidth, full_range=True)
        running = 0
        for snapshot, digit in zip(multiplier.last_trace, digits):
            running = (4 * running + digit * b) % modulus
            resolved = (
                snapshot.sum_word
                + snapshot.carry_word
                + (snapshot.pending_overflow << context.register_width)
            )
            assert resolved % modulus == running

    @pytest.mark.parametrize("modulus", LUT_MODULI, ids=hex)
    def test_overflow_lut_matches_the_core_table(self, modulus):
        context = R4CSALutMultiplier().context_for(modulus - 1, modulus)
        reference = build_overflow_lut(
            modulus, modulus.bit_length() + 1, entry_count=OVERFLOW_LUT_ENTRIES
        )
        assert context.overflow_lut.entries == reference.entries
        assert len(context.overflow_lut) == OVERFLOW_LUT_ENTRIES

    def test_context_exposes_both_luts(self):
        context = R4CSALutContext.create(77, 65521)
        assert context.radix4_lut[+2] == (2 * 77) % 65521
        assert len(context.overflow_lut) == OVERFLOW_LUT_ENTRIES
        assert context.register_width == 17
