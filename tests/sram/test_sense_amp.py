"""Tests for the latch sense amplifier and the logic-SA module."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SenseMarginError
from repro.sram import (
    ArrayStats,
    LatchSenseAmplifier,
    LogicSenseAmpModule,
    SenseAmpParameters,
    SramArray,
)


class TestSenseAmpParameters:
    def test_default_reference_levels_sit_between_discharge_levels(self):
        parameters = SenseAmpParameters()
        references = parameters.reference_voltages()
        assert len(references) == 3
        for index, reference in enumerate(references):
            above = parameters.bitline_voltage(index)
            below = parameters.bitline_voltage(index + 1)
            assert below < reference < above

    def test_bitline_voltage_decreases_with_count(self):
        parameters = SenseAmpParameters()
        voltages = [parameters.bitline_voltage(count) for count in range(4)]
        assert voltages == sorted(voltages, reverse=True)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SenseAmpParameters(vdd_v=0)
        with pytest.raises(ConfigurationError):
            SenseAmpParameters(discharge_per_cell_v=-0.1)
        with pytest.raises(ConfigurationError):
            SenseAmpParameters(sense_offset_v=0.2)
        with pytest.raises(ConfigurationError):
            SenseAmpParameters(noise_sigma_v=-1)
        with pytest.raises(ConfigurationError):
            SenseAmpParameters(sense_amps_per_bitline=0)

    def test_negative_cell_count_rejected(self):
        with pytest.raises(ConfigurationError):
            SenseAmpParameters().bitline_voltage(-1)


class TestLatchSenseAmplifier:
    def test_resolves_clear_differentials(self):
        amplifier = LatchSenseAmplifier(offset_v=0.02)
        assert amplifier.resolve(1.0, 0.5) is True
        assert amplifier.resolve(0.5, 1.0) is False
        assert amplifier.evaluations == 2

    def test_marginal_input_raises(self):
        amplifier = LatchSenseAmplifier(offset_v=0.05)
        with pytest.raises(SenseMarginError):
            amplifier.resolve(1.00, 0.99)

    def test_noise_can_flip_marginal_decisions(self):
        noisy = LatchSenseAmplifier(
            offset_v=0.001, noise_sigma_v=0.5, rng=random.Random(2)
        )
        decisions = set()
        for _ in range(100):
            try:
                decisions.add(noisy.resolve(1.0, 0.95))
            except SenseMarginError:
                decisions.add("margin")
        assert len(decisions) > 1

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            LatchSenseAmplifier(offset_v=-1)
        with pytest.raises(ConfigurationError):
            LatchSenseAmplifier(noise_sigma_v=-1)


class TestLogicSenseAmpModule:
    @pytest.fixture()
    def module(self) -> LogicSenseAmpModule:
        return LogicSenseAmpModule(columns=8)

    def test_column_levels_recover_counts(self, module):
        for count in range(4):
            assert module.column_level(count) == count

    def test_decode_produces_xor3_and_maj(self, module):
        assert module.decode(0) == (0, 0)
        assert module.decode(1) == (1, 0)
        assert module.decode(2) == (0, 1)
        assert module.decode(3) == (1, 1)

    def test_evaluate_matches_bitwise_logic(self, module):
        array = SramArray(rows=4, cols=8)
        a, b, c = 0b1011_0010, 0b0111_1000, 0b1101_0110
        array.write_row(0, a)
        array.write_row(1, b)
        array.write_row(2, c)
        result = module.evaluate(array.activate_rows([0, 1, 2]))
        assert result.xor3 == a ^ b ^ c
        assert result.maj == (a & b) | (a & c) | (b & c)
        assert result.as_tuple() == (result.xor3, result.maj)
        assert module.accesses == 1

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_property(self, a, b, c):
        module = LogicSenseAmpModule(columns=8)
        array = SramArray(rows=3, cols=8)
        for row, word in enumerate((a, b, c)):
            array.write_row(row, word)
        result = module.evaluate(array.activate_rows([0, 1, 2]))
        assert result.xor3 == a ^ b ^ c
        assert result.maj == (a & b) | (a & c) | (b & c)

    def test_width_mismatch_rejected(self, module):
        array = SramArray(rows=3, cols=16)
        array.write_row(0, 1)
        with pytest.raises(ConfigurationError):
            module.evaluate(array.activate_rows([0]))

    def test_worst_case_margin_is_half_a_step(self, module):
        assert module.worst_case_margin_v() == pytest.approx(0.125)

    def test_failure_probability_increases_with_noise(self, module):
        quiet = module.failure_probability(0.01)
        noisy = module.failure_probability(0.10)
        assert 0.0 <= quiet < noisy < 0.5

    def test_failure_probability_zero_without_noise(self, module):
        assert module.failure_probability(0.0) == 0.0

    def test_invalid_column_count_rejected(self):
        with pytest.raises(ConfigurationError):
            LogicSenseAmpModule(columns=0)


def _reference_row(module, words, columns):
    """The per-column model: ``column_level`` then ``decode``, column by column."""
    xor3_word = maj_word = 0
    for column in range(columns):
        count = sum((word >> column) & 1 for word in words)
        xor3_bit, maj_bit = module.decode(module.column_level(count))
        xor3_word |= xor3_bit << column
        maj_word |= maj_bit << column
    return xor3_word, maj_word


@st.composite
def _row_accesses(draw):
    columns = draw(st.sampled_from([1, 8, 255, 256, 257]))
    rows = draw(st.integers(1, 3))
    words = draw(
        st.lists(st.integers(0, (1 << columns) - 1), min_size=rows, max_size=rows)
    )
    return columns, words


class TestWordWideParity:
    """The word-wide ``evaluate`` equals the per-column model it replaces."""

    @given(_row_accesses(), st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_noise_free_matches_per_column_loop(self, access, sense_amps):
        columns, words = access
        parameters = SenseAmpParameters(sense_amps_per_bitline=sense_amps)
        module = LogicSenseAmpModule(columns, parameters)
        reference = LogicSenseAmpModule(columns, parameters)
        array = SramArray(rows=4, cols=columns)
        for row, word in enumerate(words):
            array.write_row(row, word)

        result = module.evaluate(array.activate_rows(list(range(len(words)))))

        assert result.as_tuple() == _reference_row(reference, words, columns)
        assert module.accesses == 1
        assert module._amplifier.evaluations == reference._amplifier.evaluations
        assert module._amplifier.evaluations == sense_amps * columns
        expected_stats = ArrayStats()
        for _ in words:
            expected_stats.record_write(columns)
        expected_stats.record_read(len(words), compute=len(words) > 1)
        assert array.stats == expected_stats

    @given(
        _row_accesses(),
        st.integers(1, 4),
        st.sampled_from([0.01, 0.03, 0.06]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_noisy_path_keeps_the_per_column_rng_sequence(
        self, access, sense_amps, sigma, seed
    ):
        columns, words = access
        parameters = SenseAmpParameters(
            noise_sigma_v=sigma, sense_amps_per_bitline=sense_amps
        )
        rng, reference_rng = random.Random(seed), random.Random(seed)
        module = LogicSenseAmpModule(columns, parameters, rng=rng)
        reference = LogicSenseAmpModule(columns, parameters, rng=reference_rng)
        array = SramArray(rows=4, cols=columns)
        for row, word in enumerate(words):
            array.write_row(row, word)
        readout = array.activate_rows(list(range(len(words))))

        try:
            outcome = module.evaluate(readout).as_tuple()
        except SenseMarginError as error:
            outcome = str(error)
        try:
            expected = _reference_row(reference, words, columns)
        except SenseMarginError as error:
            expected = str(error)

        assert outcome == expected
        # Same comparison count: a margin error is raised at the same column
        # and amplifier as in the per-column loop.
        assert module._amplifier.evaluations == reference._amplifier.evaluations
        assert rng.getstate() == reference_rng.getstate()

    def test_noisy_margin_error_is_raised_mid_row(self):
        """60 mV of noise trips a 256-column row before its last comparison."""
        parameters = SenseAmpParameters(noise_sigma_v=0.06)
        module = LogicSenseAmpModule(256, parameters, rng=random.Random(1))
        reference = LogicSenseAmpModule(256, parameters, rng=random.Random(1))
        array = SramArray(rows=3, cols=256)
        words = [random.Random(row).getrandbits(256) for row in range(3)]
        for row, word in enumerate(words):
            array.write_row(row, word)
        with pytest.raises(SenseMarginError):
            module.evaluate(array.activate_rows([0, 1, 2]))
        with pytest.raises(SenseMarginError):
            _reference_row(reference, words, 256)
        assert 0 < module._amplifier.evaluations < 3 * 256
        assert module._amplifier.evaluations == reference._amplifier.evaluations

    def test_evaluations_accumulate_per_access(self):
        module = LogicSenseAmpModule(columns=16)
        array = SramArray(rows=3, cols=16)
        array.write_row(0, 0xBEEF)
        for rows in ([0], [0, 1], [0, 1, 2]):
            module.evaluate(array.activate_rows(rows))
        assert module.accesses == 3
        assert module._amplifier.evaluations == 3 * 3 * 16
