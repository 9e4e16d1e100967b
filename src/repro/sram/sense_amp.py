"""Sense amplifiers and the logic-SA module.

The in-memory compute trick ModSRAM borrows from Sridharan et al. (ESSCIRC
2022) is that when three rows are activated on an 8T read port, the read
bitline discharges by an amount proportional to the number of selected cells
storing a one.  Placing *three* conventional latch-type sense amplifiers on
each bitline, with reference voltages between the four possible discharge
levels, yields a thermometer code of that count, from which the two
functions a carry-save adder needs fall out combinationally:

* ``XOR3`` — the count is odd (level 1 or 3),
* ``MAJ``  — the count is at least two (level 2 or 3).

This module models the latch sense amplifier (including offset and optional
noise, so sensing-margin ablations are possible) and the per-column logic-SA
block, and exposes a whole-row evaluation used by the accelerator.

The whole-row evaluation is word-wide.  Without noise an amplifier's
decision depends only on the column's conducting-cell count, so the module
resolves each possible count (0 through the number of activated rows) once
through the same amplifier comparisons, builds one column mask per count
from the activated rows' words with bitwise carry-save updates, and ORs the
masks into the XOR3 and MAJ words.  With noise every comparison draws its
own Gaussian sample, so each column is resolved on its own, in column
order.  Either way an access counts one evaluation per amplifier per column.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError, SenseMarginError
from repro.sram.array import BitlineReadout

__all__ = [
    "SenseAmpParameters",
    "LatchSenseAmplifier",
    "LogicSenseAmpResult",
    "LogicSenseAmpModule",
]


@dataclass(frozen=True)
class SenseAmpParameters:
    """Electrical parameters of the bitline + sense-amplifier system.

    The defaults describe the 65 nm reference design: a 1.2 V precharged
    read bitline that discharges by ``discharge_per_cell_v`` for every
    activated cell storing a one, sensed by latch-type amplifiers with a
    small input-referred offset.
    """

    vdd_v: float = 1.2
    discharge_per_cell_v: float = 0.25
    sense_offset_v: float = 0.02
    noise_sigma_v: float = 0.0
    sense_amps_per_bitline: int = 3

    def __post_init__(self) -> None:
        if self.vdd_v <= 0:
            raise ConfigurationError(f"vdd must be positive, got {self.vdd_v}")
        if self.discharge_per_cell_v <= 0:
            raise ConfigurationError(
                f"discharge step must be positive, got {self.discharge_per_cell_v}"
            )
        if not 0 <= self.sense_offset_v < self.discharge_per_cell_v / 2:
            raise ConfigurationError(
                "sense offset must be non-negative and below half a discharge step"
            )
        if self.noise_sigma_v < 0:
            raise ConfigurationError(
                f"noise sigma must be non-negative, got {self.noise_sigma_v}"
            )
        if self.sense_amps_per_bitline < 1:
            raise ConfigurationError("at least one sense amplifier is required")

    def bitline_voltage(self, conducting_cells: int) -> float:
        """RBL voltage after the develop phase for a given cell count."""
        if conducting_cells < 0:
            raise ConfigurationError(
                f"cell count must be non-negative, got {conducting_cells}"
            )
        return self.vdd_v - conducting_cells * self.discharge_per_cell_v

    def reference_voltages(self) -> Tuple[float, ...]:
        """Reference levels placed midway between adjacent discharge levels."""
        return tuple(
            self.vdd_v - (index + 0.5) * self.discharge_per_cell_v
            for index in range(self.sense_amps_per_bitline)
        )


class LatchSenseAmplifier:
    """A conventional latch-type voltage sense amplifier.

    Resolves the sign of ``v_plus - v_minus``.  A deterministic offset and
    an optional Gaussian noise term model the non-ideality that limits how
    close the reference may sit to a discharge level; if the differential
    input (after noise) is smaller than the offset the amplifier cannot be
    trusted and a :class:`SenseMarginError` is raised.
    """

    def __init__(
        self,
        offset_v: float = 0.02,
        noise_sigma_v: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if offset_v < 0:
            raise ConfigurationError(f"offset must be non-negative, got {offset_v}")
        if noise_sigma_v < 0:
            raise ConfigurationError(
                f"noise sigma must be non-negative, got {noise_sigma_v}"
            )
        self.offset_v = offset_v
        self.noise_sigma_v = noise_sigma_v
        self._rng = rng or random.Random(0)
        self.evaluations = 0

    def resolve(self, v_plus: float, v_minus: float) -> bool:
        """Return ``True`` when ``v_plus`` is reliably above ``v_minus``."""
        self.evaluations += 1
        differential = v_plus - v_minus
        if self.noise_sigma_v:
            differential += self._rng.gauss(0.0, self.noise_sigma_v)
        if abs(differential) < self.offset_v:
            raise SenseMarginError(
                f"sense margin {abs(differential) * 1e3:.1f} mV is below the "
                f"amplifier offset {self.offset_v * 1e3:.1f} mV"
            )
        return differential > 0


@dataclass(frozen=True)
class LogicSenseAmpResult:
    """Per-access output of the logic-SA module across a full row."""

    xor3: int
    maj: int

    def as_tuple(self) -> Tuple[int, int]:
        """The two carry-save outputs ``(xor3, maj)``."""
        return self.xor3, self.maj


class LogicSenseAmpModule:
    """One logic-SA block per column: three SAs plus decode logic.

    ``evaluate`` maps a :class:`BitlineReadout` (the activated rows' words)
    to the row-wide XOR3 and MAJ words.  Each column's sense-amplifier
    comparisons are those of :meth:`column_level`; without noise they are
    made once per conducting-cell count and applied to every column with
    that count at once.
    """

    def __init__(
        self,
        columns: int,
        parameters: SenseAmpParameters = SenseAmpParameters(),
        rng: Optional[random.Random] = None,
    ) -> None:
        if columns <= 0:
            raise ConfigurationError(f"columns must be positive, got {columns}")
        self.columns = columns
        self.parameters = parameters
        self._rng = rng or random.Random(0)
        self._amplifier = LatchSenseAmplifier(
            offset_v=parameters.sense_offset_v,
            noise_sigma_v=parameters.noise_sigma_v,
            rng=self._rng,
        )
        self.accesses = 0

    # ------------------------------------------------------------------ #
    # per-column behaviour
    # ------------------------------------------------------------------ #
    def column_level(self, conducting_cells: int) -> int:
        """Thermometer-decode one column's discharge level (0..3).

        The three sense amplifiers compare the bitline against the three
        references; the number of references the bitline has fallen below is
        the recovered count.
        """
        voltage = self.parameters.bitline_voltage(conducting_cells)
        level = 0
        for reference in self.parameters.reference_voltages():
            if self._amplifier.resolve(reference, voltage):
                level += 1
        return level

    @staticmethod
    def decode(level: int) -> Tuple[int, int]:
        """Map a recovered count to the ``(xor3, maj)`` bit pair."""
        return level & 1, 1 if level >= 2 else 0

    # ------------------------------------------------------------------ #
    # whole-row behaviour
    # ------------------------------------------------------------------ #
    def evaluate(self, readout: BitlineReadout) -> LogicSenseAmpResult:
        """Resolve a multi-row access into XOR3/MAJ words."""
        if readout.columns != self.columns:
            raise ConfigurationError(
                f"readout width {readout.columns} does not match the "
                f"{self.columns}-column sense-amplifier bank"
            )
        self.accesses += 1
        if self.parameters.noise_sigma_v:
            return self._evaluate_per_column(readout)
        # One count -> level table per access; the bank still makes every
        # column's comparisons, so evaluations count them all.
        amplifier = self._amplifier
        evaluations = amplifier.evaluations
        levels = [self.column_level(count) for count in range(len(readout.words) + 1)]
        amplifier.evaluations = (
            evaluations + self.parameters.sense_amps_per_bitline * self.columns
        )
        # exact[k]: the columns where exactly k of the words seen so far
        # store a one.
        exact = [(1 << self.columns) - 1] + [0] * len(readout.words)
        for seen, word in enumerate(readout.words):
            for count in range(seen + 1, 0, -1):
                exact[count] = (exact[count] & ~word) | (exact[count - 1] & word)
            exact[0] &= ~word
        xor3_word = maj_word = 0
        for level, columns in zip(levels, exact):
            xor3_bit, maj_bit = self.decode(level)
            if xor3_bit:
                xor3_word |= columns
            if maj_bit:
                maj_word |= columns
        return LogicSenseAmpResult(xor3=xor3_word, maj=maj_word)

    def _evaluate_per_column(self, readout: BitlineReadout) -> LogicSenseAmpResult:
        """Resolve every column on its own, in column order (noisy sensing)."""
        xor3_word = 0
        maj_word = 0
        for column, count in enumerate(readout.column_counts):
            xor3_bit, maj_bit = self.decode(self.column_level(count))
            xor3_word |= xor3_bit << column
            maj_word |= maj_bit << column
        return LogicSenseAmpResult(xor3=xor3_word, maj=maj_word)

    # ------------------------------------------------------------------ #
    # robustness analysis helpers
    # ------------------------------------------------------------------ #
    def worst_case_margin_v(self) -> float:
        """Smallest distance between any discharge level and any reference."""
        references = self.parameters.reference_voltages()
        margins = []
        for count in range(self.parameters.sense_amps_per_bitline + 1):
            voltage = self.parameters.bitline_voltage(count)
            margins.extend(abs(voltage - reference) for reference in references)
        return min(margins)

    def failure_probability(self, noise_sigma_v: float) -> float:
        """Analytic probability that one comparison flips under noise.

        Assumes Gaussian bitline/reference noise with the given sigma and
        the worst-case margin; used by the sensing-margin ablation bench.
        """
        if noise_sigma_v <= 0:
            return 0.0
        margin = self.worst_case_margin_v()
        return 0.5 * math.erfc(margin / (noise_sigma_v * math.sqrt(2.0)))
