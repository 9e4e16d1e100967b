"""The ModSRAM macro as a ModularMultiplier, at any simulation tier.

This lets the ECC field layer, the ZKP kernels and the algorithm test suite
treat the simulated hardware exactly like any software algorithm: the same
interface, the same operand preconditions, the same oracle checks.  One
adapter, :class:`ModSRAMMultiplier`, serves every deployment shape; its
``fidelity`` picks the tier through :func:`~repro.modsram.fidelity.build_simulator`
and ``macros`` swaps the single macro for an N-macro
:class:`~repro.modsram.chip.Chip`.  Each shape has a registry name:

``modsram``
    ``fidelity="cycle"``: the word-line-level SRAM simulation.
``modsram-fast``
    ``fidelity="analytical"``: identical products and exact cycle reports
    from the shared kernel on a register file, several times faster.
``modsram-chip``
    ``fidelity="analytical", macros=N``: an N-macro chip of analytical
    macros with LUT-reuse-aware dispatch.
``modsram-hdl``
    ``fidelity="hdl"``: the elaborated RTL run by the event-driven
    simulator, cycle counts measured from the netlist.

The adapter accumulates cycle reports across calls, which is how the
application-level examples estimate end-to-end latency on ModSRAM.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

from repro.core.algorithms.base import ModularMultiplier, register_multiplier
from repro.errors import ConfigurationError
from repro.modsram.chip import Chip, ChipSchedule
from repro.modsram.config import ModSRAMConfig
from repro.modsram.fidelity import Fidelity, build_simulator
from repro.modsram.report import CycleReport

__all__ = ["ModSRAMMultiplier"]

#: Registry name and description of each deployment shape, keyed by
#: ``(fidelity, is a chip)``.  Chips are built from analytical macros only.
_SHAPES = {
    (Fidelity.CYCLE, False): (
        "modsram",
        "Cycle-level ModSRAM accelerator model (R4CSA-LUT executed in the "
        "simulated 8T SRAM array).",
    ),
    (Fidelity.ANALYTICAL, False): (
        "modsram-fast",
        "Analytical-tier ModSRAM model: the shared R4CSA-LUT kernel on a "
        "register file with closed-form cycle reports (no SRAM substrate).",
    ),
    (Fidelity.ANALYTICAL, True): (
        "modsram-chip",
        "N-macro ModSRAM chip: analytical macros with LUT-reuse-aware "
        "chip-level dispatch.",
    ),
    (Fidelity.HDL, False): (
        "modsram-hdl",
        "HDL co-simulation tier: the elaborated ModSRAM RTL executed by the "
        "event-driven simulator, cycle counts measured from the netlist.",
    ),
}


def _config_for(
    explicit: Optional[ModSRAMConfig], modulus: int
) -> ModSRAMConfig:
    """The macro configuration serving ``modulus`` (explicit wins)."""
    if explicit is not None:
        return explicit
    return ModSRAMConfig().with_bitwidth(max(modulus.bit_length(), 4))


@register_multiplier
class ModSRAMMultiplier(ModularMultiplier):
    """Runs every multiplication through a simulated ModSRAM macro or chip.

    ``fidelity`` selects the tier (``"cycle"``, ``"analytical"`` or
    ``"hdl"``); ``macros=N`` runs an N-macro chip of analytical macros
    instead of one macro.  Every shape returns identical products and
    :class:`CycleReport`\\ s.
    """

    name, description = _SHAPES[Fidelity.CYCLE, False]
    direct_form = True

    def __init__(
        self,
        config: Optional[ModSRAMConfig] = None,
        fidelity: Union[str, Fidelity] = Fidelity.CYCLE,
        macros: Optional[int] = None,
    ) -> None:
        super().__init__()
        tier = Fidelity.coerce(fidelity)
        if macros is not None and macros <= 0:
            raise ConfigurationError(f"macros must be positive, got {macros}")
        try:
            self.name, self.description = _SHAPES[tier, macros is not None]
        except KeyError:
            raise ConfigurationError(
                f"a chip is built from analytical macros; macros={macros} "
                f"needs fidelity='analytical', got {tier.value!r}"
            ) from None
        self._config = config
        self.fidelity = tier
        self.macros = macros
        self._simulators: Dict[int, object] = {}
        self._simulators_lock = threading.Lock()
        self.reports: List[CycleReport] = []

    # ------------------------------------------------------------------ #
    # simulator management
    # ------------------------------------------------------------------ #
    def simulator_for(self, modulus: int):
        """Return (and cache) the macro or chip sized for ``modulus``.

        When the adapter was constructed with an explicit configuration that
        configuration is always used; otherwise one is instantiated per
        modulus bitwidth, mirroring how a real deployment would provision
        one macro per field.  The build runs under a lock with a re-check,
        so concurrent :meth:`prepare` calls build each simulator exactly
        once (the prepare contract of the base class); a cached simulator
        is returned without taking the lock.
        """
        config = _config_for(self._config, modulus)
        key = config.bitwidth
        simulator = self._simulators.get(key)
        if simulator is not None:
            return simulator
        with self._simulators_lock:
            simulator = self._simulators.get(key)
            if simulator is None:
                simulator = (
                    build_simulator(self.fidelity, config)
                    if self.macros is None
                    else Chip(self.macros, config)
                )
                self._simulators[key] = simulator
        return simulator

    def prepare(self, modulus: int) -> None:
        """Provision (and for ``hdl``, elaborate) the macro for ``modulus``."""
        self.simulator_for(modulus)

    # ------------------------------------------------------------------ #
    # ModularMultiplier interface
    # ------------------------------------------------------------------ #
    def _multiply(self, a: int, b: int, modulus: int) -> int:
        result = self.simulator_for(modulus).multiply(a, b, modulus)
        report = result.report
        self.reports.append(report)
        self.stats.iterations += report.iterations
        self.stats.lut_lookups += 2 * report.iterations
        self.stats.carry_save_additions += 2 * report.iterations
        if not report.lut_reused:
            self.stats.precomputations += 1
        return result.product

    def cycles(self, bitwidth: int) -> Optional[int]:
        """Main-loop cycles of a macro sized for ``bitwidth`` operands."""
        config = (
            self._config
            if self._config is not None and self._config.bitwidth == bitwidth
            else ModSRAMConfig().with_bitwidth(bitwidth)
        )
        return config.expected_iteration_cycles

    # ------------------------------------------------------------------ #
    # aggregate reporting
    # ------------------------------------------------------------------ #
    def total_iteration_cycles(self) -> int:
        """Main-loop cycles accumulated over every multiplication so far."""
        return sum(report.iteration_cycles for report in self.reports)

    def lut_reuse_rate(self) -> float:
        """Fraction of multiplications that reused the resident LUTs."""
        if not self.reports:
            return 0.0
        reused = sum(1 for report in self.reports if report.lut_reused)
        return reused / len(self.reports)

    def activity(self, bitwidth: Optional[int] = None) -> ChipSchedule:
        """Chip-level schedule summary for one provisioned bitwidth.

        Only a chip (``macros`` set) has one.  With a single provisioned
        chip (the common case) ``bitwidth`` may be omitted.
        """
        if self.macros is None:
            raise ConfigurationError(
                f"{self.name!r} is a single macro; activity() needs a chip "
                "(macros=N)"
            )
        if not self._simulators:
            raise ConfigurationError("no chip provisioned yet; multiply first")
        if bitwidth is None:
            if len(self._simulators) > 1:
                raise ConfigurationError(
                    f"several chips provisioned ({sorted(self._simulators)}); "
                    "name the bitwidth"
                )
            bitwidth = next(iter(self._simulators))
        return self._simulators[bitwidth].activity()
