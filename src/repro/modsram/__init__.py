"""ModSRAM: the 8T SRAM PIM accelerator co-designed with R4CSA-LUT.

The package is a *layered simulation core*: one R4CSA-LUT algorithm body
(:mod:`repro.modsram.kernel`) executed at three fidelity tiers —
``analytical`` (:class:`AnalyticalModSRAM`: exact closed-form cycle/energy
reports), ``cycle`` (:class:`ModSRAMAccelerator`: the word-line-accurate
SRAM model with pluggable :class:`TraceSink` collection) and ``hdl`` (the
elaborated RTL on the :mod:`repro.hdl` event simulator) — selected via
:func:`build_simulator`.  On top of the analytical tier,
:class:`Chip` scales the macro out to an N-macro chip, and
:class:`ChipScheduler` dispatches a workload's multiplicand keys (one per
multiplication, as the :mod:`repro.workloads` builders emit them) with
LUT-reuse-aware placement.  The surrounding modules provide the memory
map, the near-memory datapath, the controller FSM, the area model behind
Figure 5 and the one multiplier adapter, :class:`ModSRAMMultiplier`
(``fidelity=``, ``macros=``), that plugs any tier or chip into code
written against the generic multiplier interface.
"""

from repro.modsram.accelerator import (
    CycleReport,
    ModSRAMAccelerator,
    MultiplicationResult,
)
from repro.modsram.analytical import (
    AnalyticalCostModel,
    AnalyticalModSRAM,
    FastHost,
)
from repro.modsram.area import (
    PAPER_AREA_MM2,
    PAPER_AREA_OVERHEAD_PERCENT,
    PAPER_BREAKDOWN_PERCENT,
    AreaBreakdown,
    AreaModel,
    AreaParameters,
)
from repro.modsram.chip import (
    SCHEDULER_POLICIES,
    Chip,
    ChipGraphRun,
    ChipSchedule,
    ChipScheduler,
    GraphSchedule,
)
from repro.modsram.config import PAPER_CONFIG, ModSRAMConfig
from repro.modsram.geometry import SUPPORTED_RADICES, MacroGeometry
from repro.modsram.controller import Controller, ControllerState, CycleBudget
from repro.modsram.datapath import DatapathStats, NearMemoryDatapath
from repro.modsram.fidelity import Fidelity, build_simulator
from repro.modsram.kernel import KernelHost, KernelOutcome, LutResidency, run_kernel
from repro.modsram.memory_map import MemoryMap, MemoryUtilization
from repro.modsram.multiplier import ModSRAMMultiplier
from repro.modsram.scheduler import (
    PointOperationSchedule,
    PointOperationScheduler,
    ScheduledMultiplication,
)
from repro.modsram.system import ModSRAMSystem, SystemProjection, Workload
from repro.modsram.trace import CycleEvent, ExecutionTrace, Phase
from repro.modsram.tracesink import NULL_SINK, NullTraceSink, TraceSink
from repro.modsram.verification import (
    EquivalenceChecker,
    VerificationCase,
    VerificationReport,
)

__all__ = [
    "AnalyticalCostModel",
    "AnalyticalModSRAM",
    "AreaBreakdown",
    "AreaModel",
    "AreaParameters",
    "Chip",
    "ChipGraphRun",
    "ChipSchedule",
    "ChipScheduler",
    "GraphSchedule",
    "MacroGeometry",
    "SCHEDULER_POLICIES",
    "SUPPORTED_RADICES",
    "Controller",
    "ControllerState",
    "CycleBudget",
    "CycleEvent",
    "CycleReport",
    "DatapathStats",
    "EquivalenceChecker",
    "ExecutionTrace",
    "FastHost",
    "Fidelity",
    "KernelHost",
    "KernelOutcome",
    "LutResidency",
    "MemoryMap",
    "MemoryUtilization",
    "ModSRAMAccelerator",
    "ModSRAMConfig",
    "ModSRAMMultiplier",
    "ModSRAMSystem",
    "MultiplicationResult",
    "NULL_SINK",
    "NearMemoryDatapath",
    "NullTraceSink",
    "PAPER_AREA_MM2",
    "PAPER_AREA_OVERHEAD_PERCENT",
    "PAPER_BREAKDOWN_PERCENT",
    "PAPER_CONFIG",
    "Phase",
    "PointOperationSchedule",
    "PointOperationScheduler",
    "ScheduledMultiplication",
    "SystemProjection",
    "TraceSink",
    "VerificationCase",
    "VerificationReport",
    "Workload",
    "build_simulator",
    "run_kernel",
]
