"""Tests for graph-aware chip scheduling and chip graph execution."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.modsram import (
    AnalyticalCostModel,
    Chip,
    ChipScheduler,
    ModSRAMConfig,
    PAPER_CONFIG,
)
from repro.workloads import (
    WorkloadGraph,
    ecdsa_sign_graph,
    ntt_graph,
    product_tree_graph,
)


def flat_graph(keys) -> WorkloadGraph:
    graph = WorkloadGraph("flat")
    for key in keys:
        graph.add(key)
    return graph


class TestFlatParity:
    """A dependency-free graph must schedule exactly like the flat stream."""

    @pytest.mark.parametrize("macros", [1, 2, 4])
    def test_placement_parity(self, macros):
        keys = [f"k{i % 5}" for i in range(37)] + ["k0"] * 3
        scheduler = ChipScheduler(macros, PAPER_CONFIG)
        stream = scheduler.schedule(keys)
        graph = scheduler.schedule_graph(flat_graph(keys))
        assert graph.makespan_cycles == stream.makespan_cycles
        assert graph.per_macro_jobs == stream.per_macro_jobs
        assert graph.per_macro_busy_cycles == stream.per_macro_cycles
        assert graph.lut_refills == stream.lut_refills
        assert graph.utilization == pytest.approx(stream.utilization)

    def test_chain_graph_is_serial(self):
        scheduler = ChipScheduler(4, PAPER_CONFIG)
        chain = flat_graph(["a", "b", "a"]).linearized()
        schedule = scheduler.schedule_graph(chain)
        model = AnalyticalCostModel(PAPER_CONFIG)
        # Serialized: makespan is the sum of every job's cost, and three
        # quarters of the chip idles.
        assert schedule.makespan_cycles == (
            3 * model.iteration_cycles() + 3 * model.radix4_refill_cycles()
        )
        assert schedule.utilization == pytest.approx(0.25)


class TestGraphAwareScheduling:
    def test_ntt_beats_the_flat_stream_at_four_macros(self):
        graph = ntt_graph(256)
        scheduler = ChipScheduler(4, PAPER_CONFIG)
        aware = scheduler.schedule_graph(graph)
        flat = scheduler.schedule_graph(graph.linearized())
        assert aware.makespan_cycles < flat.makespan_cycles
        assert aware.utilization > flat.utilization
        assert flat.makespan_cycles / aware.makespan_cycles >= 2.0

    def test_ecdsa_batch_beats_the_flat_stream(self):
        graph = ecdsa_sign_graph(32, signatures=4)
        scheduler = ChipScheduler(4, PAPER_CONFIG)
        aware = scheduler.schedule_graph(graph)
        flat = scheduler.schedule_graph(graph.linearized())
        assert flat.makespan_cycles / aware.makespan_cycles >= 2.0

    def test_critical_path_bounds_the_makespan(self):
        graph = ntt_graph(64)
        for macros in (1, 2, 8):
            schedule = ChipScheduler(macros, PAPER_CONFIG).schedule_graph(graph)
            assert schedule.makespan_cycles >= schedule.critical_path_cycles
            assert schedule.depth == graph.depth

    def test_dependencies_are_never_violated(self):
        # With more macros than width, the makespan floors at the critical
        # path — dependencies forbid going lower.
        graph = ntt_graph(16)  # width 8
        wide = ChipScheduler(32, PAPER_CONFIG).schedule_graph(graph)
        assert wide.makespan_cycles >= wide.critical_path_cycles
        assert wide.jobs == len(graph)

    def test_priority_orders_the_ready_front(self):
        graph = WorkloadGraph("prio")
        graph.add("low", priority=0)
        graph.add("high", priority=5)
        schedule = ChipScheduler(1, PAPER_CONFIG).schedule_graph(graph)
        # Both run on the single macro; the high-priority node goes first,
        # so the refill pattern is high-then-low (2 refills either way) —
        # but the schedule completes and accounts both.
        assert schedule.jobs == 2
        assert schedule.lut_refills == 2

    def test_empty_graph(self):
        schedule = ChipScheduler(2, PAPER_CONFIG).schedule_graph(
            WorkloadGraph("empty")
        )
        assert schedule.jobs == 0
        assert schedule.makespan_cycles == 0
        assert schedule.utilization == 0.0
        assert schedule.throughput_mops == 0.0

    def test_as_dict_round_trips_the_key_quantities(self):
        schedule = ChipScheduler(2, PAPER_CONFIG).schedule_graph(ntt_graph(16))
        data = schedule.as_dict()
        assert data["makespan_cycles"] == schedule.makespan_cycles
        assert data["critical_path_cycles"] == schedule.critical_path_cycles
        assert data["utilization"] == schedule.utilization
        assert data["depth"] == 4


class TestChipGraphExecution:
    def test_products_are_bit_identical(self, rng):
        modulus = 65521
        values = [rng.randrange(1, modulus) for _ in range(32)]
        graph = product_tree_graph(values)
        config = ModSRAMConfig().with_bitwidth(16)

        aware = Chip(4, config).run_graph(graph, modulus)
        chain = Chip(4, config).run_graph(graph.linearized(), modulus)
        reference = 1
        for value in values:
            reference = reference * value % modulus

        assert aware.values == chain.values
        assert aware.results == (reference,)
        assert aware.schedule.makespan_cycles < chain.schedule.makespan_cycles

    def test_measured_cycles_replace_the_nominal_charge(self, rng):
        modulus = 65521
        graph = product_tree_graph([3, 5, 7, 11])
        run = Chip(2, ModSRAMConfig().with_bitwidth(16)).run_graph(
            graph, modulus
        )
        assert run.schedule.jobs == 3
        assert run.schedule.total_busy_cycles > 0
        assert sum(run.schedule.per_macro_jobs) == 3

    def test_structural_graph_is_rejected(self):
        chip = Chip(2, ModSRAMConfig().with_bitwidth(16))
        with pytest.raises(ConfigurationError, match="structural"):
            chip.run_graph(ntt_graph(8), 65521)
