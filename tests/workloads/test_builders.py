"""Tests for the workload graph builders and the key streams they emit."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ConfigurationError, OperandRangeError
from repro.modsram.scheduler import DOUBLING_SEQUENCE, MIXED_ADDITION_SEQUENCE
from repro.workloads import (
    ecdsa_sign_graph,
    msm_graph,
    multiplicand_keys,
    ntt_graph,
    point_operation_graph,
    product_tree_graph,
    scalar_multiplication_graph,
)

#: ``(workload, args, params)`` -> ``(count, sha256("\n".join(keys))[:16])``.
#: Pinned from the hand-written linear streams that used to mirror the
#: builders, so the key sequences the chip scheduler reads are unchanged.
GOLDEN_KEYS = [
    (("ecdsa-sign", (32,), {"signatures": 2}), (964, "4bc62674a6669198")),
    (("scalar-mult", (48,), {}), (648, "9c8f63b1dc7fe056")),
    (("ntt", (128,), {}), (448, "bbc33cc0bc55f2e8")),
    (
        ("msm", (8,), {"window_bits": 2, "scalar_bits": 8}),
        (724, "930f554de66c6cba"),
    ),
]

WORKLOADS = [workload for workload, _ in GOLDEN_KEYS]
IDS = [name for name, _, _ in WORKLOADS]

_GRAPHS = {
    "ecdsa-sign": ecdsa_sign_graph,
    "scalar-mult": scalar_multiplication_graph,
    "ntt": ntt_graph,
    "msm": msm_graph,
}


def _fingerprint(keys):
    return len(keys), hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]


class TestMultiplicandKeys:
    @pytest.mark.parametrize("workload, expected", GOLDEN_KEYS, ids=IDS)
    def test_golden_key_streams(self, workload, expected):
        name, args, params = workload
        assert _fingerprint(multiplicand_keys(name, *args, **params)) == expected

    @pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
    def test_keys_are_the_graph_nodes_in_emission_order(self, workload):
        name, args, params = workload
        graph = _GRAPHS[name](*args, **params)
        assert multiplicand_keys(name, *args, **params) == tuple(
            node.multiplicand for node in graph
        )

    @pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
    def test_limit_returns_a_prefix(self, workload):
        name, args, params = workload
        full = multiplicand_keys(name, *args, **params)
        for limit in (0, 1, len(full) - 1, len(full), len(full) + 5):
            assert (
                multiplicand_keys(name, *args, limit=limit, **params)
                == full[:limit]
            )

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            multiplicand_keys("fft", 8)
        with pytest.raises(OperandRangeError):
            multiplicand_keys("ntt", 8, limit=-1)
        # Builder preconditions hold even when no key is wanted.
        with pytest.raises(OperandRangeError):
            multiplicand_keys("ntt", 3, limit=0)


class TestPointOperationStructure:
    def test_doubling_has_intra_op_parallelism(self):
        graph = point_operation_graph(DOUBLING_SEQUENCE, tag="dbl")
        # yy, xx and z3 are mutually independent: depth far below node count.
        assert graph.depth < len(graph)
        assert graph.width >= 3

    def test_mixed_addition_dependencies_follow_the_formula(self):
        graph = point_operation_graph(MIXED_ADDITION_SEQUENCE, tag="add")
        by_product = {
            name: graph.node(index)
            for index, (name, _, _) in enumerate(MIXED_ADDITION_SEQUENCE)
        }
        # hh = h^2 with h = u2 - x1: must depend on the u2 node.
        assert by_product["u2"].index in by_product["hh"].deps
        # t1 = r * (v_minus_x3) joins r (via s2), v, rr and hhh.
        assert by_product["s2"].index in by_product["t1"].deps
        assert by_product["v"].index in by_product["t1"].deps
        assert by_product["rr"].index in by_product["t1"].deps


class TestScalarMultiplicationStructure:
    def test_ladder_steps_chain(self):
        graph = scalar_multiplication_graph(8, additions=0)
        # Depth grows with the ladder: each doubling waits for the previous.
        assert graph.depth >= 8
        # But each step contributes fewer levels than multiplications.
        assert graph.depth < len(graph)

    def test_validation(self):
        with pytest.raises(OperandRangeError):
            scalar_multiplication_graph(0)


class TestEcdsaStructure:
    def test_inversion_overlaps_the_ladder(self):
        graph = ecdsa_sign_graph(16)
        levels = graph.topological_levels()
        # The inversion chain starts at level 0 (independent of the ladder):
        # some level must contain both a ladder node and an inversion node.
        tags_at_level0 = {graph.node(index).tag for index in levels[0]}
        assert "inversion" in tags_at_level0
        assert any(tag.startswith("dbl[") for tag in tags_at_level0)

    def test_signatures_are_independent(self):
        one = ecdsa_sign_graph(16, signatures=1)
        four = ecdsa_sign_graph(16, signatures=4)
        # Same critical-path depth, four times the nodes: pure width.
        assert four.depth == one.depth
        assert len(four) == 4 * len(one)
        assert four.width == 4 * one.width

    def test_s_computation_joins_both_strands(self):
        graph = ecdsa_sign_graph(8)
        final = graph.nodes[-1]
        assert final.tag == "s-computation"
        assert len(final.deps) >= 2
        assert graph.sinks() == [final.index]

    def test_validation(self):
        with pytest.raises(OperandRangeError):
            ecdsa_sign_graph(16, signatures=0)
        with pytest.raises(OperandRangeError):
            ecdsa_sign_graph(0)


class TestNttStructure:
    def test_levels_are_the_stages(self):
        size = 64
        graph = ntt_graph(size)
        levels = graph.topological_levels()
        assert len(levels) == 6  # log2(64)
        assert all(len(level) == size // 2 for level in levels)
        assert graph.width == size // 2

    def test_butterflies_depend_on_both_inputs(self):
        graph = ntt_graph(8)
        levels = graph.topological_levels()
        for index in levels[1]:
            assert len(graph.node(index).deps) == 2

    def test_validation(self):
        with pytest.raises(OperandRangeError):
            ntt_graph(3)
        with pytest.raises(OperandRangeError):
            ntt_graph(0)


class TestMsmStructure:
    def test_windows_parallel_until_horner(self):
        graph = msm_graph(8, window_bits=2, scalar_bits=8)
        # Bucket chains across windows are independent: width exceeds one
        # point operation by a wide margin.
        assert graph.width > len(MIXED_ADDITION_SEQUENCE)
        assert graph.depth < len(graph)

    def test_validation(self):
        with pytest.raises(OperandRangeError):
            msm_graph(0)
        with pytest.raises(OperandRangeError):
            msm_graph(8, scalar_bits=0)


class TestProductTree:
    def test_structure_and_executability(self):
        graph = product_tree_graph(range(2, 18))  # 16 leaves
        assert len(graph) == 15
        assert graph.depth == 4
        assert graph.width == 8
        assert graph.executable
        assert len(graph.sinks()) == 1

    def test_odd_leaf_counts_carry_over(self):
        graph = product_tree_graph([2, 3, 5])
        assert len(graph) == 2
        assert graph.depth == 2

    def test_validation(self):
        with pytest.raises(OperandRangeError):
            product_tree_graph([7])
