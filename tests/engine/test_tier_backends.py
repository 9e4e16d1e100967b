"""Tests for the ModSRAM engine backends: one class, four registry names."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.ecc.curves_data import CURVE_SPECS
from repro.engine import (
    Engine,
    ModSRAMBackend,
    available_backends,
    get_backend,
)
from repro.errors import ConfigurationError
from repro.modsram import PAPER_CONFIG, ModSRAMConfig, ModSRAMMultiplier

BN254_P = CURVE_SPECS["bn254"].field_modulus

#: name -> (fidelity, macros) of every ModSRAM registry entry.
SHAPES = {
    "modsram": ("cycle", None),
    "modsram-fast": ("analytical", None),
    "modsram-chip": ("analytical", 4),
    "modsram-hdl": ("hdl", None),
}


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_each_name_is_the_one_backend_class(self, name):
        backend = get_backend(name)
        assert type(backend) is ModSRAMBackend
        context = backend.create_context(65521)
        assert type(context.multiplier) is ModSRAMMultiplier
        assert context.multiplier.name == name

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_capability_metadata(self, name):
        fidelity, macros = SHAPES[name]
        info = get_backend(name).info
        assert info.name == name
        assert (info.fidelity, info.macros) == (fidelity, macros)
        assert info.kind == "accelerator"
        assert info.has_cycle_model
        payload = info.as_dict()
        assert payload["fidelity"] == fidelity
        assert payload["macros"] == macros

    def test_the_modsram_names_are_exactly_the_four_shapes(self):
        names = [name for name in available_backends() if name.startswith("modsram")]
        assert names == sorted(SHAPES)

    def test_software_backends_have_no_tier_metadata(self):
        info = get_backend("montgomery").info
        assert info.fidelity is None and info.macros is None

    def test_fidelity_enum_is_normalised_in_the_metadata(self):
        from repro.modsram import Fidelity

        backend = ModSRAMBackend(fidelity=Fidelity.ANALYTICAL)
        assert backend.info.name == "modsram-fast"
        assert backend.info.fidelity == "analytical"
        assert backend.info.as_dict()["fidelity"] == "analytical"

    def test_chip_backend_macro_config(self):
        backend = ModSRAMBackend(fidelity="analytical", macros=8)
        assert backend.info.name == "modsram-chip"
        assert backend.info.macros == 8
        context = backend.create_context(65521)
        assert context.multiplier.macros == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fidelity": "cycle", "macros": 4},
            {"fidelity": "hdl", "macros": 4},
            {"fidelity": "analytical", "macros": 0},
            {"fidelity": "analytical", "macros": -1},
            {"fidelity": "rtl"},
        ],
        ids=["cycle-chip", "hdl-chip", "zero-macros", "negative-macros", "rtl"],
    )
    def test_invalid_shapes_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ModSRAMBackend(**kwargs)

    def test_building_the_registry_does_not_import_the_hdl_package(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "import sys\n"
            "from repro.engine import EngineSpec, available_backends\n"
            "assert int(EngineSpec().build().multiply(3, 5, 7)) == 1\n"
            "assert 'modsram-hdl' in available_backends()\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.hdl')))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"


class TestParityAcrossShapes:
    """Every ModSRAM name agrees with the others and with the oracle."""

    @pytest.mark.parametrize("modulus", [65521, BN254_P], ids=["65521", "bn254"])
    def test_products_and_modeled_cycles_match(self, modulus, rng):
        pairs = [(rng.randrange(modulus), rng.randrange(modulus)) for _ in range(2)]
        expected = [a * b % modulus for a, b in pairs]
        modeled = set()
        for name in SHAPES:
            engine = Engine(backend=name, modulus=modulus)
            assert list(engine.multiply_batch(pairs)) == expected, name
            modeled.add(engine.context().modeled_cycles_per_multiply)
            modeled.add(get_backend(name).modeled_cycles(modulus.bit_length()))
        assert modeled == {
            ModSRAMConfig().with_bitwidth(modulus.bit_length()).expected_iteration_cycles
        }

    def test_cycle_reports_match_at_the_paper_point(self, rng):
        a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
        reports = []
        for fidelity, macros in SHAPES.values():
            multiplier = ModSRAMMultiplier(PAPER_CONFIG, fidelity, macros)
            assert multiplier.multiply(a, b, BN254_P) == a * b % BN254_P
            reports.append(multiplier.reports[-1])
        assert all(report == reports[0] for report in reports)
        assert reports[0].iteration_cycles == 767


class TestChipActivity:
    def test_chip_activity_reachable_through_the_context(self, rng):
        engine = Engine(backend="modsram-chip", modulus=65521)
        pairs = [(rng.randrange(65521), 7) for _ in range(8)]
        engine.multiply_batch(pairs)
        activity = engine.context().multiplier.activity()
        assert activity.jobs == 8
        assert activity.macros == 4
        assert activity.makespan_cycles > 0

    @pytest.mark.parametrize("name", ["modsram", "modsram-fast", "modsram-hdl"])
    def test_single_macros_have_no_chip_activity(self, name):
        engine = Engine(backend=name, modulus=65521)
        engine.multiply(3, 5)
        with pytest.raises(ConfigurationError, match="single macro"):
            engine.context().multiplier.activity()

    def test_activity_before_any_multiply_is_rejected(self):
        multiplier = ModSRAMMultiplier(fidelity="analytical", macros=2)
        with pytest.raises(ConfigurationError, match="multiply first"):
            multiplier.activity()

    def test_batch_modeled_cycles_scale_with_batch_size(self, rng):
        engine = Engine(backend="modsram-chip", modulus=65521)
        pairs = [(rng.randrange(65521), rng.randrange(65521)) for _ in range(5)]
        batch = engine.multiply_batch(pairs)
        per_call = engine.context().modeled_cycles_per_multiply
        assert batch.modeled_cycles == per_call * len(pairs)

    def test_engine_accepts_backend_instances_with_custom_macros(self):
        engine = Engine(
            backend=ModSRAMBackend(fidelity="analytical", macros=2), modulus=65521
        )
        result = engine.multiply(123, 456)
        assert int(result) == (123 * 456) % 65521
        assert engine.info.macros == 2
