"""The prepare() contract: idempotent and thread-safe (base-class docs).

The serving layers warm shared multipliers from worker threads, so a
per-modulus precomputation racing itself must build exactly once and
leave the instance consistent.  These tests pin that contract for the
paper's R4CSA-LUT, the software multiplier with real per-modulus state
(its overflow-table build runs under the instance lock), and for the
ModSRAM adapter, whose per-bitwidth macro or chip is built under its own.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

import repro.core.algorithms.r4csa_lut as r4csa_module
import repro.modsram.multiplier as modsram_module
from repro.core.algorithms.r4csa_lut import R4CSALutMultiplier
from repro.ecc.curves_data import CURVE_SPECS
from repro.modsram.multiplier import ModSRAMMultiplier

BN254_P = CURVE_SPECS["bn254"].field_modulus
THREADS = 12


def _race(target) -> list:
    """Run ``target`` from THREADS threads released by one barrier."""
    barrier = threading.Barrier(THREADS)
    errors = []

    def runner():
        try:
            barrier.wait()
            target()
        except Exception as exc:  # pragma: no cover - diagnostic only
            errors.append(exc)

    threads = [threading.Thread(target=runner) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class TestR4CSAPrepare:
    def test_concurrent_prepare_builds_the_lut_exactly_once(self, monkeypatch):
        builds = []
        real_build = r4csa_module.build_overflow_lut

        def counting_build(modulus, register_width, entry_count):
            builds.append(modulus)
            return real_build(
                modulus, register_width, entry_count=entry_count
            )

        monkeypatch.setattr(
            r4csa_module, "build_overflow_lut", counting_build
        )
        multiplier = R4CSALutMultiplier()
        errors = _race(lambda: multiplier.prepare(BN254_P))
        assert not errors
        assert builds == [BN254_P], (
            f"expected exactly one overflow-LUT build, got {len(builds)}"
        )

    def test_prepare_is_idempotent(self, monkeypatch):
        builds = []
        real_build = r4csa_module.build_overflow_lut
        monkeypatch.setattr(
            r4csa_module,
            "build_overflow_lut",
            lambda m, w, entry_count: (
                builds.append(m),
                real_build(m, w, entry_count=entry_count),
            )[1],
        )
        multiplier = R4CSALutMultiplier()
        for _ in range(5):
            multiplier.prepare(BN254_P)
        assert len(builds) == 1

    def test_races_still_multiply_correctly(self):
        multiplier = R4CSALutMultiplier()
        rng = random.Random(3)
        a, b = rng.randrange(BN254_P), rng.randrange(BN254_P)
        results = []
        errors = _race(
            lambda: (
                multiplier.prepare(BN254_P),
                results.append(multiplier.multiply(a, b, BN254_P)),
            )
        )
        assert not errors
        assert set(results) == {a * b % BN254_P}


class TestModSRAMPrepare:
    @pytest.mark.parametrize(
        "shape",
        [{}, {"fidelity": "analytical", "macros": 4}],
        ids=["single-macro", "chip"],
    )
    def test_concurrent_prepare_builds_one_simulator(self, monkeypatch, shape):
        builds = []

        def slow_build(*args):
            # Hold the build open long enough for every racer to arrive.
            builds.append(args)
            time.sleep(0.02)
            return object()

        monkeypatch.setattr(modsram_module, "build_simulator", slow_build)
        monkeypatch.setattr(modsram_module, "Chip", slow_build)
        multiplier = ModSRAMMultiplier(**shape)
        errors = _race(lambda: multiplier.prepare(65521))
        assert not errors
        assert len(builds) == 1, (
            f"expected exactly one simulator build, got {len(builds)}"
        )
        simulator = multiplier.simulator_for(65521)
        multiplier.prepare(65521)
        assert len(builds) == 1
        assert multiplier.simulator_for(65521) is simulator
