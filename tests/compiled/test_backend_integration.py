"""The ``compiled`` backend through every layer above it.

Registry listing and codegen metadata, the engine's ``_multiply_batch``
hook, EngineSpec round-trips (the contract that lets pool shards and
cluster workers rebuild identical compiled kernels), and the numpy
feature flag's graceful degradation.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.compiled import CompiledMultiplier, clear_kernel_cache
from repro.compiled.kernels import NUMPY_MIN_BATCH, numpy_state
from repro.core.algorithms.base import create_multiplier
from repro.ecc.curves_data import CURVE_SPECS
from repro.engine import Engine, EngineSpec
from repro.engine.backend import available_backends, get_backend
from repro.errors import ConfigurationError

BN254_P = CURVE_SPECS["bn254"].field_modulus


class TestRegistry:
    def test_compiled_is_a_registered_backend(self):
        assert "compiled" in available_backends()
        info = get_backend("compiled").info
        assert info.kind == "software"
        assert info.direct_form is True

    def test_codegen_metadata_is_exposed(self):
        info = get_backend("compiled").info
        assert info.codegen is not None
        assert info.codegen["strategy"] == "barrett"
        assert "overflow-lut" in info.codegen["constants"]
        assert info.codegen["numpy_flag"] == "REPRO_COMPILED_NUMPY"
        as_dict = info.as_dict()
        assert as_dict["codegen"]["strategy"] == "barrett"
        # Non-codegen backends keep the field None.
        assert get_backend("r4csa-lut").info.as_dict()["codegen"] is None

    def test_create_multiplier_accepts_strategy(self):
        multiplier = create_multiplier("compiled", strategy="native")
        assert multiplier.strategy == "native"
        with pytest.raises(ConfigurationError, match="unknown option"):
            create_multiplier("compiled", fidelity="cycle")
        with pytest.raises(ConfigurationError, match="unknown codegen"):
            CompiledMultiplier(strategy="simd")


class TestEngineBatchHook:
    def test_batch_goes_through_the_compiled_kernel(self):
        engine = Engine(backend="compiled", modulus=BN254_P)
        rng = random.Random(7)
        pairs = [
            (rng.randrange(BN254_P), rng.randrange(BN254_P))
            for _ in range(64)
        ]
        batch = engine.multiply_batch(pairs)
        assert list(batch) == [a * b % BN254_P for a, b in pairs]
        assert batch.backend == "compiled"
        assert batch.stats.multiplications == 64
        # The hook dispatches once per batch, not once per element: the
        # depth-one kernel residency counter must not grow with the batch.
        assert batch.stats.precomputations <= 1

    def test_scalar_multiply_matches_the_batch_path(self):
        engine = Engine(backend="compiled", modulus=BN254_P)
        a, b = 12345, 67890
        assert int(engine.multiply(a, b)) == a * b % BN254_P

    def test_prepared_context_reports_warm_kernel(self):
        engine = Engine(backend="compiled", modulus=997)
        context = engine.context()
        kernel = context.multiplier.kernel_for(997)
        assert kernel.modulus == 997
        assert "997" in kernel.source


class TestSpecRoundTrip:
    def test_default_spec_builds_its_backend(self):
        default = EngineSpec().backend
        assert EngineSpec().validate().build().info.name == default

    def test_spec_round_trips_and_rebuilds_identical_kernels(self):
        spec = EngineSpec(backend="compiled", modulus=BN254_P, cache_size=4)
        assert EngineSpec.from_dict(spec.as_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec
        first, second = spec.build(), spec.build()
        rng = random.Random(11)
        pairs = [
            (rng.randrange(BN254_P), rng.randrange(BN254_P))
            for _ in range(16)
        ]
        assert (
            first.multiply_batch(pairs).values
            == second.multiply_batch(pairs).values
        )
        # Both engines resolve the one process-wide kernel.
        assert first.context().multiplier.kernel_for(
            BN254_P
        ) is second.context().multiplier.kernel_for(BN254_P)

    def test_engine_spec_derivation_round_trips_the_backend(self):
        engine = Engine(backend="compiled", curve="bn254")
        spec = engine.spec()
        assert spec.backend == "compiled"
        assert spec.build().info.name == "compiled"


class TestNumpyFlag:
    def test_flag_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILED_NUMPY", raising=False)
        state = numpy_state()
        assert state.requested is False
        assert state.reason is not None

    def test_env_zero_force_disables_explicit_requests(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_NUMPY", "0")
        assert numpy_state(use_numpy=True).requested is False

    def test_numpy_path_is_bit_identical_when_active(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_NUMPY", "1")
        clear_kernel_cache()
        try:
            modulus = (1 << 31) - 1  # Mersenne, inside the int64 window
            multiplier = CompiledMultiplier(use_numpy=True)
            kernel = multiplier.kernel_for(modulus)
            rng = random.Random(13)
            pairs = [
                (rng.randrange(modulus), rng.randrange(modulus))
                for _ in range(NUMPY_MIN_BATCH * 2)
            ]
            expected = [a * b % modulus for a, b in pairs]
            assert multiplier._multiply_batch(pairs, modulus) == expected
            if numpy_state(use_numpy=True).available:
                assert kernel.numpy_eligible
        finally:
            clear_kernel_cache()

    def test_wide_moduli_fall_back_to_the_scalar_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_NUMPY", "1")
        clear_kernel_cache()
        try:
            multiplier = CompiledMultiplier(use_numpy=True)
            kernel = multiplier.kernel_for(BN254_P)
            assert kernel.numpy_eligible is False  # 254 bits > int64 window
            rng = random.Random(17)
            pairs = [
                (rng.randrange(BN254_P), rng.randrange(BN254_P))
                for _ in range(NUMPY_MIN_BATCH + 8)
            ]
            assert multiplier._multiply_batch(pairs, BN254_P) == [
                a * b % BN254_P for a, b in pairs
            ]
        finally:
            clear_kernel_cache()
