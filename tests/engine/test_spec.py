"""Tests for EngineSpec: the portable engine re-construction recipe."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.engine import Engine, EngineSpec, MultiplierBackend
from repro.engine.backend import available_backends, get_backend
from repro.errors import ConfigurationError


class TestEngineSpec:
    def test_build_reconstructs_an_equivalent_engine(self):
        spec = EngineSpec(backend="montgomery", curve="bn254", cache_size=8)
        engine = spec.build()
        assert engine.info.name == "montgomery"
        assert engine.default_modulus is not None
        twin = spec.build()
        assert int(engine.multiply(12345, 67890)) == int(
            twin.multiply(12345, 67890)
        )
        # Independent runtime state: warming one leaves the other cold.
        assert twin.cache_size == 1 and engine.cache_size == 1
        assert engine.context() is not twin.context()

    def test_default_spec_builds_its_backend(self):
        default = EngineSpec().backend
        assert EngineSpec().validate().build().info.name == default

    def test_round_trips_through_dict_and_pickle(self):
        spec = EngineSpec(
            backend="r4csa-lut", curve=None, modulus=997, cache_size=4
        )
        assert EngineSpec.from_dict(spec.as_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert EngineSpec.from_dict(
            {"backend": "schoolbook"}
        ) == EngineSpec(backend="schoolbook")
        rng = random.Random(11)
        pairs = [(rng.randrange(997), rng.randrange(997)) for _ in range(16)]
        first, second = spec.build(), spec.build()
        assert (
            first.multiply_batch(pairs).values
            == second.multiply_batch(pairs).values
            == tuple(a * b % 997 for a, b in pairs)
        )

    def test_validate_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            EngineSpec(backend="not-a-backend").validate()

    def test_removed_compiled_backend_is_an_unknown_name(self):
        with pytest.raises(ConfigurationError, match="available") as info:
            get_backend("compiled")
        assert str(available_backends()) in str(info.value)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            Engine(backend="compiled")

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            EngineSpec(backend="")
        with pytest.raises(ConfigurationError):
            EngineSpec(backend="montgomery", cache_size=0)


class TestEngineSpecDerivation:
    def test_engine_spec_round_trip(self):
        engine = Engine(backend="barrett", curve="p256", cache_size=16)
        spec = engine.spec()
        assert spec == EngineSpec(
            backend="barrett",
            curve="p256",
            modulus=engine.default_modulus,
            cache_size=16,
        )
        rebuilt = spec.build()
        assert rebuilt.info.name == "barrett"
        assert rebuilt.default_modulus == engine.default_modulus

    def test_explicit_modulus_survives(self):
        engine = Engine(backend="montgomery", modulus=65521)
        assert engine.spec().modulus == 65521

    def test_unregistered_backend_instance_has_no_spec(self):
        engine = Engine(backend=MultiplierBackend("montgomery"))
        with pytest.raises(ConfigurationError, match="unregistered instance"):
            engine.spec()


class TestSpecRoundTripEveryBackend:
    """The rebuild contract pool shards and cluster workers rely on."""

    @pytest.mark.parametrize("backend", available_backends())
    def test_spec_rebuilds_identical_engines(self, backend):
        spec = EngineSpec(backend=backend, modulus=997, cache_size=4)
        assert EngineSpec.from_dict(spec.as_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec
        rng = random.Random(backend)  # str seeds are stable across processes
        pairs = [(rng.randrange(997), rng.randrange(997)) for _ in range(16)]
        first, second = spec.build(), spec.build()
        assert first.info.name == second.info.name == backend
        assert (
            first.multiply_batch(pairs).values
            == second.multiply_batch(pairs).values
            == tuple(a * b % 997 for a, b in pairs)
        )
        assert first.spec() == spec
