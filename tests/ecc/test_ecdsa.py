"""Tests for the ECDSA application layer."""

from __future__ import annotations

import pytest

from repro.ecc import Ecdsa, PrimeField, build_curve, get_curve
from repro.ecc.curve import AffinePoint, EllipticCurve
from repro.ecc.curves_data import CURVE_SPECS
from repro.core import R4CSALutMultiplier
from repro.errors import CurveError, OperandRangeError

MESSAGE = b"ModSRAM: modular multiplication in SRAM"


@pytest.fixture(scope="module")
def ecdsa() -> Ecdsa:
    return Ecdsa(get_curve("secp256k1"))


@pytest.fixture(scope="module")
def keypair(ecdsa) -> "KeyPair":
    return ecdsa.generate_keypair(0x1B0B5C0FFEE1234567890ABCDEF)


class TestKeyGeneration:
    def test_public_key_is_on_the_curve(self, ecdsa, keypair):
        assert ecdsa.curve.contains(keypair.public_key)

    def test_private_key_range_checked(self, ecdsa):
        with pytest.raises(OperandRangeError):
            ecdsa.generate_keypair(0)
        with pytest.raises(OperandRangeError):
            ecdsa.generate_keypair(ecdsa.order)

    def test_curve_without_order_rejected(self):
        curve = EllipticCurve("orderless", PrimeField(97), a=2, b=3)
        with pytest.raises(CurveError):
            Ecdsa(curve)


class TestSignAndVerify:
    def test_round_trip(self, ecdsa, keypair):
        signature = ecdsa.sign(keypair.private_key, MESSAGE)
        assert ecdsa.verify(keypair.public_key, MESSAGE, signature)

    def test_signing_is_deterministic(self, ecdsa, keypair):
        first = ecdsa.sign(keypair.private_key, MESSAGE)
        second = ecdsa.sign(keypair.private_key, MESSAGE)
        assert first == second

    def test_different_messages_give_different_signatures(self, ecdsa, keypair):
        assert ecdsa.sign(keypair.private_key, b"a") != ecdsa.sign(
            keypair.private_key, b"b"
        )

    def test_tampered_message_rejected(self, ecdsa, keypair):
        signature = ecdsa.sign(keypair.private_key, MESSAGE)
        assert not ecdsa.verify(keypair.public_key, MESSAGE + b"!", signature)

    def test_wrong_key_rejected(self, ecdsa, keypair):
        other = ecdsa.generate_keypair(0xDEAD_BEEF_1234)
        signature = ecdsa.sign(keypair.private_key, MESSAGE)
        assert not ecdsa.verify(other.public_key, MESSAGE, signature)

    def test_malformed_signature_rejected(self, ecdsa, keypair):
        from repro.ecc.ecdsa import Signature

        assert not ecdsa.verify(keypair.public_key, MESSAGE, Signature(0, 1))
        assert not ecdsa.verify(keypair.public_key, MESSAGE, Signature(1, 0))
        assert not ecdsa.verify(
            keypair.public_key, MESSAGE, Signature(ecdsa.order, 1)
        )

    def test_infinity_public_key_rejected(self, ecdsa, keypair):
        signature = ecdsa.sign(keypair.private_key, MESSAGE)
        assert not ecdsa.verify(AffinePoint.infinity(), MESSAGE, signature)

    def test_private_key_range_checked_on_sign(self, ecdsa):
        with pytest.raises(OperandRangeError):
            ecdsa.sign(0, MESSAGE)

    def test_works_on_bn254_and_p256(self):
        for name in ("bn254", "p256"):
            ecdsa = Ecdsa(get_curve(name))
            keypair = ecdsa.generate_keypair(0xA5A5_5A5A_1234_5678)
            signature = ecdsa.sign(keypair.private_key, MESSAGE)
            assert ecdsa.verify(keypair.public_key, MESSAGE, signature)


class TestOnAlgorithmBackend:
    # A full sign in bit-level emulation is the suite's largest single cost;
    # tier-1 keeps the seeded P-256 field sample on r4csa-lut
    # (tests/ecc/test_field.py::TestBackendsAndCounting).
    @pytest.mark.slow
    def test_signature_verifies_when_field_runs_on_r4csa_lut(self):
        """The full PKC workload with the paper's algorithm as the multiplier."""
        spec = CURVE_SPECS["secp256k1"]
        field = PrimeField(spec.field_modulus, multiplier=R4CSALutMultiplier())
        curve = build_curve(spec, field=field)
        ecdsa = Ecdsa(curve)
        keypair = ecdsa.generate_keypair(0xC0FFEE)
        signature = ecdsa.sign(keypair.private_key, MESSAGE)
        assert ecdsa.verify(keypair.public_key, MESSAGE, signature)
        assert field.counter.count("modmul") > 1000
