"""Tests for the canonical-embedding encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import Encoder, ParameterSets

PARAMS = ParameterSets.toy()


@pytest.fixture(scope="module")
def encoder():
    return Encoder(PARAMS)


class TestRoundtrip:
    def test_real_values(self, encoder):
        vals = np.array([1.5, -2.25, 3.125, 0.0, 100.0])
        coeffs = encoder.encode(vals)
        decoded = encoder.decode(coeffs.astype(np.float64))
        assert np.max(np.abs(np.real(decoded[:5]) - vals)) < 1e-5
        assert np.max(np.abs(np.imag(decoded[:5]))) < 1e-5

    def test_complex_values(self, encoder):
        vals = np.array([1 + 2j, -0.5 + 0.25j, 3j])
        coeffs = encoder.encode(vals)
        decoded = encoder.decode(coeffs.astype(np.float64))
        assert np.max(np.abs(decoded[:3] - vals)) < 1e-5

    def test_full_slot_vector(self, encoder):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=PARAMS.slots) + 1j * rng.normal(
            size=PARAMS.slots
        )
        err = encoder.roundtrip_error(vals)
        assert err < 1e-5

    def test_coefficients_are_integers(self, encoder):
        coeffs = encoder.encode([1.5, 2.5])
        assert coeffs.dtype == np.int64

    def test_too_many_values(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode(np.ones(PARAMS.slots + 1))

    def test_scale_overflow_detected(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode([1000.0], scale=2.0**60)

    def test_decode_shape_check(self, encoder):
        with pytest.raises(ValueError):
            encoder.decode(np.zeros(16))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1, max_size=32,
    ))
    def test_roundtrip_property(self, values):
        encoder = Encoder(PARAMS)
        assert encoder.roundtrip_error(np.array(values)) < 1e-4


class TestLinearity:
    """Encoding is an (approximate) ring homomorphism on slots."""

    def test_additive(self, encoder):
        a = np.array([1.0, 2.0, -3.0])
        b = np.array([0.5, -1.5, 4.0])
        ca = encoder.encode(a)
        cb = encoder.encode(b)
        dec = encoder.decode((ca + cb).astype(np.float64))
        assert np.max(np.abs(np.real(dec[:3]) - (a + b))) < 1e-5

    def test_polynomial_product_is_slotwise_product(self, encoder):
        """Negacyclic coefficient product == slot-wise product of messages
        (the property CKKS computation rests on). Computed over a modulus
        far larger than any product coefficient, so the arithmetic is
        effectively exact integer arithmetic."""
        from tests.oracles import negacyclic_convolution

        q = 1 << 120
        a = np.array([1.5, -2.0, 0.5])
        b = np.array([2.0, 3.0, -1.0])
        ca = np.array([int(c) % q for c in encoder.encode(a)], dtype=object)
        cb = np.array([int(c) % q for c in encoder.encode(b)], dtype=object)
        prod = negacyclic_convolution(ca, cb, q)
        centered = [int(c) - q if int(c) > q // 2 else int(c) for c in prod]
        dec = encoder.decode(centered, scale=PARAMS.scale**2)
        assert np.max(np.abs(np.real(dec[:3]) - a * b)) < 1e-4


class TestConstantEncoding:
    def test_constant_goes_to_coefficient_zero(self, encoder):
        coeffs = encoder.encode(np.full(PARAMS.slots, 2.0))
        assert abs(coeffs[0] - 2 * PARAMS.scale) <= 1
        assert np.max(np.abs(coeffs[1:])) <= 1
