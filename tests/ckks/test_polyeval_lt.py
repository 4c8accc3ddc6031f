"""Tests for the polynomial evaluator and linear transforms."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from repro.ckks import CkksContext, CkksParams, ParameterSets
from repro.ckks.linear_transform import LinearTransform
from repro.ckks.polyeval import PolynomialEvaluator


@pytest.fixture(scope="module")
def ctx():
    return CkksContext.create(ParameterSets.toy(), seed=13)


@pytest.fixture(scope="module")
def keys(ctx):
    steps = sorted(
        set(range(1, 6)) | {5, 10, 15, 20, 25, 30} | {1, 2, 4, 8, 16}
    )
    return ctx.keygen(rotations=steps)


@pytest.fixture(scope="module")
def pe(ctx):
    return PolynomialEvaluator(ctx.evaluator)


class TestChebyshevEvaluation:
    def test_linear_polynomial(self, ctx, keys, pe):
        x = np.array([0.5, -0.3, 0.9, 0.0])
        ct = ctx.encrypt(x, keys)
        # 2*T_0 + 3*T_1 = 2 + 3x
        out = pe.eval_chebyshev(ct, [2.0, 3.0], keys)
        got = ctx.decrypt_decode_real(out, keys)[:4]
        assert np.max(np.abs(got - (2 + 3 * x))) < 1e-3

    def test_t2(self, ctx, keys, pe):
        x = np.array([0.5, -0.3, 0.9, 0.0])
        ct = ctx.encrypt(x, keys)
        out = pe.eval_chebyshev(ct, [0.0, 0.0, 1.0], keys)
        got = ctx.decrypt_decode_real(out, keys)[:4]
        assert np.max(np.abs(got - (2 * x**2 - 1))) < 1e-3

    def test_degree_seven_fit(self):
        # Degree 7 needs ~4 levels; use a deeper toy chain.
        deep = CkksContext.create(
            CkksParams(n=64, max_level=8, num_special=2, dnum=5,
                       scale_bits=26, name="deep-toy"),
            seed=14,
        )
        keys = deep.keygen()
        pe = PolynomialEvaluator(deep.evaluator)
        coeffs = PolynomialEvaluator.chebyshev_fit(np.tanh, 7)
        x = np.linspace(-0.9, 0.9, 8)
        ct = deep.encrypt(x, keys)
        out = pe.eval_chebyshev(ct, coeffs, keys)
        got = deep.decrypt_decode_real(out, keys)[:8]
        reference = npcheb.Chebyshev(coeffs)(x)
        assert np.max(np.abs(got - reference)) < 5e-3

    def test_constant_polynomial(self, ctx, keys, pe):
        ct = ctx.encrypt([0.5], keys)
        out = pe.eval_chebyshev(ct, [1.25], keys)
        got = ctx.decrypt_decode_real(out, keys)[0]
        assert abs(got - 1.25) < 1e-3

    def test_empty_rejected(self, ctx, keys, pe):
        ct = ctx.encrypt([0.5], keys)
        with pytest.raises(ValueError):
            pe.eval_chebyshev(ct, [], keys)


class TestPowerEvaluation:
    def test_cubic(self, ctx, keys, pe):
        x = np.array([0.5, -0.4, 0.25])
        ct = ctx.encrypt(x, keys)
        # 1 + 2x - x^3
        out = pe.eval_power(ct, [1.0, 2.0, 0.0, -1.0], keys)
        got = ctx.decrypt_decode_real(out, keys)[:3]
        assert np.max(np.abs(got - (1 + 2 * x - x**3))) < 2e-3

    def test_agrees_with_chebyshev_form(self, ctx, keys, pe):
        """p(x) = x^2 expressed in both bases gives the same result."""
        x = np.array([0.3, -0.6])
        ct = ctx.encrypt(x, keys)
        power = pe.eval_power(ct, [0.0, 0.0, 1.0], keys)
        cheb = pe.eval_chebyshev(ct, [0.5, 0.0, 0.5], keys)  # (1+T2)/2
        a = ctx.decrypt_decode_real(power, keys)[:2]
        b = ctx.decrypt_decode_real(cheb, keys)[:2]
        assert np.max(np.abs(a - b)) < 2e-3


class TestDoublePrimeRescaling:
    """Each rescale drops two primes (the paper's 32-bit scheme): the
    unrescaled products sit near scale^2 = 2^64, past int64 constants.

    Degrees 3 and 4 end at level 0, whose single ~2^31 prime is below
    the 2^32 scale: it holds only |m| < 1/4, so those outputs stay
    inside that range (the intermediate ``T_i`` still span [-1, 1]).
    """

    @pytest.fixture(scope="class")
    def dbl(self):
        ctx = CkksContext.create(ParameterSets.double_rescale_toy(), seed=17)
        return ctx, ctx.keygen(), PolynomialEvaluator(ctx.evaluator)

    @pytest.mark.parametrize("coeffs", [
        [0.0, 0.0, 1.0],
        [0.02, -0.06, 0.04, 0.1],
        [0.01, 0.04, -0.06, 0.02, 0.1],
    ], ids=["t2", "degree3", "degree4"])
    def test_chebyshev(self, dbl, coeffs):
        ctx, keys, pe = dbl
        x = np.linspace(-0.9, 0.9, 8)
        ct = ctx.encrypt(x, keys)
        out = pe.eval_chebyshev(ct, coeffs, keys)
        depth = int(np.ceil(np.log2(len(coeffs) - 1))) + 1
        assert out.level >= ct.level - 2 * depth
        got = ctx.decrypt_decode_real(out, keys)[:8]
        assert np.max(np.abs(got - npcheb.chebval(x, coeffs))) < 2e-3

    def test_power_cubic(self, dbl):
        ctx, keys, pe = dbl
        x = np.array([0.5, -0.4, 0.25])
        coeffs = [0.05, 0.1, 0.0, -0.08]
        out = pe.eval_power(ctx.encrypt(x, keys), coeffs, keys)
        got = ctx.decrypt_decode_real(out, keys)[:3]
        want = np.polynomial.polynomial.polyval(x, coeffs)
        assert np.max(np.abs(got - want)) < 2e-3


#: Depth-8 toy chain: enough levels for any degree up to 64 (7 rescales).
_DEEP = CkksParams(n=64, max_level=8, num_special=2, dnum=9, scale_bits=26,
                   name="deep-bsgs")


def _sine_coeffs(degree=63, eval_range=4.5):
    """The EvalMod sine of the bootstrap, on its Chebyshev domain."""
    return PolynomialEvaluator.chebyshev_fit(
        lambda x: np.sin(2 * np.pi * x * eval_range) / (2 * np.pi), degree)


class TestBsgsEvaluation:
    """Baby-step giant-step Chebyshev evaluation on a deep toy chain."""

    @pytest.fixture(scope="class")
    def deep(self):
        ctx = CkksContext.create(_DEEP, seed=21)
        return ctx, ctx.keygen(), PolynomialEvaluator(ctx.evaluator)

    def test_random_polynomials_match_chebval_at_full_depth(self, deep):
        """Degrees 1..64 (powers of two included): every output is within
        1e-3 of ``chebval`` and at most ``ceil(log2 d) + 1`` levels below
        the input (the plain recurrence's depth)."""
        ctx, keys, pe = deep
        rng = np.random.default_rng(2021)
        x = np.linspace(-0.95, 0.95, ctx.slots)
        ct = ctx.encrypt(x, keys)
        for degree in range(1, 65):
            coeffs = rng.uniform(-1.0, 1.0, degree + 1)
            coeffs /= np.sum(np.abs(coeffs))  # |p(x)| <= 1 on [-1, 1]
            out = pe.eval_chebyshev(ct, coeffs, keys)
            depth = int(np.ceil(np.log2(degree))) + 1
            assert out.level >= ct.level - depth, degree
            assert out.scale == pytest.approx(ctx.params.scale, rel=1e-9)
            got = ctx.decrypt_decode_real(out, keys)
            err = np.max(np.abs(got - npcheb.chebval(x, coeffs)))
            assert err < 1e-3, (degree, err)

    def _tensor_products(self, deep, coeffs):
        from repro.trace.recorder import record

        ctx, keys, pe = deep
        ct = ctx.encrypt(np.linspace(-0.9, 0.9, ctx.slots), keys)
        with record("polyeval", params=ctx.params) as rec:
            out = pe.eval_chebyshev(ct, coeffs, keys)
        kinds = [e.kind for e in rec.trace.events]
        return kinds.count("tensor_product"), ct.level - out.level

    def test_degree_63_sine_work(self, deep):
        """Odd sine (degree 55 once coefficients below 1e-13 drop): baby
        steps T2..T5, T7, giants T8, T16, T32 and six giant products —
        14 HMULTs, where the plain product recurrence needs 41."""
        products, depth = self._tensor_products(deep, _sine_coeffs())
        assert products == 14
        assert depth == 7

    def test_dense_degree_63_work(self, deep):
        """Dense degree 63: 6 baby + 3 giant steps + 7 giant products
        (the plain product recurrence builds all of T2..T63: 62)."""
        coeffs = np.random.default_rng(5).uniform(-1, 1, 64) / 64
        products, depth = self._tensor_products(deep, coeffs)
        assert products == 16
        assert depth == 7

    def test_too_deep_rejected(self, deep):
        ctx, keys, pe = deep
        ct = ctx.encrypt([0.5], keys, level=3)
        with pytest.raises(ValueError, match="needs 4 rescales"):
            pe.eval_chebyshev(ct, np.ones(6), keys)

    def test_sine_scales_are_exact(self, deep, monkeypatch):
        """Regression: matching term scales with ``match_scale`` at
        ratios of 1.002-1.064 rounds them to the integer 1 while
        declaring the full ratio (each such term off by up to 6 %). Every
        ``match_scale`` ratio must be an integer or above 2^20 (where
        rounding costs < 2^-20 relative), and every scalar multiply must
        quantize to < 2^-20 in message units."""
        from repro.ckks.ops import Evaluator

        ctx, keys, pe = deep
        ratios, quantization = [], []
        match_scale, pmult_scalar = Evaluator.match_scale, \
            Evaluator.pmult_scalar

        def spy_match(self, ct, target):
            ratios.append(target / ct.scale)
            return match_scale(self, ct, target)

        def spy_pmult(self, ct, value, *, scale=None):
            s = self.params.scale if scale is None else scale
            quantization.append(abs(round(value * s) - value * s) / s)
            return pmult_scalar(self, ct, value, scale=scale)

        monkeypatch.setattr(Evaluator, "match_scale", spy_match)
        monkeypatch.setattr(Evaluator, "pmult_scalar", spy_pmult)
        coeffs = _sine_coeffs()
        x = np.linspace(-0.9, 0.9, ctx.slots)
        out = pe.eval_chebyshev(ctx.encrypt(x, keys), coeffs, keys)
        # The recurrence's T_1 raise (ratio ~ the scale) is the only one.
        assert ratios and all(r == round(r) or r > 2.0 ** 20
                              for r in ratios), ratios
        assert quantization and max(quantization) < 2.0 ** -20
        got = ctx.decrypt_decode_real(out, keys)
        assert np.max(np.abs(got - npcheb.chebval(x, coeffs))) < 1e-3


class TestLinearTransform:
    @pytest.fixture(scope="class")
    def matrix(self, ctx):
        rng = np.random.default_rng(5)
        return (rng.normal(size=(ctx.slots, ctx.slots)) * 0.25
                + 1j * rng.normal(size=(ctx.slots, ctx.slots)) * 0.1)

    def test_bsgs_matches_reference(self, ctx, matrix):
        lt = LinearTransform(ctx, matrix, bsgs=True)
        keys = ctx.keygen(rotations=lt.required_rotations())
        x = np.random.default_rng(6).normal(size=ctx.slots) * 0.5
        ct = ctx.encrypt(x, keys)
        got = ctx.decrypt_decode(lt.apply(ct, keys), keys)
        assert np.max(np.abs(got - matrix @ x)) < 1e-3

    def test_diagonal_matches_reference(self, ctx, matrix):
        lt = LinearTransform(ctx, matrix, bsgs=False)
        keys = ctx.keygen(rotations=lt.required_rotations())
        x = np.random.default_rng(7).normal(size=ctx.slots) * 0.5
        ct = ctx.encrypt(x, keys)
        got = ctx.decrypt_decode(lt.apply(ct, keys), keys)
        assert np.max(np.abs(got - matrix @ x)) < 1e-3

    def test_bsgs_needs_fewer_keys(self, ctx, matrix):
        bsgs = LinearTransform(ctx, matrix, bsgs=True)
        plain = LinearTransform(ctx, matrix, bsgs=False)
        assert (len(bsgs.required_rotations())
                < len(plain.required_rotations()))

    def test_sparse_matrix_skips_zero_diagonals(self, ctx):
        identity = np.eye(ctx.slots, dtype=complex) * 2.0
        lt = LinearTransform(ctx, identity, bsgs=False)
        assert lt.required_rotations() == []  # only diagonal 0
        keys = ctx.keygen()
        x = np.arange(ctx.slots, dtype=float) / 10
        got = ctx.decrypt_decode_real(
            lt.apply(ctx.encrypt(x, keys), keys), keys
        )
        assert np.max(np.abs(got - 2 * x)) < 1e-3

    def test_shape_validation(self, ctx):
        with pytest.raises(ValueError):
            LinearTransform(ctx, np.eye(3))

    def test_zero_matrix_rejected(self, ctx):
        with pytest.raises(ValueError):
            LinearTransform(ctx, np.zeros((ctx.slots, ctx.slots)))
