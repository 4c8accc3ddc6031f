"""Property suite for the batched slot pipeline.

Covers the plan/compile linear-transform machinery (batched apply ==
``linear_transform_looped`` bit-exact, plan memoization, lossless giant-group
pruning), the FFT factorization of the embedding DFT (factor algebra,
CoeffToSlot∘SlotToCoeff round trip at every ``fuse``), rotation-key
deduplication, and an end-to-end factored-bootstrap precision
regression against the dense path.
"""

from functools import reduce

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParams, ParameterSets
from repro.ckks.bootstrap import (
    BootstrapConfig,
    Bootstrapper,
    _embedding_matrices,
    factored_stage_matrices,
    special_fft_factors,
)
from repro.ckks.linear_transform import LinearTransform
from repro.numtheory import bit_reverse_permutation
from tests.oracles import linear_transform_looped


@pytest.fixture(scope="module")
def ctx():
    return CkksContext.create(ParameterSets.toy(), seed=21)


@pytest.fixture(scope="module")
def keys(ctx):
    s = ctx.slots
    return ctx.keygen(rotations=list(range(1, s)))


def _bit_equal(a, b):
    return (
        np.array_equal(a.c0.data, b.c0.data)
        and np.array_equal(a.c1.data, b.c1.data)
        and a.scale == b.scale
        and a.level == b.level
    )


class TestBatchedEqualsLooped:
    @pytest.mark.parametrize("bsgs", [True, False])
    @pytest.mark.parametrize("trial", range(3))
    def test_random_matrix_bit_exact(self, ctx, keys, bsgs, trial):
        rng = np.random.default_rng(100 + trial)
        s = ctx.slots
        mat = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        lt = LinearTransform(ctx, mat, bsgs=bsgs)
        vals = rng.normal(size=s) * 0.3
        level = [ctx.params.max_level, 3, 1][trial]
        ct = ctx.encrypt(vals, keys, level=level)
        assert _bit_equal(lt.apply(ct, keys), linear_transform_looped(lt, ct, keys))

    def test_matches_plaintext_matmul(self, ctx, keys):
        rng = np.random.default_rng(7)
        s = ctx.slots
        mat = rng.normal(size=(s, s)) * 0.5
        lt = LinearTransform(ctx, mat)
        vals = rng.normal(size=s) * 0.4
        out = lt.apply(ctx.encrypt(vals, keys), keys)
        got = ctx.decrypt_decode_real(out, keys)
        assert np.max(np.abs(got - mat @ vals)) < 1e-2

    def test_plan_is_memoized_per_level(self, ctx, keys):
        rng = np.random.default_rng(8)
        s = ctx.slots
        lt = LinearTransform(ctx, rng.normal(size=(s, s)))
        ct = ctx.encrypt(np.zeros(s), keys)
        plan = lt.compile(ct.level)
        assert lt.compile(ct.level) is plan  # no re-encode on reuse
        lt.apply(ct, keys)
        linear_transform_looped(lt, ct, keys)
        assert lt.compile(ct.level) is plan
        assert not plan.stack.flags.writeable

    def test_apply_does_not_reencode(self, ctx, keys, monkeypatch):
        rng = np.random.default_rng(9)
        s = ctx.slots
        lt = LinearTransform(ctx, rng.normal(size=(s, s)))
        ct = ctx.encrypt(np.zeros(s), keys)
        lt.apply(ct, keys)  # compiles
        calls = {"n": 0}
        orig = ctx.encoder.encode_many

        def counting(*a, **k):
            calls["n"] += 1
            return orig(*a, **k)

        monkeypatch.setattr(ctx.encoder, "encode_many", counting)
        lt.apply(ct, keys)
        linear_transform_looped(lt, ct, keys)
        assert calls["n"] == 0


class TestGiantGroupPruning:
    def test_banded_matrix_prunes_and_stays_lossless(self, ctx, keys):
        rng = np.random.default_rng(11)
        s = ctx.slots
        # A narrow band: only diagonals 0..2 are non-zero, so most
        # giant-step groups are structurally empty.
        mat = np.zeros((s, s), dtype=np.complex128)
        j = np.arange(s)
        for d in range(3):
            mat[j, (j + d) % s] = rng.normal(size=s)
        lt = LinearTransform(ctx, mat, bsgs=True)
        dense = LinearTransform(
            ctx, mat + 1e-9 * np.ones((s, s)), bsgs=True
        )
        assert lt.num_giant_groups < dense.num_giant_groups
        assert lt.pruned_giant_steps  # something was skipped
        vals = rng.normal(size=s) * 0.4
        ct = ctx.encrypt(vals, keys)
        got = ctx.decrypt_decode_real(lt.apply(ct, keys), keys)
        assert np.max(np.abs(got - (mat @ vals).real)) < 1e-2

    def test_pruned_steps_not_required(self, ctx):
        s = ctx.slots
        mat = np.eye(s, dtype=np.complex128)
        lt = LinearTransform(ctx, mat, bsgs=True)
        required = set(lt.required_rotations())
        assert not required & set(lt.pruned_giant_steps)


class TestFftFactorization:
    @pytest.mark.parametrize("slots", [4, 8, 32])
    def test_factor_product_is_u0_times_bitrev(self, slots):
        factors = special_fft_factors(slots)
        perm = np.eye(slots)[bit_reverse_permutation(slots)]
        u0 = np.array([
            [np.exp(1j * np.pi * (pow(5, j, 4 * slots) * k % (4 * slots))
                    / (2 * slots)) for k in range(slots)]
            for j in range(slots)
        ])
        assert np.allclose(reduce(np.matmul, factors) @ perm, u0)

    @pytest.mark.parametrize("fuse", [1, 2, 3])
    def test_fused_products_match_unfused(self, fuse):
        s = 32
        stc1, cts1 = factored_stage_matrices(s, 1)
        stc, cts = factored_stage_matrices(s, fuse)
        chain = lambda mats: reduce(lambda a, m: m @ a, mats, np.eye(s))
        assert np.allclose(chain(stc), chain(stc1))
        assert np.allclose(chain(cts), chain(cts1))

    def test_each_factor_has_at_most_three_diagonals(self):
        s = 32
        j = np.arange(s)
        for mat in special_fft_factors(s):
            nonzero = {
                d for d in range(s)
                if np.any(np.abs(mat[j, (j + d) % s]) > 1e-12)
            }
            assert len(nonzero) <= 3

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            special_fft_factors(12)


class TestFactoredBootstrap:
    @pytest.fixture(scope="class")
    def boot_ctx(self):
        params = CkksParams(
            n=64, max_level=14, num_special=2, dnum=15, scale_bits=26,
            secret_hamming_weight=8, name="boot-toy",
        )
        return CkksContext.create(params, seed=7)

    @pytest.fixture(scope="class")
    def boot_keys(self, boot_ctx):
        steps = set(
            Bootstrapper.required_rotations_for(boot_ctx.params)
        )
        for fuse in (1, 2, 3):
            steps.update(Bootstrapper.required_rotations_for(
                boot_ctx.params, fft_factored=True, fuse=fuse
            ))
        return boot_ctx.keygen(rotations=sorted(steps), conjugation=True)

    @pytest.mark.parametrize("fuse", [1, 2, 3])
    def test_cts_of_stc_round_trips(self, boot_ctx, boot_keys, fuse):
        """Factored CtS∘StC == identity on slots (the two bit reversals
        cancel), within encoder precision."""
        boot = Bootstrapper(boot_ctx, BootstrapConfig(
            fft_factored=True, fuse=fuse
        ))
        rng = np.random.default_rng(31)
        vals = rng.normal(size=boot_ctx.slots) * 0.3
        ct = boot_ctx.encrypt(
            vals, boot_keys, level=2 * boot.stc_levels
        )
        down = boot.slot_to_coeff(ct, boot_keys)
        back = boot.coeff_to_slot(down, boot_keys)
        got = boot_ctx.decrypt_decode_real(back, boot_keys)
        assert np.max(np.abs(got - vals)) < 1e-2

    def test_analytic_rotations_superset_of_actual(self, boot_ctx):
        for fuse in (1, 2, 3):
            boot = Bootstrapper(boot_ctx, BootstrapConfig(
                fft_factored=True, fuse=fuse
            ))
            inst = set(boot.required_rotations())
            analytic = set(Bootstrapper.required_rotations_for(
                boot_ctx.params, fft_factored=True, fuse=fuse
            ))
            assert inst <= analytic

    def test_required_rotations_sorted_unique(self, boot_ctx):
        boot = Bootstrapper(boot_ctx, BootstrapConfig(
            fft_factored=True, fuse=1
        ))
        rots = boot.required_rotations()
        assert rots == sorted(set(rots))
        assert 0 not in rots

    def test_factored_needs_levels(self, boot_ctx, boot_keys):
        boot = Bootstrapper(boot_ctx, BootstrapConfig(fft_factored=True))
        ct = boot_ctx.encrypt(
            np.zeros(boot_ctx.slots), boot_keys, level=1
        )
        with pytest.raises(ValueError, match="level"):
            boot.slot_to_coeff(ct, boot_keys)

    @pytest.mark.parametrize("fuse", [1, 3])
    def test_full_bootstrap_precision_regression(self, boot_ctx,
                                                 boot_keys, fuse):
        """End to end: the factored bootstrap refreshes levels and stays
        inside the dense path's documented precision envelope (5e-2,
        tests/ckks/test_bootstrap.py)."""
        cfg = BootstrapConfig(
            sine_degree=63, eval_range=4.5, fft_factored=True, fuse=fuse
        )
        boot = Bootstrapper(boot_ctx, cfg)
        vals = np.zeros(boot_ctx.slots)
        vals[:4] = [0.5, -0.25, 0.125, 0.75]
        ct = boot_ctx.encrypt(vals, boot_keys, level=boot.stc_levels)
        out = boot.bootstrap(ct, boot_keys)
        # The dense path comes back at level 5; the factored CtS spends
        # stc_levels instead of 1, shifting the output down accordingly.
        assert out.level >= 5 - (boot.stc_levels - 1)
        assert out.level >= 1  # enough budget left to keep computing
        dec = boot_ctx.decrypt_decode_real(out, boot_keys)
        assert np.max(np.abs(dec - vals)) < 5e-2

    def test_embedding_matrix_matches_analytic_form(self, boot_ctx):
        """The numerically derived U0 equals the analytic
        ``zeta^(5^j k)`` form the factorization is built on."""
        u0, _, _ = _embedding_matrices(boot_ctx)
        s = boot_ctx.slots
        analytic = np.empty((s, s), dtype=np.complex128)
        for j in range(s):
            for k in range(s):
                analytic[j, k] = np.exp(
                    1j * np.pi * (pow(5, j, 4 * s) * k % (4 * s))
                    / (2 * s)
                )
        assert np.allclose(u0, analytic)


class TestKeyDedup:
    def test_keygen_skips_duplicates_and_zero(self, ctx):
        keys = ctx.keygen(rotations=[0, 3, 3, 5, 3])
        assert sorted(keys.rotation) == [3, 5]
