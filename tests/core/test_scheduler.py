"""Tests for operation lowering, PE kernels and the §IV-D runtime set-up."""

import pytest

from repro.ckks import ParameterSets
from repro.core import (
    HOMOMORPHIC_OPS,
    MemoryPool,
    OperationScheduler,
    max_working_set_bytes,
)
from repro.gpusim import A100_PCIE_80G

PARAMS = ParameterSets.set_c()


@pytest.fixture(scope="module")
def sched():
    return OperationScheduler(PARAMS)


def active_digits(scheduler, level):
    """Digits the keyswitch inner product accumulates at ``level``."""
    ip = next(k for k in scheduler.plan("keyswitch", level=level)
              if k.name == "keyswitch.inner_product")
    # Per accumulator pair written it reads each digit plus its 2 keys.
    return round(2 * ip.gmem_read_bytes / (3 * ip.gmem_write_bytes))


class TestPeKeySwitch:
    def test_eleven_kernels_at_every_level(self, sched):
        """Table IX: WarpDrive KeySwitch is always 11 kernels."""
        for level in (2, PARAMS.max_level // 2, PARAMS.max_level):
            assert sched.kernel_count("keyswitch", level=level) == 11

    def test_eleven_kernels_at_every_set(self):
        for name in ("SET-C", "SET-D", "SET-E"):
            s = OperationScheduler(ParameterSets.by_name(name))
            assert s.kernel_count("keyswitch") == 11

    def test_level_out_of_range(self, sched):
        with pytest.raises(ValueError, match="out of range"):
            sched.plan("keyswitch", level=99)
        with pytest.raises(ValueError, match="out of range"):
            sched.plan("keyswitch", level=-1)

    def test_active_digits_shrink_with_level(self, sched):
        full = active_digits(sched, PARAMS.max_level)
        low = active_digits(sched, 0)
        assert full == PARAMS.dnum
        assert 1 <= low < full


class TestBootSetLaunchCounts:
    """PE launch counts at N=2^16, where every PE launch merges the two
    stages of the dual-kernel NTT."""

    BOOT = ParameterSets.boot()
    EXPECTED = {"keyswitch": 11, "hrotate": 12, "rescale": 3, "hmult": 15,
                "hadd": 1, "hsub": 1, "pmult": 1}

    @pytest.mark.parametrize("op", sorted(EXPECTED))
    @pytest.mark.parametrize("level", [BOOT.max_level, BOOT.max_level // 2, 1])
    def test_launch_count(self, op, level):
        s = OperationScheduler(self.BOOT)
        assert s.kernel_count(op, level=level) == self.EXPECTED[op]

    def test_rescale_at_level_zero_fails_loudly(self):
        with pytest.raises(ValueError, match="lowest level"):
            OperationScheduler(self.BOOT).plan("rescale", level=0)


class TestOperationPlans:
    def test_all_ops_have_plans(self, sched):
        for op in HOMOMORPHIC_OPS:
            plan = sched.plan(op)
            assert len(plan) >= 1

    def test_unknown_op(self, sched):
        with pytest.raises(ValueError):
            sched.plan("hdivide")

    def test_hadd_is_one_kernel(self, sched):
        assert sched.kernel_count("hadd") == 1

    def test_hmult_includes_keyswitch_and_rescale(self, sched):
        names = [k.name for k in sched.plan("hmult")]
        assert "keyswitch.inner_product" in names
        assert names[-1] == "rescale.ntt"

    def test_latency_ordering(self, sched):
        """HMULT > HROTATE > RESCALE > HADD (Table VIII ordering)."""
        hmult = sched.latency_us("hmult")
        hrot = sched.latency_us("hrotate")
        resc = sched.latency_us("rescale")
        hadd = sched.latency_us("hadd")
        assert hmult > hrot > resc > hadd

    def test_lower_level_is_faster(self, sched):
        assert (
            sched.latency_us("hmult", level=2)
            < sched.latency_us("hmult", level=PARAMS.max_level)
        )

    def test_batching_improves_amortized_latency(self, sched):
        assert (
            sched.latency_us("hmult", batch=16)
            < sched.latency_us("hmult", batch=1)
        )

    def test_profile_fields(self, sched):
        prof = sched.profile("keyswitch")
        assert prof["kernels"] == 11
        assert 0 < prof["compute_util"] <= 100
        assert 0 < prof["memory_util"] <= 100


class TestMemoryPool:
    def test_s_max_formula(self):
        p = ParameterSets.toy()
        expected = (
            p.max_level * p.n * p.dnum
            * (p.max_level + p.num_special) * 1 * 4
        )
        assert max_working_set_bytes(p) == expected

    def test_pool_capped_by_available(self):
        pool = MemoryPool.for_params(
            ParameterSets.set_e(), available_bytes=1 << 20
        )
        assert pool.capacity == 1 << 20

    def test_allocate_and_reset(self):
        pool = MemoryPool(4096)
        a = pool.allocate(100, "a")
        b = pool.allocate(200, "b")
        assert b.offset >= a.size
        assert pool.in_use > 0
        pool.reset()
        assert pool.in_use == 0
        assert pool.stats["resets"] == 1

    def test_exhaustion(self):
        pool = MemoryPool(1024)
        with pytest.raises(MemoryError):
            pool.allocate(2048)

    def test_release_oldest_frees_its_bytes(self):
        # FIFO completion order — the serving fleet's only order — must
        # return memory immediately, not only when the pool drains.
        pool = MemoryPool(4096)
        a = pool.allocate(256, "a")
        pool.allocate(256, "b")
        pool.allocate(256, "c")
        before = pool.in_use
        pool.release(a)
        assert pool.in_use == before - a.size
        assert pool.fits(3328)  # all remaining capacity is allocatable

    def test_fifo_stream_never_ratchets(self):
        # A bounded pool sustains an unbounded stream of allocate /
        # release-oldest pairs (the admission-ledger steady state).
        pool = MemoryPool(1024)
        live = [pool.allocate(256) for _ in range(4)]
        for _ in range(64):
            pool.release(live.pop(0))
            live.append(pool.allocate(256))
        assert pool.in_use == 4 * 256

    def test_freed_gap_is_reused(self):
        pool = MemoryPool(1024)
        a = pool.allocate(256, "a")
        pool.allocate(256, "b")
        pool.release(a)
        c = pool.allocate(256, "c")
        assert c.offset == 0  # first fit lands in the freed gap

    def test_release_non_live_rejected(self):
        pool = MemoryPool(1024)
        a = pool.allocate(100, "a")
        pool.release(a)
        with pytest.raises(ValueError, match="not live"):
            pool.release(a)

    def test_alignment(self):
        pool = MemoryPool(4096)
        a = pool.allocate(1)
        assert a.size == 256

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            MemoryPool(0)
        with pytest.raises(ValueError):
            MemoryPool(1024).allocate(0)


class TestFramework:
    """The §IV-D runtime as the library sets it up: one
    :class:`OperationScheduler` per parameter set wires the WarpDrive NTT
    engine, the launch geometry and per-op pricing; the functional layer
    is a separate :class:`CkksContext`."""

    @pytest.fixture(scope="class")
    def fw(self):
        return OperationScheduler(ParameterSets.set_c())

    def test_threads_per_block_rule(self, fw):
        # T = C * W * 32 = 4 * 2 * 32 = 256 on the A100.
        assert fw.geometry.threads_per_block == \
            A100_PCIE_80G.subpartitions_per_sm * 2 * 32 == 256

    def test_dual_kernel_flag(self):
        assert OperationScheduler(ParameterSets.set_e()).ntt.uses_dual_kernel
        assert not OperationScheduler(
            ParameterSets.set_c()
        ).ntt.uses_dual_kernel

    def test_op_latency(self, fw):
        assert fw.latency_us("hadd") < fw.latency_us("hmult")

    def test_ntt_throughput(self, fw):
        assert fw.ntt.throughput_kops(256) > 0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            OperationScheduler(ParameterSets.set_c(), ntt_variant="bogus")

    def test_supported_ops(self):
        assert "hmult" in HOMOMORPHIC_OPS

    def test_functional_context_roundtrip(self):
        import numpy as np

        from repro.ckks import CkksContext

        ctx = CkksContext.create(ParameterSets.toy(), seed=3)
        keys = ctx.keygen()
        ct = ctx.encrypt([1.0, -2.0], keys)
        dec = ctx.decrypt_decode_real(ct, keys)
        assert np.max(np.abs(dec[:2] - [1.0, -2.0])) < 1e-3
