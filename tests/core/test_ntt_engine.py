"""Tests for WarpDrive-NTT: functional correctness and the Fig. 6 claims."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import VARIANTS, WarpDriveNtt
from repro.gpusim import A100_PCIE_80G, V100
from repro.ntt import (
    NttTables,
    get_shoup_stack,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from repro.numtheory import find_ntt_prime, find_ntt_primes
from tests.oracles import (negacyclic_ntt, reference_negacyclic_intt,
                           reference_negacyclic_ntt)

N = 256
Q = find_ntt_prime(28, N)
TABLES = NttTables(Q, N)
RNG = np.random.default_rng(0)


class TestFunctionalEquivalence:
    """All five variants compute the same transform, bit-exactly: the
    library's stacked kernel."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_oracle_and_kernel_agree(self, variant):
        engine = WarpDriveNtt(N, variant=variant)
        for q in find_ntt_primes(2, 30, N):
            tables = NttTables(q, N)
            stack = get_shoup_stack((q,), N)
            x = RNG.integers(0, q, size=(2, N), dtype=np.uint64)
            fwd = engine.forward(x, tables)
            assert np.array_equal(fwd, stacked_negacyclic_ntt(x[None],
                                                              stack)[0])
            inv = engine.inverse(fwd, tables)
            assert np.array_equal(inv, stacked_negacyclic_intt(fwd[None],
                                                               stack)[0])
            assert np.array_equal(inv, x)
            for row in range(2):
                assert np.array_equal(
                    fwd[row], reference_negacyclic_ntt(x[row], tables))
                assert np.array_equal(
                    inv[row], reference_negacyclic_intt(fwd[row], tables))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_matches_radix2(self, variant):
        engine = WarpDriveNtt(N, variant=variant)
        x = RNG.integers(0, Q, size=N, dtype=np.uint64)
        assert np.array_equal(
            engine.forward(x, TABLES), negacyclic_ntt(x, TABLES)
        )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_roundtrip(self, variant):
        engine = WarpDriveNtt(N, variant=variant)
        x = RNG.integers(0, Q, size=(3, N), dtype=np.uint64)
        assert np.array_equal(engine.inverse(engine.forward(x, TABLES),
                                             TABLES), x)

    def test_karatsuba_variant_identical(self):
        a = WarpDriveNtt(N, variant="wd-tensor")
        b = WarpDriveNtt(N, variant="wd-tensor", use_karatsuba=True)
        x = RNG.integers(0, Q, size=N, dtype=np.uint64)
        assert np.array_equal(a.forward(x, TABLES), b.forward(x, TABLES))

    def test_large_n_two_level(self):
        n = 4096
        q = find_ntt_prime(28, n)
        t = NttTables(q, n)
        engine = WarpDriveNtt(n)
        x = RNG.integers(0, q, size=n, dtype=np.uint64)
        assert np.array_equal(engine.forward(x, t), negacyclic_ntt(x, t))
        assert engine.plan.describe() == "(16x16)x16"

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            WarpDriveNtt(N, variant="wd-quantum")


class TestLoudFailures:
    """Inputs the kernel cannot transform fail with a specific error."""

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_plan_size_mismatch(self, direction):
        transform = getattr(WarpDriveNtt(2 * N), direction)
        with pytest.raises(ValueError, match="plan is for size 512, "
                                             "tables for 256"):
            transform(np.zeros(N, dtype=np.uint64), TABLES)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_modulus_of_32_bits(self, direction):
        """``NttTables`` itself refuses such moduli; anything else that
        carries one is stopped before the kernel sees it."""
        wide = SimpleNamespace(n=N, modulus=(1 << 32) - 511)
        transform = getattr(WarpDriveNtt(N), direction)
        with pytest.raises(ValueError, match="modulus below 2\\*\\*31"):
            transform(np.zeros(N, dtype=np.uint64), wide)

    def test_last_axis_mismatch(self):
        with pytest.raises(ValueError, match="does not match plan size"):
            WarpDriveNtt(N).forward(np.zeros((2, N // 2), dtype=np.uint64),
                                    TABLES)


class TestKernelPlans:
    def test_single_kernel_below_smem_limit(self):
        assert not WarpDriveNtt(2**15).uses_dual_kernel
        assert len(WarpDriveNtt(2**15).kernel_plan(16)) == 1

    def test_dual_kernel_at_2_16(self):
        """§IV-D-2: N*w > S_shared forces the dual-kernel form."""
        assert WarpDriveNtt(2**16).uses_dual_kernel
        assert len(WarpDriveNtt(2**16).kernel_plan(16)) == 2

    def test_batch_scales_work(self):
        e = WarpDriveNtt(2**14)
        k1 = e.kernel_plan(1)[0]
        k8 = e.kernel_plan(8)[0]
        assert k8.int32_ops == pytest.approx(8 * k1.int32_ops)
        assert k8.gmem_read_bytes == pytest.approx(8 * k1.gmem_read_bytes)

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            WarpDriveNtt(2**14).kernel_plan(0)

    def test_tensor_variant_uses_tensor_cores(self):
        k = WarpDriveNtt(2**14, variant="wd-tensor").kernel_plan(1)[0]
        assert k.tensor_macs > 0

    def test_cuda_variants_avoid_tensor_cores(self):
        for v in ("wd-cuda", "wd-bo"):
            k = WarpDriveNtt(2**14, variant=v).kernel_plan(1)[0]
            assert k.tensor_macs == 0

    def test_cuda_variant_runs_on_v100(self):
        """WD-BO/WD-CUDA work on tensor-less devices (generality §VI-B)."""
        e = WarpDriveNtt(2**14, variant="wd-bo", device=V100)
        assert e.throughput_kops(64) > 0

    def test_warp_allocation_is_4_plus_4(self):
        """Fig. 3: fused kernels pair 4 tensor with 4 CUDA warps."""
        k = WarpDriveNtt(2**14, variant="wd-fuse").kernel_plan(1)[0]
        assert k.warps_per_block == 8


class TestFig6Ordering:
    """The concurrency claims of §V-D, at the paper's batch size."""

    @pytest.fixture(scope="class")
    def kops(self):
        return {
            n: {
                v: WarpDriveNtt(n, variant=v).throughput_kops(1024)
                for v in VARIANTS
            }
            for n in (2**12, 2**14, 2**16)
        }

    def test_fuse_beats_every_single_pipe_variant(self, kops):
        for n, row in kops.items():
            assert row["wd-fuse"] > row["wd-tensor"]
            assert row["wd-fuse"] > row["wd-bo"]
            assert row["wd-fuse"] > row["wd-cuda"]

    def test_fuse_gain_is_single_digit_percent(self, kops):
        """Paper: WD-FUSE beats WD-Tensor by 4% to 7%."""
        for n, row in kops.items():
            gain = row["wd-fuse"] / row["wd-tensor"] - 1
            assert 0.02 < gain < 0.12

    def test_tensor_beats_bo(self, kops):
        """Paper: 4-10% advantage over WD-BO."""
        for n, row in kops.items():
            assert row["wd-tensor"] > row["wd-bo"]

    def test_tensor_beats_cuda(self, kops):
        for n, row in kops.items():
            assert row["wd-tensor"] > row["wd-cuda"]

    def test_ftc_between_cuda_and_tensor(self, kops):
        for n, row in kops.items():
            assert row["wd-cuda"] < row["wd-ftc"] < row["wd-tensor"]


class TestThroughputScaling:
    def test_throughput_decreases_with_n(self):
        ks = [WarpDriveNtt(1 << b).throughput_kops(512)
              for b in (12, 14, 16)]
        assert ks[0] > ks[1] > ks[2]

    def test_batching_amortizes_launch_overhead(self):
        e = WarpDriveNtt(2**13)
        assert e.throughput_kops(1024) > e.throughput_kops(1)

    def test_latency_positive(self):
        assert WarpDriveNtt(2**12).latency_us() > 0
