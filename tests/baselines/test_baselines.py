"""Tests for TensorFHE, 100x and CPU baseline models."""

import pytest

from repro.baselines import (
    HundredXOps,
    TensorFheNtt,
    TensorFheOps,
    cpu_hmult_throughput_kops,
    cpu_ntt_throughput_kops,
)
from repro.ckks import ParameterSets
from repro.core import OperationScheduler, WarpDriveNtt
from repro.gpusim import StallReason
from repro.gpusim.timeline import render_timeline, to_chrome_trace


class TestTensorFheNtt:
    def test_35_kernel_launches(self):
        """Algorithm 1: 1 + 16 + 1 + 16 + 1 launches."""
        assert len(TensorFheNtt(2**16).kernel_plan()) == 35

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            TensorFheNtt(128)

    def test_stage_grouping(self):
        profiles = TensorFheNtt(2**14).stage_profiles(batch=64)
        assert set(profiles) == {
            "Stage 1", "Stage 2", "Stage 3", "Stage 4", "Stage 5"
        }
        assert len(profiles["Stage 2"]) == 16

    def test_stage1_is_lg_throttle_heavy(self):
        """Table II: the bit-split stage stalls mainly on LG Throttle."""
        profiles = TensorFheNtt(2**16).stage_profiles(batch=1024)
        stage1 = profiles["Stage 1"][0]
        assert stage1.stalls.fraction(StallReason.LG_THROTTLE) > 0.3
        assert stage1.stalls.memory_related_fraction > 0.8

    def test_gemm_stages_long_scoreboard(self):
        profiles = TensorFheNtt(2**16).stage_profiles(batch=1024)
        gemm = profiles["Stage 2"][0]
        assert (
            gemm.stalls.fraction(StallReason.LONG_SCOREBOARD)
            > gemm.stalls.fraction(StallReason.LG_THROTTLE)
        )

    def test_warpdrive_dominates(self):
        """Table VII: roughly an order of magnitude at every set."""
        for n in (2**12, 2**14, 2**16):
            tf = TensorFheNtt(n).throughput_kops(1024)
            wd = WarpDriveNtt(n).throughput_kops(1024)
            assert wd / tf > 5

    def test_multi_stream_serializes_on_full_grids(self):
        """§III-A: streams do not help when grids span the device."""
        ntt = TensorFheNtt(2**16)
        serial = ntt.simulate(1024, streams=1).elapsed_us
        streamed = ntt.simulate(1024, streams=4).elapsed_us
        assert streamed == pytest.approx(serial, rel=0.05)

    # (2**12, 1, 4) has grids small enough that program order alone would
    # let Stage-4 GEMMs overlap the Stage-3 kernel they read.
    @pytest.mark.parametrize("n,batch,streams",
                             [(2**12, 16, 2), (2**16, 1024, 4), (2**12, 1, 4)])
    def test_multi_stream_keeps_stage_order(self, n, batch, streams):
        """A stage reads the previous stage's output: no launch may start
        before every launch of the stage before it has ended."""
        entries = TensorFheNtt(n).simulate(batch, streams=streams).entries
        stages = sorted({e.spec.tags["stage"] for e in entries})
        end_of = {}
        for e in entries:
            stage = e.spec.tags["stage"]
            end_of[stage] = max(end_of.get(stage, 0.0), e.end_us)
        for e in entries:
            k = stages.index(e.spec.tags["stage"])
            if k:
                assert e.start_us >= end_of[stages[k - 1]], e.name

    @pytest.mark.parametrize("streams", [1, 2, 4])
    def test_entries_carry_their_cuda_stream(self, streams):
        """Launches are dealt round-robin, and each timeline entry keeps
        the stream it was dealt to: the render draws one row per stream
        and the Chrome export one thread per stream."""
        result = TensorFheNtt(2**16).simulate(1024, streams=streams)
        assert [e.stream for e in result.entries] == \
            [e.index % streams for e in result.entries]
        rows = [line for line in render_timeline(result).splitlines()
                if line.startswith("s")]
        assert len(rows) == streams
        threads = [ev for ev in to_chrome_trace(result)["traceEvents"]
                   if ev.get("name") == "thread_name"]
        assert len(threads) == streams

    def test_streams_never_slower_than_serial(self):
        ntt = TensorFheNtt(2**12)
        assert (ntt.simulate(16, streams=2).elapsed_us
                <= ntt.simulate(16, streams=1).elapsed_us)

    @pytest.mark.parametrize("streams", [0, -3, 1.5, "2", None])
    def test_rejects_bad_stream_count(self, streams):
        with pytest.raises(ValueError, match="streams must be a positive int"):
            TensorFheNtt(2**12).simulate(16, streams=streams)


class TestTensorFheOps:
    def test_hmult_slower_than_warpdrive(self):
        p = ParameterSets.set_a()
        tf = TensorFheOps(p).hmult_throughput_kops(batch=128)
        wd = OperationScheduler(p).throughput_kops("hmult", batch=32)
        assert wd > tf

    def test_batching_helps(self):
        p = ParameterSets.set_a()
        ops = TensorFheOps(p)
        assert (
            ops.hmult_latency_us(batch=128) < ops.hmult_latency_us(batch=4)
        )


class TestHundredX:
    @pytest.fixture(scope="class")
    def hx(self):
        return HundredXOps(ParameterSets.set_c())

    def test_many_more_kernels_than_pe(self, hx):
        """Table IX: polynomial-level KeySwitch needs 5-10x the launches."""
        wd = OperationScheduler(ParameterSets.set_c())
        assert hx.kernel_count("keyswitch") > 4 * wd.kernel_count("keyswitch")

    def test_kernel_count_grows_with_set(self):
        counts = [
            HundredXOps(ParameterSets.by_name(s)).kernel_count("keyswitch")
            for s in ("SET-C", "SET-D", "SET-E")
        ]
        assert counts[0] < counts[1] < counts[2]

    def test_warpdrive_beats_100x_opt_on_hmult(self):
        """Table VIII: >=30% HMULT advantage at every set."""
        for name in ("SET-C", "SET-D", "SET-E"):
            p = ParameterSets.by_name(name)
            opt = HundredXOps(p).latency_us("hmult")
            wd = OperationScheduler(p).latency_us("hmult")
            assert opt / wd > 1.3

    def test_all_ops_supported(self, hx):
        for op in ("hadd", "hsub", "pmult", "hmult", "hrotate", "rescale",
                   "keyswitch"):
            assert hx.latency_us(op) > 0

    def test_unknown_op(self, hx):
        with pytest.raises(ValueError):
            hx.plan("bootstrap")

    def test_keyswitch_profile_fields(self, hx):
        prof = hx.keyswitch_profile()
        assert prof["kernels"] > 11
        assert prof["latency_us"] > 0

    def test_utilization_improvement_of_pe_kernels(self):
        """Table IX: WarpDrive's compute utilization beats 100x_opt."""
        for name in ("SET-C", "SET-D"):
            p = ParameterSets.by_name(name)
            hx = HundredXOps(p).keyswitch_profile()
            wd = OperationScheduler(p).profile("keyswitch")
            assert wd["compute_util"] > hx["compute_util"]


class TestCpuBaseline:
    def test_ntt_matches_paper_calibration(self):
        """Paper Table VII: 7.2 / 3.4 / 1.6 KOPS at SET-A/B/C sizes."""
        assert cpu_ntt_throughput_kops(2**12) == pytest.approx(7.2, rel=0.02)
        assert cpu_ntt_throughput_kops(2**13) == pytest.approx(3.4, rel=0.1)
        assert cpu_ntt_throughput_kops(2**14) == pytest.approx(1.6, rel=0.1)

    def test_hmult_order_of_magnitude(self):
        """Paper Table XII: 0.42 / 0.08 / 0.02 KOPS."""
        a = cpu_hmult_throughput_kops(ParameterSets.set_a())
        b = cpu_hmult_throughput_kops(ParameterSets.set_b())
        assert a == pytest.approx(0.42, rel=0.15)
        assert b == pytest.approx(0.08, rel=0.3)

    def test_gpu_speedup_over_cpu_is_large(self):
        """Table VII: three orders of magnitude."""
        wd = WarpDriveNtt(2**12).throughput_kops(1024)
        assert wd / cpu_ntt_throughput_kops(2**12) > 500


class TestPublishedData:
    def test_table_viii_speedups_match_paper_claims(self):
        """The embedded published rows reproduce the quoted speedups."""
        from repro.baselines.published import TABLE_VIII_LATENCY_US

        hmult = TABLE_VIII_LATENCY_US["HMULT"]
        speedup_c = hmult["100x_opt"]["SET-C"] / hmult["WarpDrive"]["SET-C"]
        assert speedup_c == pytest.approx(1.82, abs=0.02)

    def test_table_xii_ratios(self):
        from repro.baselines.published import TABLE_XII_HMULT_KOPS

        ratio = (
            TABLE_XII_HMULT_KOPS["WarpDrive"]["SET-A"]
            / TABLE_XII_HMULT_KOPS["TensorFHE"]["SET-A"]
        )
        assert ratio == pytest.approx(3.46, abs=0.02)
