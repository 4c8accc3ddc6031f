"""Cross-package integration tests: the library working end to end."""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.ckks import CkksContext, ParameterSets
from repro.core import OperationScheduler
from repro.gpusim import aggregate
from repro.workloads import WorkloadSchedule


class TestFunctionalToPerformancePipeline:
    """The two layers working together: compute functionally on a toy
    ring, price the same operations at paper scale."""

    def test_same_op_names_functional_and_priced(self):
        ctx = CkksContext.create(ParameterSets.toy(), seed=1)
        keys = ctx.keygen(rotations=[1])
        sched = OperationScheduler(ParameterSets.set_c())

        vals = np.array([1.0, -2.0])
        ct = ctx.encrypt(vals, keys)
        # Functionally execute and simultaneously price each op.
        results = {}
        results["hadd"] = ctx.hadd(ct, ct)
        results["hmult"] = ctx.hmult(ct, ct, keys)
        results["hrotate"] = ctx.hrotate(ct, 1, keys)
        latencies = {op: sched.latency_us(op) for op in results}
        # All functional results decrypt sensibly...
        assert np.max(np.abs(
            ctx.decrypt_decode_real(results["hadd"], keys)[:2] - 2 * vals
        )) < 1e-3
        # ...and the priced ordering matches intuition.
        assert latencies["hmult"] > latencies["hrotate"] \
            > latencies["hadd"]

    def test_framework_bridges_both_layers(self):
        params = ParameterSets.toy()
        ctx = CkksContext.create(params, seed=2)
        keys = ctx.keygen()
        ct = ctx.encrypt([3.0], keys)
        out = ctx.hmult(ct, ct, keys)
        assert abs(
            ctx.decrypt_decode_real(out, keys)[0] - 9.0
        ) < 1e-2
        # The same parameters are priced at this (toy) geometry.
        assert OperationScheduler(params).latency_us("hmult") > 0


class TestScheduleToReportPipeline:
    def test_custom_schedule_prices_and_formats(self):
        sched = OperationScheduler(ParameterSets.set_c())
        workload = (
            WorkloadSchedule("custom")
            .add("hmult", 10, 3)
            .add("hrotate", 10, 5, hoisted=True)
            .add("hadd", 10, 8)
        )
        timing = workload.price(sched, batch=2)
        table = format_table(
            ["item", "us"],
            [[k, round(v, 1)] for k, v in timing.breakdown.items()],
            title="custom workload",
        )
        assert "hmult" in table
        assert timing.total_us > 0
        assert timing.amortized_ms == pytest.approx(
            timing.total_ms / 2
        )

    def test_simulated_profiles_aggregate(self):
        sched = OperationScheduler(ParameterSets.set_c())
        result = sched.simulate("keyswitch")
        agg = aggregate(result.profiles)
        assert agg.kernel_count == 11
        assert agg.total_us == pytest.approx(result.elapsed_us, rel=0.01)


class TestCrossSchemeSubstrateSharing:
    """CKKS, BGV and BFV all run on the same NTT tables and RNS code."""

    def test_three_schemes_share_the_ntt(self):
        from repro.bfv import BfvContext, BfvParams
        from repro.bgv import BgvContext, BgvParams
        from repro.ntt.tables import get_tables

        ckks = CkksContext.create(ParameterSets.toy(), seed=3)
        bgv = BgvContext(BgvParams.toy(), seed=3)
        bfv = BfvContext(BfvParams.toy(), seed=3)

        # Identical N, all tables served by the same cache.
        assert ckks.params.n == bgv.params.n == bfv.params.n
        q = ckks.evaluator.q_moduli[0]
        assert get_tables(q, 64) is get_tables(q, 64)

        # Each scheme round-trips on its own terms.
        ck = ckks.keygen()
        assert abs(ckks.decrypt_decode_real(
            ckks.encrypt([1.5], ck), ck
        )[0] - 1.5) < 1e-4
        bk = bgv.keygen()
        assert bgv.decrypt(bgv.encrypt([7], bk), bk)[0] == 7
        fk = bfv.keygen()
        assert bfv.decrypt(bfv.encrypt([7], fk), fk)[0] == 7


class TestPaperShapeSummary:
    """One assertion per headline claim, as a cheap integration smoke."""

    def test_headlines(self):
        from repro.baselines import TensorFheNtt
        from repro.core import WarpDriveNtt

        n = 2**13
        wd = WarpDriveNtt(n).throughput_kops(512)
        tf = TensorFheNtt(n).throughput_kops(512)
        assert wd / tf > 5                    # Table VII
        assert 9351 / 4 <= wd <= 9351 * 4     # vs paper SET-B within 4x
        sched = OperationScheduler(ParameterSets.set_c())
        assert sched.kernel_count("keyswitch") == 11  # Table IX
