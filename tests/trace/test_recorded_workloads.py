"""Recorded workload pricing and the trace-derived hoisting factor."""

import pytest

from repro.ckks.params import ParameterSets
from repro.core import OperationScheduler
from repro.workloads import (
    WorkloadSchedule,
    derived_hoisted_rotation_factor,
    record_bootstrap_trace,
    simulate_recorded_bootstrap,
    simulate_transcipher,
    transcipher_schedule,
)


@pytest.fixture(scope="module")
def set_c_scheduler():
    return OperationScheduler(ParameterSets.set_c())


class TestDerivedFactor:
    def test_set_c_factor_matches_hand_tuned_constant(self, set_c_scheduler):
        # The retired hand-tuned constant (0.35) was eyeballed for SET-C;
        # the trace-derived value must land within +-20% of it.
        factor = derived_hoisted_rotation_factor(set_c_scheduler)
        assert factor == pytest.approx(0.35, rel=0.20)

    def test_factor_cached(self, set_c_scheduler):
        a = derived_hoisted_rotation_factor(set_c_scheduler)
        b = derived_hoisted_rotation_factor(set_c_scheduler)
        assert a == b

    def test_pricing_uses_derived_factor(self, set_c_scheduler):
        sched = WorkloadSchedule("rot")
        sched.add("hrotate", 10, 1)
        sched.add("hrotate", 10, 7, hoisted=True)
        single = set_c_scheduler.simulate("hrotate", level=10).elapsed_us
        factor = derived_hoisted_rotation_factor(set_c_scheduler)
        assert sched.price(set_c_scheduler).total_us == pytest.approx(
            single * (1 + 7 * factor))


class TestRecordedBootstrap:
    def test_set_c_bootstrap_records_and_prices(self, set_c_scheduler):
        # The acceptance path: functional SET-C bootstrap recorded at
        # proxy ring scale, lowered to a PE kernel DAG at N=2^14,
        # priced end-to-end on the DAG scheduler.
        timing = simulate_recorded_bootstrap(
            ParameterSets.set_c(), scheduler=set_c_scheduler,
            proxy_log2n=9,
        )
        assert timing.total_us > 0
        for phase in ("StC", "ModRaise", "CtS", "EvalMod"):
            assert timing.breakdown[phase] > 0

    def test_trace_cached_per_chain_and_knobs(self):
        a = record_bootstrap_trace(ParameterSets.set_c(), proxy_log2n=9)
        b = record_bootstrap_trace(ParameterSets.set_c(), proxy_log2n=9)
        assert a is b

    def test_trace_has_all_bootstrap_phases(self):
        trace = record_bootstrap_trace(ParameterSets.set_c(), proxy_log2n=9)
        assert trace.ops() == ["StC", "ModRaise", "CtS", "EvalMod"]
        counts = trace.kind_counts()
        for kind in ("ntt", "intt", "modup", "moddown", "inner_product",
                     "tensor_product", "divide", "modadd"):
            assert counts.get(kind, 0) > 0, kind


class TestBootstrapCount:
    """``WorkloadSchedule.price`` adds ``bootstraps`` recorded bootstraps."""

    @pytest.fixture(scope="class")
    def boot_scheduler(self):
        return OperationScheduler(ParameterSets.boot())

    def test_price_adds_recorded_bootstraps(self, boot_scheduler):
        core = WorkloadSchedule("w")
        core.add("hadd", 10, 3, note="core.add")
        core.add("hmult", 11, 4, note="core.mult")
        expected_core = core.price(boot_scheduler).total_us
        boot_us = simulate_recorded_bootstrap(
            scheduler=boot_scheduler).total_us

        core.bootstraps = 0.5
        timing = core.price(boot_scheduler)
        assert timing.breakdown["boot(recorded)"] == 0.5 * boot_us
        assert timing.total_us == pytest.approx(expected_core + 0.5 * boot_us)

    def test_no_bootstraps_no_boot_entry(self, boot_scheduler):
        timing = WorkloadSchedule("w").add("hadd", 10, 3).price(
            boot_scheduler)
        assert "boot(recorded)" not in timing.breakdown

    def test_transcipher_bootstraps_recorded(self):
        aes = OperationScheduler(ParameterSets.aes())
        boot_us = simulate_recorded_bootstrap(
            ParameterSets.aes(), scheduler=aes).total_us
        timing = simulate_transcipher(scheduler=aes).timing
        assert timing.breakdown["boot(recorded)"] == pytest.approx(
            transcipher_schedule().bootstraps * boot_us)
