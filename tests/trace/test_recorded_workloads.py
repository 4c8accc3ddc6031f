"""Recorded workload pricing and the trace-derived hoisting factor."""

import pytest

from repro.ckks.params import ParameterSets
from repro.core import OperationScheduler
from repro.workloads import (
    WorkloadSchedule,
    WorkloadTiming,
    derived_hoisted_rotation_factor,
    record_bootstrap_trace,
    recorded_workload_timing,
    simulate_recorded_bootstrap,
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


class TestRecordedWorkloadTiming:
    def test_embedded_bootstraps_replaced(self, set_c_scheduler):
        sched = WorkloadSchedule("w")
        sched.add("hadd", 10, 3, note="core.add")
        sched.add("hadd", 14, 0.5, note="boot.ModRaise")
        sched.add("hmult", 11, 4, note="boot.EvalMod.baby")
        recorded_boot = WorkloadTiming(name="b", total_us=1000.0, batch=1)
        core_only = WorkloadSchedule("w")
        core_only.add("hadd", 10, 3, note="core.add")
        expected_core = core_only.price(set_c_scheduler).total_us

        timing = recorded_workload_timing(
            sched, set_c_scheduler, recorded_boot=recorded_boot)
        assert timing.breakdown["boot(recorded)"] == pytest.approx(500.0)
        assert timing.total_us == pytest.approx(expected_core + 500.0)

    def test_multiple_bootstraps_counted(self, set_c_scheduler):
        sched = WorkloadSchedule("w")
        sched.add("hadd", 14, 2, note="boot0.ModRaise")
        sched.add("hadd", 14, 2, note="boot1.ModRaise")
        recorded_boot = WorkloadTiming(name="b", total_us=10.0, batch=1)
        timing = recorded_workload_timing(
            sched, set_c_scheduler, recorded_boot=recorded_boot)
        assert timing.total_us == pytest.approx(40.0)
