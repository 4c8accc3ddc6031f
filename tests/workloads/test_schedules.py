"""Tests for workload schedules and their pricing."""

import pytest

from repro.ckks import ParameterSets
from repro.core import OperationScheduler
from repro.workloads import (
    WorkloadSchedule,
    helr_iteration_schedule,
    resnet20_schedule,
    simulate_helr_iteration,
    simulate_recorded_bootstrap,
    simulate_resnet20,
    simulate_transcipher,
    transcipher_schedule,
)


@pytest.fixture(scope="module")
def boot_sched():
    return OperationScheduler(ParameterSets.boot())


class TestScheduleContainer:
    def test_add_and_counts(self):
        s = WorkloadSchedule("t").add("hmult", 3, 2).add("hadd", 3, 5)
        counts = s.op_counts()
        assert counts == {"hmult": 2, "hadd": 5}

    def test_hoisted_rotations_are_cheaper(self, boot_sched):
        full = WorkloadSchedule("f").add("hrotate", 10, 10)
        hoisted = WorkloadSchedule("h").add("hrotate", 10, 10, hoisted=True)
        assert (
            hoisted.price(boot_sched).total_us
            < full.price(boot_sched).total_us
        )

    def test_price_caches_per_op_level(self, boot_sched):
        s = WorkloadSchedule("t")
        for _ in range(50):
            s.add("hadd", 5, 1)
        timing = s.price(boot_sched)
        assert timing.total_us > 0

    def test_timing_conversions(self, boot_sched):
        t = WorkloadSchedule("t").add("hadd", 5, 1).price(boot_sched,
                                                          batch=4)
        assert t.total_ms == pytest.approx(t.total_us / 1e3)
        assert t.amortized_ms == pytest.approx(t.total_ms / 4)


class TestBootstrapSchedule:
    """The recorded bootstrap: the one price every schedule's bootstrap
    count is multiplied by."""

    def test_contains_all_stages(self, boot_sched):
        t = simulate_recorded_bootstrap(scheduler=boot_sched)
        for phase in ("StC", "ModRaise", "CtS", "EvalMod"):
            assert t.breakdown[phase] > 0

    def test_simulated_time_in_range(self, boot_sched):
        """Paper: 121 ms at BS=1; the simulator's documented optimism is
        ~2x, so accept 20-200 ms."""
        t = simulate_recorded_bootstrap(scheduler=boot_sched)
        assert 20 < t.total_ms < 200

    def test_batching_amortizes(self, boot_sched):
        t1 = simulate_recorded_bootstrap(scheduler=boot_sched, batch=1)
        t16 = simulate_recorded_bootstrap(scheduler=boot_sched, batch=16)
        assert t16.amortized_ms < t1.amortized_ms


class TestHelrSchedule:
    def test_iteration_has_sigmoid_and_boot(self):
        sched = helr_iteration_schedule()
        assert any("sigmoid" in i.note for i in sched.items)
        assert sched.bootstraps == 0.5
        assert helr_iteration_schedule(boot_period=4).bootstraps == 0.25

    def test_time_comparable_to_boot(self):
        """Paper: HELR 113 ms/iter vs Boot 121 ms — same scale."""
        helr = simulate_helr_iteration()
        boot = simulate_recorded_bootstrap()
        assert 0.5 < helr.total_ms / boot.total_ms < 2.5


class TestResnetSchedule:
    def test_includes_bootstraps(self):
        # Two residual-path ciphertexts per refresh.
        sched = resnet20_schedule()
        assert sched.bootstraps > 0
        assert sched.bootstraps % 2 == 0
        assert not any("boot" in i.note for i in sched.items)

    def test_all_stages_present(self):
        notes = {i.note for i in resnet20_schedule().items}
        assert any("stem" in n for n in notes)
        assert any("s2b2" in n for n in notes)
        assert any("fc" in n for n in notes)

    def test_total_seconds_in_range(self):
        """Paper: 5.88 s at BS=1; accept 1-12 s given sim optimism."""
        t = simulate_resnet20()
        assert 1.0 < t.total_s < 12.0

    def test_resnet_much_slower_than_boot(self):
        assert simulate_resnet20().total_us > 10 * (
            simulate_recorded_bootstrap().total_us)


class TestTranscipherSchedule:
    def test_ten_rounds(self):
        from repro.workloads.aes_transcipher import _BOOTS_PER_ROUND

        sched = transcipher_schedule()
        notes = {i.note for i in sched.items}
        for rnd in range(10):
            assert any(n.startswith(f"round{rnd}.") for n in notes)
        assert sched.bootstraps == 10 * _BOOTS_PER_ROUND
        assert not any("boot" in n for n in notes)

    def test_latency_in_range(self):
        """Paper: 3.5 min; accept 0.7-7 given sim optimism."""
        r = simulate_transcipher()
        assert 0.7 < r.latency_min < 7.0

    def test_beats_cpu_baseline(self):
        from repro.workloads import cpu_transcipher_minutes

        r = simulate_transcipher()
        assert cpu_transcipher_minutes() / r.latency_min > 10

    def test_throughput_metric(self):
        r = simulate_transcipher()
        assert r.throughput_kb_per_s > 0
