"""End-to-end serving simulation: conservation, determinism, pressure."""

import json

import pytest

from repro.serving import (
    ServingConfig,
    ServingSimulator,
    default_catalog,
    simulate_serving,
)


@pytest.fixture(scope="module")
def catalog():
    return default_catalog(("boot",))


def config(**kw):
    kw.setdefault("kinds", ("boot",))
    kw.setdefault("rate_per_s", 100.0)
    kw.setdefault("horizon_us", 200_000.0)
    kw.setdefault("seed", 0)
    return ServingConfig(**kw)


class TestConservation:
    def test_every_submitted_job_completes(self, catalog):
        rep = simulate_serving(config(gpus=2), catalog)
        assert rep.submitted > 0
        assert rep.completed == rep.submitted
        assert rep.completed_by_horizon <= rep.completed

    def test_latencies_cover_service_time(self, catalog):
        rep = simulate_serving(config(), catalog)
        assert rep.latency["p50_us"] >= catalog.service_us("boot", 1)
        assert rep.makespan_us > 0

    def test_drain_leaves_fleet_empty(self, catalog):
        sim = ServingSimulator(config(gpus=2), catalog)
        sim.run()
        for dev in sim.fleet.devices:
            assert dev.running is None and not dev.queue
            assert dev.pool.in_use == 0

    def test_simulators_are_single_use(self, catalog):
        sim = ServingSimulator(config(), catalog)
        sim.run()
        with pytest.raises(RuntimeError, match="single-use"):
            sim.run()


class TestDeterminism:
    def test_same_seed_identical_report(self, catalog):
        a = simulate_serving(config(gpus=2, arrival="burst"), catalog)
        b = simulate_serving(config(gpus=2, arrival="burst"), catalog)
        assert (json.dumps(a.to_dict(), sort_keys=True)
                == json.dumps(b.to_dict(), sort_keys=True))

    def test_different_seed_differs(self, catalog):
        a = simulate_serving(config(seed=0), catalog)
        b = simulate_serving(config(seed=1), catalog)
        assert (json.dumps(a.to_dict(), sort_keys=True)
                != json.dumps(b.to_dict(), sort_keys=True))

    def test_rejections_deterministic_under_pressure(self, catalog):
        cfg = config(gpus=1, rate_per_s=400.0,
                     hbm_bytes=2 * 2**30, max_wait_us=2_000.0)
        a = simulate_serving(cfg, catalog)
        b = simulate_serving(cfg, catalog)
        assert a.rejections == b.rejections
        assert a.rejections > 0  # the regime actually exercises admission


class TestEventOrdering:
    def test_completion_beats_arrival_at_equal_time(self, catalog):
        # Engineered tie: all three kinds pushed at t=10 in reverse
        # priority order.  The tag must decide (completions free HBM
        # before same-instant arrivals dispatch), not insertion order.
        import heapq

        from repro.serving.simulator import _ARRIVAL, _COMPLETE, _DEADLINE

        sim = ServingSimulator(config(), catalog)
        sim._push(10.0, _DEADLINE, None)
        sim._push(10.0, _ARRIVAL, "boot")
        sim._push(10.0, _COMPLETE, "sentinel")
        tags = [heapq.heappop(sim._heap)[1] for _ in range(3)]
        assert tags == [_COMPLETE, _ARRIVAL, _DEADLINE]

    def test_equal_tag_ties_keep_insertion_order(self, catalog):
        import heapq

        from repro.serving.simulator import _ARRIVAL

        sim = ServingSimulator(config(), catalog)
        sim._push(10.0, _ARRIVAL, "first")
        sim._push(10.0, _ARRIVAL, "second")
        payloads = [heapq.heappop(sim._heap)[3] for _ in range(2)]
        assert payloads == ["first", "second"]


class TestArrivalModes:
    def test_closed_loop_completes_population(self, catalog):
        cfg = config(arrival="closed", clients=6,
                     think_time_us=5_000.0, horizon_us=150_000.0)
        rep = simulate_serving(cfg, catalog)
        assert rep.submitted >= 6
        assert rep.completed == rep.submitted

    def test_unknown_arrival_rejected(self, catalog):
        with pytest.raises(ValueError, match="unknown arrival"):
            ServingSimulator(config(arrival="adversarial"),
                             catalog).run()


class TestMemoryPressure:
    def test_oversized_batch_is_an_error(self, catalog):
        cfg = config(hbm_bytes=64 * 2**20)  # smaller than one batch
        with pytest.raises(ValueError, match="lower max_batch"):
            simulate_serving(cfg, catalog)

    def test_pinned_policy_waits_out_memory(self, catalog):
        cfg = config(gpus=1, rate_per_s=400.0, policy="round_robin",
                     hbm_bytes=2 * 2**30, max_wait_us=2_000.0)
        rep = simulate_serving(cfg, catalog)
        assert rep.rejections > 0
        assert rep.completed == rep.submitted  # nothing is lost

    def test_memory_aware_defers_and_recovers(self, catalog):
        cfg = config(gpus=2, rate_per_s=400.0, policy="memory_aware",
                     hbm_bytes=2 * 2**30, max_wait_us=2_000.0)
        rep = simulate_serving(cfg, catalog)
        assert rep.completed == rep.submitted


def _rescan_depth(sim) -> int:
    """Requests waiting anywhere: the batcher, the pinned and deferred
    queues, and every device queue (the counter's reference)."""
    waiting = sim.batcher.depth
    waiting += sum(len(fj.jobs) for q in sim._pinned for fj in q)
    waiting += sum(len(fj.jobs) for fj in sim._deferred)
    for dev in sim.fleet.devices:
        waiting += sum(len(fj.jobs) for fj in dev.queue)
    return waiting


class TestWaitingDepth:
    """The waiting-depth counter equals a full queue rescan at every
    event, and the report is identical to one built from the rescan."""

    @pytest.mark.parametrize("policy",
                             ["least_loaded", "round_robin", "memory_aware"])
    @pytest.mark.parametrize("rate", [120.0, 250.0, 400.0])
    def test_counter_matches_rescan(self, catalog, monkeypatch, policy,
                                    rate):
        cfg = config(gpus=2, rate_per_s=rate, policy=policy,
                     hbm_bytes=2 * 2**30, max_wait_us=2_000.0)
        depths = []
        advance = ServingSimulator._advance

        def checked(sim, t):
            depths.append(_rescan_depth(sim))
            assert sim._waiting_depth() == depths[-1]
            advance(sim, t)

        monkeypatch.setattr(ServingSimulator, "_advance", checked)
        counted = ServingSimulator(cfg, catalog).run()
        assert max(depths) > 0
        monkeypatch.setattr(ServingSimulator, "_advance", advance)
        monkeypatch.setattr(ServingSimulator, "_waiting_depth",
                            _rescan_depth)
        rescanned = ServingSimulator(cfg, catalog).run()
        assert counted == rescanned


class TestReportShape:
    def test_report_round_trips_json(self, catalog):
        rep = simulate_serving(config(gpus=2), catalog)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["config"]["gpus"] == 2
        assert set(doc["per_kind"]) == {"boot"}
        assert len(doc["devices"]) == 2
        assert 0.0 <= doc["slo_attainment"] <= 1.0
        assert doc["latency"]["p50_us"] <= doc["latency"]["p99_us"]

    def test_config_embeds_burst_fields(self, catalog):
        cfg = config(arrival="burst", burst_factor=2.0,
                     burst_period_us=100_000.0, burst_duty=0.5)
        doc = simulate_serving(cfg, catalog).to_dict()["config"]
        assert doc["burst_factor"] == 2.0
        assert doc["burst_period_us"] == 100_000.0
        assert doc["burst_duty"] == 0.5

    def test_summary_is_printable(self, catalog):
        rep = simulate_serving(config(), catalog)
        text = rep.summary()
        assert "jobs/s" in text and "p99" in text
