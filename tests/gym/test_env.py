"""TuningEnv: action space, pricing, caching, trajectories.

Everything here runs on the cheap ``op:<name>`` workloads — one
scheduler plan per evaluation, no functional recording — so the suite
stays tier-1 fast.
"""

import pytest

from repro.gym import DEFAULT_SEARCH_KNOBS, TuningEnv
from repro.tuning import TuningConfig, UnknownKnob, all_knobs


def test_action_space_comes_from_declared_domains():
    env = TuningEnv("op:hmult")
    space = env.space()
    assert set(space) == set(DEFAULT_SEARCH_KNOBS)
    specs = all_knobs()
    for name, pts in space.items():
        assert pts == specs[name].domain.points()


def test_default_assignment_is_registry_defaults():
    env = TuningEnv("op:hmult")
    specs = all_knobs()
    assert env.default_assignment() == {
        name: specs[name].resolve_default()
        for name in DEFAULT_SEARCH_KNOBS
    }


def test_rejects_unknown_workload_objective_and_knobs():
    with pytest.raises(ValueError, match="workload"):
        TuningEnv("nonsense")
    with pytest.raises(ValueError, match="objective"):
        TuningEnv("op:hmult", objective="vibes")
    with pytest.raises(UnknownKnob):
        TuningEnv("op:hmult", knobs=("no.such",))


def test_step_prices_and_logs():
    env = TuningEnv("op:hmult")
    action = env.reset(seed=7)
    _, reward, info = env.step(action)
    assert reward == -info["latency_us"] < 0
    assert info["cached"] is False
    assert len(env.trajectory.points) == 1
    assert env.trajectory.seed == 7
    point = env.trajectory.points[0]
    assert point.assignment == action
    assert point.latency_us == info["latency_us"]


def test_step_result_depends_on_assignment():
    env = TuningEnv("op:hmult")
    _, slow, _ = env.step({"ntt.variant": "wd-cuda"})
    _, fast, _ = env.step({"ntt.variant": "wd-fuse"})
    assert slow != fast  # the knob actually reaches the priced stack


def test_evaluation_cache_hits_on_revisit():
    env = TuningEnv("op:hmult")
    action = env.default_assignment()
    _, r1, info1 = env.step(action)
    _, r2, info2 = env.step(action)
    assert info1["cached"] is False and info2["cached"] is True
    assert r1 == r2


def test_cache_survives_reset():
    env = TuningEnv("op:hmult")
    action = env.reset()
    env.step(action)
    env.reset(seed=1)
    _, _, info = env.step(action)
    assert info["cached"] is True
    assert len(env.trajectory.points) == 1  # trajectory did restart


def test_throughput_objective_scales_with_batch():
    env = TuningEnv("op:hmult", objective="throughput_per_gb",
                    knobs=("serving.batch",))
    _, r1, i1 = env.step({"serving.batch": 1})
    _, r8, i8 = env.step({"serving.batch": 8})
    assert r1 > 0 and r8 > 0
    # Batching amortizes launch overhead: 8 ops cost less than 8x one.
    assert i8["latency_us"] < 8 * i1["latency_us"]


def test_base_config_pins_unsearched_knobs():
    base = TuningConfig({"params.set": "SET-B"})
    env = TuningEnv("op:hmult", base=base)
    _, reward_b, _ = env.step(env.default_assignment())
    _, reward_c, _ = TuningEnv("op:hmult").step(
        TuningEnv("op:hmult").default_assignment()
    )
    assert reward_b != reward_c  # smaller set, different pricing


def test_trajectory_logs_backend_and_base_knobs():
    """Every trajectory logs the unsearched knobs the episode ran under,
    and a reset keeps them."""
    env = TuningEnv("op:hmult")
    d = env.trajectory.to_dict()
    assert d["base"]["params.set"] == "SET-C"
    assert "ntt.variant" not in d["base"]  # searched, logged per point
    env.reset(seed=2)
    assert env.trajectory.to_dict()["base"] == d["base"]


def test_trajectory_best_and_curve():
    env = TuningEnv("op:hmult")
    for variant in ("wd-cuda", "wd-fuse", "wd-tensor"):
        env.step({"ntt.variant": variant})
    traj = env.trajectory
    curve = traj.best_curve()
    assert len(curve) == 3
    assert curve == sorted(curve)  # best-so-far is monotone
    assert traj.best.reward == max(p.reward for p in traj.points)
    d = traj.to_dict()
    assert d["best"]["reward"] == traj.best.reward
    assert len(d["points"]) == 3
