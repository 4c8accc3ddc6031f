"""Tests of the benchmark harness: ``python -m pytest bench/tests -q``."""

import json
import subprocess
import sys

import pytest

from bench import compare, harness, spec, workloads
from bench.stats import percentile
from bench.tracer import ROOT as ROOT_SPAN, Tracer

RUN = spec.ROOT / "bench" / "run.py"


def test_tail_percentile_on_known_samples():
    xs = list(range(1, 11))
    assert percentile(xs, 50) == 5.5
    assert percentile(xs, 90) == pytest.approx(9.1)
    assert percentile([7.0], 90) == 7.0
    metrics = harness.end_to_end([x / 1e3 for x in xs], [2.0, 1.0, 3.0])
    assert metrics["wall_p50_ms"] == (5.5, "ms")
    assert metrics["wall_p90_ms"][0] == pytest.approx(9.1)
    assert metrics["setup_s"] == (2.0, "s")
    assert metrics["ops_per_s"][0] == pytest.approx(10 / 0.055)


def test_tracer_self_time_on_synthetic_tree():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    inner = tracer.wrap("inner", lambda: tick(10))

    def outer_fn():
        tick(5)
        inner()
        tick(3)
        inner()
        tick(2)

    outer = tracer.wrap("outer", outer_fn)
    with tracer.request_span(7, keep=True):
        tick(1)
        outer()
    st = tracer.stats
    assert (st["outer"].calls, st["outer"].total_ns, st["outer"].self_ns) \
        == (1, 30, 10)
    assert (st["inner"].calls, st["inner"].total_ns, st["inner"].self_ns) \
        == (2, 20, 20)
    assert (st[ROOT_SPAN].total_ns, st[ROOT_SPAN].self_ns) == (31, 1)
    assert tracer.pairs[("outer", "inner")] == 2
    by_name = {s[2]: s for s in tracer.spans}
    assert by_name["inner"][1] == by_name["outer"][0]  # parent span id
    assert {s[5] for s in tracer.spans} == {7}         # request id
    rows = {e["tid"] for e in tracer.chrome_trace("t")["traceEvents"]
            if e["ph"] == "X"}
    assert rows == {1}


def test_by_name_rebinding_wraps_and_restores():
    import repro.ckks
    import repro.ckks.ops as ops
    from repro.backend import active_backend

    ks_module = sys.modules["repro.ckks.keyswitch"]
    original = ks_module.keyswitch
    backend = active_backend()
    tracer = Tracer()
    targets = (("ckks.keyswitch", "repro.ckks.keyswitch:keyswitch"),
               ("backend.ntt_forward", "backend:ntt_forward"),
               ("gone", "repro.no_such_module:f"))
    with tracer.patched(targets):
        assert ops.keyswitch is not original
        assert ops.keyswitch.__wrapped__ is original
        assert ks_module.keyswitch is ops.keyswitch
        assert repro.ckks.keyswitch is ops.keyswitch
        assert "ntt_forward" in vars(backend)
    assert ops.keyswitch is original and repro.ckks.keyswitch is original
    assert "ntt_forward" not in vars(backend)
    assert tracer.unresolved == ["repro.no_such_module:f"]


def test_corrupted_output_counts_in_fail_ratio(monkeypatch):
    from repro.workloads.helr import EncryptedLogisticRegression

    train = EncryptedLogisticRegression.train
    calls = []

    def corrupt_second(self, *args, **kwargs):
        calls.append(1)
        out = train(self, *args, **kwargs)
        return out + 1.0 if len(calls) == 2 else out

    monkeypatch.setattr(EncryptedLogisticRegression, "train", corrupt_second)
    result = harness.run_workload("helr-train", seed=0, seconds=0.0,
                                  trace=False, quick=True)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["metrics"]["fail_ratio"]["value"] == 0.5
    assert not result["correct"]
    assert "max error" in result["failures"][0]


def _sim_metrics(workload, state, seed):
    records = harness.measure(workload, state, seed, 0.0)
    sample = [r.obs for r in records[:workload.sample]]
    extras = workload.extras(state, sample, [(r.latency_s, r.obs)
                                             for r in records[1:]])
    return {k: v for k, v in extras.items()
            if spec.bounded_metrics(spec.load_benchmark())[k].clock == "sim"}


@pytest.mark.parametrize("name", ["price-mix", "serve-open"])
def test_sim_metrics_repeat_per_seed(name):
    workload = workloads.make(name, quick=True)
    state = workload.setup()
    first = _sim_metrics(workload, state, 1)
    assert first and first == _sim_metrics(workload, state, 1)
    assert _sim_metrics(workload, state, 2) != first


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_last_line_holds_the_benchmark_metric_set(trace, section,
                                                  tmp_path):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "helr-train", "--quick",
         "--seconds", "0", "--trace", str(trace),
         "--out", str(tmp_path / "result.json")],
        capture_output=True, text=True, timeout=120, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec.load_benchmark()[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want


def test_every_layer_metric_says_what_it_moves():
    benchmark = spec.load_benchmark()
    names = [m["name"] for m in benchmark["per_layer"]]
    assert len(names) == len(set(names)) <= 128
    e2e = spec.bounded_metrics(benchmark)
    workload_names = {w["name"] for w in benchmark["workloads"]}
    for name in names:
        for metric, workload in spec.moves(name):
            assert metric in e2e and workload in workload_names


def test_compare_verdicts_and_claim_rule():
    m = spec.MetricSpec("wall_p50_ms", "ms", "lower", "wall", rel_bound=0.1)
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(m, a, [105.0] * 5) == "within bound"
    assert compare.verdict(m, a, [115.0] * 5) == "worse"
    assert compare.verdict(m, [80.0, 100.0, 120.0, 90.0, 110.0],
                           [100.0] * 5) == "unresolved"
    sim = spec.MetricSpec("sim_us", "us", "lower", "sim", rel_bound=0.001,
                          paired=True)
    seeds = [100.0, 300.0, 200.0]  # spread across seeds is not noise
    assert compare.verdict(sim, seeds, list(seeds)) == "within bound"
    assert compare.verdict(sim, seeds, [100.0, 300.0, 201.0]) == "worse"
    assert compare.claim(m, a, [90.0] * 5)["met"]
    assert not compare.claim(m, a, [90.0, 90.0, 90.0, 90.0, 101.5])["met"]
