"""One-shot reproduction summary: ``python -m repro.reproduce``.

Runs the headline experiments (no pytest needed) and prints paper-style
tables with the published numbers alongside. For the full set of tables
and figures run ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import sys

from .analysis import (dagcheck_gate_summary, format_table,
                       lint_gate_summary)
from .baselines import TensorFheNtt, cpu_ntt_throughput_kops
from .baselines.published import TABLE_VII_NTT_KOPS, TABLE_VIII_LATENCY_US
from .ckks import ParameterSets
from .core import VARIANTS, OperationScheduler, WarpDriveNtt


def ntt_summary() -> str:
    sets = ["SET-A", "SET-B", "SET-C", "SET-D", "SET-E"]
    rows = []
    wd_row, tf_row = ["WarpDrive (sim)"], ["TensorFHE (sim)"]
    for s in sets:
        n = ParameterSets.by_name(s).n
        wd_row.append(round(WarpDriveNtt(n).throughput_kops(1024)))
        tf_row.append(round(TensorFheNtt(n).throughput_kops(1024), 1))
    rows.append(tf_row)
    rows.append(["  paper"] + [TABLE_VII_NTT_KOPS["TensorFHE"][s]
                               for s in sets])
    rows.append(wd_row)
    rows.append(["  paper"] + [TABLE_VII_NTT_KOPS["WarpDrive"][s]
                               for s in sets])
    rows.append(
        ["CPU (sim)"]
        + [round(cpu_ntt_throughput_kops(ParameterSets.by_name(s).n), 2)
           if ParameterSets.by_name(s).n <= 2**14 else None
           for s in sets]
    )
    return format_table(["scheme"] + sets, rows,
                        title="NTT throughput, KOPS (Table VII)")


def variant_summary() -> str:
    n = 2**16
    rows = [
        [v, round(WarpDriveNtt(n, variant=v).throughput_kops(1024))]
        for v in VARIANTS
    ]
    return format_table(
        ["variant", "KOPS"], rows,
        title="NTT variants at N=2^16 (Fig. 6) — fused beats single-pipe",
    )


def hmult_summary() -> str:
    sets = ["SET-C", "SET-D", "SET-E"]
    rows = []
    sim = ["WarpDrive HMULT us (sim)"]
    for s in sets:
        sim.append(round(
            OperationScheduler(ParameterSets.by_name(s)).latency_us("hmult")
        ))
    rows.append(sim)
    rows.append(
        ["  paper"]
        + [TABLE_VIII_LATENCY_US["HMULT"]["WarpDrive"][s] for s in sets]
    )
    return format_table(["metric"] + sets, rows,
                        title="HMULT latency (Table VIII)")


def trace_summary() -> str:
    from .gpusim import profile_cache_stats
    from .workloads import (
        derived_hoisted_rotation_factor,
        simulate_bootstrap,
        simulate_recorded_bootstrap,
    )

    set_c = OperationScheduler(ParameterSets.set_c())
    boot = OperationScheduler(ParameterSets.boot())
    hand = simulate_bootstrap(scheduler=boot)
    rec = simulate_recorded_bootstrap(scheduler=boot)
    cache = profile_cache_stats()
    rows = [
        ["hoisting factor (SET-C)",
         round(derived_hoisted_rotation_factor(set_c), 3), None],
        ["Boot total ms", round(rec.total_ms, 1), round(hand.total_ms, 1)],
        ["profile cache hit/miss",
         f"{cache['hits']}/{cache['misses']}", None],
    ]
    return format_table(
        ["metric", "traced", "hand-counted"], rows,
        title="Trace-driven pricing vs hand counts (DESIGN.md §10)",
        col_width=14,
    )


def dagopt_summary() -> str:
    """Trace-DAG optimizer results (DESIGN.md §12).

    Reads ``BENCH_dagopt.json`` when the benchmark has been run;
    otherwise optimizes the recorded SET-C bootstrap live at proxy scale
    (mirroring how :func:`~repro.analysis.lint_gate_summary` degrades
    gracefully without a saved baseline).
    """
    import json
    import os

    rows = []
    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "BENCH_dagopt.json")
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
        for w in data["workloads"]:
            rows.append([
                w["name"], round(w["baseline_us"], 1),
                round(w["best_us"], 1), f"{w['speedup']:.2f}x",
                f"{w['kernels_before']}->{w['kernels_after']}",
            ])
        title = "Trace-DAG optimizer (BENCH_dagopt.json)"
    else:
        from .trace import lower_trace
        from .trace.opt import optimize_trace, schedule_search
        from .workloads import record_bootstrap_trace

        tr = record_bootstrap_trace()
        opt, _ = optimize_trace(tr)
        base = lower_trace(tr, style="pe")
        od = lower_trace(opt, style="pe")
        base_us = base.run().elapsed_us
        _, scores = schedule_search(od)
        best = min(scores.values())
        rows.append([
            "SET-C boot (proxy)", round(base_us, 1), round(best, 1),
            f"{base_us / best:.2f}x",
            f"{base.kernel_count}->{od.kernel_count}",
        ])
        title = "Trace-DAG optimizer (live proxy run; see bench_dagopt)"
    return format_table(
        ["workload", "recorded us", "optimized us", "speedup", "kernels"],
        rows, title=title, col_width=13,
    )


def serving_summary() -> str:
    """Multi-GPU serving results (DESIGN.md §13).

    Reads ``BENCH_serving.json`` when the benchmark has been run;
    otherwise simulates one small boot-only fleet sweep live.
    """
    import json
    import os

    rows = []
    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "BENCH_serving.json")
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
        for w in data["scaling"]:
            for f in w["fleets"]:
                rows.append([
                    w["workload"], f["gpus"],
                    round(f["throughput_jobs_per_s"], 1),
                    round(f["p99_us"] / 1e3, 1),
                    f"x{f['throughput_jobs_per_s'] / w['fleets'][0]['throughput_jobs_per_s']:.2f}",
                ])
        title = (
            "Multi-GPU serving (BENCH_serving.json; memory-aware p99 "
            f"x{data['headline']['memory_aware_vs_round_robin_p99']:.2f} "
            "vs round-robin, dagopt thr "
            f"x{data['headline']['dagopt_throughput_gain']:.2f})"
        )
    else:
        from .serving import ServingConfig, ServingSimulator, default_catalog

        catalog = default_catalog(("boot",))
        base = None
        for gpus in (1, 2, 4):
            rep = ServingSimulator(ServingConfig(
                gpus=gpus, kinds=("boot",), rate_per_s=800.0,
                horizon_us=300_000.0, seed=0), catalog).run()
            thr = rep.throughput_jobs_per_s
            base = thr if base is None else base
            rows.append([
                "boot-only", gpus, round(thr, 1),
                round(rep.latency["p99_us"] / 1e3, 1),
                f"x{thr / base:.2f}",
            ])
        title = "Multi-GPU serving (live run; see bench_serving)"
    return format_table(
        ["workload", "gpus", "jobs/s", "p99 ms", "scaling"],
        rows, title=title, col_width=11,
    )


def gym_summary() -> str:
    """Knob-space search results (DESIGN.md §14).

    Reads ``BENCH_gym.json`` when the benchmark has been run; otherwise
    runs one short live hill-climb over a cheap op-level workload so the
    summary still shows the declared-knob search working end to end.
    The ``backend`` row surfaces the env-declared knob that replaced the
    bare ``REPRO_BACKEND`` lookup.
    """
    import json
    import os

    from .tuning import knob_default

    rows = []
    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "BENCH_gym.json")
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
        for r in data["searchers"]:
            rows.append([
                r["searcher"], r["evaluations"],
                round(r["baseline_latency_us"], 1),
                round(r["best_latency_us"], 1),
                f"{r['baseline_latency_us'] / r['best_latency_us']:.2f}x",
            ])
        title = (
            f"Tuning gym on {data['workload']} (BENCH_gym.json; "
            f"{data['best_searcher']} beats hand-picked config "
            f"{data['speedup_vs_hand_picked']:.2f}x, seed-deterministic)"
        )
    else:
        from .gym import TuningEnv, hill_climb

        result = hill_climb(TuningEnv("op:hmult"), steps=6, seed=0)
        rows.append([
            result.searcher, result.evaluations,
            round(result.baseline_latency_us, 1),
            round(result.best_latency_us, 1),
            f"{result.baseline_latency_us / result.best_latency_us:.2f}x",
        ])
        title = "Tuning gym on op:hmult (live run; see bench_gym)"
    rows.append(["backend knob", None, None, None,
                 knob_default("backend")])
    return format_table(
        ["searcher", "evals", "baseline us", "best us", "gain"],
        rows, title=title, col_width=12,
    )


def main(argv=None) -> int:
    print("WarpDrive reproduction — headline results")
    print("=" * 64)
    for section in (ntt_summary, variant_summary, hmult_summary,
                    trace_summary, dagopt_summary, serving_summary,
                    gym_summary, lint_gate_summary, dagcheck_gate_summary):
        print()
        print(section())
    print()
    print("Full tables/figures: pytest benchmarks/ --benchmark-only")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
