"""Table XIV: FHE workload performance (Boot, HELR, ResNet-20).

Prices the workloads at the Table XIII parameter sets at both of the
paper's batch sizes (BS=1 and BS=16), printing every published
comparison row (TensorFHE, 100x, [47], GME).

The headline rows are *recorded*: the functional bootstrap runs under
:mod:`repro.trace` at proxy ring scale, the recording lowers to a PE
kernel DAG at the full ring, and the DAG is priced on the
dependency-aware scheduler. The hand-counted schedules stay as the
cross-check oracle, priced with the trace-derived hoisting factor: this
test asserts the recorded Boot, HELR and ResNet rows each land within
10% of their hand count (DESIGN.md §10).
"""

from repro.analysis import format_table
from repro.baselines.published import TABLE_XIV_WORKLOADS
from repro.ckks import ParameterSets
from repro.core import OperationScheduler
from repro.workloads import (
    simulate_bootstrap,
    simulate_helr_iteration,
    simulate_recorded_bootstrap,
    simulate_recorded_helr_iteration,
    simulate_recorded_resnet20,
    simulate_resnet20,
)


def measure():
    boot_sched = OperationScheduler(ParameterSets.boot())
    nn_sched = OperationScheduler(ParameterSets.resnet())
    helr = ParameterSets.helr()
    out = {}
    for bs in (1, 16):
        out[bs] = {
            "boot_ms": simulate_recorded_bootstrap(
                scheduler=boot_sched, batch=bs
            ).amortized_ms,
            "helr_ms": simulate_recorded_helr_iteration(
                helr, scheduler=nn_sched, batch=bs
            ).amortized_ms,
            "resnet_s": simulate_recorded_resnet20(
                scheduler=nn_sched, batch=bs
            ).amortized_ms / 1e3,
            # Hand-counted oracles for the agreement asserts.
            "hand_boot_ms": simulate_bootstrap(
                scheduler=boot_sched, batch=bs
            ).amortized_ms,
            "hand_helr_ms": simulate_helr_iteration(
                helr, scheduler=nn_sched, batch=bs
            ).amortized_ms,
            "hand_resnet_s": simulate_resnet20(
                scheduler=nn_sched, batch=bs
            ).amortized_ms / 1e3,
        }
    return out


def build_table(data):
    rows = []
    for scheme, vals in TABLE_XIV_WORKLOADS.items():
        rows.append([
            f"{scheme} (paper)",
            vals["boot_ms"], vals["helr_ms"], vals["resnet_s"],
            vals["batch"],
        ])
    for bs in (1, 16):
        rows.append([
            f"This repro BS={bs} (recorded)",
            round(data[bs]["boot_ms"], 1),
            round(data[bs]["helr_ms"], 1),
            round(data[bs]["resnet_s"], 2),
            bs,
        ])
        rows.append([
            f"This repro BS={bs} (hand)",
            round(data[bs]["hand_boot_ms"], 1),
            round(data[bs]["hand_helr_ms"], 1),
            round(data[bs]["hand_resnet_s"], 2),
            bs,
        ])
    return format_table(
        ["scheme", "Boot (ms)", "HELR (ms/it)", "ResNet (s)", "BS"],
        rows,
        title="Table XIV — FHE workload performance (amortized)",
        col_width=14,
    )


def test_table14_workloads(benchmark, record_table):
    data = benchmark(measure)
    record_table("table14_workloads", build_table(data))

    pub = TABLE_XIV_WORKLOADS
    ours = data[1]
    # Beats 100x on V100 (paper: 328 ms boot, 775 ms/it HELR at BS=1).
    assert ours["boot_ms"] < pub["100x (V100)"]["boot_ms"]
    assert ours["helr_ms"] < pub["100x (V100)"]["helr_ms"]
    # Beats the GME software baseline on MI100.
    assert ours["boot_ms"] < pub["GME-Baseline (MI100)"]["boot_ms"]
    assert ours["resnet_s"] < pub["GME-Baseline (MI100)"]["resnet_s"]
    # But not the GME modified-hardware accelerator (paper concedes this).
    assert ours["resnet_s"] > pub["GME (modified MI100)"]["resnet_s"]
    # Batching improves amortized time.
    assert data[16]["boot_ms"] <= data[1]["boot_ms"]
    # Within ~3.5x of the paper's own WarpDrive rows.
    paper_bs1 = pub["WarpDrive BS=1 (A100-PCIE-80G)"]
    for key in ("boot_ms", "helr_ms", "resnet_s"):
        ratio = ours[key] / paper_bs1[key]
        assert 0.2 < ratio < 3.5, f"{key}: x{ratio:.2f} of paper"

    # Recorded-vs-hand agreement (the trace layer's acceptance bar).
    for bs in (1, 16):
        d = data[bs]
        for rec_key, hand_key in (("boot_ms", "hand_boot_ms"),
                                  ("helr_ms", "hand_helr_ms"),
                                  ("resnet_s", "hand_resnet_s")):
            ratio = d[rec_key] / d[hand_key]
            assert 0.90 < ratio < 1.10, (
                f"BS={bs} recorded {rec_key} x{ratio:.3f} of hand count"
            )
