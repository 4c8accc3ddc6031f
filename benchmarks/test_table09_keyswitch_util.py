"""Table IX: KeySwitch kernel count and utilization, 100x_opt vs WarpDrive.

The PE-kernel experiment (§IV-C / Fig. 4): WarpDrive's ciphertext-level
KeySwitch is a fixed 11 kernels at every parameter set, versus the growing
polynomial-level launch count of 100x_opt, with higher compute
utilization.
"""

from repro.analysis import format_table
from repro.baselines import HundredXOps
from repro.baselines.published import TABLE_IX_KEYSWITCH
from repro.ckks import ParameterSets
from repro.core import OperationScheduler

SETS = ["SET-C", "SET-D", "SET-E"]


def measure():
    data = {}
    for s in SETS:
        params = ParameterSets.by_name(s)
        data[s] = {
            "100x_opt": HundredXOps(params).keyswitch_profile(),
            "WarpDrive": OperationScheduler(params).profile("keyswitch"),
        }
    return data


def build_table(data):
    pub = TABLE_IX_KEYSWITCH
    rows = []
    for metric, key in (("Kernel num", "kernels"),
                        ("Compute util %", "compute_util"),
                        ("Memory util %", "memory_util")):
        for scheme in ("100x_opt", "WarpDrive"):
            rows.append(
                [f"{metric}: {scheme} (sim)"]
                + [round(data[s][scheme][key], 1) for s in SETS]
            )
            rows.append(
                ["  paper"] + [pub[scheme][key][s] for s in SETS]
            )
        if key == "kernels":
            rows.append(
                ["Reduction (sim)"]
                + [f"{100 * (1 - data[s]['WarpDrive'][key] / data[s]['100x_opt'][key]):.1f}%"
                   for s in SETS]
            )
            rows.append(["  paper"] + ["81.4%", "87.8%", "90.0%"])
    return format_table(
        ["metric / scheme"] + SETS, rows,
        title="Table IX — KeySwitch kernels and utilization",
        col_width=14,
    )


def test_table09_keyswitch_util(benchmark, record_table):
    data = benchmark(measure)
    record_table("table09_keyswitch_util", build_table(data))

    for s in SETS:
        # WarpDrive: fixed 11 kernels (the paper's exact number).
        assert data[s]["WarpDrive"]["kernels"] == 11
        # Kernel reduction at least 80% (paper: 81.4-90.0%).
        reduction = 1 - 11 / data[s]["100x_opt"]["kernels"]
        assert reduction > 0.8
        # PE kernels raise compute utilization (paper: 1.13-1.87x).
        assert (data[s]["WarpDrive"]["compute_util"]
                > data[s]["100x_opt"]["compute_util"])
    # The 100x_opt launch count grows with the set; WarpDrive's doesn't.
    counts = [data[s]["100x_opt"]["kernels"] for s in SETS]
    assert counts == sorted(counts) and counts[0] < counts[-1]
